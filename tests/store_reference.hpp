// Test helper: an independent reference for CrossbarWeightStore's effective
// weights. It is built from public accessors only (the logical mapping, the
// tile grid, each leg's analog read-out and the encoding's decode), so it
// checks the store's packed panel cache instead of reading it back.
#pragma once

#include <gtest/gtest.h>

#include <cstring>

#include "rcs/crossbar_store.hpp"
#include "tensor/ops.hpp"

namespace refit {

/// W_eff(i, j): the weight the chip computes for logical (i, j), decoded
/// against the current off-chip target as the sign hint.
inline Tensor reference_effective(const CrossbarWeightStore& store) {
  const TileGrid& grid = store.grid();
  const LogicalMapping& map = store.mapping();
  Tensor w({store.rows(), store.cols()});
  for (std::size_t i = 0; i < store.rows(); ++i) {
    const std::size_t r = map.physical_row(i);
    for (std::size_t j = 0; j < store.cols(); ++j) {
      const std::size_t c = map.physical_col(j);
      const TileGrid::Coord tc = grid.locate(r, c);
      const std::size_t ti = r / grid.tile_rows(), tj = c / grid.tile_cols();
      double g[kMaxEncodingLegs] = {0.0, 0.0};
      g[0] = store.tile(ti, tj).effective_conductance(tc.lr, tc.lc);
      if (store.legs() == 2) {
        g[1] = store.tile_n(ti, tj).effective_conductance(tc.lr, tc.lc);
      }
      w.at(i, j) = store.encoding().decode(g, store.target().at(i, j),
                                           store.weight_max());
    }
  }
  return w;
}

/// Both read-outs of `store` are bit-identical to the reference:
/// forward_matmul(x) to matmul(x, W_ref) and effective() to W_ref. The
/// forward runs first, so it is the call that repacks dirty tiles.
inline ::testing::AssertionResult matches_reference(CrossbarWeightStore& store,
                                                    const Tensor& x) {
  const Tensor ref = reference_effective(store);
  const auto same = [](const Tensor& a, const Tensor& b) {
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
  };
  if (!same(store.forward_matmul(x), matmul(x, ref))) {
    return ::testing::AssertionFailure()
           << "forward_matmul(x) != matmul(x, reference)";
  }
  if (!same(store.effective(), ref)) {
    return ::testing::AssertionFailure() << "effective() != reference";
  }
  return ::testing::AssertionSuccess();
}

}  // namespace refit
