// Fault-site decoding from quiescent-test observables (see decoder.hpp).
#include "detect/decoder.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace refit {

namespace {

enum class CellState : unsigned char { kUnknown, kHealthy, kFaulty };

struct SegmentState {
  const std::size_t* first = nullptr;  ///< the segment's cells
  const std::size_t* last = nullptr;
  std::size_t unresolved = 0;
  /// Residue minus already-resolved faulty cells, kept as a residue.
  std::size_t residual = 0;
};

/// Validate one direction's CSR arrays and index its segments: seg_of[cell]
/// becomes the covering segment, states[s] its cell range and counters.
void index_segments(const SegmentList& list, std::size_t divisor,
                    const std::vector<CellState>& state,
                    std::vector<int>& seg_of,
                    std::vector<SegmentState>& states) {
  REFIT_CHECK(list.begin.size() == list.residue.size() + 1 &&
              list.begin.front() == 0 &&
              list.begin.back() == list.cells.size());
  states.resize(list.size());
  for (std::size_t s = 0; s < list.size(); ++s) {
    REFIT_CHECK(list.begin[s] <= list.begin[s + 1]);
    SegmentState& ss = states[s];
    ss.first = list.cells.data() + list.begin[s];
    ss.last = list.cells.data() + list.begin[s + 1];
    ss.residual = list.residue[s] % divisor;
    for (const std::size_t* p = ss.first; p != ss.last; ++p) {
      REFIT_CHECK(*p < state.size());
      seg_of[*p] = static_cast<int>(s);
      if (state[*p] == CellState::kUnknown) ++ss.unresolved;
    }
  }
}

}  // namespace

std::vector<std::uint8_t> decode_segments(const DecodeInput& in) {
  REFIT_CHECK(in.rows > 0 && in.cols > 0 && in.divisor >= 2);
  const std::size_t n = in.rows * in.cols;
  REFIT_CHECK(in.candidate.size() == n);

  std::vector<CellState> state(n, CellState::kUnknown);
  for (std::size_t i = 0; i < n; ++i) {
    if (in.candidate[i] == 0) state[i] = CellState::kHealthy;
  }

  // Index: for each cell, which row/col segment covers it (if any).
  std::vector<int> row_seg_of(n, -1), col_seg_of(n, -1);
  std::vector<SegmentState> rs, cs;
  index_segments(in.row_segments, in.divisor, state, row_seg_of, rs);
  index_segments(in.col_segments, in.divisor, state, col_seg_of, cs);

  // Resolve a cell and update both covering segments' residuals.
  auto resolve = [&](std::size_t cell, CellState verdict) {
    if (state[cell] != CellState::kUnknown) return;
    state[cell] = verdict;
    for (auto* vec : {&rs, &cs}) {
      const auto& seg_of = (vec == &rs) ? row_seg_of : col_seg_of;
      const int si = seg_of[cell];
      if (si < 0) continue;
      SegmentState& ss = (*vec)[static_cast<std::size_t>(si)];
      REFIT_DCHECK(ss.unresolved > 0);
      --ss.unresolved;
      if (verdict == CellState::kFaulty) {
        // Subtract one fault from the residue (modular arithmetic).
        ss.residual = (ss.residual + in.divisor - 1) % in.divisor;
      }
    }
  };

  if (in.use_constraint_propagation) {
    bool changed = true;
    std::size_t iters = 0;
    while (changed && iters++ < in.max_iterations) {
      changed = false;
      for (auto* vec : {&rs, &cs}) {
        for (SegmentState& ss : *vec) {
          if (ss.unresolved == 0) continue;
          // Modulo information loss: with >= divisor unknowns the residue
          // no longer pins the exact count, so the exact rules are unsafe.
          if (ss.unresolved >= in.divisor) continue;
          // The branch is picked once per segment: resolving mutates
          // unresolved/residual, but only ever the visited cell's state.
          if (ss.residual == 0) {
            for (const std::size_t* p = ss.first; p != ss.last; ++p)
              if (state[*p] == CellState::kUnknown) {
                resolve(*p, CellState::kHealthy);
                changed = true;
              }
          } else if (ss.residual == ss.unresolved) {
            for (const std::size_t* p = ss.first; p != ss.last; ++p)
              if (state[*p] == CellState::kUnknown) {
                resolve(*p, CellState::kFaulty);
                changed = true;
              }
          }
        }
      }
    }
  }

  // Fallback for the ambiguous remainder: flag when both directions still
  // carry evidence of stuck cells.
  std::vector<std::uint8_t> predicted(n, 0);
  for (std::size_t cell = 0; cell < n; ++cell) {
    switch (state[cell]) {
      case CellState::kFaulty:
        predicted[cell] = 1;
        break;
      case CellState::kHealthy:
        break;
      case CellState::kUnknown: {
        const int rsi = row_seg_of[cell];
        const int csi = col_seg_of[cell];
        const bool row_ev =
            rsi >= 0 && rs[static_cast<std::size_t>(rsi)].residual > 0;
        const bool col_ev =
            csi >= 0 && cs[static_cast<std::size_t>(csi)].residual > 0;
        // A cell covered by only one direction keeps that direction's
        // verdict; covered by both requires agreement.
        if (rsi >= 0 && csi >= 0) {
          predicted[cell] = static_cast<std::uint8_t>(row_ev && col_ev);
        } else {
          predicted[cell] = static_cast<std::uint8_t>(row_ev || col_ev);
        }
        break;
      }
    }
  }
  return predicted;
}

}  // namespace refit
