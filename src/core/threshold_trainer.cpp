// Threshold (δw) training, paper §5.1 (see threshold_trainer.hpp).
#include "core/threshold_trainer.hpp"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.hpp"
#include "rcs/crossbar_store.hpp"

namespace refit {

namespace {

/// Per-weight cost of each filter pass in parallel_for_grained units (one
/// element visit each): sized so a 784-row hidden layer fans out while a
/// 10-wide output layer stays inline on the caller.
constexpr std::size_t kFilterWorkPerWeight = 4;

/// One row's share of the step statistics, summed on the caller.
struct RowCounts {
  std::uint64_t issued = 0;
  std::uint64_t suppressed = 0;
  std::uint64_t zero = 0;
};

}  // namespace

ThresholdStepStats ThresholdTrainer::step(
    std::vector<Param>& params, std::size_t iteration,
    const PruneState* prune,
    const std::unordered_map<const WeightStore*, FaultMatrix>* detected)
    const {
  const double lr = lr_.at(iteration);
  const float scale = static_cast<float>(-lr);
  ThresholdStepStats stats;

  // Pass 1: compute the raw deltas (δw·LR) for every matrix parameter and
  // the maximum |δw| of this iteration — copy, scale, prune mask and max
  // in one row-parallel sweep. Each row's max starts at 0 like
  // Tensor::max_abs, so a NaN update never wins; the caller folds the row
  // maxima.
  struct Pending {
    Param* param;
    Tensor delta;
    double local_max = 0.0;
  };
  std::vector<Pending> pending;
  for (auto& p : params) {
    if (p.store == nullptr) continue;  // biases handled below
    REFIT_CHECK(p.grad != nullptr);
    const Tensor& grad = *p.grad;
    const PruneMask* mask =
        prune != nullptr ? prune->mask_for(p.store) : nullptr;
    REFIT_CHECK(mask == nullptr || mask->pruned.size() == grad.numel());
    Tensor delta(grad.shape());
    const std::size_t rows = delta.dim(0), cols = delta.dim(1);
    std::vector<float> row_max(rows, 0.0f);
    parallel_for_grained(
        rows, cols * kFilterWorkPerWeight, [&](std::size_t r0, std::size_t r1) {
          for (std::size_t i = r0; i < r1; ++i) {
            float m = 0.0f;
            for (std::size_t e = i * cols; e < (i + 1) * cols; ++e) {
              float d = grad[e] * scale;
              if (mask != nullptr && mask->pruned[e]) d = 0.0f;
              delta[e] = d;
              m = std::max(m, std::fabs(d));
            }
            row_max[i] = m;
          }
        });
    float local_max = 0.0f;
    for (const float m : row_max) local_max = std::max(local_max, m);
    stats.dw_max = std::max(stats.dw_max, static_cast<double>(local_max));
    pending.push_back(Pending{&p, std::move(delta), local_max});
  }

  // The original (non-threshold) scheme programs the whole array each
  // update step — zero deltas included — which is what wears cells out.
  const bool full_write = cfg_.threshold_ratio <= 0.0;

  // Pass 2: threshold filter + write suppression (row-parallel; the
  // per-row counts are summed here), then apply.
  for (auto& pd : pending) {
    const double base_max = cfg_.global_max ? stats.dw_max : pd.local_max;
    const double base_thr = cfg_.threshold_ratio * base_max;
    auto* xstore = dynamic_cast<CrossbarWeightStore*>(pd.param->store);
    const FaultMatrix* fm = nullptr;
    if (detected != nullptr) {
      const auto it = detected->find(pd.param->store);
      if (it != detected->end() && !it->second.empty()) fm = &it->second;
    }
    double mean_writes = 0.0;
    if (cfg_.wear_leveling_beta > 0.0 && xstore != nullptr) {
      mean_writes = static_cast<double>(xstore->write_count()) /
                    static_cast<double>(std::max<std::size_t>(
                        1, xstore->cell_count()));
    }

    const std::size_t rows = pd.delta.dim(0), cols = pd.delta.dim(1);
    std::vector<RowCounts> counts(rows);
    parallel_for_grained(
        rows, cols * kFilterWorkPerWeight, [&](std::size_t r0, std::size_t r1) {
          for (std::size_t i = r0; i < r1; ++i) {
            RowCounts& rc = counts[i];
            for (std::size_t j = 0; j < cols; ++j) {
              float& d = pd.delta.at(i, j);
              if (d == 0.0f) {
                if (full_write) {
                  ++rc.issued;  // the refresh pulse still happens
                } else {
                  ++rc.zero;
                }
                continue;
              }
              // Skip writes to cells the detector already knows are
              // stuck — the write would be a pure endurance/energy waste.
              if (fm != nullptr && xstore != nullptr &&
                  fm->faulty(xstore->row_perm()[i], xstore->col_perm()[j])) {
                d = 0.0f;
                ++rc.suppressed;
                continue;
              }
              double thr = base_thr;
              if (mean_writes > 0.0) {
                const double ratio =
                    static_cast<double>(xstore->cell_write_count(i, j)) /
                    mean_writes;
                thr *= 1.0 +
                       cfg_.wear_leveling_beta * std::max(0.0, ratio - 1.0);
              }
              if (std::fabs(d) < thr) {
                d = 0.0f;  // Algorithm 1, lines 6-8: suppress the write
                ++rc.suppressed;
              } else {
                ++rc.issued;
              }
            }
          }
        });
    for (const RowCounts& rc : counts) {
      stats.writes_issued += rc.issued;
      stats.writes_suppressed += rc.suppressed;
      stats.updates_zero += rc.zero;
    }
    if (full_write) {
      pd.param->store->apply_delta_full(pd.delta);
    } else {
      pd.param->store->apply_delta(pd.delta);
    }
  }

  // Peripheral (bias) parameters update without filtering: they live in
  // CMOS, not on RRAM cells.
  for (auto& p : params) {
    if (p.store != nullptr) continue;
    REFIT_CHECK(p.value != nullptr && p.grad != nullptr);
    Tensor delta = *p.grad;
    delta *= static_cast<float>(-lr);
    *p.value += delta;
  }
  return stats;
}

}  // namespace refit
