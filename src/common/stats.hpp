// Small statistics helpers shared by the detector metrics and the
// experiment harness.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace refit {

/// Streaming mean / variance (Welford).
class RunningStat {
 public:
  void add(double x);
  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return mean_; }
  /// Sample variance (n-1 denominator); 0 when fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Binary-classification confusion counts for fault detection.
///
/// "Positive" means "predicted faulty" — the convention used in the paper's
/// §6.1 definitions of precision and recall.
struct ConfusionCounts {
  std::uint64_t tp = 0;  ///< faulty, predicted faulty
  std::uint64_t fp = 0;  ///< fault-free, predicted faulty
  std::uint64_t fn = 0;  ///< faulty, predicted fault-free
  std::uint64_t tn = 0;  ///< fault-free, predicted fault-free

  /// Count one cell. Branch-free: detection scores call this per cell.
  void add(bool actual_faulty, bool predicted_faulty) {
    tp += static_cast<std::uint64_t>(actual_faulty && predicted_faulty);
    fp += static_cast<std::uint64_t>(!actual_faulty && predicted_faulty);
    fn += static_cast<std::uint64_t>(actual_faulty && !predicted_faulty);
    tn += static_cast<std::uint64_t>(!actual_faulty && !predicted_faulty);
  }
  /// The counts of `cells` cells of which `actual` are faulty, `predicted`
  /// are predicted faulty and `both` are both.
  static ConfusionCounts from_totals(std::uint64_t cells, std::uint64_t actual,
                                     std::uint64_t predicted,
                                     std::uint64_t both);
  ConfusionCounts& operator+=(const ConfusionCounts& o);

  /// TP / (TP + FP); 1.0 when no positives were predicted.
  [[nodiscard]] double precision() const;
  /// TP / (TP + FN); 1.0 when there are no actual faults.
  [[nodiscard]] double recall() const;
  [[nodiscard]] double f1() const;
  [[nodiscard]] std::uint64_t total() const { return tp + fp + fn + tn; }
};

/// p-th percentile (p in [0,100]) by linear interpolation; v is copied.
double percentile(std::vector<double> v, double p);

/// Arithmetic mean of a vector (0 for empty input).
double mean_of(const std::vector<double>& v);

}  // namespace refit
