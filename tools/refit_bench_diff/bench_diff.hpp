// refit-bench-diff: noise-aware comparator for BENCH_*.json artifacts
// (docs/tooling.md, docs/observability.md).
//
// The bench artifacts mix two kinds of fields. *Deterministic* fields —
// gemm_output_hash, bit_identical, accuracies, precision/recall, counts —
// must match exactly on any host: they are the computation's contract.
// *Timing* fields — seconds, gflops, frac_peak, speedup_vs_* — measure
// the host, so they gate only within a relative threshold, and only when
// the comparison is meaningful at all: the two artifacts must carry the
// same cpu_model + compiler + gemm_isa provenance, neither may be stamped
// scaling_valid:false at top level (an oversubscribed host produces
// garbage timings), and rows individually stamped scaling_valid:false
// are skipped. Everything else would make the ratchet flake.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace refit::tools {

struct BenchDiffOptions {
  /// Per-field relative tolerance overrides for timing fields
  /// (--threshold field=x). Unlisted fields use default_threshold().
  std::map<std::string, double> thresholds;
};

/// True for fields that measure the host rather than the computation.
bool is_timing_field(const std::string& field);

/// Built-in relative tolerance for a timing field.
double default_threshold(const std::string& field);

enum class BenchDiffStatus {
  kFail,     // deterministic mismatch, missing row/field, or over threshold
  kSkipped,  // timing field with no valid comparison basis
  kInfo,     // additions in the candidate (new rows/fields) — never fatal
};

struct BenchDiffFinding {
  std::string row;    // row key, or "(top-level)"
  std::string field;
  std::string baseline;   // display text ("-" when absent)
  std::string candidate;  // display text ("-" when absent)
  double rel = 0.0;       // relative delta (timing findings only)
  BenchDiffStatus status = BenchDiffStatus::kFail;
  std::string note;
};

struct BenchDiffReport {
  bool pass = true;             // no kFail findings
  bool timing_compared = false;
  std::string timing_skip_reason;  // set when timing_compared is false
  std::size_t rows_compared = 0;
  std::size_t fields_compared = 0;
  std::vector<BenchDiffFinding> findings;

  /// Human-facing markdown: summary paragraph + findings table.
  [[nodiscard]] std::string markdown() const;

  /// Machine output for CI annotation: {"pass": ..., "findings": [...]}.
  [[nodiscard]] std::string json() const;
};

/// Compare a candidate bench artifact against its checked-in baseline.
BenchDiffReport diff_bench(const JsonValue& baseline,
                           const JsonValue& candidate,
                           const BenchDiffOptions& opts = {});

}  // namespace refit::tools
