// refit-det — whole-program determinism taint analysis over the shared
// lexer (tools/common/lexer.hpp) and CFG builder (tools/common/cfg.hpp).
//
// The project's determinism contract (docs/determinism.md) says a run is
// reproducible from its config seed at any REFIT_THREADS: every RNG stream
// funnels through refit::Rng, wall-clock reads go through the obs::Clock
// seam, and serialized artifacts (CSV/JSON rows, checkpoints, golden
// hashes, metric samples) never depend on hash-map iteration order,
// pointer values, or the worker-thread count. refit-det checks that
// contract statically: it marks *sources* of nondeterminism, propagates
// their taint through assignments, returns and call sites (interprocedural
// per-function summaries, computed to a fixpoint over the call graph), and
// reports only when a tainted value reaches a *deterministic sink*.
//
//   nondet-seed-provenance       any tainted value reaches an RNG seed
//                                (Rng construction, .seed(), .split(),
//                                set_state(), srand, mt19937), or an
//                                entropy-derived value (std::random_device,
//                                getpid, time()) reaches any sink
//   unordered-iteration-to-output  unordered_map/unordered_set iteration
//                                order reaches serialized output / a golden
//                                hash / a metric sample
//   pointer-order-dependence     pointer-keyed container order or a
//                                pointer-to-integer cast reaches a sink
//   wallclock-to-output          a raw wall-clock read (outside the
//                                obs::Clock seam) reaches a sink
//   threadcount-value-dependence hardware_concurrency / thread-id values
//                                reach a sink
//
// Findings ratchet against tools/refit_det/baseline.txt exactly like
// refit-flow: keys are (rule, file, detail) — never line numbers.
// nondet-seed-provenance is never baselined (scripts/det_baseline.sh
// rejects it): a nondeterministic seed breaks every downstream guarantee.
// In-source suppression uses the shared syntax with this tool's tag:
// `// refit-det: allow(rule)`.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/cfg.hpp"

namespace refit::det {

// ---------------------------------------------------------------------------
// Taint domain
// ---------------------------------------------------------------------------

/// A taint mask. Low bits are the rule-triggering taints; kUnorderedCont /
/// kPtrKeyedCont mark values that *are* hash-ordered containers (holding
/// one is harmless — iterating it converts the bit into kUnorderedIter /
/// kPointerOrder); bits 8..8+kMaxParams-1 are pseudo-taints standing for
/// "the value of parameter i", the currency of function summaries.
using Taint = std::uint32_t;

inline constexpr Taint kWallclock = 1u << 0;
inline constexpr Taint kNondetSeed = 1u << 1;
inline constexpr Taint kUnorderedIter = 1u << 2;
inline constexpr Taint kPointerOrder = 1u << 3;
inline constexpr Taint kThreadCount = 1u << 4;
inline constexpr Taint kUnorderedCont = 1u << 5;
inline constexpr Taint kPtrKeyedCont = 1u << 6;

/// The five taints that trigger findings at a sink.
inline constexpr Taint kRuleMask = kWallclock | kNondetSeed | kUnorderedIter |
                                   kPointerOrder | kThreadCount;

/// Parameters tracked per function; later parameters are ignored
/// (conservative loss of precision, not soundness of the ratchet).
inline constexpr int kMaxParams = 8;
inline constexpr Taint param_bit(int i) { return Taint{1} << (8 + i); }
inline constexpr Taint kParamMask = ((Taint{1} << kMaxParams) - 1) << 8;

// ---------------------------------------------------------------------------
// Findings
// ---------------------------------------------------------------------------

/// One determinism violation. `detail` is the stable identity —
/// "<function>:<subject>" where subject is the variable (or callee) that
/// carried the taint into the sink — the baseline keys on. `chain` is the
/// source-to-sink path --explain prints, one "file:line: step" per hop.
struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
  std::string detail;
  std::vector<std::string> chain;

  /// Baseline key: "<rule> <file> <detail>".
  [[nodiscard]] std::string key() const;
};

/// Name + one-line description, for --list-rules and docs.
struct RuleInfo {
  const char* name;
  const char* description;
};

/// All rules refit-det knows, in report order.
const std::vector<RuleInfo>& rules();

// ---------------------------------------------------------------------------
// Interprocedural machinery (public so the unit tests can probe it)
// ---------------------------------------------------------------------------

/// What kind of deterministic sink a tainted value reached.
enum class SinkKind { kOutput, kHash, kMetric, kRngSeed };

/// A sink inside a function that parameter `param`'s value reaches.
/// `steps` is the intra-function chain fragment (param → sink); call sites
/// prepend their argument's chain when applying the summary.
struct SinkHit {
  SinkKind kind = SinkKind::kOutput;
  int param = 0;
  std::string file;
  int line = 0;
  std::string subject;  ///< variable name at the sink (detail subject)
  std::vector<std::string> steps;
};

/// Per-function summary, keyed by unqualified name (same-named functions
/// are joined — conservative). Fixpoint convergence compares only the
/// masks and the (kind, param, file, line) sink signature, never chains.
struct Summary {
  /// Taints the return value carries (rule bits and container bits both).
  Taint ret_taint = 0;
  std::uint32_t param_to_ret = 0;  ///< bit i: arg i flows to the return
  std::vector<SinkHit> param_sinks;
  std::map<Taint, std::vector<std::string>> ret_chains;  ///< per-bit, first-wins
};

/// name → set of callee names (only calls to functions defined somewhere
/// in the analyzed file set; unknown externals are not edges).
struct CallGraph {
  std::map<std::string, std::set<std::string>> callees;
};

[[nodiscard]] CallGraph build_call_graph(
    const std::vector<refit::cfg::FileCfg>& files);

struct AnalyzeOptions {
  /// Exempt the files that *own* a nondeterminism source by design:
  /// src/obs/clock.{cpp,hpp} (the wall-clock seam) and
  /// src/common/thread_pool.{cpp,hpp} (the REFIT_THREADS config owner).
  bool apply_path_exemptions = true;
};

/// The whole-program summary fixpoint, without the reporting pass.
[[nodiscard]] std::map<std::string, Summary> compute_summaries(
    const std::vector<refit::cfg::FileCfg>& files, const AnalyzeOptions& opts);

/// Run the full analysis: summary fixpoint, then a reporting sweep over
/// every function. Findings are sorted by (file, line, rule, detail);
/// in-source `refit-det:` suppressions are already applied.
[[nodiscard]] std::vector<Finding> analyze_program(
    const std::vector<refit::cfg::FileCfg>& files, const AnalyzeOptions& opts);

// ---------------------------------------------------------------------------
// Baseline ratchet (same shape and semantics as refit-flow's)
// ---------------------------------------------------------------------------

/// The checked-in debt freeze: one `<rule> <file> <detail>` key per line,
/// `#` comments and blank lines ignored.
struct Baseline {
  std::set<std::string> keys;

  [[nodiscard]] static Baseline parse(std::istream& is);
  [[nodiscard]] bool covers(const Finding& f) const {
    return keys.count(f.key()) > 0;
  }
};

/// Splits findings into `fresh` (fail CI) and `frozen` (baselined), and
/// returns the baseline keys that no longer match anything (stale —
/// regenerate with scripts/det_baseline.sh).
struct RatchetResult {
  std::vector<Finding> fresh;
  std::vector<Finding> frozen;
  std::vector<std::string> stale;
};
[[nodiscard]] RatchetResult apply_baseline(const std::vector<Finding>& findings,
                                           const Baseline& baseline);

}  // namespace refit::det
