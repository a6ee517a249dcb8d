// Tests for the noise-aware bench comparator (bench_diff.hpp). The
// artifacts are built inline from the same shapes as the checked-in
// BENCH_backend.json / BENCH_device.json.
#include "bench_diff.hpp"

#include <gtest/gtest.h>

#include <string>

namespace refit::tools {
namespace {

JsonValue parse(const std::string& text) {
  std::string err;
  auto v = json_parse(text, &err);
  EXPECT_TRUE(v.has_value()) << err;
  return std::move(*v);
}

/// A minimal backend-shaped artifact. `seconds` and `hash` are
/// substitutable so tests can inject drift.
std::string backend_artifact(const std::string& seconds,
                             const std::string& hash = "1600ad911520f812",
                             bool scaling_valid = true) {
  return std::string(R"({
    "bench": "backend_gemm",
    "provenance": {"cpu_model": "TestCPU", "compiler": "g++ 13",
                   "hardware_threads": 8},
    "scaling_valid": )") +
         (scaling_valid ? "true" : "false") + R"(,
    "gemm_output_hash": ")" +
         hash + R"(",
    "shape": {"m": 256, "n": 256, "k": 256},
    "results": [
      {"name": "gemm_simd", "threads": 1, "seconds": )" +
         seconds + R"(, "bit_identical": true, "gflops": 10.0}
    ]
  })";
}

TEST(BenchDiff, IdenticalArtifactsPass) {
  const JsonValue a = parse(backend_artifact("0.050"));
  const auto report = diff_bench(a, a);
  EXPECT_TRUE(report.pass);
  EXPECT_TRUE(report.timing_compared);
  EXPECT_EQ(report.rows_compared, 1u);
  EXPECT_TRUE(report.findings.empty());
  EXPECT_NE(report.markdown().find("**PASS**"), std::string::npos);
}

TEST(BenchDiff, TimingWithinThresholdPasses) {
  const JsonValue base = parse(backend_artifact("0.050"));
  const JsonValue cand = parse(backend_artifact("0.055"));  // +10% < 15%
  EXPECT_TRUE(diff_bench(base, cand).pass);
}

// Acceptance: a 20% GEMM slowdown on a matching host must fail the gate.
TEST(BenchDiff, InjectedTwentyPercentSlowdownFails) {
  const JsonValue base = parse(backend_artifact("0.050"));
  const JsonValue cand = parse(backend_artifact("0.060"));  // +20% > 15%
  const auto report = diff_bench(base, cand);
  EXPECT_FALSE(report.pass);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].field, "seconds");
  EXPECT_EQ(report.findings[0].status, BenchDiffStatus::kFail);
  EXPECT_NEAR(report.findings[0].rel, 0.20, 1e-9);
  EXPECT_NE(report.markdown().find("**FAIL**"), std::string::npos);
  EXPECT_NE(report.json().find("\"pass\": false"), std::string::npos);
}

TEST(BenchDiff, ThresholdOverrideWidensGate) {
  const JsonValue base = parse(backend_artifact("0.050"));
  const JsonValue cand = parse(backend_artifact("0.060"));
  BenchDiffOptions opts;
  opts.thresholds["seconds"] = 0.25;
  EXPECT_TRUE(diff_bench(base, cand, opts).pass);
}

TEST(BenchDiff, DeterministicMismatchAlwaysFails) {
  const JsonValue base = parse(backend_artifact("0.050"));
  const JsonValue cand =
      parse(backend_artifact("0.050", "deadbeefdeadbeef"));
  const auto report = diff_bench(base, cand);
  EXPECT_FALSE(report.pass);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].field, "gemm_output_hash");
  EXPECT_EQ(report.findings[0].note, "deterministic field must match exactly");
}

TEST(BenchDiff, ProvenanceMismatchSkipsTimingButGatesDeterminism) {
  JsonValue base = parse(backend_artifact("0.050"));
  std::string other = backend_artifact("0.500", "deadbeefdeadbeef");
  other.replace(other.find("TestCPU"), 7, "OtherBox");
  const JsonValue cand = parse(other);
  const auto report = diff_bench(base, cand);
  EXPECT_FALSE(report.timing_compared);
  EXPECT_NE(report.timing_skip_reason.find("provenance differs"),
            std::string::npos);
  // 10x slower seconds: silently skipped (the summary banner explains
  // why). Wrong hash: still fatal.
  EXPECT_FALSE(report.pass);
  bool saw_hash_fail = false;
  for (const auto& f : report.findings) {
    EXPECT_NE(f.field, "seconds");
    if (f.field == "gemm_output_hash") {
      saw_hash_fail = true;
      EXPECT_EQ(f.status, BenchDiffStatus::kFail);
    }
  }
  EXPECT_TRUE(saw_hash_fail);
}

TEST(BenchDiff, GemmIsaMismatchSkipsTiming) {
  // Same CPU model and compiler, different dispatched GEMM tier (an AVX2
  // host vs an SSE2-only run): the timings measure different kernels.
  std::string sse2 = backend_artifact("0.050");
  std::string avx2 = backend_artifact("0.025");
  sse2.replace(sse2.find("\"hardware_threads\""), 0,
               "\"gemm_isa\": \"sse2\", ");
  avx2.replace(avx2.find("\"hardware_threads\""), 0,
               "\"gemm_isa\": \"avx2\", ");
  const auto report = diff_bench(parse(sse2), parse(avx2));
  EXPECT_FALSE(report.timing_compared);
  EXPECT_NE(report.timing_skip_reason.find("gemm_isa"), std::string::npos);
  EXPECT_TRUE(report.pass);
  // Matching tiers compare timings as before.
  EXPECT_TRUE(diff_bench(parse(avx2), parse(avx2)).timing_compared);
}

TEST(BenchDiff, TopLevelScalingInvalidSkipsAllTiming) {
  const JsonValue base = parse(backend_artifact("0.050"));
  const JsonValue cand =
      parse(backend_artifact("0.500", "1600ad911520f812", false));
  const auto report = diff_bench(base, cand);
  EXPECT_FALSE(report.timing_compared);
  EXPECT_NE(report.timing_skip_reason.find("scaling_valid"),
            std::string::npos);
  EXPECT_TRUE(report.pass);
  EXPECT_TRUE(report.findings.empty());  // skip is banner-only, not per-field
}

TEST(BenchDiff, RowScalingInvalidSkipsThatRowsTiming) {
  const std::string shell = R"({
    "bench": "b", "provenance": {"cpu_model": "A", "compiler": "B"},
    "scaling_valid": true,
    "results": [
      {"name": "steady", "threads": 1, "seconds": 0.1},
      {"name": "noisy", "threads": 4, "seconds": %S%,
       "scaling_valid": false}
    ]
  })";
  auto with_seconds = [&](const std::string& s) {
    std::string t = shell;
    t.replace(t.find("%S%"), 3, s);
    return parse(t);
  };
  const JsonValue base = with_seconds("0.1");
  const JsonValue cand = with_seconds("9.9");
  const auto report = diff_bench(base, cand);
  EXPECT_TRUE(report.pass);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].status, BenchDiffStatus::kSkipped);
  EXPECT_EQ(report.findings[0].note, "row stamped scaling_valid:false");
}

TEST(BenchDiff, MissingRowAndFieldAreDiagnosed) {
  const JsonValue base = parse(R"({
    "bench": "b", "provenance": {}, "scaling_valid": true,
    "results": [
      {"name": "kept", "threads": 1, "bit_identical": true, "gflops": 1.0},
      {"name": "dropped", "threads": 1, "seconds": 0.1}
    ]
  })");
  const JsonValue cand = parse(R"({
    "bench": "b", "provenance": {}, "scaling_valid": true,
    "results": [
      {"name": "kept", "threads": 1, "bit_identical": true},
      {"name": "added", "threads": 2, "seconds": 0.2}
    ]
  })");
  const auto report = diff_bench(base, cand);
  EXPECT_FALSE(report.pass);
  bool missing_field = false;
  bool missing_row = false;
  bool new_row_info = false;
  for (const auto& f : report.findings) {
    if (f.note == "field missing from candidate" && f.field == "gflops") {
      missing_field = true;
      EXPECT_NE(f.row.find("name=kept"), std::string::npos);
    }
    if (f.note == "row missing from candidate") {
      missing_row = true;
      EXPECT_NE(f.row.find("name=dropped"), std::string::npos);
    }
    if (f.note == "new row in candidate") {
      new_row_info = true;
      EXPECT_EQ(f.status, BenchDiffStatus::kInfo);
    }
  }
  EXPECT_TRUE(missing_field);
  EXPECT_TRUE(missing_row);
  EXPECT_TRUE(new_row_info);
}

TEST(BenchDiff, SpeedupFieldsUseWiderDefault) {
  EXPECT_DOUBLE_EQ(default_threshold("seconds"), 0.15);
  EXPECT_DOUBLE_EQ(default_threshold("speedup_vs_serial"), 0.30);
  EXPECT_TRUE(is_timing_field("frac_peak"));
  EXPECT_FALSE(is_timing_field("bit_identical"));
}

}  // namespace
}  // namespace refit::tools
