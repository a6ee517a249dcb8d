// Comparison engine behind refit-bench-diff (see bench_diff.hpp for the
// gating rules: deterministic fields exact, timing fields thresholded and
// only on a matching, non-oversubscribed host).
#include "bench_diff.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace refit::tools {

namespace {

/// Fields that identify a result row (subset present varies by bench).
const char* const kKeyFields[] = {
    "name",       "family",     "encoding",       "program_sigma",
    "drift_rate", "tick_period", "soft_fault_rate", "threads",
};

/// Top-level fields outside the comparison surface: provenance describes
/// the host (it gates timing instead), scaling_valid stamps the run,
/// note is prose, results is diffed row by row.
const char* const kTopLevelSkip[] = {"provenance", "scaling_valid", "note",
                                     "results"};

bool is_key_field(const std::string& field) {
  for (const char* k : kKeyFields) {
    if (field == k) return true;
  }
  return false;
}

std::string row_key(const JsonValue& row) {
  std::string key;
  for (const char* k : kKeyFields) {
    if (const JsonValue* v = row.find(k)) {
      if (!key.empty()) key += ' ';
      key += k;
      key += '=';
      key += v->display();
    }
  }
  return key.empty() ? "(unkeyed row)" : key;
}

bool values_equal(const JsonValue& a, const JsonValue& b) {
  if (a.kind != b.kind) {
    // 1 vs 1.0 style formatting drift: numbers compare by value below,
    // but a kind mismatch otherwise is a real difference.
    return a.is_number() && b.is_number() && a.number == b.number;
  }
  switch (a.kind) {
    case JsonValue::Kind::kNull:
      return true;
    case JsonValue::Kind::kBool:
      return a.boolean == b.boolean;
    case JsonValue::Kind::kNumber:
      return a.number == b.number;
    case JsonValue::Kind::kString:
      return a.raw == b.raw;
    default:
      return a.display() == b.display();  // arrays/objects: not row data
  }
}

std::string fmt_rel(double rel) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.1f%%", rel * 100.0);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

const char* status_name(BenchDiffStatus s) {
  switch (s) {
    case BenchDiffStatus::kFail:
      return "FAIL";
    case BenchDiffStatus::kSkipped:
      return "skipped";
    case BenchDiffStatus::kInfo:
      return "info";
  }
  return "?";
}

struct Differ {
  const BenchDiffOptions& opts;
  BenchDiffReport report;

  void add(std::string row, std::string field, std::string base,
           std::string cand, BenchDiffStatus status, std::string note,
           double rel = 0.0) {
    if (status == BenchDiffStatus::kFail) report.pass = false;
    report.findings.push_back({std::move(row), std::move(field),
                               std::move(base), std::move(cand), rel, status,
                               std::move(note)});
  }

  double threshold_for(const std::string& field) const {
    const auto it = opts.thresholds.find(field);
    return it != opts.thresholds.end() ? it->second
                                       : default_threshold(field);
  }

  void decide_timing_basis(const JsonValue& base, const JsonValue& cand) {
    const auto str_at = [](const JsonValue& doc, const char* key) {
      const JsonValue* prov = doc.find("provenance");
      const JsonValue* v = prov != nullptr ? prov->find(key) : nullptr;
      return v != nullptr ? v->display() : std::string();
    };
    const auto top_scaling_invalid = [](const JsonValue& doc) {
      const JsonValue* v = doc.find("scaling_valid");
      return v != nullptr && v->is_bool() && !v->boolean;
    };
    // gemm_isa: the GEMM micro-kernel tier the host dispatched to — the
    // same CPU model under a different tier is a different kernel.
    for (const char* key : {"cpu_model", "compiler", "gemm_isa"}) {
      if (str_at(base, key) != str_at(cand, key)) {
        report.timing_skip_reason =
            "provenance differs (cpu_model/compiler/gemm_isa) — timings not "
            "comparable";
        return;
      }
    }
    if (top_scaling_invalid(base) || top_scaling_invalid(cand)) {
      report.timing_skip_reason =
          "scaling_valid:false (oversubscribed host) — timings informational";
      return;
    }
    report.timing_compared = true;
  }

  void diff_field(const std::string& row, bool row_timing_skipped,
                  const std::string& field, const JsonValue& base,
                  const JsonValue& cand) {
    ++report.fields_compared;
    if (is_timing_field(field)) {
      // Whole-artifact timing skip is announced once in the summary
      // banner; a finding per field would bury the real diffs.
      if (!report.timing_compared) return;
      if (row_timing_skipped) {
        add(row, field, base.display(), cand.display(),
            BenchDiffStatus::kSkipped, "row stamped scaling_valid:false");
        return;
      }
      const double denom = std::max(std::abs(base.number), 1e-12);
      const double rel = (cand.number - base.number) / denom;
      const double tol = threshold_for(field);
      if (std::abs(rel) > tol) {
        char note[64];
        std::snprintf(note, sizeof(note), "exceeds ±%.0f%% threshold",
                      tol * 100.0);
        add(row, field, base.display(), cand.display(),
            BenchDiffStatus::kFail, note, rel);
      }
      return;
    }
    if (!values_equal(base, cand)) {
      add(row, field, base.display(), cand.display(), BenchDiffStatus::kFail,
          "deterministic field must match exactly");
    }
  }

  void diff_row(const std::string& key, const JsonValue& base,
                const JsonValue& cand) {
    ++report.rows_compared;
    const auto row_scaling_invalid = [](const JsonValue& row) {
      const JsonValue* v = row.find("scaling_valid");
      return v != nullptr && v->is_bool() && !v->boolean;
    };
    const bool row_skip = row_scaling_invalid(base) || row_scaling_invalid(cand);
    for (const auto& [field, bval] : base.members) {
      if (is_key_field(field)) continue;
      if (field == "scaling_valid") continue;  // a stamp, not a result
      const JsonValue* cval = cand.find(field);
      if (cval == nullptr) {
        add(key, field, bval.display(), "-", BenchDiffStatus::kFail,
            "field missing from candidate");
        continue;
      }
      diff_field(key, row_skip, field, bval, *cval);
    }
    for (const auto& [field, cval] : cand.members) {
      if (is_key_field(field) || field == "scaling_valid") continue;
      if (base.find(field) == nullptr) {
        add(key, field, "-", cval.display(), BenchDiffStatus::kInfo,
            "new field in candidate");
      }
    }
  }

  void run(const JsonValue& base, const JsonValue& cand) {
    if (!base.is_object() || !cand.is_object()) {
      add("(top-level)", "(document)", base.display(), cand.display(),
          BenchDiffStatus::kFail, "artifact is not a JSON object");
      return;
    }
    decide_timing_basis(base, cand);

    const auto skip_top = [](const std::string& field) {
      for (const char* k : kTopLevelSkip) {
        if (field == k) return true;
      }
      return false;
    };
    for (const auto& [field, bval] : base.members) {
      if (skip_top(field)) continue;
      const JsonValue* cval = cand.find(field);
      if (cval == nullptr) {
        add("(top-level)", field, bval.display(), "-", BenchDiffStatus::kFail,
            "field missing from candidate");
        continue;
      }
      diff_field("(top-level)", false, field, bval, *cval);
    }

    const JsonValue* brows = base.find("results");
    const JsonValue* crows = cand.find("results");
    if (brows == nullptr || !brows->is_array() || crows == nullptr ||
        !crows->is_array()) {
      add("(top-level)", "results", brows != nullptr ? "present" : "-",
          crows != nullptr ? "present" : "-", BenchDiffStatus::kFail,
          "missing results array");
      return;
    }
    // Index candidate rows by key; keys are unique per artifact.
    std::vector<std::pair<std::string, const JsonValue*>> cindex;
    cindex.reserve(crows->items.size());
    for (const JsonValue& row : crows->items) {
      cindex.emplace_back(row_key(row), &row);
    }
    std::vector<bool> matched(cindex.size(), false);
    for (const JsonValue& brow : brows->items) {
      const std::string key = row_key(brow);
      const JsonValue* crow = nullptr;
      for (std::size_t i = 0; i < cindex.size(); ++i) {
        if (!matched[i] && cindex[i].first == key) {
          matched[i] = true;
          crow = cindex[i].second;
          break;
        }
      }
      if (crow == nullptr) {
        add(key, "(row)", "present", "-", BenchDiffStatus::kFail,
            "row missing from candidate");
        continue;
      }
      diff_row(key, brow, *crow);
    }
    for (std::size_t i = 0; i < cindex.size(); ++i) {
      if (!matched[i]) {
        add(cindex[i].first, "(row)", "-", "present", BenchDiffStatus::kInfo,
            "new row in candidate");
      }
    }
  }
};

}  // namespace

bool is_timing_field(const std::string& field) {
  return field == "seconds" || field == "gflops" || field == "frac_peak" ||
         field == "speedup_vs_serial" || field == "speedup_vs_naive";
}

double default_threshold(const std::string& field) {
  // Ratios of two timings carry twice the noise of one timing.
  if (field == "speedup_vs_serial" || field == "speedup_vs_naive") return 0.30;
  return 0.15;
}

BenchDiffReport diff_bench(const JsonValue& baseline,
                           const JsonValue& candidate,
                           const BenchDiffOptions& opts) {
  Differ d{opts, {}};
  d.run(baseline, candidate);
  return std::move(d.report);
}

std::string BenchDiffReport::markdown() const {
  std::string out = "## bench-diff\n\n";
  char line[160];
  std::snprintf(line, sizeof(line),
                "%s — %zu rows, %zu fields compared.\n",
                pass ? "**PASS**" : "**FAIL**", rows_compared,
                fields_compared);
  out += line;
  if (timing_compared) {
    out += "Timing fields gated against relative thresholds.\n";
  } else {
    out += "Timing fields informational: " + timing_skip_reason + "\n";
  }
  if (findings.empty()) {
    out += "\nNo differences beyond thresholds.\n";
    return out;
  }
  out += "\n| row | field | baseline | candidate | Δ | status | note |\n";
  out += "|---|---|---|---|---|---|---|\n";
  for (const BenchDiffFinding& f : findings) {
    out += "| " + f.row + " | " + f.field + " | " + f.baseline + " | " +
           f.candidate + " | " +
           (f.rel != 0.0 ? fmt_rel(f.rel) : std::string("-")) + " | " +
           status_name(f.status) + " | " + f.note + " |\n";
  }
  return out;
}

std::string BenchDiffReport::json() const {
  std::string out = "{\"pass\": ";
  out += pass ? "true" : "false";
  out += ", \"timing_compared\": ";
  out += timing_compared ? "true" : "false";
  out += ", \"rows_compared\": " + std::to_string(rows_compared);
  out += ", \"findings\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const BenchDiffFinding& f = findings[i];
    out += i == 0 ? "\n" : ",\n";
    out += "  {\"row\": \"" + json_escape(f.row) + "\", \"field\": \"" +
           json_escape(f.field) + "\", \"baseline\": \"" +
           json_escape(f.baseline) + "\", \"candidate\": \"" +
           json_escape(f.candidate) + "\", \"status\": \"" +
           status_name(f.status) + "\", \"note\": \"" + json_escape(f.note) +
           "\"}";
  }
  out += findings.empty() ? "]}\n" : "\n]}\n";
  return out;
}

}  // namespace refit::tools
