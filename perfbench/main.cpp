// perfbench — one run of one benchmark workload, printed as one JSON line.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--sim-only]
//
// --trace 0: a one-thread pass and a default-thread pass of the cut-down
//   workload must agree, then the full workload is set up and run
//   ceil(S / nominal) times; every repetition must reproduce the first's
//   simulated outputs. Prints the end-to-end metrics.
// --trace 1: one untraced and one traced repetition; their simulated
//   outputs must be bit-identical. Prints the per-layer metrics and writes
//   the Chrome trace and metrics snapshot to --out-dir.
// --sim-only: one repetition, simulated outputs only (golden recording).
//
// run.py builds this program, adds the golden-value checks and prints the
// benchmark's result line.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "layer_timing.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace {

using perfbench::HostSamples;
using perfbench::SimOutputs;
using perfbench::Workload;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool sim_only = false;
  std::string out_dir = ".";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--sim-only]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--sim-only") {
      o.sim_only = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string v = argv[++i];
    try {
      if (arg == "--workload") {
        o.workload = v;
        have_workload = true;
      } else if (arg == "--seed") {
        o.seed = std::stoull(v);
        have_seed = true;
      } else if (arg == "--seconds") {
        o.seconds = std::stod(v);
      } else if (arg == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (arg == "--out-dir") {
        o.out_dir = v;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + v + "' for " + arg);
    }
  }
  if (!have_workload || !have_seed) usage("--workload and --seed are required");
  const auto& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), o.workload) == names.end()) {
    usage("unknown workload " + o.workload);
  }
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

/// Correctness checks; each one counts as an attempted operation.
struct Checks {
  std::uint64_t attempted = 0;
  std::vector<std::string> failures;
  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) failures.push_back(what);
  }
};

bool same(const SimOutputs& a, const SimOutputs& b) {
  return a.final_accuracy == b.final_accuracy &&
         a.detect_precision == b.detect_precision &&
         a.detect_recall == b.detect_recall &&
         a.detect_cycles == b.detect_cycles &&
         a.device_writes == b.device_writes &&
         a.logits_hash == b.logits_hash && a.state_hash == b.state_hash;
}

void sanity(Checks& checks, const SimOutputs& s) {
  checks.expect(s.final_accuracy > s.chance_accuracy,
                "final_accuracy above chance");
  checks.expect(s.detect_precision > 0.0 && s.detect_precision <= 1.0,
                "detect_precision in (0, 1]");
  checks.expect(s.detect_recall > 0.0 && s.detect_recall <= 1.0,
                "detect_recall in (0, 1]");
  checks.expect(s.detect_cycles > 0 && s.device_writes > 0,
                "detection cycles and device writes recorded");
}

SimOutputs run_once(Workload& w, HostSamples& host, bool timed) {
  w.setup();
  w.run(host, timed);
  return w.sim();
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string sim_json(const SimOutputs& s) {
  std::ostringstream os;
  os << "{\"final_accuracy\": " << num(s.final_accuracy)
     << ", \"detect_precision\": " << num(s.detect_precision)
     << ", \"detect_recall\": " << num(s.detect_recall)
     << ", \"detect_cycles\": " << s.detect_cycles
     << ", \"device_writes\": " << s.device_writes << ", \"logits_hash\": \""
     << hex(s.logits_hash) << "\", \"state_hash\": \"" << hex(s.state_hash)
     << "\"}";
  return os.str();
}

std::string metrics_json(const std::vector<std::pair<std::string, double>>& m) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < m.size(); ++i) {
    os << (i ? ", " : "") << "\"" << m[i].first << "\": " << num(m[i].second);
  }
  os << "}";
  return os.str();
}

double median(std::vector<double> v) { return refit::percentile(std::move(v), 50.0); }

/// The highest percentile of the ladder with at least ten samples beyond it.
double tail_percentile(std::size_t n) {
  double best = 50.0;
  for (const double p : {90.0, 95.0, 99.0, 99.5, 99.9}) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) best = p;
  }
  return best;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// --trace 0: end-to-end metrics.
void run_measured(const Options& o, Checks& checks, SimOutputs& sim,
                  std::string& metrics, std::string& notes) {
  const std::size_t threads = refit::ThreadPool::global().size();
  // Thread-count agreement on the cut-down workload: a one-thread pool
  // (what REFIT_THREADS=1 selects) against the default pool.
  {
    refit::ThreadPool::set_global_threads(1);
    HostSamples scratch;
    auto one = perfbench::make_workload(o.workload, o.seed, /*small=*/true);
    const SimOutputs serial = run_once(*one, scratch, false);
    refit::ThreadPool::set_global_threads(threads);
    auto many = perfbench::make_workload(o.workload, o.seed, /*small=*/true);
    const SimOutputs pooled = run_once(*many, scratch, false);
    checks.expect(same(serial, pooled),
                  "1-thread and " + std::to_string(threads) +
                      "-thread passes agree");
  }

  perfbench::CpuStopwatch::watch_threads();
  const auto reps = static_cast<std::size_t>(std::max(
      1.0, std::ceil(o.seconds / perfbench::nominal_run_seconds(o.workload))));
  auto w = perfbench::make_workload(o.workload, o.seed, /*small=*/false);
  HostSamples host;
  std::vector<double> setup_s;
  double work_s = 0.0, work_total_s = 0.0, work_wall_s = 0.0;
  for (std::size_t r = 0; r < reps; ++r) {
    const perfbench::CpuStopwatch setup_sw;
    w->setup();
    setup_s.push_back(setup_sw.seconds());
    const perfbench::CpuStopwatch work_sw;
    const refit::obs::Stopwatch work_wall;
    w->run(host, false);
    work_s += work_sw.seconds();
    work_total_s += work_sw.total_seconds();
    work_wall_s += work_wall.seconds();
    const SimOutputs s = w->sim();
    if (r == 0) {
      sim = s;
    } else {
      checks.expect(same(s, sim), "repetition " + std::to_string(r) +
                                      " reproduces repetition 0");
    }
  }
  // Set-up is timed several times per run and reported as a median: at
  // least three times and at least a second in total, since a 0.1 s
  // set-up sampled only three times moves with every host hiccup.
  const auto setup_total = [&] {
    return std::accumulate(setup_s.begin(), setup_s.end(), 0.0);
  };
  while (setup_s.size() < 3 || setup_total() < 1.0) {
    const perfbench::CpuStopwatch setup_sw;
    w->setup();
    setup_s.push_back(setup_sw.seconds());
  }
  sanity(checks, sim);

  const double tail = tail_percentile(host.step_ms.size());
  const std::vector<std::pair<std::string, double>> m = {
      {"setup_s", median(setup_s)},
      {"items_per_s", static_cast<double>(host.items) / work_s},
      {"items_per_cpu_s", static_cast<double>(host.items) / work_total_s},
      {"step_ms_p50", median(host.step_ms)},
      {"step_ms_tail", refit::percentile(host.step_ms, tail)},
      {"scan_mcells_per_s",
       static_cast<double>(host.cells_scanned) / host.scan_s * 1e-6},
      {"peak_rss_mb", peak_rss_mb()},
      {"final_accuracy", sim.final_accuracy},
      {"detect_precision", sim.detect_precision},
      {"detect_recall", sim.detect_recall},
      {"detect_cycles", static_cast<double>(sim.detect_cycles)},
      {"device_writes", static_cast<double>(sim.device_writes)},
  };
  metrics = metrics_json(m);
  std::ostringstream os;
  os << "{\"threads\": " << threads << ", \"repetitions\": " << reps
     << ", \"steps\": " << host.step_ms.size()
     << ", \"step_ms_tail_percentile\": " << num(tail)
     << ", \"setup_samples\": " << setup_s.size() << ", \"work_cpu_s\": "
     << num(work_s) << ", \"work_total_cpu_s\": " << num(work_total_s)
     << ", \"work_wall_s\": " << num(work_wall_s) << "}";
  notes = os.str();
}

/// Counter deltas between two registry snapshots, by name.
std::map<std::string, double> counter_deltas(
    const std::vector<refit::obs::MetricSnapshot>& before,
    const std::vector<refit::obs::MetricSnapshot>& after) {
  std::map<std::string, double> d;
  for (const auto& m : after) {
    if (m.type == refit::obs::MetricType::kCounter) {
      d[m.name] += static_cast<double>(m.count);
    }
  }
  for (const auto& m : before) {
    if (m.type == refit::obs::MetricType::kCounter) {
      d[m.name] -= static_cast<double>(m.count);
    }
  }
  return d;
}

double ratio(double num_, double den) { return den > 0.0 ? num_ / den : 0.0; }

/// --trace 1: per-layer metrics from a traced repetition.
void run_traced(const Options& o, Checks& checks, SimOutputs& sim,
                std::string& metrics, std::string& notes) {
  namespace obs = refit::obs;
  // Create the pool first so that its workers are among the watched threads.
  (void)refit::ThreadPool::global();
  perfbench::CpuStopwatch::watch_threads();
  auto w = perfbench::make_workload(o.workload, o.seed, /*small=*/false);
  HostSamples plain_host;
  w->setup();
  const perfbench::CpuStopwatch plain_sw;
  w->run(plain_host, false);
  const double plain_s = plain_sw.seconds();
  const SimOutputs plain = w->sim();

  auto& registry = obs::MetricsRegistry::instance();
  auto& tracer = obs::Tracer::global();
  registry.set_enabled(true);
  tracer.reset();
  tracer.set_enabled(true);
  HostSamples host;
  const obs::Stopwatch window_sw;
  w->setup();
  const auto before = registry.snapshot();
  const perfbench::CpuStopwatch work_sw;
  const obs::Stopwatch work_wall;
  w->run(host, true);
  const double work_s = work_sw.seconds();
  const double work_wall_s = work_wall.seconds();
  const double window_s = window_sw.seconds();
  tracer.set_enabled(false);
  const auto after = registry.snapshot();
  sim = w->sim();
  registry.set_enabled(false);
  checks.expect(same(sim, plain),
                "traced run reproduces the untraced run bit for bit");
  sanity(checks, sim);

  const auto self = perfbench::self_times(tracer.collect(), 0);
  const auto span_ms = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second.ms;
  };
  const auto d = counter_deltas(before, after);
  const auto delta = [&](const std::string& name) {
    const auto it = d.find(name);
    return it == d.end() ? 0.0 : it->second;
  };
  const std::size_t threads = refit::ThreadPool::global().size();
  double busy_ns = 0.0;
  for (std::size_t lane = 1; lane < threads; ++lane) {
    busy_ns += delta("pool.worker." + std::to_string(lane) + ".busy_ns");
  }
  const double gflop = delta("tensor.gemm.flops") * 1e-9;
  const std::vector<std::pair<std::string, double>> m = {
      {"core.train_step.ms", span_ms("core.train_step")},
      {"core.eval.ms", span_ms("core.eval")},
      {"core.detection.ms", span_ms("core.detection")},
      {"core.remap.ms", span_ms("core.remap")},
      {"core.device_tick.ms", span_ms("core.device_tick")},
      {"core.threshold.write_frac",
       ratio(static_cast<double>(host.updates_written),
             static_cast<double>(host.updates_considered))},
      {"nn.forward.ms", span_ms("nn.forward")},
      {"nn.backward.ms", span_ms("nn.backward")},
      {"tensor.gemm.gflop", gflop},
      {"tensor.gemm.gflop_per_s", gflop / work_s},
      {"rcs.update.ms", span_ms("rcs.update")},
      {"rcs.writes", delta("store.writes")},
      {"rcs.fused_forward.ms", span_ms("fused_forward")},
      {"rcs.pack.ms", span_ms("fused_forward.pack")},
      {"rcs.pack_tiles_per_forward",
       ratio(delta("store.fused_pack_tiles"),
             delta("store.fused_forward.calls"))},
      {"rcs.tick.ms", span_ms("rcs.tick")},
      {"detect.store.ms", span_ms("detect.store")},
      {"detect.evaluate.ms", span_ms("detect.evaluate")},
      {"detect.cells_tested", delta("detector.cells_tested")},
      {"detect.pulses", delta("detector.pulses")},
      {"detect.adc_reads", delta("detector.adc_reads")},
      {"detect.retested_frac",
       ratio(delta("detector.cells_retested"), delta("detector.cells_tested"))},
      {"common.pool.busy_frac",
       ratio(busy_ns, static_cast<double>(threads - 1) * work_wall_s * 1e9)},
      {"common.pool.inline_frac",
       ratio(delta("pool.parallel_for.inline"),
             delta("pool.parallel_for.calls"))},
      {"data.synth.ms", span_ms("data.synth")},
      {"obs.trace_overhead_frac", work_s / plain_s - 1.0},
  };
  metrics = metrics_json(m);

  // Human-readable self-time table, every span name with its share of the
  // traced window (set-up + work).
  std::fprintf(stderr, "%-22s %12s %10s %8s\n", "span", "self ms", "calls",
               "share");
  for (const auto& [name, t] : self) {
    std::fprintf(stderr, "%-22s %12.3f %10llu %7.2f%%\n", name.c_str(), t.ms,
                 static_cast<unsigned long long>(t.calls),
                 100.0 * t.ms / (window_s * 1e3));
  }

  // Artifacts for tools/refit_report: the Chrome trace, and the registry
  // snapshot with the per-layer results added as perfbench.* gauges.
  registry.set_enabled(true);
  for (const auto& [name, value] : m) {
    registry.gauge("perfbench." + name).set(value);
  }
  registry.set_enabled(false);
  std::filesystem::create_directories(o.out_dir);
  const std::string stem = o.out_dir + "/" + o.workload + "-seed" +
                           std::to_string(o.seed);
  {
    std::ofstream os(stem + ".trace.json");
    tracer.write_chrome_json(os);
  }
  {
    std::ofstream os(stem + ".metrics.json");
    registry.write_json(os);
  }
  std::ostringstream os;
  os << "{\"threads\": " << threads << ", \"window_wall_s\": "
     << num(window_s) << ", \"work_wall_s\": " << num(work_wall_s)
     << ", \"work_cpu_s\": " << num(work_s) << ", \"untraced_work_cpu_s\": "
     << num(plain_s) << ", \"trace\": \"" << stem << ".trace.json\""
     << ", \"metrics_snapshot\": \"" << stem << ".metrics.json\"}";
  notes = os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  // Spans are attributed on the calling thread's track; pin it to 0.
  refit::obs::Tracer::set_thread_tid(0);

  if (o.sim_only) {
    auto w = perfbench::make_workload(o.workload, o.seed, /*small=*/false);
    HostSamples host;
    const SimOutputs s = run_once(*w, host, false);
    std::printf("{\"sim\": %s}\n", sim_json(s).c_str());
    return 0;
  }

  Checks checks;
  SimOutputs sim;
  std::string metrics, notes;
  if (o.trace) {
    run_traced(o, checks, sim, metrics, notes);
  } else {
    run_measured(o, checks, sim, metrics, notes);
  }
  std::ostringstream failures;
  for (std::size_t i = 0; i < checks.failures.size(); ++i) {
    failures << (i ? ", " : "") << "\"" << checks.failures[i] << "\"";
  }
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"sim\": %s, \"checks\": "
      "{\"attempted\": %llu, \"failures\": [%s]}, \"metrics\": %s, "
      "\"notes\": %s}\n",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed),
      sim_json(sim).c_str(), static_cast<unsigned long long>(checks.attempted),
      failures.str().c_str(), metrics.c_str(), notes.c_str());
  return 0;
}
