// The benchmark's four workloads. Each one is built from a seed, set up
// (inputs + simulated chip) and then run as a closed loop with one caller.
// A run's simulated outputs depend only on the workload, its size and the
// seed, so every repetition of a run must reproduce them exactly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Stopwatch over the CPU clocks of the process's threads (the caller and
/// the pool workers). Every end-to-end host time of the benchmark uses it.
/// On shared virtual machines the hypervisor can take CPUs away often
/// enough to move wall time up to 3x between identical runs (seen on a
/// 4-vCPU VM); thread CPU clocks leave out that stolen time, and also the
/// time a thread sat blocked. seconds() is the CPU time of the thread that
/// was busiest in the interval: it follows the loop's critical path when
/// the pool splits work into balanced chunks, and grows when work is
/// serialised onto one thread. total_seconds() sums every thread, so it
/// also grows when work on the pool workers alone gets slower. Neither
/// sees time spent blocked (a lock, a condition variable, a worker that
/// was not scheduled).
class CpuStopwatch {
 public:
  CpuStopwatch() : start_(sample()) {}
  void reset() { start_ = sample(); }
  [[nodiscard]] double seconds() const;
  [[nodiscard]] double ms() const { return seconds() * 1e3; }
  [[nodiscard]] double total_seconds() const;

  /// Re-read the process's thread list; call whenever the pool was
  /// re-created and before timing anything.
  static void watch_threads();

 private:
  static std::vector<double> sample();
  std::vector<double> start_;
};

/// What the modelled chip produced. Repeats exactly for a fixed seed.
struct SimOutputs {
  double final_accuracy = 0.0;
  double detect_precision = 0.0;
  double detect_recall = 0.0;
  std::uint64_t detect_cycles = 0;
  std::uint64_t device_writes = 0;
  /// FNV-1a over every served logit (serve-drift; 0 elsewhere).
  std::uint64_t logits_hash = 0;
  /// FNV-1a over the whole simulated end state: weights, fault maps,
  /// detection outcomes and result traces.
  std::uint64_t state_hash = 0;
  /// Chance level of final_accuracy, for the sanity check.
  double chance_accuracy = 0.0;
};

/// Host-time samples taken while a workload runs.
struct HostSamples {
  /// One entry per loop step (engine iteration / chip / served batch).
  std::vector<double> step_ms;
  /// Work items finished (training samples / chips / served samples).
  std::uint64_t items = 0;
  /// Physical cells put through detection, and the host time it took.
  std::uint64_t cells_scanned = 0;
  double scan_s = 0.0;
  /// Updates written and considered by threshold training.
  std::uint64_t updates_written = 0;
  std::uint64_t updates_considered = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the inputs and the simulated system from scratch.
  virtual void setup() = 0;
  /// The measured work on the system setup() built. `timed` swaps in the
  /// span-recording engine phases (layer_timing.hpp).
  virtual void run(HostSamples& host, bool timed) = 0;
  /// Simulated outputs of the last run() (hashing happens here, outside
  /// the measured work).
  [[nodiscard]] virtual SimOutputs sim() = 0;
};

/// Workload names, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// `small` selects a cut-down size of the same workload (the thread-count
/// agreement pass). Throws on an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed,
                                                      bool small);

/// Nominal host seconds of one run() at full size on the reference host;
/// main.cpp repeats run() ceil(seconds / nominal) times.
[[nodiscard]] double nominal_run_seconds(const std::string& name);

}  // namespace perfbench
