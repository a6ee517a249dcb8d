// Per-layer timing for the traced benchmark run, done from outside src/:
// the engine's phases are swapped for span-recording equivalents through
// the public FtEngine(cfg, phases) constructor, and trace spans recorded on
// the calling thread are folded into self time per span name.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "obs/trace.hpp"

namespace perfbench {

/// FtEngine::standard_phases(cfg) with every phase's run() inside a trace
/// span named after its layer ("core.detection", ...), and the train step
/// replaced by a phase that calls the same public functions as
/// TrainStepPhase::run, in the same order, with a span around each call.
[[nodiscard]] std::vector<std::unique_ptr<refit::Phase>> timed_phases(
    const refit::FtFlowConfig& cfg);

/// DeviceTickPhase::run's calls (tick_noise on every store, in order) with
/// an "rcs.tick" span around each store inside a "core.device_tick" span.
void timed_device_tick(refit::RcsSystem& rcs);

/// Factory that builds through `inner` inside a trace span named `span`.
[[nodiscard]] refit::StoreFactory spanned_factory(refit::StoreFactory inner,
                                                  const char* span);

/// Self time of one span name: its spans' durations minus the time their
/// child spans cover. "parallel_for" spans (the pool's caller-side span)
/// are transparent: their time stays with the enclosing layer.
struct SelfTime {
  double ms = 0.0;
  std::uint64_t calls = 0;
};

/// Self time per span name over the events recorded on thread `tid`.
[[nodiscard]] std::map<std::string, SelfTime> self_times(
    const std::vector<refit::obs::TraceEvent>& events, std::uint32_t tid);

}  // namespace perfbench
