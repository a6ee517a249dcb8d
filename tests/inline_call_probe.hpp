// Test helper: proves that a pooled call really fanned out across the
// thread pool, through the pool's own telemetry counters.
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.hpp"

namespace refit {

/// Enables metrics while alive and reports how many top-level
/// parallel_for calls ran inline on the caller since construction, so a
/// test can prove a pooled run really fanned out. available() is false in
/// -DREFIT_OBS=OFF builds, where metrics compile away.
class InlineCallProbe {
 public:
  InlineCallProbe() : was_enabled_(obs::MetricsRegistry::instance().enabled()) {
    obs::MetricsRegistry::instance().set_enabled(true);
    calls0_ = read("pool.parallel_for.calls");
    inline0_ = read("pool.parallel_for.inline");
  }
  ~InlineCallProbe() {
    obs::MetricsRegistry::instance().set_enabled(was_enabled_);
  }
  InlineCallProbe(const InlineCallProbe&) = delete;
  InlineCallProbe& operator=(const InlineCallProbe&) = delete;

  [[nodiscard]] bool available() const {
    return obs::MetricsRegistry::instance().enabled();
  }
  [[nodiscard]] std::uint64_t calls() const {
    return read("pool.parallel_for.calls") - calls0_;
  }
  [[nodiscard]] std::uint64_t inline_calls() const {
    return read("pool.parallel_for.inline") - inline0_;
  }

 private:
  static std::uint64_t read(const std::string& name) {
    for (const auto& m : obs::MetricsRegistry::instance().snapshot())
      if (m.name == name) return m.count;
    return 0;
  }
  bool was_enabled_;
  std::uint64_t calls0_ = 0;
  std::uint64_t inline0_ = 0;
};

}  // namespace refit
