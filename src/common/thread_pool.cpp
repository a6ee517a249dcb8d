// Persistent worker pool behind refit::parallel_for (see thread_pool.hpp).
//
// Telemetry (docs/observability.md): every top-level parallel_for bumps
// the pool.parallel_for.calls counter and records a trace span on the
// calling thread; each worker accumulates pool.worker.<lane>.busy_ns.
// Spans are recorded only on the caller and busy time only inside
// worker_loop, so traces taken with an injected ManualClock are
// byte-identical at any thread count.
#include "common/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>

#include "common/check.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace refit {

namespace {

// True on threads currently executing a pool chunk; parallel_for on such a
// thread runs inline instead of fanning out again. Also held on the
// *caller* while it executes its own chunk (inline or lane 0), which (a)
// keeps nested parallel_for calls inline — fanning out mid-job would
// corrupt the pending job — and (b) mutes every trace span opened inside
// the chunk on every path, so traces do not depend on the thread count.
thread_local bool t_inside_pool = false;

void set_inside_pool(bool inside) {
  t_inside_pool = inside;
  obs::Tracer::set_thread_muted(inside);
}

// Scoped t_inside_pool (exception-safe restore).
struct InsidePoolGuard {
  InsidePoolGuard() { set_inside_pool(true); }
  ~InsidePoolGuard() { set_inside_pool(false); }
};

std::size_t default_thread_count() {
  if (const char* env = std::getenv("REFIT_THREADS")) {
    return parse_thread_count(env);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

/// Chunk `lane` of [0, n) split into `lanes` contiguous ranges.
std::pair<std::size_t, std::size_t> chunk_range(std::size_t n,
                                                std::size_t lanes,
                                                std::size_t lane) {
  return {n * lane / lanes, n * (lane + 1) / lanes};
}

}  // namespace

std::size_t parse_thread_count(const char* text, const char* name) {
  REFIT_CHECK_MSG(text != nullptr && *text != '\0', name << " is empty");
  std::size_t v = 0;
  for (const char* p = text; *p != '\0'; ++p) {
    REFIT_CHECK_MSG(*p >= '0' && *p <= '9',
                    name << " must be a whole decimal number, got '" << text
                         << "'");
    // Checked per digit, so the accumulator can never overflow.
    v = v * 10 + static_cast<std::size_t>(*p - '0');
    REFIT_CHECK_MSG(v <= kMaxThreads,
                    name << " exceeds " << kMaxThreads << ": " << text);
  }
  REFIT_CHECK_MSG(v >= 1, name << " must be at least 1, got " << text);
  return v;
}

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t lanes = std::max<std::size_t>(1, threads);
  workers_.reserve(lanes - 1);
  for (std::size_t lane = 1; lane < lanes; ++lane) {
    workers_.emplace_back([this, lane] { worker_loop(lane); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_chunk(std::size_t lane) {
  if (lane >= job_lanes_) return;
  const auto [begin, end] = chunk_range(job_n_, job_lanes_, lane);
  if (begin >= end) return;
  (*job_body_)(begin, end);
}

bool ThreadPool::inside_chunk() { return t_inside_pool; }

void ThreadPool::worker_loop(std::size_t lane) {
  set_inside_pool(true);
  obs::Tracer::set_thread_tid(static_cast<std::uint32_t>(lane));
  obs::Counter busy_ns = obs::MetricsRegistry::instance().counter(
      "pool.worker." + std::to_string(lane) + ".busy_ns", "ns");
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      start_cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
    }
    std::exception_ptr err;
    const bool timed = obs::metrics_enabled();
    const std::uint64_t t0 = timed ? obs::now_ns() : 0;
    try {
      run_chunk(lane);
    } catch (...) {
      err = std::current_exception();
    }
    if (timed) busy_ns.add(obs::now_ns() - t0);
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (err && !job_error_) job_error_ = err;
      if (--pending_ == 0) done_cv_.notify_one();
    }
  }
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t max_lanes) {
  if (n == 0) return;
  // Nested call from inside a pool chunk: always inline, never measured —
  // the outer call owns the job slots and the trace span.
  if (t_inside_pool) {
    body(0, n);
    return;
  }
  static obs::Counter calls = obs::MetricsRegistry::instance().counter(
      "pool.parallel_for.calls", "calls");
  static obs::Counter inline_calls = obs::MetricsRegistry::instance().counter(
      "pool.parallel_for.inline", "calls");
  calls.add();
  obs::TraceSpan span("parallel_for", "pool");
  const std::size_t lanes =
      std::min(size(), std::min(max_lanes == 0 ? n : max_lanes, n));
  // Serial fallback: 1-lane pool, a range too small to split, or a grain
  // cap of one lane. Runs the exact same chunk math (one chunk = [0, n))
  // without waking any worker.
  if (workers_.empty() || lanes <= 1) {
    inline_calls.add();
    InsidePoolGuard guard;
    body(0, n);
    return;
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    job_n_ = n;
    job_lanes_ = lanes;
    job_body_ = &body;
    job_error_ = nullptr;
    pending_ = workers_.size();
    ++generation_;
  }
  start_cv_.notify_all();
  std::exception_ptr err;
  try {
    InsidePoolGuard guard;
    run_chunk(0);
  } catch (...) {
    err = std::current_exception();
  }
  {
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [&] { return pending_ == 0; });
    job_body_ = nullptr;
    if (!err) err = job_error_;
  }
  if (err) std::rethrow_exception(err);
}

namespace {
std::unique_ptr<ThreadPool>& global_pool_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}
}  // namespace

ThreadPool& ThreadPool::global() {
  auto& slot = global_pool_slot();
  if (!slot) slot = std::make_unique<ThreadPool>(default_thread_count());
  return *slot;
}

void ThreadPool::set_global_threads(std::size_t threads) {
  auto& slot = global_pool_slot();
  slot = std::make_unique<ThreadPool>(threads);
}

}  // namespace refit
