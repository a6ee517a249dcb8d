// Span-recording phase replacements and self-time accounting (see
// layer_timing.hpp).
#include "layer_timing.hpp"

#include <unordered_map>
#include <utility>

#include "common/check.hpp"
#include "nn/loss.hpp"

namespace perfbench {

using namespace refit;

namespace {

/// Runs an engine phase inside a trace span; name and schedule forward.
class SpannedPhase final : public Phase {
 public:
  SpannedPhase(std::unique_ptr<Phase> inner, const char* span)
      : inner_(std::move(inner)), span_(span) {}
  [[nodiscard]] const char* name() const override { return inner_->name(); }
  [[nodiscard]] bool due(const EngineContext& ctx) const override {
    return inner_->due(ctx);
  }
  void run(EngineContext& ctx) override {
    obs::TraceSpan span(span_, "core");
    inner_->run(ctx);
  }

 private:
  std::unique_ptr<Phase> inner_;
  const char* span_;
};

/// Forwards to a store, recording an "rcs.update" span around the device
/// update calls. Handed only to ThresholdTrainer::step, so update time in
/// the rcs layer separates from the threshold filter around it.
class SpannedStore final : public WeightStore {
 public:
  explicit SpannedStore(WeightStore& inner) : inner_(inner) {}
  [[nodiscard]] const Shape& shape() const override { return inner_.shape(); }
  [[nodiscard]] const Tensor& effective() override { return inner_.effective(); }
  [[nodiscard]] const Tensor& target() const override {
    return inner_.target();
  }
  [[nodiscard]] Tensor forward_matmul(const Tensor& x) override {
    return inner_.forward_matmul(x);
  }
  void apply_delta(const Tensor& delta) override {
    obs::TraceSpan span("rcs.update", "rcs");
    inner_.apply_delta(delta);
  }
  void apply_delta_full(const Tensor& delta) override {
    obs::TraceSpan span("rcs.update", "rcs");
    inner_.apply_delta_full(delta);
  }
  void assign(const Tensor& w) override { inner_.assign(w); }
  [[nodiscard]] std::uint64_t write_count() const override {
    return inner_.write_count();
  }
  void save_state(std::ostream& os) const override { inner_.save_state(os); }
  void restore_state(std::istream& is) override { inner_.restore_state(is); }

 private:
  WeightStore& inner_;
};

ThresholdConfig effective_threshold(const FtFlowConfig& cfg) {
  ThresholdConfig thr = cfg.threshold;
  if (!cfg.threshold_training) thr.threshold_ratio = 0.0;
  return thr;
}

/// TrainStepPhase::run with a span around each library call.
class TimedTrainStep final : public Phase {
 public:
  explicit TimedTrainStep(const FtFlowConfig& cfg)
      : updater_(effective_threshold(cfg), cfg.lr) {
    // ThresholdTrainer::step looks crossbar stores up by dynamic type for
    // wear leveling and detected-fault skipping; a SpannedStore would hide
    // them, so those two options cannot be timed this way.
    REFIT_CHECK_MSG(cfg.threshold.wear_leveling_beta == 0.0 &&
                        !cfg.skip_writes_on_detected_faults,
                    "timed train step needs wear leveling and detected-"
                    "fault skipping off");
  }
  [[nodiscard]] const char* name() const override { return "train-step"; }
  [[nodiscard]] bool due(const EngineContext&) const override { return true; }

  void run(EngineContext& ctx) override {
    obs::TraceSpan span("core.train_step", "core");
    const FtFlowConfig& cfg = *ctx.cfg;
    Batch batch;
    {
      obs::TraceSpan s("data.batch", "data");
      batch = ctx.batcher->next();
    }
    Tensor logits;
    {
      obs::TraceSpan s("nn.forward", "nn");
      logits = ctx.net->forward(batch.images, /*train=*/true);
    }
    LossResult loss;
    {
      obs::TraceSpan s("nn.loss", "nn");
      loss = softmax_cross_entropy(logits, batch.labels);
    }
    {
      obs::TraceSpan s("nn.backward", "nn");
      ctx.net->backward(loss.grad_logits);
    }
    auto params = ctx.net->params();
    if (cfg.prune.enabled && prune_phase_ != ctx.phase_count) {
      rekey_prune(params, ctx.prune_state);
      prune_phase_ = ctx.phase_count;
    }
    for (Param& p : params) {
      if (p.store != nullptr) p.store = &wrapper(*p.store);
    }
    const ThresholdStepStats st = updater_.step(
        params, ctx.iteration, cfg.prune.enabled ? &prune_ : nullptr, nullptr);
    ctx.result.updates_written += st.writes_issued;
    ctx.result.updates_suppressed += st.writes_suppressed;
    ctx.result.updates_zero += st.updates_zero;
    ctx.net->zero_grad();
  }

 private:
  SpannedStore& wrapper(WeightStore& store) {
    auto& slot = wrappers_[&store];
    if (!slot) slot = std::make_unique<SpannedStore>(store);
    return *slot;
  }

  /// The engine's pruning masks keyed by the wrappers the trainer sees.
  /// Masks change only in detection phases, so this reruns per phase.
  void rekey_prune(const std::vector<Param>& params, const PruneState& src) {
    prune_ = PruneState{};
    for (const Param& p : params) {
      if (p.store == nullptr) continue;
      if (const PruneMask* mask = src.mask_for(p.store)) {
        prune_.merge_mask(&wrapper(*p.store), *mask);
      }
    }
  }

  ThresholdTrainer updater_;
  std::unordered_map<const WeightStore*, std::unique_ptr<SpannedStore>>
      wrappers_;
  PruneState prune_;
  std::size_t prune_phase_ = static_cast<std::size_t>(-1);
};

const char* span_for_phase(const std::string& phase) {
  if (phase == "device-tick") return "core.device_tick";
  if (phase == "detection") return "core.detection";
  if (phase == "remap") return "core.remap";
  if (phase == "eval") return "core.eval";
  REFIT_CHECK_MSG(false, "no span name for engine phase " << phase);
  return "";
}

}  // namespace

std::vector<std::unique_ptr<Phase>> timed_phases(const FtFlowConfig& cfg) {
  std::vector<std::unique_ptr<Phase>> phases;
  for (auto& phase : FtEngine::standard_phases(cfg)) {
    const std::string name = phase->name();
    if (name == "train-step") {
      phases.push_back(std::make_unique<TimedTrainStep>(cfg));
    } else {
      phases.push_back(
          std::make_unique<SpannedPhase>(std::move(phase), span_for_phase(name)));
    }
  }
  return phases;
}

void timed_device_tick(RcsSystem& rcs) {
  obs::TraceSpan span("core.device_tick", "core");
  for (CrossbarWeightStore* store : rcs.stores()) {
    obs::TraceSpan s("rcs.tick", "rcs");
    store->tick_noise();
  }
}

StoreFactory spanned_factory(StoreFactory inner, const char* span) {
  return [inner = std::move(inner), span](const std::string& layer,
                                          Tensor init) {
    obs::TraceSpan s(span, "rcs");
    return inner(layer, std::move(init));
  };
}

std::map<std::string, SelfTime> self_times(
    const std::vector<obs::TraceEvent>& events, std::uint32_t tid) {
  struct Open {
    std::uint64_t end_ns;
    const obs::TraceEvent* ev;  // nullptr for transparent spans
  };
  std::map<std::string, SelfTime> out;
  std::vector<Open> stack;
  // collect() orders by (start, longest first), so a parent precedes its
  // children and the stack holds exactly the spans enclosing `ev`.
  for (const obs::TraceEvent& ev : events) {
    if (ev.tid != tid) continue;
    while (!stack.empty() && stack.back().end_ns <= ev.ts_ns) stack.pop_back();
    const bool transparent = ev.name == "parallel_for";
    if (!transparent) {
      SelfTime& self = out[ev.name];
      self.ms += static_cast<double>(ev.dur_ns) * 1e-6;
      ++self.calls;
      for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
        if (it->ev == nullptr) continue;
        out[it->ev->name].ms -= static_cast<double>(ev.dur_ns) * 1e-6;
        break;
      }
    }
    stack.push_back({ev.ts_ns + ev.dur_ns, transparent ? nullptr : &ev});
  }
  return out;
}

}  // namespace perfbench
