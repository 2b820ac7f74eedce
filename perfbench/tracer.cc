#include "perfbench/tracer.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kTargetNextDist:
      return "model.target_next_dist";
    case Layer::kDraftNextDist:
      return "model.draft_next_dist";
    case Layer::kSample:
      return "model.sample";
    case Layer::kCandidateTree:
      return "spec.candidate_tree";
    case Layer::kChainTree:
      return "spec.chain_tree";
    case Layer::kVerify:
      return "spec.verify";
    case Layer::kSelect:
      return "core.select";
    case Layer::kAdmit:
      return "serve.admit";
    case Layer::kPrefillPhase:
      return "serve.prefill_phase";
    case Layer::kStream:
      return "workload.stream";
    case Layer::kTick:
      return "serve.tick";
    case Layer::kEngine:
      return "serve.engine";
    case Layer::kSetup:
      return "harness.setup";
    case Layer::kCount:
      break;
  }
  return "?";
}

int64_t Tracer::SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Tracer(Clock clock) : clock_(clock), epoch_ns_(clock()) {}

void Tracer::Begin(Layer layer) { stack_.push_back({layer, clock_(), 0}); }

static void CheckTop(bool ok, Layer layer) {
  if (!ok) {
    std::fprintf(stderr, "perfbench: unbalanced span %s\n", LayerName(layer));
    std::abort();
  }
}

int64_t Tracer::End(Layer layer) {
  const int64_t now = clock_();
  CheckTop(!stack_.empty() && stack_.back().layer == layer, layer);
  const Frame frame = stack_.back();
  stack_.pop_back();
  const int64_t dur = now - frame.start_ns;
  LayerStats& stats = stats_[static_cast<size_t>(layer)];
  ++stats.calls;
  stats.self_ns += dur - frame.child_ns;
  if (!stack_.empty()) {
    stack_.back().child_ns += dur;
  }
  if (IsCoarse(layer)) {
    events_.push_back({layer, frame.start_ns - epoch_ns_, dur});
    if (layer == Layer::kTick) {
      tick_ns_.push_back(dur);
    }
  }
  return dur;
}

void Tracer::Abandon(Layer layer) {
  CheckTop(!stack_.empty() && stack_.back().layer == layer, layer);
  const int64_t child_ns = stack_.back().child_ns;
  stack_.pop_back();
  if (!stack_.empty()) {
    stack_.back().child_ns += child_ns;
  }
}

Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

WorkCounters& GlobalCounters() {
  static WorkCounters counters;
  return counters;
}

}  // namespace perfbench
