// In-process span tracer of the traced benchmark run.
//
// Spans nest on one stack (the benchmark is single-threaded). Leaf-level
// spans (model, spec, core, admission, stream calls — millions per run) are
// only aggregated into per-layer call counts and self time; spans of ticks
// and anything coarser are additionally kept as events and written at exit
// as Chrome trace-event JSON. A span's self time is its duration minus the
// time covered by its direct child spans.
#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

enum class Layer : int {
  kTargetNextDist,  // model: SyntheticLm::NextDist
  kDraftNextDist,   // model: DraftLm::NextDist
  kSample,          // model: DecodeOneToken
  kCandidateTree,   // spec: BuildCandidateTree
  kChainTree,       // spec: BuildChainTree
  kVerify,          // spec: VerifyTree
  kSelect,          // core: TokenSelector::SloPhase / ThroughputPhase
  kAdmit,           // serve: RequestPool::AdmitUpTo / AdmitWithEviction
  kPrefillPhase,    // serve: RunBudgetedPrefillPhase
  kStream,          // workload: ArrivalStream calls
  kTick,            // serve: one scheduler tick
  kEngine,          // serve: one engine run (cluster: one RunPartitioned)
  kSetup,           // harness: cell set-up (experiment, trace, routing)
  kCount,
};

inline constexpr int kNumLayers = static_cast<int>(Layer::kCount);

// Name of a layer's span in the trace output (e.g. "serve.tick").
const char* LayerName(Layer layer);

// Spans at or above kTick are kept as trace events.
inline bool IsCoarse(Layer layer) { return layer >= Layer::kTick; }

struct LayerStats {
  long calls = 0;
  int64_t self_ns = 0;
};

// One kept span, in nanoseconds relative to the tracer's epoch.
struct SpanEvent {
  Layer layer = Layer::kTick;
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
};

class Tracer {
 public:
  using Clock = int64_t (*)();

  // `clock` returns monotonic nanoseconds; tests pass a fake.
  explicit Tracer(Clock clock = SteadyNowNs);

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // Opens a span of `layer`.
  void Begin(Layer layer);
  // Closes the innermost span, which must be of `layer`, and returns its
  // duration in nanoseconds.
  int64_t End(Layer layer);
  // Drops the innermost span without counting it: its own time becomes
  // self time of its parent, its children stay counted.
  void Abandon(Layer layer);
  int depth() const { return static_cast<int>(stack_.size()); }

  const LayerStats& stats(Layer layer) const { return stats_[static_cast<size_t>(layer)]; }
  const std::vector<SpanEvent>& events() const { return events_; }
  // Durations of every closed tick span, nanoseconds.
  const std::vector<int64_t>& tick_durations() const { return tick_ns_; }

  static int64_t SteadyNowNs();

 private:
  struct Frame {
    Layer layer;
    int64_t start_ns;
    int64_t child_ns;
  };

  Clock clock_;
  bool enabled_ = false;
  int64_t epoch_ns_ = 0;
  std::vector<Frame> stack_;
  std::array<LayerStats, kNumLayers> stats_{};
  std::vector<SpanEvent> events_;
  std::vector<int64_t> tick_ns_;
};

// The process-wide tracer the interposed library calls report to.
Tracer& GlobalTracer();

// RAII span on the global tracer; a no-op while tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(Layer layer) : layer_(layer) {
    Tracer& tracer = GlobalTracer();
    active_ = tracer.enabled();
    if (active_) {
      tracer.Begin(layer);
    }
  }
  ~ScopedSpan() { Close(); }
  // Ends the span before the end of its scope.
  void Close() {
    if (active_) {
      GlobalTracer().End(layer_);
      active_ = false;
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Layer layer_;
  bool active_;
};

// Deterministic work counters gathered by the interposed calls and reported
// by the traced run. They must repeat exactly for a fixed seed.
struct WorkCounters {
  long candidate_tree_nodes = 0;
  long verify_accepted = 0;
  long verify_tokens = 0;
  long select_tokens = 0;
};

WorkCounters& GlobalCounters();

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
