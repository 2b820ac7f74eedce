#include "perfbench/cell.h"

#include <algorithm>
#include <ctime>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "perfbench/metrics.h"
#include "perfbench/tracer.h"
#include "src/adaserve.h"

namespace perfbench {

using adaserve::ArrivalStream;
using adaserve::CategorySpec;
using adaserve::Cluster;
using adaserve::ClusterConfig;
using adaserve::EngineConfig;
using adaserve::EngineResult;
using adaserve::Experiment;
using adaserve::Metrics;
using adaserve::PriorityPolicy;
using adaserve::Request;
using adaserve::RequestPool;
using adaserve::RequestState;
using adaserve::Scheduler;
using adaserve::ServingContext;
using adaserve::Setup;
using adaserve::SimTime;
using adaserve::SystemKind;
using adaserve::TickResult;
using adaserve::TickTraceEvent;
using adaserve::TickTraceSink;

namespace {

// --- workload parameters ------------------------------------------------------
//
// spec_bursty: the Fig. 13 three-category bursty trace on the Llama setup,
// on four times bench_fig14's 120 s window: longer bursts hold more
// requests, so attainment and goodput vary less between seeds.
constexpr double kSpecBurstyDuration = 480.0;
// kv_pressure: the Fig. 1 admission ablation shape (see bench_fig01).
constexpr double kKvPressureDuration = 240.0;
constexpr double kKvCapTokens = 6144.0;
// fleet_stream: four heterogeneous Llama replicas behind the SLO-aware
// router, real-shaped trace at 12 rps fleet-wide.
constexpr double kFleetDuration = 600.0;
constexpr double kFleetRps = 12.0;

// Set-up builds per cell run; set-up times are medians over them.
constexpr int kSetupRepeats = 5;

// Stream tags of DeriveSeed.
constexpr uint64_t kTraceSeedTag = 1;
constexpr uint64_t kMixSeedTag = 2;
constexpr uint64_t kEngineSeedTag = 3;
constexpr uint64_t kRouterSeedTag = 4;

// Seed of one derived random stream of a workload run (splitmix64 of the
// workload seed and a stream tag), so every trace and sampling seed follows
// from the one seed the benchmark is given.
uint64_t DeriveSeed(uint64_t seed, uint64_t tag) {
  uint64_t z = seed + tag * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// The benchmark's workloads, in a fixed order.
const std::vector<WorkloadInfo>& Workloads() {
  static const std::vector<WorkloadInfo> workloads = {
      {"spec_bursty", {"AdaServe", "vLLM-Spec(6)"}},
      {"kv_pressure", {"vLLM-FIFO", "vLLM-urgent-first", "vLLM-urgent-pause", "EDF+AC"}},
      {"fleet_stream", {"Sarathi-Serve-x4-slo-router"}},
  };
  return workloads;
}

// Host time is the process's CPU time: the cell runs on one thread, and on
// a shared machine CPU time does not count the time other processes hold
// the core.
double CpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Forwards every call to the stream it wraps, counting pulled requests
// and timing each call as a workload.stream span.
class ForwardingStream final : public ArrivalStream {
 public:
  explicit ForwardingStream(ArrivalStream* inner) : inner_(inner) {}

  bool Exhausted() override {
    ScopedSpan span(Layer::kStream);
    return inner_->Exhausted();
  }
  const Request* Peek() override {
    ScopedSpan span(Layer::kStream);
    return inner_->Peek();
  }
  Request Next() override {
    ScopedSpan span(Layer::kStream);
    ++pulled_;
    return inner_->Next();
  }
  size_t emitted() const override { return inner_->emitted(); }

  long pulled() const { return pulled_; }

 private:
  ArrivalStream* inner_;
  long pulled_ = 0;
};

// Forwards the engine's Tick to the wrapped scheduler inside a serve.tick
// span. The engine only ever calls Tick, name and AdmissionPriority; the
// phase hooks are unreachable through the decorator.
class TracedScheduler final : public Scheduler {
 public:
  explicit TracedScheduler(std::unique_ptr<Scheduler> inner) : inner_(std::move(inner)) {}

  std::string_view name() const override { return inner_->name(); }
  TickResult Tick(SimTime now, RequestPool& pool, ServingContext& ctx) override {
    ScopedSpan span(Layer::kTick);
    return inner_->Tick(now, pool, ctx);
  }
  PriorityPolicy AdmissionPriority() const override { return inner_->AdmissionPriority(); }

 protected:
  adaserve::IterationRecord DrainStep(SimTime, RequestPool&, ServingContext&) override {
    std::abort();
  }
  adaserve::IterationRecord DecodePhase(SimTime, RequestPool&, ServingContext&) override {
    std::abort();
  }

 private:
  std::unique_ptr<Scheduler> inner_;
};

// Counts progressing ticks and their decode batches. Cluster replicas,
// whose schedulers the library builds, pass `open_tick`, shared by the
// fleet's sinks: each tick is then recorded as the host time since the
// replica's previous tick, or since its first pulled arrival, and a
// replica's first event closes the previous replica's trailing span.
class CountingSink final : public TickTraceSink {
 public:
  explicit CountingSink(CountingSink** open_tick = nullptr) : open_tick_(open_tick) {}

  void OnArrival(const Request&) override { OpenTick(); }
  void OnTick(const TickTraceEvent& event) override {
    ++ticks_;
    decode_requests_ += event.record.decode_requests;
    OpenTick();
    if (open_tick_ != nullptr && *open_tick_ == this) {
      GlobalTracer().End(Layer::kTick);
      GlobalTracer().Begin(Layer::kTick);
    }
  }
  // Drops the open span after a replica's last tick: that time is not a tick.
  void CloseTick() {
    if (open_tick_ != nullptr && *open_tick_ == this) {
      GlobalTracer().Abandon(Layer::kTick);
      *open_tick_ = nullptr;
    }
  }

  long ticks() const { return ticks_; }
  long decode_requests() const { return decode_requests_; }

 private:
  void OpenTick() {
    if (open_tick_ == nullptr || *open_tick_ == this || !GlobalTracer().enabled()) {
      return;
    }
    if (*open_tick_ != nullptr) {
      (*open_tick_)->CloseTick();
    }
    GlobalTracer().Begin(Layer::kTick);
    *open_tick_ = this;
  }

  CountingSink** open_tick_;
  long ticks_ = 0;
  long decode_requests_ = 0;
};

// Fills the per-request and counter fields of `out` from a run's metrics.
void AddMetrics(const Metrics& m, CellOutcome* out) {
  for (int c = 0; c < kNumCategories; ++c) {
    const adaserve::CategoryMetrics& cat = m.per_category[static_cast<size_t>(c)];
    out->finished_by_cat[static_cast<size_t>(c)] += cat.finished;
    out->attained_by_cat[static_cast<size_t>(c)] += cat.attained;
    out->ttft_ms.insert(out->ttft_ms.end(), cat.ttft_ms.values().begin(),
                        cat.ttft_ms.values().end());
    out->tpot_ms.insert(out->tpot_ms.end(), cat.tpot_ms.values().begin(),
                        cat.tpot_ms.values().end());
  }
  out->finished += m.finished;
  out->rejected += m.rejections;
  out->output_tokens += m.output_tokens();
  out->admissions += m.admissions;
  out->evictions += m.evictions;
  out->pauses += m.pauses;
  out->degraded += m.degraded;
}

long CountUnfinished(const EngineResult& result) {
  long unfinished = 0;
  for (const Request& req : result.requests) {
    if (req.state != RequestState::kFinished && req.state != RequestState::kRejected) {
      ++unfinished;
    }
  }
  return unfinished;
}

CategoryCounts CountByCategory(const std::vector<Request>& trace) {
  CategoryCounts counts{};
  for (const Request& req : trace) {
    ++counts[static_cast<size_t>(req.category)];
  }
  return counts;
}

// --- spec_bursty ----------------------------------------------------------------

std::array<adaserve::BurstSpec, kNumCategories> Fig13Bursts() {
  return {{
      {.base_rps = 0.4, .peak_rps = 4.0, .peak_phase = 0.50, .peak_width = 0.10},
      {.base_rps = 0.4, .peak_rps = 3.5, .peak_phase = 0.18, .peak_width = 0.10},
      {.base_rps = 0.4, .peak_rps = 3.0, .peak_phase = 0.82, .peak_width = 0.10},
  }};
}

std::vector<Request> SpecBurstyTrace(const Experiment& exp, uint64_t seed) {
  return adaserve::BuildBurstyWorkload(exp.Categories(), Fig13Bursts(), kSpecBurstyDuration,
                                       DeriveSeed(seed, kTraceSeedTag));
}

// --- kv_pressure ----------------------------------------------------------------

struct KvCell {
  SystemKind system;
  // Unset: the scheduler's own default (EDF for EDF+AC).
  std::optional<PriorityPolicy> priority;
};

const std::vector<KvCell>& KvCells() {
  static const std::vector<KvCell> cells = {
      {SystemKind::kVllm, PriorityPolicy::kFifo},
      {SystemKind::kVllm, PriorityPolicy::kSloUrgentFirst},
      {SystemKind::kVllm, PriorityPolicy::kSloUrgentPause},
      {SystemKind::kEdfAdmission, std::nullopt},
  };
  return cells;
}

// Llama with the device KV capped at kKvCapTokens (inverting KvCacheBytes:
// 0.85 headroom, per-TP weight split), as in the Fig. 1 admission ablation.
Setup KvPressureSetup() {
  Setup setup = adaserve::LlamaSetup();
  setup.gpu.mem_bytes = (setup.target_profile.WeightBytes() / setup.tensor_parallel +
                         kKvCapTokens * setup.target_profile.KvBytesPerToken() /
                             setup.tensor_parallel) /
                        0.85;
  return setup;
}

// Short urgent requests and long-prefill loose-SLO requests, SLOs kept.
std::vector<CategorySpec> KvPressureCategories(const Experiment& exp) {
  std::vector<CategorySpec> cats = exp.Categories();
  cats[adaserve::kCatCoding].prompt_len = {
      .log_mean = std::log(96.0), .log_stddev = 0.3, .min_len = 32, .max_len = 256};
  cats[adaserve::kCatCoding].output_len = {
      .log_mean = std::log(12.0), .log_stddev = 0.3, .min_len = 4, .max_len = 32};
  cats[adaserve::kCatSummarization].prompt_len = {
      .log_mean = std::log(1500.0), .log_stddev = 0.25, .min_len = 512, .max_len = 2048};
  cats[adaserve::kCatSummarization].output_len = {
      .log_mean = std::log(16.0), .log_stddev = 0.3, .min_len = 4, .max_len = 32};
  return cats;
}

std::unique_ptr<ArrivalStream> KvPressureStream(const Experiment& exp, uint64_t seed) {
  adaserve::MmppStreamConfig config;
  config.mmpp.state_rps = {6.0, 36.0};
  config.mmpp.mean_sojourn_s = {1.0, 1.0};
  config.duration = kKvPressureDuration;
  config.mix = {0.6, 0.0, 0.4};
  config.trace_seed = DeriveSeed(seed, kTraceSeedTag);
  config.sampling_seed = DeriveSeed(seed, kMixSeedTag);
  return adaserve::MakeMmppStream(KvPressureCategories(exp), config);
}

// --- fleet_stream ---------------------------------------------------------------

std::unique_ptr<ArrivalStream> FleetStream(const Experiment& reference, uint64_t seed) {
  adaserve::WorkloadConfig mix{.mix = {0.6, 0.2, 0.2}};
  mix.seed = DeriveSeed(seed, kMixSeedTag);
  return reference.RealTraceStream(kFleetDuration, kFleetRps, mix,
                                   DeriveSeed(seed, kTraceSeedTag));
}

// Everything a cell builds before its first tick.
struct CellSetup {
  // The cell's experiment (fleet_stream: the reference that generates the
  // fleet-wide trace).
  std::unique_ptr<Experiment> exp;
  // Engine cells: the trace the engine serves.
  std::unique_ptr<ArrivalStream> stream;
  // fleet_stream: the cluster and its routed partitions.
  std::unique_ptr<Cluster> cluster;
  std::vector<std::vector<Request>> partitions;
  long pulled = 0;
};

// Builds a cell's set-up kSetupRepeats times, keeping the last build, and
// reports each phase as its median over the repeats: set-up takes
// microseconds to milliseconds, so one build would be timing noise. Only
// the kept build is traced.
template <typename Build>
std::unique_ptr<CellSetup> RepeatedSetup(const Build& build, CellHostTimes* times) {
  const bool traced = GlobalTracer().enabled();
  std::vector<double> experiment;
  std::vector<double> trace;
  std::vector<double> partition;
  std::vector<double> total;
  std::unique_ptr<CellSetup> setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    setup.reset();
    GlobalTracer().set_enabled(traced && i + 1 == kSetupRepeats);
    CellHostTimes t;
    {
      ScopedSpan span(Layer::kSetup);
      setup = build(&t);
    }
    experiment.push_back(t.experiment_build_s);
    trace.push_back(t.trace_build_s);
    partition.push_back(t.partition_s);
    total.push_back(t.experiment_build_s + t.trace_build_s + t.partition_s);
  }
  GlobalTracer().set_enabled(traced);
  times->experiment_build_s = Median(experiment);
  times->trace_build_s = Median(trace);
  times->partition_s = Median(partition);
  times->setup_s = Median(total);
  return setup;
}

// Serves an engine cell (spec_bursty, kv_pressure): the set-up's stream
// feeds the engine through a counting decorator.
void ServeEngineCell(const CellSetup& setup, SystemKind system, EngineConfig engine,
                     CellOutcome* out, CellHostTimes* times) {
  CountingSink sink;
  engine.trace_sink = &sink;
  ForwardingStream forwarding(setup.stream.get());
  TracedScheduler scheduler(adaserve::MakeScheduler(system));
  const auto serve_start = CpuNow();
  EngineResult result;
  {
    ScopedSpan span(Layer::kEngine);
    result = setup.exp->Run(scheduler, forwarding, engine);
  }
  times->serve_s = CpuNow() - serve_start;
  AddMetrics(result.metrics, out);
  out->goodput_tok_s = result.metrics.GoodputTps();
  out->pulled = forwarding.pulled();
  out->unfinished = CountUnfinished(result);
  out->ticks = sink.ticks();
  out->decode_requests = sink.decode_requests();
  out->peak_resident = static_cast<long>(result.peak_resident_requests);
}

void RunSpecBursty(int cell, uint64_t seed, const SetupDone& setup_done, CellOutcome* out,
                   CellHostTimes* times) {
  const std::unique_ptr<CellSetup> setup = RepeatedSetup(
      [seed](CellHostTimes* t) {
        auto s = std::make_unique<CellSetup>();
        double start = CpuNow();
        s->exp = std::make_unique<Experiment>(adaserve::LlamaSetup());
        t->experiment_build_s = CpuNow() - start;
        start = CpuNow();
        s->stream = std::make_unique<adaserve::MaterializedStream>(SpecBurstyTrace(*s->exp, seed));
        t->trace_build_s = CpuNow() - start;
        return s;
      },
      times);
  setup_done(*times);
  EngineConfig engine;
  engine.sampling_seed = DeriveSeed(seed, kEngineSeedTag);
  ServeEngineCell(*setup, cell == 0 ? SystemKind::kAdaServe : SystemKind::kVllmSpec6, engine,
                  out, times);
}

void RunKvPressure(int cell, uint64_t seed, const SetupDone& setup_done, CellOutcome* out,
                   CellHostTimes* times) {
  const KvCell& spec = KvCells()[static_cast<size_t>(cell)];
  const std::unique_ptr<CellSetup> setup = RepeatedSetup(
      [seed](CellHostTimes* t) {
        auto s = std::make_unique<CellSetup>();
        double start = CpuNow();
        s->exp = std::make_unique<Experiment>(KvPressureSetup());
        t->experiment_build_s = CpuNow() - start;
        start = CpuNow();
        s->stream = KvPressureStream(*s->exp, seed);
        t->trace_build_s = CpuNow() - start;
        return s;
      },
      times);
  setup_done(*times);
  EngineConfig engine;
  engine.sampling_seed = DeriveSeed(seed, kEngineSeedTag);
  engine.retire_finished = true;
  engine.tick.max_active = 64;
  engine.tick.prefill_burst = 128;
  engine.tick.max_evictions = 8;
  engine.tick.admission_priority = spec.priority;
  ServeEngineCell(*setup, spec.system, engine, out, times);
}

// The four heterogeneous replicas of bench_fig09_cluster, each serving
// with retired finished requests and reporting to its own sink.
ClusterConfig FleetConfig(uint64_t seed, std::vector<CountingSink>& sinks) {
  ClusterConfig config;
  size_t i = 0;
  for (Setup setup : {adaserve::LlamaSetup(), adaserve::LlamaTp8Setup(),
                      adaserve::LlamaH100Tp8Setup(), adaserve::LlamaDraftOffloadSetup()}) {
    adaserve::ReplicaSpec replica;
    replica.setup = std::move(setup);
    replica.engine.retire_finished = true;
    replica.engine.sampling_seed = DeriveSeed(seed, kEngineSeedTag);
    replica.engine.trace_sink = &sinks.at(i++);
    config.replicas.push_back(std::move(replica));
  }
  config.router = adaserve::RouterPolicy::kSloAware;
  config.router_config.seed = DeriveSeed(seed, kRouterSeedTag);
  config.threads = 1;
  return config;
}

void RunFleetStream(uint64_t seed, const SetupDone& setup_done, CellOutcome* out,
                    CellHostTimes* times) {
  CountingSink* open_tick = nullptr;
  std::vector<CountingSink> sinks(4, CountingSink(&open_tick));
  const std::unique_ptr<CellSetup> setup = RepeatedSetup(
      [seed, &sinks](CellHostTimes* t) {
        auto s = std::make_unique<CellSetup>();
        double start = CpuNow();
        s->exp = std::make_unique<Experiment>(adaserve::LlamaSetup());
        s->cluster = std::make_unique<Cluster>(FleetConfig(seed, sinks));
        t->experiment_build_s = CpuNow() - start;
        start = CpuNow();
        std::unique_ptr<ArrivalStream> stream = FleetStream(*s->exp, seed);
        t->trace_build_s = CpuNow() - start;
        start = CpuNow();
        ForwardingStream forwarding(stream.get());
        s->partitions = s->cluster->Partition(forwarding);
        s->pulled = forwarding.pulled();
        t->partition_s = CpuNow() - start;
        return s;
      },
      times);
  setup_done(*times);

  long routed_total = 0;
  long routed_max = 0;
  for (const std::vector<Request>& p : setup->partitions) {
    routed_total += static_cast<long>(p.size());
    routed_max = std::max(routed_max, static_cast<long>(p.size()));
  }
  out->pulled = setup->pulled;
  out->routed_share_max =
      routed_total > 0 ? static_cast<double>(routed_max) / static_cast<double>(routed_total) : 0.0;

  const auto serve_start = CpuNow();
  adaserve::ClusterResult result;
  {
    ScopedSpan span(Layer::kEngine);
    result = setup->cluster->RunPartitioned(SystemKind::kSarathi, std::move(setup->partitions));
    if (open_tick != nullptr) {
      open_tick->CloseTick();
    }
  }
  times->serve_s = CpuNow() - serve_start;

  AddMetrics(result.metrics.merged, out);
  out->goodput_tok_s = result.metrics.merged.GoodputTps();
  for (size_t r = 0; r < result.replicas.size(); ++r) {
    out->unfinished += CountUnfinished(result.replicas[r].result);
    out->peak_resident = std::max(
        out->peak_resident, static_cast<long>(result.replicas[r].result.peak_resident_requests));
    out->ticks += sinks[r].ticks();
    out->decode_requests += sinks[r].decode_requests();
  }
  // The merge already ran inside RunPartitioned; time it again on the same
  // per-replica metrics to report its cost on its own.
  const auto merge_start = CpuNow();
  const adaserve::ClusterMetrics merged = adaserve::MakeClusterMetrics(result.metrics.per_replica);
  times->merge_s = CpuNow() - merge_start;
  if (merged.merged.finished != result.metrics.merged.finished) {
    std::fprintf(stderr, "perfbench: cluster merge is not deterministic\n");
    std::abort();
  }
}

// --- outcome text ---------------------------------------------------------------

void PutVector(std::ostringstream& os, const char* key, const std::vector<double>& values) {
  os << key << ' ' << values.size();
  for (double v : values) {
    os << ' ' << HexDouble(v);
  }
  os << '\n';
}

bool GetVector(std::istringstream& is, std::vector<double>* values) {
  size_t n = 0;
  if (!(is >> n)) {
    return false;
  }
  values->clear();
  values->reserve(n);
  std::string token;
  for (size_t i = 0; i < n; ++i) {
    if (!(is >> token)) {
      return false;
    }
    values->push_back(std::strtod(token.c_str(), nullptr));
  }
  return true;
}

}  // namespace

std::string HexDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

const WorkloadInfo* FindWorkload(const std::string& name) {
  for (const WorkloadInfo& w : Workloads()) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

CategoryCounts CountTrace(const std::string& workload, uint64_t seed) {
  if (workload == "spec_bursty") {
    const Experiment exp(adaserve::LlamaSetup());
    return CountByCategory(SpecBurstyTrace(exp, seed));
  }
  std::unique_ptr<ArrivalStream> stream;
  if (workload == "kv_pressure") {
    stream = KvPressureStream(Experiment(KvPressureSetup()), seed);
  } else {
    stream = FleetStream(Experiment(adaserve::LlamaSetup()), seed);
  }
  return CountByCategory(adaserve::Materialize(*stream));
}

void RunCell(const std::string& workload, int cell, uint64_t seed, const SetupDone& setup_done,
             CellOutcome* outcome, CellHostTimes* times) {
  if (workload == "spec_bursty") {
    RunSpecBursty(cell, seed, setup_done, outcome, times);
  } else if (workload == "kv_pressure") {
    RunKvPressure(cell, seed, setup_done, outcome, times);
  } else {
    RunFleetStream(seed, setup_done, outcome, times);
  }
}

std::string CellOutcome::Serialize() const {
  std::ostringstream os;
  auto counts = [&os](const char* key, const CategoryCounts& c) {
    os << key;
    for (long n : c) {
      os << ' ' << n;
    }
    os << '\n';
  };
  counts("finished_by_cat", finished_by_cat);
  counts("attained_by_cat", attained_by_cat);
  os << "totals " << finished << ' ' << rejected << ' ' << unfinished << ' ' << pulled << ' '
     << output_tokens << '\n';
  os << "counters " << ticks << ' ' << decode_requests << ' ' << admissions << ' ' << evictions
     << ' ' << pauses << ' ' << degraded << ' ' << peak_resident << '\n';
  os << "ratios " << HexDouble(goodput_tok_s) << ' ' << HexDouble(routed_share_max) << '\n';
  PutVector(os, "ttft_ms", ttft_ms);
  PutVector(os, "tpot_ms", tpot_ms);
  return os.str();
}

bool CellOutcome::Parse(const std::string& text, CellOutcome* out) {
  std::istringstream is(text);
  std::string key;
  auto counts = [&is, &key](const char* want, CategoryCounts* c) {
    if (!(is >> key) || key != want) {
      return false;
    }
    for (long& n : *c) {
      if (!(is >> n)) {
        return false;
      }
    }
    return true;
  };
  CellOutcome o;
  std::string goodput;
  std::string share;
  if (!counts("finished_by_cat", &o.finished_by_cat) ||
      !counts("attained_by_cat", &o.attained_by_cat)) {
    return false;
  }
  if (!(is >> key) || key != "totals" ||
      !(is >> o.finished >> o.rejected >> o.unfinished >> o.pulled >> o.output_tokens)) {
    return false;
  }
  if (!(is >> key) || key != "counters" ||
      !(is >> o.ticks >> o.decode_requests >> o.admissions >> o.evictions >> o.pauses >>
        o.degraded >> o.peak_resident)) {
    return false;
  }
  if (!(is >> key) || key != "ratios" || !(is >> goodput >> share)) {
    return false;
  }
  o.goodput_tok_s = std::strtod(goodput.c_str(), nullptr);
  o.routed_share_max = std::strtod(share.c_str(), nullptr);
  if (!(is >> key) || key != "ttft_ms" || !GetVector(is, &o.ttft_ms)) {
    return false;
  }
  if (!(is >> key) || key != "tpot_ms" || !GetVector(is, &o.tpot_ms)) {
    return false;
  }
  *out = std::move(o);
  return true;
}

}  // namespace perfbench
