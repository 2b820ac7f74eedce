// The repository benchmark: one workload per invocation.
//
//   perfbench --workload <spec_bursty|kv_pressure|fleet_stream> --seed <n>
//             --seconds <s> --trace <0|1> [--trace_out <file.json>]
//
// Every cell of the workload runs in its own child process, one after the
// other, on one thread. The benchmark repeats passes over all cells until
// `--seconds` have gone by. The first pass gives the served metrics (in
// simulated time, deterministic); every later pass must reproduce them
// byte for byte. Host metrics are medians over the passes. With --trace 1
// the passes alternate between untraced and traced: the traced passes give
// the per-layer metrics and must reproduce the untraced simulated outcome
// exactly, and the ratio of the two speeds is the tracing overhead.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "perfbench/cell.h"
#include "perfbench/isolate.h"
#include "perfbench/metrics.h"
#include "perfbench/tracer.h"

namespace perfbench {
namespace {

// Passes run until --seconds have gone by, and at least this many.
constexpr int kMinUntracedPasses = 3;
constexpr int kMinTracedPasses = 2;
// No cell may run past this many seconds after start, so the benchmark
// always ends well inside its 180 s limit.
constexpr double kHardDeadlineS = 150.0;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && *end == '\0';
    } else if (flag == "--seconds") {
      const long s = std::strtol(value.c_str(), &end, 10);
      have_seconds = !value.empty() && *end == '\0' && s >= 1 && s <= 120;
      args->seconds = static_cast<int>(s);
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args->trace = value == "1";
    } else if (flag == "--trace_out") {
      args->trace_out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (FindWorkload(args->workload) == nullptr) {
    std::fprintf(stderr, "unknown or missing --workload\n");
    return false;
  }
  if (!have_seed || !have_seconds || !have_trace) {
    std::fprintf(stderr, "need --seed <n> --seconds <1..120> --trace <0|1>\n");
    return false;
  }
  return true;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// --- child side ---------------------------------------------------------------

// What a traced child reports beside its outcome.
struct TracedCell {
  std::array<LayerStats, kNumLayers> layers{};
  WorkCounters counters;
  std::vector<int64_t> tick_ns;
  std::vector<SpanEvent> events;
};

// Writes the set-up times as soon as set-up is done, so they reach the
// parent even if the cell then aborts, and the rest once the cell is served.
void CellReport(const ReportWriter& write, const std::string& workload, int cell, uint64_t seed,
                bool traced) {
  GlobalTracer().set_enabled(traced);
  CellOutcome outcome;
  CellHostTimes times;
  const SetupDone setup_done = [&write](const CellHostTimes& t) {
    write("setup " + HexDouble(t.experiment_build_s) + ' ' + HexDouble(t.trace_build_s) + ' ' +
          HexDouble(t.partition_s) + ' ' + HexDouble(t.setup_s) + '\n');
  };
  RunCell(workload, cell, seed, setup_done, &outcome, &times);
  GlobalTracer().set_enabled(false);

  const std::string text = outcome.Serialize();
  std::ostringstream os;
  os << "serve " << HexDouble(times.serve_s) << ' ' << HexDouble(times.merge_s) << '\n';
  os << "outcome_bytes " << text.size() << '\n' << text;
  if (traced) {
    const Tracer& tracer = GlobalTracer();
    for (int l = 0; l < kNumLayers; ++l) {
      const LayerStats& s = tracer.stats(static_cast<Layer>(l));
      os << "layer " << l << ' ' << s.calls << ' ' << s.self_ns << '\n';
    }
    const WorkCounters& c = GlobalCounters();
    os << "counters " << c.candidate_tree_nodes << ' ' << c.verify_accepted << ' '
       << c.verify_tokens << ' ' << c.select_tokens << '\n';
    os << "ticks " << tracer.tick_durations().size();
    for (int64_t ns : tracer.tick_durations()) {
      os << ' ' << ns;
    }
    os << '\n';
    for (const SpanEvent& e : tracer.events()) {
      os << "event " << static_cast<int>(e.layer) << ' ' << e.start_ns << ' ' << e.dur_ns << '\n';
    }
  }
  write(os.str());
}

void CountReport(const ReportWriter& write, const std::string& workload, uint64_t seed) {
  std::string counts;
  for (long n : CountTrace(workload, seed)) {
    counts += std::to_string(n) + ' ';
  }
  write(counts);
}

// --- parent side --------------------------------------------------------------

struct CellRun {
  CellRecord record;
  std::string outcome_text;  // byte-exact simulated outcome
  CellHostTimes times;
  long max_rss_kib = 0;
  TracedCell traced;
};

bool ReadDoubles(std::istream& is, std::initializer_list<double*> fields) {
  std::string token;
  for (double* field : fields) {
    if (!(is >> token)) {
      return false;
    }
    *field = std::strtod(token.c_str(), nullptr);
  }
  return true;
}

// Reads the set-up line every cell that got through set-up wrote.
bool ParseSetup(std::istream& is, CellHostTimes* t) {
  std::string key;
  return is >> key && key == "setup" &&
         ReadDoubles(is, {&t->experiment_build_s, &t->trace_build_s, &t->partition_s,
                          &t->setup_s});
}

// Reads the rest of a completed cell's report.
bool ParseReport(std::istream& is, bool traced, CellRun* run) {
  std::string key;
  size_t bytes = 0;
  if (!(is >> key) || key != "serve" ||
      !ReadDoubles(is, {&run->times.serve_s, &run->times.merge_s}) ||
      !(is >> key >> bytes) || key != "outcome_bytes") {
    return false;
  }
  is.get();
  run->outcome_text.resize(bytes);
  if (!is.read(run->outcome_text.data(), static_cast<std::streamsize>(bytes)) ||
      !CellOutcome::Parse(run->outcome_text, &run->record.outcome)) {
    return false;
  }
  if (!traced) {
    return true;
  }
  TracedCell& tc = run->traced;
  for (int l = 0; l < kNumLayers; ++l) {
    int index = 0;
    if (!(is >> key >> index) || key != "layer" || index != l ||
        !(is >> tc.layers[static_cast<size_t>(l)].calls >>
          tc.layers[static_cast<size_t>(l)].self_ns)) {
      return false;
    }
  }
  WorkCounters& c = tc.counters;
  if (!(is >> key) || key != "counters" ||
      !(is >> c.candidate_tree_nodes >> c.verify_accepted >> c.verify_tokens >>
        c.select_tokens)) {
    return false;
  }
  size_t n = 0;
  if (!(is >> key >> n) || key != "ticks") {
    return false;
  }
  tc.tick_ns.resize(n);
  for (int64_t& ns : tc.tick_ns) {
    if (!(is >> ns)) {
      return false;
    }
  }
  while (is >> key) {
    SpanEvent e;
    int layer = 0;
    if (key != "event" || !(is >> layer >> e.start_ns >> e.dur_ns) || layer < 0 ||
        layer >= kNumLayers) {
      return false;
    }
    e.layer = static_cast<Layer>(layer);
    tc.events.push_back(std::move(e));
  }
  return true;
}

struct Pass {
  bool traced = false;
  std::vector<CellRun> cells;

  // Set-up seconds of every cell, aborted ones too (they abort later).
  double SetupSeconds() const {
    double s = 0.0;
    for (const CellRun& c : cells) {
      s += c.times.setup_s;
    }
    return s;
  }
  // Output tokens per host second of serving, over the cells that completed.
  double TokensPerSecond() const {
    double tokens = 0.0;
    double seconds = 0.0;
    for (const CellRun& c : cells) {
      if (!c.record.aborted) {
        tokens += static_cast<double>(c.record.outcome.output_tokens);
        seconds += c.times.serve_s;
      }
    }
    return seconds > 0.0 ? tokens / seconds : 0.0;
  }
  double PeakRssMib() const {
    long kib = 0;
    for (const CellRun& c : cells) {
      kib = std::max(kib, c.max_rss_kib);
    }
    return static_cast<double>(kib) / 1024.0;
  }
};

class Benchmark {
 public:
  explicit Benchmark(const Args& args)
      : args_(args), info_(*FindWorkload(args.workload)), start_(std::chrono::steady_clock::now()) {}

  int Run();

 private:
  double Left() const { return kHardDeadlineS - SecondsSince(start_); }
  bool RunPass(bool traced);
  void Fail(const std::string& why) {
    std::printf("CHECK FAILED: %s\n", why.c_str());
    correct_ = false;
  }
  void CheckAgainstFirst(const Pass& pass);
  template <typename F>
  std::vector<double> Over(bool traced, F f) const {
    std::vector<double> values;
    for (const Pass& p : passes_) {
      if (p.traced == traced) {
        values.push_back(f(p));
      }
    }
    return values;
  }
  void PrintServed(const ServedSummary& s) const;
  void PrintLayers();
  void WriteChromeTrace() const;

  Args args_;
  const WorkloadInfo& info_;
  std::chrono::steady_clock::time_point start_;
  CategoryCounts generated_{};
  std::vector<Pass> passes_;
  bool correct_ = true;
  bool out_of_time_ = false;
  // Metrics of the final JSON line, in order.
  std::vector<std::tuple<std::string, double, std::string>> json_metrics_;
};

bool Benchmark::RunPass(bool traced) {
  Pass pass;
  pass.traced = traced;
  for (size_t i = 0; i < info_.cells.size(); ++i) {
    const int cell = static_cast<int>(i);
    const IsolatedResult r = RunIsolated(
        [&](const ReportWriter& write) {
          CellReport(write, args_.workload, cell, args_.seed, traced);
        },
        Left());
    CellRun run;
    run.record.name = info_.cells[i];
    run.record.generated = generated_;
    run.max_rss_kib = r.max_rss_kib;
    std::istringstream report(r.report);
    const bool set_up = ParseSetup(report, &run.times);
    if (!r.ok) {
      run.record.aborted = true;
      run.record.failure = r.failure;
      out_of_time_ = out_of_time_ || Left() <= 0.0;
    } else if (!set_up || !ParseReport(report, traced, &run)) {
      std::fprintf(stderr, "perfbench: malformed report from cell %s\n", run.record.name.c_str());
      return false;
    }
    pass.cells.push_back(std::move(run));
  }
  passes_.push_back(std::move(pass));
  return true;
}

// Every pass must reproduce the first pass's simulated outcome exactly.
void Benchmark::CheckAgainstFirst(const Pass& pass) {
  const Pass& first = passes_.front();
  for (size_t i = 0; i < pass.cells.size(); ++i) {
    const CellRun& a = first.cells[i];
    const CellRun& b = pass.cells[i];
    const std::string what = std::string(pass.traced ? "traced" : "untraced") + " rerun of " +
                             b.record.name;
    if (a.record.aborted != b.record.aborted || a.record.failure != b.record.failure) {
      Fail(what + " failed differently: '" + a.record.failure + "' vs '" + b.record.failure +
           "'");
    } else if (a.outcome_text != b.outcome_text) {
      Fail(what + " changed the simulated outcome");
    }
  }
}

void PrintPercentile(const char* name, const Percentile& p) {
  if (!p.valid) {
    std::printf("  %-22s n/a (%ld samples)\n", name, p.samples);
    return;
  }
  std::printf("  %-22s %.4f ms  (p%.2f of %ld samples, failed requests as +inf)\n", name,
              p.value, p.percentile, p.samples);
}

void Benchmark::PrintServed(const ServedSummary& s) const {
  std::printf("served (simulated time, pooled over %zu cells):\n", info_.cells.size());
  std::printf("  requests: sent %ld, succeeded %ld, failed %ld\n", s.generated, s.succeeded,
              s.failed);
  std::printf("  %-22s %.4f %%\n", "slo_attainment_pct", s.slo_attainment_pct);
  std::printf("  %-22s %.4f %%\n", "urgent_attainment_pct", s.urgent_attainment_pct);
  std::printf("  %-22s %.4f tok/s\n", "goodput_tok_s", s.goodput_tok_s);
  PrintPercentile("ttft_ms.p50", s.ttft_p50);
  PrintPercentile("ttft_ms.p99", s.ttft_p99);
  PrintPercentile("tpot_ms.p50", s.tpot_p50);
  PrintPercentile("tpot_ms.p99", s.tpot_p99);
  std::printf("  %-22s %.4f %%\n", "failed_pct", s.failed_pct);
}

int Benchmark::Run() {
  std::printf("perfbench %s seed=%" PRIu64 " seconds=%d trace=%d\n", args_.workload.c_str(),
              args_.seed, args_.seconds, args_.trace ? 1 : 0);
  const IsolatedResult counted = RunIsolated(
      [&](const ReportWriter& write) { CountReport(write, args_.workload, args_.seed); }, Left());
  if (!counted.ok) {
    std::fprintf(stderr, "perfbench: trace generation failed: %s\n", counted.failure.c_str());
    return 1;
  }
  {
    std::istringstream is(counted.report);
    for (long& n : generated_) {
      is >> n;
    }
  }

  // Passes until the time is up; with tracing, untraced and traced passes
  // alternate so both see the same machine conditions.
  int untraced = 0;
  int traced = 0;
  while (!out_of_time_) {
    const bool enough = untraced >= kMinUntracedPasses &&
                        (!args_.trace || traced >= kMinTracedPasses);
    if (enough && SecondsSince(start_) >= args_.seconds) {
      break;
    }
    const bool next_traced = args_.trace && traced < untraced;
    if (!RunPass(next_traced)) {
      return 1;
    }
    (next_traced ? traced : untraced) += 1;
    CheckAgainstFirst(passes_.back());
    // Keep the parent small (every cell process starts as a copy of it):
    // later passes keep only what the host metrics need.
    if (passes_.size() > 1) {
      for (CellRun& run : passes_.back().cells) {
        run.outcome_text.clear();
        run.outcome_text.shrink_to_fit();
        run.record.outcome.ttft_ms = {};
        run.record.outcome.tpot_ms = {};
        if (traced > 1) {
          run.traced.events = {};
          run.traced.tick_ns = {};
        }
      }
    }
  }
  const Pass& first = passes_.front();

  std::vector<CellRecord> records;
  for (const CellRun& run : first.cells) {
    records.push_back(run.record);
    const std::string error = CheckConservation(run.record);
    if (!error.empty()) {
      Fail("conservation: " + error);
    }
  }
  std::printf("cells (%d untraced, %d traced passes):\n", untraced, traced);
  for (const CellRecord& r : records) {
    if (r.aborted) {
      std::printf("  %-28s ABORTED, %ld requests lost: %s\n", r.name.c_str(), r.GeneratedTotal(),
                  r.failure.c_str());
    } else {
      std::printf("  %-28s generated %ld finished %ld rejected %ld unfinished %ld\n",
                  r.name.c_str(), r.GeneratedTotal(), r.outcome.finished, r.outcome.rejected,
                  r.outcome.unfinished);
    }
  }
  const ServedSummary served = Summarize(records);
  PrintServed(served);

  const double tok_s = Median(Over(false, [](const Pass& p) { return p.TokensPerSecond(); }));
  const double setup_s = Median(Over(false, [](const Pass& p) { return p.SetupSeconds(); }));
  const double rss = Median(Over(false, [](const Pass& p) { return p.PeakRssMib(); }));
  std::printf("host per pass (tok/s):");
  for (const Pass& p : passes_) {
    std::printf(" %s%.0f", p.traced ? "traced:" : "", p.TokensPerSecond());
  }
  std::printf("\nhost (median of %d untraced passes):\n", untraced);
  std::printf("  %-22s %.4f tok/s\n", "sim_tokens_per_s", tok_s);
  std::printf("  %-22s %.6f s\n", "setup_s", setup_s);
  std::printf("  %-22s %.3f MiB\n", "peak_rss_mb", rss);

  if (args_.trace && traced == 0) {
    Fail("no traced pass completed in time");
  } else if (args_.trace) {
    PrintLayers();
    WriteChromeTrace();
  } else {
    // The gated end-to-end metrics (BENCHMARK.json). The other served
    // metrics above are printed only: on some workload each is 0, +inf, or
    // varies across seeds by more than any regression bound (README.md).
    json_metrics_ = {
        {"sim_tokens_per_s", tok_s, "tok/s"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", rss, "MiB"},
        {"slo_attainment_pct", served.slo_attainment_pct, "%"},
        {"goodput_tok_s", served.goodput_tok_s, "tok/s"},
    };
  }

  for (auto& [name, value, unit] : json_metrics_) {
    if (!std::isfinite(value)) {
      Fail(name + " is not a finite number");
      value = 0.0;
    }
  }
  std::ostringstream json;
  json << "{\"correct\": " << (correct_ ? "true" : "false")
       << ", \"attempted\": " << served.generated << ", \"failed\": " << served.failed
       << ", \"metrics\": {";
  for (size_t i = 0; i < json_metrics_.size(); ++i) {
    const auto& [name, value, unit] = json_metrics_[i];
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", value);
    json << (i == 0 ? "" : ", ") << '"' << name << "\": {\"value\": " << num << ", \"unit\": \""
         << unit << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  return 0;
}

void Benchmark::PrintLayers() {
  // Deterministic counts come from the first traced pass (every traced pass
  // must repeat them); self times are medians over the traced passes.
  std::vector<const Pass*> traced;
  for (const Pass& p : passes_) {
    if (p.traced) {
      traced.push_back(&p);
    }
  }
  auto calls = [&](const Pass& p, Layer l) {
    long n = 0;
    for (const CellRun& c : p.cells) {
      n += c.traced.layers[static_cast<size_t>(l)].calls;
    }
    return n;
  };
  auto self_s = [&](Layer l) {
    std::vector<double> v;
    for (const Pass* p : traced) {
      int64_t ns = 0;
      for (const CellRun& c : p->cells) {
        ns += c.traced.layers[static_cast<size_t>(l)].self_ns;
      }
      v.push_back(static_cast<double>(ns) * 1e-9);
    }
    return Median(v);
  };
  auto counter = [&](const Pass& p, long WorkCounters::*field) {
    long n = 0;
    for (const CellRun& c : p.cells) {
      n += c.traced.counters.*field;
    }
    return n;
  };
  const Pass& t0 = *traced.front();
  for (const Pass* p : traced) {
    for (int l = 0; l < kNumLayers; ++l) {
      if (calls(*p, static_cast<Layer>(l)) != calls(t0, static_cast<Layer>(l))) {
        Fail(std::string("traced passes disagree on ") + LayerName(static_cast<Layer>(l)) +
             " calls");
      }
    }
    for (auto field : {&WorkCounters::candidate_tree_nodes, &WorkCounters::verify_accepted,
                       &WorkCounters::verify_tokens, &WorkCounters::select_tokens}) {
      if (counter(*p, field) != counter(t0, field)) {
        Fail("traced passes disagree on a work counter");
      }
    }
  }

  // Outcome counters, summed over the cells that completed.
  const Pass& first = passes_.front();
  long ticks = 0, decode = 0, admissions = 0, evictions = 0, pauses = 0, rejections = 0;
  long degraded = 0, peak = 0;
  double routed_share = 0.0;
  for (const CellRun& c : first.cells) {
    if (c.record.aborted) {
      continue;
    }
    const CellOutcome& o = c.record.outcome;
    ticks += o.ticks;
    decode += o.decode_requests;
    admissions += o.admissions;
    evictions += o.evictions;
    pauses += o.pauses;
    rejections += o.rejected;
    degraded += o.degraded;
    peak = std::max(peak, o.peak_resident);
    routed_share = std::max(routed_share, o.routed_share_max);
  }
  // Tick durations are kept from the first traced pass only.
  std::vector<double> tick_us;
  for (const CellRun& c : t0.cells) {
    for (int64_t ns : c.traced.tick_ns) {
      tick_us.push_back(static_cast<double>(ns) * 1e-3);
    }
  }
  const Percentile tick_p50 = TailPercentile(tick_us, 0, 50.0);
  const Percentile tick_p99 = TailPercentile(tick_us, 0, 99.0);
  auto host_median = [&](double CellHostTimes::*field) {
    return Median(Over(false, [field](const Pass& p) {
      double s = 0.0;
      for (const CellRun& c : p.cells) {
        s += c.times.*field;
      }
      return s;
    }));
  };
  const double untraced_tok_s =
      Median(Over(false, [](const Pass& p) { return p.TokensPerSecond(); }));
  const double traced_tok_s = Median(Over(true, [](const Pass& p) { return p.TokensPerSecond(); }));
  auto per_call_ns = [&](Layer l) {
    const long n = calls(t0, l);
    return n > 0 ? self_s(l) * 1e9 / static_cast<double>(n) : 0.0;
  };
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  auto count = [](long n) { return static_cast<double>(n); };

  json_metrics_ = {
      {"model.target_next_dist.calls", count(calls(t0, Layer::kTargetNextDist)), "count"},
      {"model.target_next_dist.self_s", self_s(Layer::kTargetNextDist), "s"},
      {"model.target_next_dist.ns_per_call", per_call_ns(Layer::kTargetNextDist), "ns"},
      {"model.draft_next_dist.calls", count(calls(t0, Layer::kDraftNextDist)), "count"},
      {"model.draft_next_dist.self_s", self_s(Layer::kDraftNextDist), "s"},
      {"model.draft_next_dist.ns_per_call", per_call_ns(Layer::kDraftNextDist), "ns"},
      {"model.sample.calls", count(calls(t0, Layer::kSample)), "count"},
      {"model.sample.self_s", self_s(Layer::kSample), "s"},
      {"spec.candidate_tree.calls", count(calls(t0, Layer::kCandidateTree)), "count"},
      {"spec.candidate_tree.self_s", self_s(Layer::kCandidateTree), "s"},
      {"spec.candidate_tree.nodes", count(counter(t0, &WorkCounters::candidate_tree_nodes)),
       "count"},
      {"spec.chain_tree.calls", count(calls(t0, Layer::kChainTree)), "count"},
      {"spec.chain_tree.self_s", self_s(Layer::kChainTree), "s"},
      {"spec.verify.calls", count(calls(t0, Layer::kVerify)), "count"},
      {"spec.verify.self_s", self_s(Layer::kVerify), "s"},
      {"spec.accept_ratio",
       ratio(count(counter(t0, &WorkCounters::verify_accepted)),
             count(counter(t0, &WorkCounters::verify_tokens))),
       "ratio"},
      {"core.select.calls", count(calls(t0, Layer::kSelect)), "count"},
      {"core.select.self_s", self_s(Layer::kSelect), "s"},
      {"core.select.tokens", count(counter(t0, &WorkCounters::select_tokens)), "count"},
      {"serve.engine.self_s", self_s(Layer::kEngine), "s"},
      {"serve.tick.calls", count(calls(t0, Layer::kTick)), "count"},
      {"serve.tick.self_s", self_s(Layer::kTick), "s"},
      {"serve.tick_host_us.p50", tick_p50.value, "us"},
      {"serve.tick_host_us.p99", tick_p99.value, "us"},
      {"serve.admit.calls", count(calls(t0, Layer::kAdmit)), "count"},
      {"serve.admit.self_s", self_s(Layer::kAdmit), "s"},
      {"serve.prefill_phase.calls", count(calls(t0, Layer::kPrefillPhase)), "count"},
      {"serve.prefill_phase.self_s", self_s(Layer::kPrefillPhase), "s"},
      {"serve.ticks", count(ticks), "count"},
      {"serve.decode_batch.mean", ratio(count(decode), count(ticks)), "requests"},
      {"serve.admissions", count(admissions), "count"},
      {"serve.evictions", count(evictions), "count"},
      {"serve.pauses", count(pauses), "count"},
      {"serve.rejections", count(rejections), "count"},
      {"serve.degraded", count(degraded), "count"},
      {"serve.evictions_per_admission", ratio(count(evictions), count(admissions)), "ratio"},
      {"serve.peak_resident_requests", count(peak), "count"},
      {"workload.trace_build_s", host_median(&CellHostTimes::trace_build_s), "s"},
      {"workload.stream.calls", count(calls(t0, Layer::kStream)), "count"},
      {"workload.stream.self_s", self_s(Layer::kStream), "s"},
      {"cluster.partition_s", host_median(&CellHostTimes::partition_s), "s"},
      {"cluster.merge_s", host_median(&CellHostTimes::merge_s), "s"},
      {"cluster.routed_share.max", routed_share, "ratio"},
      {"harness.experiment_build_s", host_median(&CellHostTimes::experiment_build_s), "s"},
      {"trace.overhead_ratio", ratio(untraced_tok_s, traced_tok_s), "ratio"},
  };

  // Self-time shares of the traced run, by layer and by module.
  double total = 0.0;
  std::array<double, kNumLayers> self{};
  for (int l = 0; l < kNumLayers; ++l) {
    self[static_cast<size_t>(l)] = self_s(static_cast<Layer>(l));
    total += self[static_cast<size_t>(l)];
  }
  std::printf("traced self time (median of %zu traced passes, %.4f s in all):\n", traced.size(),
              total);
  for (int l = 0; l < kNumLayers; ++l) {
    const Layer layer = static_cast<Layer>(l);
    std::printf("  %-26s calls %12ld  self %10.6f s  %6.2f %%\n", LayerName(layer),
                calls(t0, layer), self[static_cast<size_t>(l)],
                total > 0.0 ? 100.0 * self[static_cast<size_t>(l)] / total : 0.0);
  }
  const char* modules[] = {"model", "spec", "core", "serve", "workload", "harness"};
  std::printf("  by module:");
  for (const char* module : modules) {
    double s = 0.0;
    for (int l = 0; l < kNumLayers; ++l) {
      const std::string name = LayerName(static_cast<Layer>(l));
      if (name.compare(0, name.find('.'), module) == 0) {
        s += self[static_cast<size_t>(l)];
      }
    }
    std::printf(" %s %.2f %%", module, total > 0.0 ? 100.0 * s / total : 0.0);
  }
  std::printf("\n");
  std::printf("per-layer metrics:\n");
  for (const auto& [name, value, unit] : json_metrics_) {
    std::printf("  %-36s %.10g %s\n", name.c_str(), value, unit.c_str());
  }
}

void Benchmark::WriteChromeTrace() const {
  if (args_.trace_out.empty()) {
    return;
  }
  const Pass* traced = nullptr;
  for (const Pass& p : passes_) {
    if (p.traced) {
      traced = &p;
      break;
    }
  }
  std::ofstream out(args_.trace_out);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (size_t i = 0; i < traced->cells.size(); ++i) {
    const CellRun& cell = traced->cells[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": "
        << i + 1 << ", \"args\": {\"name\": \"" << cell.record.name
        << (cell.record.aborted ? " (aborted)" : "") << "\"}}";
    for (const SpanEvent& e : cell.traced.events) {
      char line[256];
      std::snprintf(line, sizeof line,
                    ",\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": %zu, \"tid\": 1, "
                    "\"ts\": %.3f, \"dur\": %.3f}",
                    LayerName(e.layer), i + 1, static_cast<double>(e.start_ns) * 1e-3,
                    static_cast<double>(e.dur_ns) * 1e-3);
      out << line;
    }
  }
  out << "\n]}\n";
  std::printf("trace written to %s\n", args_.trace_out.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    return 2;
  }
  return perfbench::Benchmark(args).Run();
}
