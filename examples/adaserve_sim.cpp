// adaserve_sim: command-line experiment driver.
//
// Runs one serving experiment with configurable system, model setup, load,
// mix and duration, and optionally dumps machine-readable CSVs for
// post-processing (per-run metrics, per-request records, per-iteration
// breakdown).
//
//   ./build/adaserve_sim --system=adaserve --model=llama --rps=4.0 --duration=40 --mix=0.6,0.2,0.2 --requests-csv=requests.csv --iterations-csv=iterations.csv
#include <array>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <string_view>

#include "src/adaserve.h"

namespace {

using namespace adaserve;

struct Options {
  std::string system = "adaserve";
  std::string model = "llama";
  double rps = 4.0;
  double duration = 30.0;
  std::array<double, kNumCategories> mix = {0.6, 0.2, 0.2};
  uint64_t seed = 42;
  std::string requests_csv;
  std::string iterations_csv;
  bool greedy = false;
};

void PrintUsage() {
  std::cout <<
      "Usage: adaserve_sim [options]\n"
      "  --system=NAME       adaserve|vllm|sarathi|spec4|spec6|spec8|priority|fastserve|vtc|"
      "edf|edf_ac\n"
      "  --model=NAME        llama (70B, 4xA100) | qwen (32B, 2xA100)\n"
      "  --rps=R             mean request rate (default 4.0)\n"
      "  --duration=S        trace duration in seconds (default 30)\n"
      "  --mix=A,B,C         category mix, must sum to 1 (default 0.6,0.2,0.2)\n"
      "  --seed=N            trace seed (default 42)\n"
      "  --greedy            greedy decoding instead of sampling\n"
      "  --requests-csv=F    write per-request records to F\n"
      "  --iterations-csv=F  write per-iteration breakdown to F\n";
}

// Parses all of `text` with std::from_chars — locale-independent, and a
// value with trailing characters is rejected instead of truncated.
template <typename T>
bool ParseWhole(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

bool ParsePositive(std::string_view text, double* out) {
  return ParseWhole(text, out) && std::isfinite(*out) && *out > 0.0;
}

// Three comma-separated non-negative weights summing to 1 within the
// workload generator's tolerance.
bool ParseMix(std::string_view text, std::array<double, kNumCategories>* mix) {
  double sum = 0.0;
  for (size_t c = 0; c < mix->size(); ++c) {
    const bool last = c + 1 == mix->size();
    const size_t comma = last ? text.size() : text.find(',');
    double& weight = (*mix)[c];
    if (comma == std::string_view::npos || !ParseWhole(text.substr(0, comma), &weight) ||
        !std::isfinite(weight) || weight < 0.0) {
      return false;
    }
    sum += weight;
    if (!last) {
      text.remove_prefix(comma + 1);
    }
  }
  return std::abs(sum - 1.0) < 1e-6;
}

bool ParseArgs(int argc, char** argv, Options& opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string_view value = std::string_view(arg).substr(arg.find('=') + 1);
    bool valid = true;
    if (arg == "--help" || arg == "-h") {
      return false;
    } else if (arg.starts_with("--system=")) {
      opts.system = value;
    } else if (arg.starts_with("--model=")) {
      opts.model = value;
    } else if (arg.starts_with("--rps=")) {
      valid = ParsePositive(value, &opts.rps);
    } else if (arg.starts_with("--duration=")) {
      valid = ParsePositive(value, &opts.duration);
    } else if (arg.starts_with("--seed=")) {
      valid = ParseWhole(value, &opts.seed);
    } else if (arg == "--greedy") {
      opts.greedy = true;
    } else if (arg.starts_with("--mix=")) {
      valid = ParseMix(value, &opts.mix);
    } else if (arg.starts_with("--requests-csv=")) {
      opts.requests_csv = value;
    } else if (arg.starts_with("--iterations-csv=")) {
      opts.iterations_csv = value;
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      return false;
    }
    if (!valid) {
      std::cerr << "invalid " << arg.substr(0, arg.find('=')) << ": " << value << "\n";
      return false;
    }
  }
  return true;
}

const std::map<std::string, SystemKind>& SystemsByName() {
  static const auto* kMap = new std::map<std::string, SystemKind>{
      {"adaserve", SystemKind::kAdaServe},   {"vllm", SystemKind::kVllm},
      {"sarathi", SystemKind::kSarathi},     {"spec4", SystemKind::kVllmSpec4},
      {"spec6", SystemKind::kVllmSpec6},     {"spec8", SystemKind::kVllmSpec8},
      {"priority", SystemKind::kVllmPriority}, {"fastserve", SystemKind::kFastServe},
      {"vtc", SystemKind::kVtc},               {"edf", SystemKind::kEdf},
      {"edf_ac", SystemKind::kEdfAdmission},
  };
  return *kMap;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, opts)) {
    PrintUsage();
    return 1;
  }
  const auto it = SystemsByName().find(opts.system);
  if (it == SystemsByName().end()) {
    std::cerr << "unknown system: " << opts.system << "\n";
    PrintUsage();
    return 1;
  }
  if (opts.model != "llama" && opts.model != "qwen") {
    std::cerr << "unknown model: " << opts.model << "\n";
    return 1;
  }

  Experiment exp(opts.model == "llama" ? LlamaSetup() : QwenSetup());
  WorkloadConfig mix;
  mix.mix = opts.mix;
  const std::vector<Request> workload =
      exp.RealTraceWorkload(opts.duration, opts.rps, mix, opts.seed);

  auto scheduler = MakeScheduler(it->second);
  // The run keeps its finished request records (retire_finished is off)
  // for --requests-csv; the log collects the per-tick breakdown for
  // --iterations-csv.
  IterationLog log;
  EngineConfig engine;
  engine.mode = opts.greedy ? DecodeMode::kGreedy : DecodeMode::kStochastic;
  engine.trace_sink = &log;
  const EngineResult result = exp.Run(*scheduler, workload, engine);

  std::cout << "system=" << SystemName(it->second) << " model=" << exp.setup().label
            << " requests=" << workload.size() << "\n";
  TablePrinter table({"Metric", "Value"});
  table.AddRow({"SLO attainment (%)", FmtPct(result.metrics.AttainmentPct())});
  table.AddRow({"Goodput (tok/s)", Fmt(result.metrics.GoodputTps(), 1)});
  table.AddRow({"Throughput (tok/s)", Fmt(result.metrics.ThroughputTps(), 1)});
  table.AddRow({"Mean accepted/verification", Fmt(result.metrics.mean_accepted, 2)});
  table.AddRow({"Makespan (s)", Fmt(result.metrics.makespan, 1)});
  for (int c = 0; c < kNumCategories; ++c) {
    const CategoryMetrics& m = result.metrics.per_category[static_cast<size_t>(c)];
    table.AddRow({"Cat" + std::to_string(c + 1) + " attainment (%)", FmtPct(m.AttainmentPct())});
    table.AddRow({"Cat" + std::to_string(c + 1) + " mean TPOT (ms)", Fmt(m.tpot_ms.Mean(), 2)});
    table.AddRow({"Cat" + std::to_string(c + 1) + " p99 TTFT (ms)",
                  Fmt(m.ttft_ms.Percentile(99), 1)});
  }
  table.Print(std::cout);

  if (!opts.iterations_csv.empty()) {
    std::ofstream os(opts.iterations_csv);
    WriteIterationCsv(os, log.records());
    std::cout << "wrote " << log.records().size() << " iterations to "
              << opts.iterations_csv << "\n";
  }
  if (!opts.requests_csv.empty()) {
    std::ofstream os(opts.requests_csv);
    WriteRequestCsv(os, result.requests);
    std::cout << "wrote " << result.requests.size() << " requests to " << opts.requests_csv
              << "\n";
  }
  return 0;
}
