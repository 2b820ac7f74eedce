// Figures 8, 9 and 12: the end-to-end RPS sweep, run once per model.
//
// Workload: 60% Cat 1 (tight SLO), 20% Cat 2, 20% Cat 3 on the real-shaped
// trace; every MainComparisonSet() system at every RPS point. One grid
// feeds three tables:
//   - Fig. 8, SLO attainment. Expected shape: AdaServe dominates at every
//     RPS; all systems degrade as RPS grows; vLLM-Spec beats the
//     continuous-batching baselines.
//   - Fig. 9, goodput (tokens/s of SLO-attaining requests) and throughput.
//   - Fig. 12, mean accepted tokens per request per verification, for
//     AdaServe and vLLM-Spec(4/6/8). Expected shape: AdaServe accepts many
//     tokens at low RPS (aggressive speculation) and tapers as load grows
//     (adaptive control shrinks trees); vLLM-Spec(k)'s acceptance is flat
//     in RPS because its strategy is static.
// --seeds N adds Fig. 9's cross-seed error bars.
#include <iostream>

#include "bench/sweep_common.h"

namespace adaserve {
namespace {

// The systems Fig. 12 compares: the speculative ones.
bool InAcceptanceFigure(SystemKind system) {
  return system == SystemKind::kAdaServe || system == SystemKind::kVllmSpec4 ||
         system == SystemKind::kVllmSpec6 || system == SystemKind::kVllmSpec8;
}

// Variance study (--seeds N): reruns the sweep over N trace seeds and
// emits mean / Bessel-corrected error-bar rows per cell. Extra rows only —
// the headline series stays byte-identical, so perf_diff baselines
// recorded without --seeds still gate.
void RunSeedErrorBars(const Setup& setup, const std::vector<double>& rps_grid,
                      const BenchArgs& args, BenchJson& json, SweepRunner& runner) {
  std::cout << "\n" << setup.label << " (" << args.seeds << "-seed error bars)\n";
  TablePrinter table({"System", "RPS", "Goodput(tok/s)", "+/-", "Attainment(%)", "+/-"});
  // One cell per (x, system, seed) shard, seeds innermost.
  std::vector<Cell> cells;
  for (double rps : GridFor(args, rps_grid)) {
    for (SystemKind system : MainComparisonSet()) {
      for (int s = 0; s < args.seeds; ++s) {
        const uint64_t seed = 42 + static_cast<uint64_t>(s);
        cells.push_back({setup, system,
                         [&args, rps, seed](const Experiment& exp) {
                           return exp.RealTraceWorkload(SweepDurationFor(args), rps, PeakMix(),
                                                        seed);
                         },
                         {}, rps});
      }
    }
  }
  for (const SeedAggregate& c :
       AggregateSeeds(RunCells(runner, cells), static_cast<size_t>(args.seeds))) {
    const std::string system(SystemName(c.system));
    const double goodput_err = c.goodput_tps.SampleStddev();
    const double attainment_err = c.attainment_pct.SampleStddev();
    table.AddRow({system, Fmt(c.x, 1), Fmt(c.goodput_tps.mean(), 1), Fmt(goodput_err, 1),
                  FmtPct(c.attainment_pct.mean()), Fmt(attainment_err, 1)});
    json.Add(setup.label, system, "goodput_mean_tps", c.x, c.goodput_tps.mean());
    json.Add(setup.label, system, "goodput_err_tps", c.x, goodput_err);
    json.Add(setup.label, system, "attainment_err_pct", c.x, attainment_err);
  }
  table.Print(std::cout);
}

void RunModel(const Setup& setup, const std::vector<double>& rps_grid, const BenchArgs& args,
              BenchJson& json, SweepRunner& runner) {
  TablePrinter attainment(
      {"System", "RPS", "SLO Attainment(%)", "Cat1(%)", "Cat2(%)", "Cat3(%)"});
  TablePrinter goodput({"System", "RPS", "Goodput(tok/s)", "Throughput(tok/s)"});
  TablePrinter acceptance({"System", "RPS", "Mean accepted tokens"});
  // Lazy trace: the cell never materializes it. Metrics match the vector
  // path byte-for-byte (streaming_equivalence_test).
  const std::vector<CellResult> cells =
      RunCells(runner, SystemGrid(setup, MainComparisonSet(), GridFor(args, rps_grid),
                                  [&args](const Experiment& exp, double rps) {
                                    return exp.RealTraceStream(SweepDurationFor(args), rps,
                                                               PeakMix());
                                  }));
  for (const CellResult& p : cells) {
    const Metrics& m = p.result.metrics;
    const std::string system(SystemName(p.system));
    attainment.AddRow({system, Fmt(p.x, 1), FmtPct(m.AttainmentPct()),
                       FmtPct(m.per_category[0].AttainmentPct()),
                       FmtPct(m.per_category[1].AttainmentPct()),
                       FmtPct(m.per_category[2].AttainmentPct())});
    goodput.AddRow({system, Fmt(p.x, 1), Fmt(m.GoodputTps(), 1), Fmt(m.ThroughputTps(), 1)});
    json.Add(setup.label, system, "attainment_pct", p.x, m.AttainmentPct());
    json.Add(setup.label, system, "goodput_tps", p.x, m.GoodputTps());
    json.Add(setup.label, system, "throughput_tps", p.x, m.ThroughputTps());
    if (InAcceptanceFigure(p.system)) {
      acceptance.AddRow({system, Fmt(p.x, 1), Fmt(m.mean_accepted, 2)});
      json.Add(setup.label, system, "mean_accepted", p.x, m.mean_accepted);
    }
    AddCellWallClock(json, setup.label, p);
  }
  std::cout << "\nFigure 8: SLO attainment, " << setup.label << "\n";
  attainment.Print(std::cout);
  std::cout << "\nFigure 9: goodput, " << setup.label << "\n";
  goodput.Print(std::cout);
  std::cout << "\nFigure 12: mean accepted tokens per request per verification, "
            << setup.label << "\n";
  acceptance.Print(std::cout);
  if (args.seeds > 1) {
    RunSeedErrorBars(setup, rps_grid, args, json, runner);
  }
}

int Run(const BenchArgs& args) {
  BenchJson json("rps_sweep");
  SweepRunner runner(args.threads);
  std::cout << "Figures 8, 9, 12: SLO attainment, goodput and acceptance w.r.t. RPS "
            << "(mix 60/20/20, real-shaped trace, " << runner.threads() << " threads)\n";
  RunModel(LlamaSetup(), LlamaRpsGrid(), args, json, runner);
  RunModel(QwenSetup(), QwenRpsGrid(), args, json, runner);
  json.SetRunInfo(runner.threads(), runner.total_wall_clock_s());
  return FinishBench(args, json);
}

}  // namespace
}  // namespace adaserve

int main(int argc, char** argv) {
  return adaserve::Run(adaserve::ParseBenchArgs(argc, argv));
}
