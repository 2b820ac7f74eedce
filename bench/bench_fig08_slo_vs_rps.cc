// Figure 8: SLO attainment w.r.t. request arrival rate (both models).
//
// Workload: 60% Cat 1 (tight SLO), 20% Cat 2, 20% Cat 3 on the real-shaped
// trace. Expected shape: AdaServe dominates at every RPS; all systems
// degrade as RPS grows; vLLM-Spec beats the continuous-batching baselines.
#include <iostream>

#include "bench/sweep_common.h"

namespace adaserve {
namespace {

void RunModel(const Setup& setup, const std::vector<double>& rps_grid, const BenchArgs& args,
              BenchJson& json, SweepRunner& runner) {
  std::cout << "\n" << setup.label << "\n";
  TablePrinter table({"System", "RPS", "SLO Attainment(%)", "Cat1(%)", "Cat2(%)", "Cat3(%)"});
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
    table.AddRow({std::string(SystemName(p.system)), Fmt(p.x, 1), FmtPct(m.AttainmentPct()),
                  FmtPct(m.per_category[0].AttainmentPct()),
                  FmtPct(m.per_category[1].AttainmentPct()),
                  FmtPct(m.per_category[2].AttainmentPct())});
    json.Add(setup.label, std::string(SystemName(p.system)), "attainment_pct", p.x,
             m.AttainmentPct());
    AddCellWallClock(json, setup.label, p);
  }
  table.Print(std::cout);
}

int Run(const BenchArgs& args) {
  BenchJson json("fig08_slo_vs_rps");
  SweepRunner runner(args.threads);
  std::cout << "Figure 8: SLO attainment w.r.t. RPS (mix 60/20/20, real-shaped trace, "
            << runner.threads() << " threads)\n";
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
