// Figure 14: SLO attainment under the synthetic bursty trace (Fig. 13).
//
// Expected shape: AdaServe leads; Sarathi beats plain vLLM; larger static
// speculation lengths do progressively worse under bursts.
#include <iostream>

#include "bench/sweep_common.h"

namespace adaserve {
namespace {

std::array<BurstSpec, kNumCategories> Fig13Bursts() {
  return {{
      {.base_rps = 0.4, .peak_rps = 4.0, .peak_phase = 0.50, .peak_width = 0.10},
      {.base_rps = 0.4, .peak_rps = 3.5, .peak_phase = 0.18, .peak_width = 0.10},
      {.base_rps = 0.4, .peak_rps = 3.0, .peak_phase = 0.82, .peak_width = 0.10},
  }};
}

void RunModel(const Setup& setup, const BenchArgs& args, BenchJson& json, SweepRunner& runner) {
  // Compressed bursty window (shorter still under --smoke).
  const double duration = args.smoke ? 40.0 : 120.0;
  std::cout << "\n" << setup.label << "\n";
  TablePrinter table({"System", "SLO Attainment(%)", "Cat1(%)", "Cat2(%)", "Cat3(%)"});
  const std::vector<CellResult> cells = RunCells(runner, SystemGrid(
      setup, MainComparisonSet(), {0.0},
      [duration](const Experiment& exp, double /*x*/) {
        return BuildBurstyWorkload(exp.Categories(), Fig13Bursts(), duration, /*seed=*/100);
      }));
  for (const CellResult& p : cells) {
    const Metrics& m = p.result.metrics;
    table.AddRow({std::string(SystemName(p.system)), FmtPct(m.AttainmentPct()),
                  FmtPct(m.per_category[0].AttainmentPct()),
                  FmtPct(m.per_category[1].AttainmentPct()),
                  FmtPct(m.per_category[2].AttainmentPct())});
    json.Add(setup.label, std::string(SystemName(p.system)), "attainment_pct", 0.0,
             m.AttainmentPct());
    AddCellWallClock(json, setup.label, p);
  }
  table.Print(std::cout);
}

int Run(const BenchArgs& args) {
  BenchJson json("fig14_bursty_attainment");
  SweepRunner runner(args.threads);
  std::cout << "Figure 14: SLO attainment under the synthetic bursty trace ("
            << runner.threads() << " threads)\n";
  RunModel(LlamaSetup(), args, json, runner);
  RunModel(QwenSetup(), args, json, runner);
  json.SetRunInfo(runner.threads(), runner.total_wall_clock_s());
  return FinishBench(args, json);
}

}  // namespace
}  // namespace adaserve

int main(int argc, char** argv) {
  return adaserve::Run(adaserve::ParseBenchArgs(argc, argv));
}
