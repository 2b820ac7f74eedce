// Figure 11: SLO attainment and goodput w.r.t. the Cat-1 SLO scale
// (multiples of the baseline decode latency), at 4.0 req/s with 60% urgent.
//
// Expected shape: continuous-batching systems fall off a cliff below scale
// 1.0 (they cannot beat one-token-per-iteration latency); SD systems keep
// serving sub-baseline SLOs, with AdaServe on top because it prioritises
// the urgent class.
#include <iostream>

#include "bench/sweep_common.h"

namespace adaserve {
namespace {

void RunModel(const Setup& setup, const BenchArgs& args, BenchJson& json, SweepRunner& runner) {
  std::cout << "\n" << setup.label << " (4.0 req/s, 60% urgent)\n";
  TablePrinter table({"System", "SLO scale", "SLO Attainment(%)", "Goodput(tok/s)", "Cat1(%)"});
  const std::vector<CellResult> cells = RunCells(runner, SystemGrid(
      setup, MainComparisonSet(), GridFor(args, {1.6, 1.4, 1.2, 1.0, 0.8, 0.6}),
      [&args](const Experiment& exp, double scale) {
        const CategoryConfig cat_config{.cat1_slo_scale = scale};
        TraceConfig trace;
        trace.duration = SweepDurationFor(args);
        trace.mean_rps = 4.0;
        return BuildWorkload(exp.Categories(cat_config), RealShapedArrivals(trace), PeakMix());
      }));
  for (const CellResult& p : cells) {
    const Metrics& m = p.result.metrics;
    table.AddRow({std::string(SystemName(p.system)), Fmt(p.x, 1), FmtPct(m.AttainmentPct()),
                  Fmt(m.GoodputTps(), 1), FmtPct(m.per_category[0].AttainmentPct())});
    const std::string system(SystemName(p.system));
    json.Add(setup.label, system, "attainment_pct", p.x, m.AttainmentPct());
    json.Add(setup.label, system, "goodput_tps", p.x, m.GoodputTps());
    AddCellWallClock(json, setup.label, p);
  }
  table.Print(std::cout);
}

int Run(const BenchArgs& args) {
  BenchJson json("fig11_slo_scale");
  SweepRunner runner(args.threads);
  std::cout << "Figure 11: SLO attainment and goodput w.r.t. SLO scale (" << runner.threads()
            << " threads)\n";
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
