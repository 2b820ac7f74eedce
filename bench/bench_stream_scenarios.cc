// Streaming-scenario sweep: every main-comparison system served from the
// three generator-backed streams (MMPP bursty, diurnal, category churn),
// fed lazily through the streaming engine path.
//
// Complements Figs. 13-14 (whose bursts are materialized per category) with
// workload shapes the vector path cannot express at scale: modulated
// bursts, compressed day cycles, and a category mix that inverts over the
// run.
#include <iostream>
#include <string>

#include "bench/sweep_common.h"

namespace adaserve {
namespace {

constexpr double kDuration = 60.0;

struct Scenario {
  std::string label;
  // Builds the scenario's stream on a cell's own Experiment.
  std::function<WorkloadSource(const Experiment& exp, double x)> make;
};

std::vector<Scenario> Scenarios() {
  return {
      {"bursty (MMPP 1.5/9 rps)",
       [](const Experiment& exp, double /*x*/) {
         MmppStreamConfig config;
         config.mmpp.state_rps = {1.5, 9.0};
         config.mmpp.mean_sojourn_s = {8.0, 4.0};
         config.duration = kDuration;
         config.trace_seed = 1301;
         return MakeMmppStream(exp.Categories(), config);
       }},
      {"diurnal (4 rps, amp 0.8)",
       [](const Experiment& exp, double /*x*/) {
         DiurnalStreamConfig config;
         config.duration = kDuration;
         config.mean_rps = 4.0;
         config.diurnal.period_s = kDuration;
         config.diurnal.amplitude = 0.8;
         config.trace_seed = 1302;
         return MakeDiurnalStream(exp.Categories(), config);
       }},
      {"churn (coding -> summ)",
       [](const Experiment& exp, double /*x*/) {
         ChurnStreamConfig config;
         config.duration = kDuration;
         config.mean_rps = 4.0;
         config.trace_seed = 1303;
         return MakeChurnStream(exp.Categories(), config);
       }},
  };
}

void Run() {
  const Setup setup = QwenSetup();
  std::cout << "Streaming workload scenarios (" << setup.label << ", " << kDuration
            << " s, lazy stream-fed engine)\n\n";

  EngineConfig engine;
  engine.retire_finished = true;
  engine.record_iterations = false;

  SweepRunner runner(1);
  for (const Scenario& scenario : Scenarios()) {
    std::cout << "== " << scenario.label << " ==\n";
    TablePrinter table({"system", "finished", "attain(%)", "goodput(tok/s)", "peak resident"});
    for (const CellResult& cell :
         RunCells(runner, SystemGrid(setup, MainComparisonSet(), {0.0}, scenario.make, engine))) {
      table.AddRow({std::string(SystemName(cell.system)),
                    std::to_string(cell.result.metrics.finished),
                    Fmt(cell.result.metrics.AttainmentPct(), 1),
                    Fmt(cell.result.metrics.GoodputTps(), 1),
                    std::to_string(cell.result.peak_resident_requests)});
    }
    table.Print(std::cout);
    std::cout << "\n";
  }
}

}  // namespace
}  // namespace adaserve

int main() {
  adaserve::Run();
  return 0;
}
