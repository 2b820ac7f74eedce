// Scenario sweep: every main-comparison system served from the four
// adversarial workload shapes in src/workload/scenarios.h — flash crowd,
// adversarial tenant flood (VTC joins for this one), long-prompt
// head-of-line poisoning, and correlated category bursts — and from three
// generator-backed streaming shapes the vector path cannot express at
// scale: MMPP-modulated bursts, a compressed day cycle, and a category mix
// that inverts over the run.
//
// The flash-crowd rows additionally report recovery time to SLO: how long
// past the end of the overload window the system keeps missing SLOs on
// its backlog (0 = fully absorbed). perf_diff treats recovery_s as
// lower-is-better, so CI catches schedulers that get slower at draining
// a crowd even when steady-state goodput holds.
#include <functional>
#include <iostream>
#include <string>

#include "bench/sweep_common.h"

namespace adaserve {
namespace {

constexpr uint64_t kScenarioSeed = 42;
// Full-size length of the streaming shapes; --smoke runs them at the
// smoke sweep duration like the stress shapes.
constexpr double kStreamDuration = 60.0;

struct Scenario {
  // JSON "model" column.
  std::string slug;
  std::string name;
  std::vector<SystemKind> systems;
  // Builds the scenario's stream on a cell's own Experiment.
  std::function<WorkloadSource(const Experiment& exp, double x)> make;
  // Flash-crowd rows also report recovery time to SLO.
  bool flash_crowd = false;
  // Streaming shapes retire finished requests and report peak residency.
  bool streaming = false;
};

std::vector<SystemKind> SystemsFor(StressScenario scenario) {
  std::vector<SystemKind> systems = MainComparisonSet();
  if (scenario == StressScenario::kTenantFlood) {
    // The fair-queuing baseline is the system this scenario exists to stress.
    systems.push_back(SystemKind::kVtc);
  }
  return systems;
}

std::vector<Scenario> Scenarios(double duration, double stream_duration) {
  std::vector<Scenario> scenarios;
  for (const StressScenario scenario : AllStressScenarios()) {
    scenarios.push_back(
        {StressScenarioSlug(scenario), StressScenarioName(scenario), SystemsFor(scenario),
         [scenario, duration](const Experiment& exp, double /*x*/) {
           return MakeStressStream(exp.Categories(), scenario, duration, kScenarioSeed);
         },
         scenario == StressScenario::kFlashCrowd});
  }
  scenarios.push_back({"mmpp_bursty", "bursty (MMPP 1.5/9 rps)", MainComparisonSet(),
                       [stream_duration](const Experiment& exp, double /*x*/) {
                         MmppStreamConfig config;
                         config.mmpp.state_rps = {1.5, 9.0};
                         config.mmpp.mean_sojourn_s = {8.0, 4.0};
                         config.duration = stream_duration;
                         config.trace_seed = 1301;
                         return MakeMmppStream(exp.Categories(), config);
                       },
                       /*flash_crowd=*/false, /*streaming=*/true});
  scenarios.push_back({"diurnal", "diurnal (4 rps, amp 0.8)", MainComparisonSet(),
                       [stream_duration](const Experiment& exp, double /*x*/) {
                         DiurnalStreamConfig config;
                         config.duration = stream_duration;
                         config.mean_rps = 4.0;
                         config.diurnal.period_s = stream_duration;
                         config.diurnal.amplitude = 0.8;
                         config.trace_seed = 1302;
                         return MakeDiurnalStream(exp.Categories(), config);
                       },
                       /*flash_crowd=*/false, /*streaming=*/true});
  scenarios.push_back({"category_churn", "churn (coding -> summ)", MainComparisonSet(),
                       [stream_duration](const Experiment& exp, double /*x*/) {
                         ChurnStreamConfig config;
                         config.duration = stream_duration;
                         config.mean_rps = 4.0;
                         config.trace_seed = 1303;
                         return MakeChurnStream(exp.Categories(), config);
                       },
                       /*flash_crowd=*/false, /*streaming=*/true});
  return scenarios;
}

int Run(const BenchArgs& args) {
  BenchJson json("scenarios");
  SweepRunner runner(args.threads);
  const double duration = SweepDurationFor(args);
  const double stream_duration = args.smoke ? duration : kStreamDuration;
  std::cout << "Scenarios (" << QwenSetup().label << ", stress " << duration << " s, streaming "
            << stream_duration << " s, " << runner.threads() << " threads)\n";

  // The stress shapes keep per-request records (RecoveryTimeToSlo reads
  // finish times); the streaming shapes retire them, which changes no
  // metric, so their peak residency shows the bounded footprint.
  EngineConfig retiring;
  retiring.retire_finished = true;
  for (const Scenario& scenario : Scenarios(duration, stream_duration)) {
    std::cout << "\n== " << scenario.name << " ==\n";
    std::vector<std::string> header = {"system", "finished", "attain(%)", "goodput(tok/s)"};
    if (scenario.flash_crowd) {
      header.push_back("recovery(s)");
    }
    if (scenario.streaming) {
      header.push_back("peak resident");
    }
    TablePrinter table(header);
    const std::vector<CellResult> cells =
        RunCells(runner, SystemGrid(QwenSetup(), scenario.systems, {0.0}, scenario.make,
                                    scenario.streaming ? retiring : EngineConfig{}));
    for (const CellResult& cell : cells) {
      const Metrics& m = cell.result.metrics;
      const std::string system(SystemName(cell.system));
      json.Add(scenario.slug, system, "finished", 0.0, static_cast<double>(m.finished));
      json.Add(scenario.slug, system, "attainment_pct", 0.0, m.AttainmentPct());
      json.Add(scenario.slug, system, "goodput_tps", 0.0, m.GoodputTps());
      AddCellWallClock(json, scenario.slug, cell);
      std::vector<std::string> row = {system, std::to_string(m.finished),
                                      FmtPct(m.AttainmentPct()), Fmt(m.GoodputTps(), 1)};
      if (scenario.flash_crowd) {
        const double recovery = RecoveryTimeToSlo(
            cell.result.requests, DefaultFlashCrowd(duration, kScenarioSeed), m.makespan);
        json.Add(scenario.slug, system, "recovery_s", 0.0, recovery);
        row.push_back(Fmt(recovery, 2));
      }
      if (scenario.streaming) {
        row.push_back(std::to_string(cell.result.peak_resident_requests));
      }
      table.AddRow(row);
    }
    table.Print(std::cout);
  }

  json.SetRunInfo(runner.threads(), runner.total_wall_clock_s());
  return FinishBench(args, json);
}

}  // namespace
}  // namespace adaserve

int main(int argc, char** argv) {
  return adaserve::Run(adaserve::ParseBenchArgs(argc, argv));
}
