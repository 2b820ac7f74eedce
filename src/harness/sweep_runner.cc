#include "src/harness/sweep_runner.h"

#include <thread>

#include "src/common/logging.h"

namespace adaserve {

SweepRunner::SweepRunner(int threads) {
  if (threads <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads_ = hw > 0 ? static_cast<int>(hw) : 1;
  } else {
    threads_ = threads;
  }
}

EngineResult RunCell(const Cell& cell) {
  ADASERVE_CHECK(cell.workload != nullptr) << "cell needs a workload factory";
  const Experiment exp(cell.setup);
  WorkloadSource workload = cell.workload(exp);
  auto scheduler = MakeScheduler(cell.system);
  return exp.Run(*scheduler, std::move(workload), cell.engine);
}

std::vector<CellResult> RunCells(SweepRunner& runner, const std::vector<Cell>& cells) {
  std::vector<std::function<EngineResult()>> tasks;
  tasks.reserve(cells.size());
  for (const Cell& cell : cells) {
    tasks.push_back([&cell] { return RunCell(cell); });
  }
  std::vector<Timed<EngineResult>> timed = runner.Map(tasks);

  std::vector<CellResult> results;
  results.reserve(cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    results.push_back(
        {cells[i].system, cells[i].x, std::move(timed[i].value), timed[i].wall_clock_s});
  }
  return results;
}

std::vector<Cell> SystemGrid(
    const Setup& setup, const std::vector<SystemKind>& systems, const std::vector<double>& xs,
    const std::function<WorkloadSource(const Experiment& exp, double x)>& workload,
    const EngineConfig& engine) {
  std::vector<Cell> cells;
  cells.reserve(xs.size() * systems.size());
  for (double x : xs) {
    for (SystemKind system : systems) {
      cells.push_back(
          {setup, system, [workload, x](const Experiment& exp) { return workload(exp, x); },
           engine, x});
    }
  }
  return cells;
}

std::vector<SeedAggregate> AggregateSeeds(const std::vector<CellResult>& results, size_t seeds) {
  ADASERVE_CHECK(seeds > 0 && results.size() % seeds == 0)
      << results.size() << " results do not split into shards of " << seeds << " seeds";
  std::vector<SeedAggregate> aggregates;
  aggregates.reserve(results.size() / seeds);
  for (size_t i = 0; i < results.size(); ++i) {
    if (i % seeds == 0) {
      aggregates.push_back({results[i].system, results[i].x, {}, {}, {}});
    }
    const Metrics& m = results[i].result.metrics;
    aggregates.back().goodput_tps.Add(m.GoodputTps());
    aggregates.back().attainment_pct.Add(m.AttainmentPct());
    aggregates.back().throughput_tps.Add(m.ThroughputTps());
  }
  return aggregates;
}

}  // namespace adaserve
