// Parallel sweep execution engine for the bench/figure harness.
//
// A sweep is a list of cells, each one independent deterministic
// simulation: a setup, a serving system, a workload, and an engine
// config. RunCell builds a fresh Experiment, workload, and scheduler for
// its cell and runs it once; RunCells fans a cell list out over a
// SweepRunner's worker threads (plain std::jthreads that Map spawns and
// joins per call) and returns results in input order, so the
// output — and, because no simulator state crosses cells, every metric
// byte — is identical at any thread count.
// tests/sweep_parallel_equivalence_test.cc pins threads=1 ≡ threads=4
// with the same GoldenMetricsText machinery that pins the golden
// baselines.
//
// Thread-safety contract: a cell's workload factory runs on a sweep
// worker thread and must only read the Experiment it is handed and its own
// captures. Custom tasks passed to Map must likewise build all simulator
// state inside the task.
#ifndef ADASERVE_SRC_HARNESS_SWEEP_RUNNER_H_
#define ADASERVE_SRC_HARNESS_SWEEP_RUNNER_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <functional>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/stats.h"
#include "src/harness/comparisons.h"
#include "src/harness/experiment.h"

namespace adaserve {

// A task result annotated with the wall-clock seconds the task itself
// consumed (its own compute time, roughly thread-count independent).
template <typename T>
struct Timed {
  T value;
  double wall_clock_s = 0.0;
};

class SweepRunner {
 public:
  // threads == 0 resolves to std::thread::hardware_concurrency().
  // threads == 1 runs every task inline on the calling thread in input
  // order — the exact serial path.
  explicit SweepRunner(int threads = 0);

  int threads() const { return threads_; }

  // Wall-clock seconds spent inside Map calls so far (the figure's total
  // harness time, what BenchJson records as the "harness / total" row).
  double total_wall_clock_s() const { return total_wall_clock_s_; }

  // Runs every task and returns their results in input order regardless
  // of completion order. min(threads, tasks) - 1 helper threads plus the
  // calling thread claim task indices from one shared counter; threads
  // == 1 runs every task on the calling thread, in input order. If tasks
  // throw, the first (input-order) exception is rethrown in the caller
  // after every task has run.
  template <typename T>
  std::vector<Timed<T>> Map(const std::vector<std::function<T()>>& tasks) {
    const auto sweep_start = std::chrono::steady_clock::now();
    std::vector<std::optional<Timed<T>>> slots(tasks.size());
    std::vector<std::exception_ptr> errors(tasks.size());
    std::atomic<size_t> next{0};
    const auto work = [&] {
      for (size_t i = next++; i < tasks.size(); i = next++) {
        const auto start = std::chrono::steady_clock::now();
        try {
          slots[i].emplace(Timed<T>{tasks[i](), 0.0});
          slots[i]->wall_clock_s = SecondsSince(start);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      }
    };
    {
      const size_t workers = std::min(static_cast<size_t>(threads_), tasks.size());
      std::vector<std::jthread> helpers;  // Joined when the scope ends.
      for (size_t w = 1; w < workers; ++w) {
        helpers.emplace_back(work);
      }
      work();
    }
    total_wall_clock_s_ += SecondsSince(sweep_start);
    for (const std::exception_ptr& error : errors) {
      if (error) {
        std::rethrow_exception(error);
      }
    }
    std::vector<Timed<T>> results;
    results.reserve(tasks.size());
    for (std::optional<Timed<T>>& slot : slots) {
      results.push_back(std::move(*slot));
    }
    return results;
  }

 private:
  static double SecondsSince(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  }

  int threads_ = 1;
  double total_wall_clock_s_ = 0.0;
};

// One simulated run. `x` is the swept knob (RPS, urgent share, SLO
// scale...) the cell reports under; the workload factory already bakes
// it in.
struct Cell {
  Setup setup;
  SystemKind system = SystemKind::kAdaServe;
  // Builds the cell's workload — a request vector or an owned lazy
  // stream — on the cell's own Experiment. Called once per run, from a
  // sweep worker thread.
  std::function<WorkloadSource(const Experiment& exp)> workload;
  EngineConfig engine;
  double x = 0.0;
};

struct CellResult {
  SystemKind system;
  double x = 0.0;
  EngineResult result;
  // The cell task's own compute seconds.
  double wall_clock_s = 0.0;
};

// Runs `cell` from scratch: a fresh Experiment(cell.setup), its workload,
// and a fresh MakeScheduler(cell.system), then one Experiment::Run.
EngineResult RunCell(const Cell& cell);

// Runs every cell through `runner`; results come back in `cells` order.
std::vector<CellResult> RunCells(SweepRunner& runner, const std::vector<Cell>& cells);

// The xs × systems grid of the sweep benches, x-major (for each x, every
// system): the benches' print order. `workload` builds the trace of one
// sweep point on the cell's own Experiment.
std::vector<Cell> SystemGrid(
    const Setup& setup, const std::vector<SystemKind>& systems, const std::vector<double>& xs,
    const std::function<WorkloadSource(const Experiment& exp, double x)>& workload,
    const EngineConfig& engine = {});

// Headline metrics of one (system, x) cell across trace seeds.
struct SeedAggregate {
  SystemKind system;
  double x = 0.0;
  RunningStat goodput_tps;
  RunningStat attainment_pct;
  RunningStat throughput_tps;
};

// Folds seed-sharded results — `seeds` consecutive results per
// (system, x), seeds innermost — into one aggregate each. Accumulation
// follows result order, so every float (the order-sensitive stddev
// included) is identical at any thread count. Cross-seed error bars
// should use RunningStat::SampleStddev: a few seeds are a sample of the
// seed population.
std::vector<SeedAggregate> AggregateSeeds(const std::vector<CellResult>& results, size_t seeds);

}  // namespace adaserve

#endif  // ADASERVE_SRC_HARNESS_SWEEP_RUNNER_H_
