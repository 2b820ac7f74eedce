// Parallel ≡ serial equivalence proof for the sweep cell primitive.
//
// Runs a smoke-sized grid of cells — Fig. 8-style vector-fed cells and
// golden streaming-scenario cells fed from owned lazy streams — serially
// (threads=1, every cell inline in order) and in parallel (threads=4),
// and asserts byte-identical GoldenMetricsText per cell: fanning cells
// out over sweep worker threads must not change a single metric byte,
// because each cell rebuilds its full simulator state from deterministic
// seeds. Also pins the per-cell Experiment reconstruction against the
// shared-Experiment serial reference, the seed-sharded aggregates, and
// SweepRunner::Map's own contract (input order, the serial path,
// exception propagation).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench/sweep_common.h"
#include "tests/test_util.h"

namespace adaserve {
namespace {

// Smoke-sized Fig. 8 shape: short real-shaped trace, peak mix, both ends
// of the load range.
constexpr double kDuration = 6.0;

std::vector<double> SmokeRpsGrid() { return {2.5, 3.5}; }

std::vector<Request> SmokeWorkload(const Experiment& exp, double rps) {
  return exp.RealTraceWorkload(kDuration, rps, PeakMix());
}

// The vector-fed RPS grid followed by every system on the golden bursty
// and flash-crowd streams.
std::vector<Cell> MixedCells() {
  std::vector<Cell> cells =
      SystemGrid(GoldenSetup(), MainComparisonSet(), SmokeRpsGrid(), SmokeWorkload);
  for (GoldenScenario scenario : {GoldenScenario::kBursty, GoldenScenario::kFlashCrowd}) {
    for (SystemKind kind : MainComparisonSet()) {
      cells.push_back(MakeGoldenCell({kind, scenario}));
    }
  }
  return cells;
}

TEST(SweepParallelEquivalence, Threads4ByteIdenticalToThreads1PerCell) {
  const std::vector<Cell> cells = MixedCells();
  SweepRunner serial_runner(1);
  const std::vector<CellResult> serial = RunCells(serial_runner, cells);
  SweepRunner parallel_runner(4);
  const std::vector<CellResult> parallel = RunCells(parallel_runner, cells);

  ASSERT_EQ(serial.size(), MainComparisonSet().size() * (SmokeRpsGrid().size() + 2));
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    // Results come back in input order at any thread count.
    ASSERT_EQ(serial[i].system, cells[i].system);
    ASSERT_EQ(parallel[i].system, cells[i].system);
    ASSERT_EQ(serial[i].x, parallel[i].x);
    // The byte-identity proof, in the same canonical representation the
    // golden baselines pin.
    EXPECT_EQ(GoldenMetricsText(serial[i].system, serial[i].result.metrics),
              GoldenMetricsText(parallel[i].system, parallel[i].result.metrics))
        << "cell " << i << ": " << SystemName(serial[i].system) << " @ x=" << serial[i].x;
    EXPECT_EQ(serial[i].result.metrics.makespan, parallel[i].result.metrics.makespan);
    EXPECT_EQ(serial[i].result.total_iterations, parallel[i].result.total_iterations);
    EXPECT_GT(parallel[i].wall_clock_s, 0.0);
  }
  EXPECT_EQ(parallel_runner.threads(), 4);
  EXPECT_GT(parallel_runner.total_wall_clock_s(), 0.0);
}

// The per-cell Experiment/workload reconstruction must reproduce the
// shared-Experiment serial reference byte for byte (same setup, same
// seeds => same workload => same run).
TEST(SweepParallelEquivalence, PerCellReconstructionMatchesSharedExperimentReference) {
  const double rps = 3.0;
  const Experiment shared(GoldenSetup());
  const std::vector<SweepPoint> reference =
      RunAllSystems(shared, SmokeWorkload(shared, rps), rps, MainComparisonSet());

  SweepRunner runner(4);
  const std::vector<CellResult> cells =
      RunCells(runner, SystemGrid(GoldenSetup(), MainComparisonSet(), {rps}, SmokeWorkload));

  ASSERT_EQ(reference.size(), cells.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    ASSERT_EQ(reference[i].system, cells[i].system);
    EXPECT_EQ(GoldenMetricsText(reference[i].system, reference[i].metrics),
              GoldenMetricsText(cells[i].system, cells[i].result.metrics));
  }
}

// --- per-seed sharding ---

// Seed shards as ordinary cells: (x, system, seed), seeds innermost.
std::vector<Cell> SeedShardCells(const std::vector<SystemKind>& systems,
                                 const std::vector<double>& xs,
                                 const std::vector<uint64_t>& seeds) {
  std::vector<Cell> cells;
  for (double x : xs) {
    for (SystemKind system : systems) {
      for (uint64_t seed : seeds) {
        cells.push_back({GoldenSetup(), system,
                         [x, seed](const Experiment& exp) {
                           return exp.RealTraceWorkload(kDuration, x, PeakMix(), seed);
                         },
                         {}, x});
      }
    }
  }
  return cells;
}

// Seed shards are deterministic and aggregation order is pinned to seed
// order, so any thread count yields identical shards AND identical
// aggregate floats (mean and the order-sensitive stddev alike).
TEST(SeedShardEquivalence, Threads4IdenticalToThreads1PerShardAndAggregate) {
  const std::vector<uint64_t> seeds = {7, 11, 13};
  const std::vector<Cell> cells =
      SeedShardCells({SystemKind::kVllm, SystemKind::kAdaServe}, {3.0}, seeds);

  SweepRunner serial_runner(1);
  const std::vector<CellResult> serial = RunCells(serial_runner, cells);
  SweepRunner parallel_runner(4);
  const std::vector<CellResult> parallel = RunCells(parallel_runner, cells);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(GoldenMetricsText(serial[i].system, serial[i].result.metrics),
              GoldenMetricsText(parallel[i].system, parallel[i].result.metrics))
        << "shard seed " << seeds[i % seeds.size()];
  }

  const std::vector<SeedAggregate> serial_agg = AggregateSeeds(serial, seeds.size());
  const std::vector<SeedAggregate> parallel_agg = AggregateSeeds(parallel, seeds.size());
  ASSERT_EQ(serial_agg.size(), 2u);
  ASSERT_EQ(parallel_agg.size(), serial_agg.size());
  for (size_t i = 0; i < serial_agg.size(); ++i) {
    const SeedAggregate& s = serial_agg[i];
    const SeedAggregate& p = parallel_agg[i];
    EXPECT_EQ(s.system, p.system);
    EXPECT_EQ(s.x, p.x);
    EXPECT_EQ(s.goodput_tps.count(), seeds.size());
    EXPECT_EQ(s.goodput_tps.mean(), p.goodput_tps.mean());
    EXPECT_EQ(s.goodput_tps.SampleStddev(), p.goodput_tps.SampleStddev());
    EXPECT_EQ(s.attainment_pct.mean(), p.attainment_pct.mean());
    EXPECT_EQ(s.attainment_pct.SampleStddev(), p.attainment_pct.SampleStddev());
    EXPECT_EQ(s.throughput_tps.mean(), p.throughput_tps.mean());
    EXPECT_EQ(s.throughput_tps.SampleStddev(), p.throughput_tps.SampleStddev());
  }
  // Different trace seeds produce genuinely different realisations — the
  // variance the sharding exists to measure is not silently zero — and
  // the sample stddev is strictly wider than the population one.
  EXPECT_GT(serial_agg[0].goodput_tps.Stddev(), 0.0);
  EXPECT_GT(serial_agg[0].goodput_tps.SampleStddev(), serial_agg[0].goodput_tps.Stddev());
}

// A lone seed shard aggregates to that shard's metrics exactly.
TEST(SeedShardEquivalence, SingleSeedAggregateIsTheShard) {
  SweepRunner runner(1);
  const std::vector<CellResult> results =
      RunCells(runner, SeedShardCells({SystemKind::kVllm}, {2.5}, {42}));
  const std::vector<SeedAggregate> agg = AggregateSeeds(results, 1);
  ASSERT_EQ(agg.size(), 1u);
  EXPECT_EQ(agg[0].goodput_tps.mean(), results[0].result.metrics.GoodputTps());
  EXPECT_EQ(agg[0].goodput_tps.SampleStddev(), 0.0);
}

// A cell that throws fails the sweep in the caller, not a worker thread.
TEST(SweepParallelEquivalence, CellExceptionReachesTheCaller) {
  std::vector<Cell> cells = SystemGrid(GoldenSetup(), {SystemKind::kVllm}, {1.0, 2.0, 3.0, 4.0},
                                       [](const Experiment& exp, double x) -> WorkloadSource {
                                         if (x == 3.0) {
                                           throw std::runtime_error("cell 3 failed");
                                         }
                                         return exp.RealTraceWorkload(1.0, x);
                                       });
  SweepRunner runner(4);
  EXPECT_THROW(RunCells(runner, cells), std::runtime_error);
}

// --- SweepRunner::Map contract ---

TEST(SweepRunnerMap, ResultsComeBackInInputOrderWhenTasksFinishOutOfOrder) {
  constexpr int kTasks = 32;
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < kTasks; ++i) {
    tasks.push_back([i] {
      // Earlier tasks sleep longer, so completion order inverts input
      // order across the workers.
      std::this_thread::sleep_for(std::chrono::microseconds((kTasks - i) * 50));
      return i * i;
    });
  }
  SweepRunner runner(4);
  const std::vector<Timed<int>> results = runner.Map(tasks);
  ASSERT_EQ(results.size(), tasks.size());
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(results[static_cast<size_t>(i)].value, i * i);
    EXPECT_GT(results[static_cast<size_t>(i)].wall_clock_s, 0.0);
  }
}

TEST(SweepRunnerMap, OneThreadRunsEveryTaskOnTheCallingThreadInOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::mutex mu;  // Only contended if Map wrongly fans out.
  std::vector<int> order;
  std::vector<std::function<std::thread::id()>> tasks;
  for (int i = 0; i < 16; ++i) {
    tasks.push_back([i, &mu, &order] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
      return std::this_thread::get_id();
    });
  }
  SweepRunner runner(1);
  const std::vector<Timed<std::thread::id>> ran_on = runner.Map(tasks);
  ASSERT_EQ(order.size(), tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(order[i], static_cast<int>(i));
    EXPECT_EQ(ran_on[i].value, caller);
  }
}

// Tasks 2 and 5 throw; task 2 sleeps first so that, with workers, task
// 5's exception is raised earlier in time. The caller still sees task 2's
// exception, and only after all eight tasks ran.
TEST(SweepRunnerMap, FirstInputOrderExceptionRethrownAfterEveryTaskRan) {
  for (int threads : {1, 4}) {
    std::atomic<int> ran{0};
    std::vector<std::function<int()>> tasks;
    for (int i = 0; i < 8; ++i) {
      tasks.push_back([i, &ran] {
        if (i == 2) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        ++ran;
        if (i == 2 || i == 5) {
          throw std::runtime_error("task " + std::to_string(i));
        }
        return i;
      });
    }
    SweepRunner runner(threads);
    try {
      runner.Map(tasks);
      ADD_FAILURE() << "threads=" << threads << ": expected a task's exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 2") << "threads=" << threads;
    }
    EXPECT_EQ(ran.load(), 8) << "threads=" << threads;
  }
}

TEST(SweepRunnerMap, EmptyTaskListReturnsEmpty) {
  for (int threads : {1, 4}) {
    SweepRunner runner(threads);
    EXPECT_TRUE(runner.Map(std::vector<std::function<int()>>{}).empty());
  }
}

}  // namespace
}  // namespace adaserve
