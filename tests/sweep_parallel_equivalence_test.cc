// Parallel ≡ serial equivalence proof for the sweep cell primitive.
//
// Runs a smoke-sized grid of cells — Fig. 8-style vector-fed cells and
// golden streaming-scenario cells fed from owned lazy streams — serially
// (threads=1, every cell inline in order) and in parallel (threads=4),
// and asserts byte-identical GoldenMetricsText per cell: fanning cells
// out over the ThreadPool must not change a single metric byte, because
// each cell rebuilds its full simulator state from deterministic seeds.
// Also pins the per-cell Experiment reconstruction against the
// shared-Experiment serial reference, and the seed-sharded aggregates.
#include <gtest/gtest.h>

#include <stdexcept>

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
    EXPECT_EQ(serial[i].result.total_iterations, parallel[i].result.total_iterations);
    EXPECT_EQ(serial[i].result.end_time, parallel[i].result.end_time);
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

}  // namespace
}  // namespace adaserve
