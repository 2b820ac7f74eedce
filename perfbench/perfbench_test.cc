// Tests of the benchmark's own metric, accounting and tracing code.
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "perfbench/cell.h"
#include "perfbench/metrics.h"
#include "perfbench/tracer.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) {
    v.push_back(i);
  }
  return v;
}

TEST(TailPercentileTest, NearestRankWhenEnoughSamplesLieBeyond) {
  const Percentile p50 = TailPercentile(OneTo(100), 0, 50.0);
  EXPECT_TRUE(p50.valid);
  EXPECT_EQ(p50.samples, 100);
  EXPECT_DOUBLE_EQ(p50.percentile, 50.0);
  EXPECT_DOUBLE_EQ(p50.value, 50.0);

  const Percentile p99 = TailPercentile(OneTo(1000), 0, 99.0);
  EXPECT_DOUBLE_EQ(p99.percentile, 99.0);
  EXPECT_DOUBLE_EQ(p99.value, 990.0);
}

TEST(TailPercentileTest, LowersThePercentileUntilTenSamplesLieBeyond) {
  // 100 samples: p99 would leave one sample beyond it; rank 90 leaves ten.
  const Percentile p = TailPercentile(OneTo(100), 0, 99.0);
  EXPECT_TRUE(p.valid);
  EXPECT_DOUBLE_EQ(p.percentile, 90.0);
  EXPECT_DOUBLE_EQ(p.value, 90.0);

  const Percentile few = TailPercentile(OneTo(10), 0, 50.0);
  EXPECT_FALSE(few.valid);
  EXPECT_EQ(few.samples, 10);

  const Percentile eleven = TailPercentile(OneTo(11), 0, 99.0);
  EXPECT_TRUE(eleven.valid);
  EXPECT_DOUBLE_EQ(eleven.value, 1.0);
}

TEST(TailPercentileTest, FailedRequestsCountAsInfinity) {
  // 95 served + 5 failed: the median is a served request, p99's rank
  // (capped at 90) too.
  const Percentile p50 = TailPercentile(OneTo(95), 5, 50.0);
  EXPECT_EQ(p50.samples, 100);
  EXPECT_DOUBLE_EQ(p50.value, 50.0);
  EXPECT_DOUBLE_EQ(TailPercentile(OneTo(95), 5, 99.0).value, 90.0);

  // 40 served + 60 failed: the median lands on a failed request.
  const Percentile lost = TailPercentile(OneTo(40), 60, 50.0);
  EXPECT_TRUE(lost.valid);
  EXPECT_TRUE(std::isinf(lost.value));

  // Serving a failed request can only lower the percentile.
  EXPECT_LE(TailPercentile(OneTo(41), 59, 50.0).value, lost.value);
}

CellRecord ServedCell() {
  CellRecord cell;
  cell.name = "served";
  cell.generated = {10, 5, 5};
  CellOutcome& o = cell.outcome;
  o.pulled = 20;
  o.finished = 18;
  o.rejected = 2;
  o.finished_by_cat = {9, 5, 4};
  o.attained_by_cat = {6, 3, 2};
  o.goodput_tok_s = 30.0;
  for (int i = 1; i <= 18; ++i) {
    o.ttft_ms.push_back(i);
    o.tpot_ms.push_back(10.0 * i);
  }
  return cell;
}

TEST(AccountingTest, RejectedAndAbortedRequestsCountAsFailedMisses) {
  CellRecord aborted;
  aborted.name = "aborted";
  aborted.generated = {10, 5, 5};
  aborted.aborted = true;
  aborted.failure = "[CHECK request.cc:21] state == kFinished failed.";

  const std::vector<CellRecord> cells = {ServedCell(), aborted};
  EXPECT_EQ(cells[0].Failed(), 2);
  EXPECT_EQ(cells[1].Failed(), 20);

  const ServedSummary s = Summarize(cells);
  EXPECT_EQ(s.generated, 40);
  EXPECT_EQ(s.succeeded, 18);
  EXPECT_EQ(s.failed, 22);
  EXPECT_DOUBLE_EQ(s.failed_pct, 55.0);
  EXPECT_DOUBLE_EQ(s.slo_attainment_pct, 100.0 * 11 / 40);
  EXPECT_DOUBLE_EQ(s.urgent_attainment_pct, 100.0 * 6 / 20);
  // The aborted cell's goodput is 0.
  EXPECT_DOUBLE_EQ(s.goodput_tok_s, 15.0);
  // 18 served samples and 22 failed ones: the median is a failure.
  EXPECT_EQ(s.ttft_p50.samples, 40);
  EXPECT_TRUE(std::isinf(s.ttft_p50.value));
  EXPECT_TRUE(std::isinf(s.tpot_p99.value));
}

TEST(AccountingTest, ConservationCheckFindsLostRequests) {
  CellRecord cell = ServedCell();
  EXPECT_EQ(CheckConservation(cell), "");

  CellRecord not_pulled = cell;
  not_pulled.outcome.pulled = 19;
  EXPECT_NE(CheckConservation(not_pulled), "");

  CellRecord lost = cell;
  lost.outcome.rejected = 1;
  EXPECT_NE(CheckConservation(lost), "");

  CellRecord unfinished = lost;
  unfinished.outcome.unfinished = 1;
  EXPECT_EQ(CheckConservation(unfinished), "");

  CellRecord over_attained = cell;
  over_attained.outcome.attained_by_cat[2] = 5;
  EXPECT_NE(CheckConservation(over_attained), "");

  CellRecord aborted = cell;
  aborted.aborted = true;
  aborted.outcome = CellOutcome{};
  EXPECT_EQ(CheckConservation(aborted), "");
}

int64_t g_now = 0;
int64_t FakeClock() { return g_now; }

TEST(TracerTest, SelfTimeSubtractsDirectChildren) {
  g_now = 0;
  Tracer tracer(FakeClock);
  tracer.Begin(Layer::kTick);
  g_now = 10;
  tracer.Begin(Layer::kTargetNextDist);
  g_now = 30;
  EXPECT_EQ(tracer.End(Layer::kTargetNextDist), 20);
  g_now = 40;
  tracer.Begin(Layer::kVerify);
  g_now = 45;
  tracer.Begin(Layer::kTargetNextDist);
  g_now = 50;
  tracer.End(Layer::kTargetNextDist);
  g_now = 70;
  tracer.End(Layer::kVerify);
  g_now = 100;
  EXPECT_EQ(tracer.End(Layer::kTick), 100);

  EXPECT_EQ(tracer.stats(Layer::kTargetNextDist).calls, 2);
  EXPECT_EQ(tracer.stats(Layer::kTargetNextDist).self_ns, 25);
  EXPECT_EQ(tracer.stats(Layer::kVerify).self_ns, 25);
  EXPECT_EQ(tracer.stats(Layer::kTick).self_ns, 100 - 20 - 30);
  EXPECT_EQ(tracer.depth(), 0);
  // Only the tick is kept as an event.
  ASSERT_EQ(tracer.events().size(), 1u);
  EXPECT_EQ(tracer.events()[0].layer, Layer::kTick);
  EXPECT_EQ(tracer.events()[0].dur_ns, 100);
  EXPECT_EQ(tracer.tick_durations(), std::vector<int64_t>{100});
}

TEST(TracerTest, AbandonedSpanIsNotCountedButItsChildrenAre) {
  g_now = 0;
  Tracer tracer(FakeClock);
  tracer.Begin(Layer::kEngine);
  g_now = 10;
  tracer.Begin(Layer::kTick);
  g_now = 20;
  tracer.Begin(Layer::kTargetNextDist);
  g_now = 30;
  tracer.End(Layer::kTargetNextDist);
  g_now = 50;
  tracer.Abandon(Layer::kTick);
  g_now = 60;
  tracer.End(Layer::kEngine);

  EXPECT_EQ(tracer.stats(Layer::kTick).calls, 0);
  EXPECT_EQ(tracer.stats(Layer::kTargetNextDist).self_ns, 10);
  EXPECT_EQ(tracer.stats(Layer::kEngine).self_ns, 50);
  EXPECT_TRUE(tracer.tick_durations().empty());
}

TEST(CellOutcomeTest, SerializedFormRoundTripsExactly) {
  CellOutcome o = ServedCell().outcome;
  o.goodput_tok_s = 1.0 / 3.0;
  o.tpot_ms.push_back(0.1 + 0.2);
  o.ticks = 123;
  o.peak_resident = 7;
  CellOutcome parsed;
  ASSERT_TRUE(CellOutcome::Parse(o.Serialize(), &parsed));
  EXPECT_EQ(parsed.Serialize(), o.Serialize());
  EXPECT_EQ(parsed.goodput_tok_s, o.goodput_tok_s);
  EXPECT_EQ(parsed.tpot_ms.back(), 0.1 + 0.2);
  EXPECT_FALSE(CellOutcome::Parse("finished_by_cat 1 2", &parsed));
}

}  // namespace
}  // namespace perfbench
