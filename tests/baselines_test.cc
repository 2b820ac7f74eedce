#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace adaserve {
namespace {

class BaselinesTest : public ::testing::Test {
 protected:
  BaselinesTest() : exp_(TestSetup()) {}
  Experiment exp_;
};

TEST_F(BaselinesTest, EveryBaselineDrainsAMixedWorkload) {
  const std::vector<Request> workload = SmallMixedWorkload(exp_);
  for (SystemKind kind :
       {SystemKind::kVllm, SystemKind::kSarathi, SystemKind::kVllmSpec4,
        SystemKind::kVllmPriority, SystemKind::kFastServe, SystemKind::kVtc}) {
    auto scheduler = MakeScheduler(kind);
    const EngineResult result = exp_.Run(*scheduler, workload);
    EXPECT_EQ(result.metrics.finished, static_cast<int>(workload.size())) << SystemName(kind);
  }
}

TEST_F(BaselinesTest, VllmUniformPerTokenLatencyWithinBatch) {
  // Continuous batching gives every batched request the same iteration
  // cadence: simultaneous same-length requests finish together.
  VllmScheduler scheduler;
  const std::vector<Request> workload = UniformWorkload(exp_, 4, kCatChat, /*spread_s=*/0.0);
  Engine engine(&exp_.target(), &exp_.draft(), &exp_.target_latency(), &exp_.draft_latency());
  const EngineResult result = exp_.Run(scheduler, workload);
  EXPECT_EQ(result.metrics.finished, 4);
  const Samples& tpot = result.metrics.per_category[kCatChat].tpot_ms;
  EXPECT_NEAR(tpot.Min(), tpot.Max(), 1e-6);
}

TEST_F(BaselinesTest, VllmSpecCommitsMoreTokensPerIteration) {
  const std::vector<Request> workload = UniformWorkload(exp_, 4, kCatChat, 0.0);
  VllmScheduler cb;
  VllmSpecScheduler spec(VllmSpecConfig{.spec_len = 6});
  const EngineResult cb_result = exp_.Run(cb, workload);
  const EngineResult spec_result = exp_.Run(spec, workload);
  // Same tokens served, fewer iterations for the speculative system.
  EXPECT_LT(spec_result.total_iterations, cb_result.total_iterations);
  EXPECT_GT(spec_result.metrics.mean_accepted, 0.0);
  EXPECT_EQ(cb_result.metrics.mean_accepted, 0.0);
}

TEST_F(BaselinesTest, VllmSpecAcceptanceBoundedBySpecLen) {
  VllmSpecScheduler spec(VllmSpecConfig{.spec_len = 4});
  const std::vector<Request> workload = UniformWorkload(exp_, 4, kCatChat, 0.0);
  const EngineResult result = exp_.Run(spec, workload);
  EXPECT_LE(result.metrics.mean_accepted, 4.0);
}

TEST_F(BaselinesTest, PrioritySchedulerFavoursUrgentCategory) {
  // Simultaneous urgent (Cat1) and relaxed (Cat3) requests: under priority
  // scheduling the urgent class must see strictly lower mean TPOT.
  PriorityScheduler scheduler;
  std::vector<Request> workload = UniformWorkload(exp_, 4, kCatCoding, 0.0);
  std::vector<Request> relaxed = UniformWorkload(exp_, 4, kCatSummarization, 0.0);
  for (Request& r : relaxed) {
    r.id += 4;
    r.stream_seed += 1000;
    workload.push_back(r);
  }
  const EngineResult result = exp_.Run(scheduler, workload);
  EXPECT_LT(result.metrics.per_category[kCatCoding].tpot_ms.Mean(),
            result.metrics.per_category[kCatSummarization].tpot_ms.Mean());
}

TEST_F(BaselinesTest, VtcCountsServiceFairly) {
  // With a binding batch cap and two categories, VTC must alternate service
  // so neither category's mean TPOT is wildly worse than the other's.
  VtcConfig config;
  config.max_batch = 2;
  VtcScheduler scheduler(config);
  std::vector<Request> workload = UniformWorkload(exp_, 3, kCatChat, 0.0);
  std::vector<Request> other = UniformWorkload(exp_, 3, kCatSummarization, 0.0);
  for (size_t i = 0; i < other.size(); ++i) {
    other[i].id += 3;
    other[i].stream_seed += 500;
    workload.push_back(other[i]);
  }
  const EngineResult result = exp_.Run(scheduler, workload);
  const double chat = result.metrics.per_category[kCatChat].tpot_ms.Mean();
  const double summ = result.metrics.per_category[kCatSummarization].tpot_ms.Mean();
  EXPECT_LT(std::max(chat, summ) / std::min(chat, summ), 2.0);
}

TEST_F(BaselinesTest, FastServePrefersShortJobs) {
  // A request shorter than the top-level quantum never demotes, so it
  // completes entirely at top priority while long-runners sink; its mean
  // TPOT must beat theirs.
  FastServeConfig config;
  config.base_quantum = 8;
  config.max_batch = 2;
  FastServeScheduler scheduler(config);
  std::vector<Request> workload = UniformWorkload(exp_, 1, kCatChat, 0.0,
                                                  /*prompt_len=*/32, /*output_len=*/6);
  std::vector<Request> long_reqs = UniformWorkload(exp_, 3, kCatSummarization, 0.0,
                                                   /*prompt_len=*/32, /*output_len=*/64);
  for (size_t i = 0; i < long_reqs.size(); ++i) {
    long_reqs[i].id += 1;
    long_reqs[i].stream_seed += 99;
    workload.push_back(long_reqs[i]);
  }
  const EngineResult result = exp_.Run(scheduler, workload);
  EXPECT_LT(result.metrics.per_category[kCatChat].tpot_ms.Mean(),
            result.metrics.per_category[kCatSummarization].tpot_ms.Mean());
}

TEST_F(BaselinesTest, SpecLenNamesDistinct) {
  EXPECT_EQ(VllmSpecScheduler(VllmSpecConfig{.spec_len = 4}).name(), "vLLM-Spec(4)");
  EXPECT_EQ(VllmSpecScheduler(VllmSpecConfig{.spec_len = 8}).name(), "vLLM-Spec(8)");
}

TEST_F(BaselinesTest, ComparisonSetsWellFormed) {
  EXPECT_EQ(MainComparisonSet().size(), 8u);
  EXPECT_EQ(MotivationSet().size(), 5u);
  for (SystemKind kind : MainComparisonSet()) {
    EXPECT_NE(MakeScheduler(kind), nullptr);
    EXPECT_FALSE(SystemName(kind).empty());
  }
}

}  // namespace
}  // namespace adaserve
