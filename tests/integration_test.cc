// Cross-system integration tests: losslessness across schedulers, ordering
// of systems under load, and end-to-end reproducibility.
#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace adaserve {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  IntegrationTest() : exp_(TestSetup()) {}
  Experiment exp_;
};

// The strongest correctness property in the repo: under greedy decoding,
// speculative systems must produce token-for-token identical outputs to
// plain continuous batching — scheduling and speculation change latency,
// never content.
TEST_F(IntegrationTest, GreedyOutputsIdenticalAcrossAllSystems) {
  const std::vector<Request> workload = SmallMixedWorkload(exp_, /*duration=*/6.0, /*rps=*/2.5);
  EngineConfig config;
  config.mode = DecodeMode::kGreedy;

  // Reference outputs: plain greedy ancestral decoding per request.
  std::vector<std::vector<Token>> expected;
  for (const Request& req : workload) {
    std::vector<Token> output;
    Rng rng(1);
    for (int i = 0; i < req.target_output_len; ++i) {
      output.push_back(
          DecodeOneToken(exp_.target(), req.stream_seed, output, DecodeMode::kGreedy, rng));
    }
    expected.push_back(std::move(output));
  }

  for (SystemKind kind : MainComparisonSet()) {
    auto scheduler = MakeScheduler(kind);
    const EngineResult result = exp_.Run(*scheduler, workload, config);
    ASSERT_EQ(result.requests.size(), workload.size());
    for (size_t i = 0; i < workload.size(); ++i) {
      EXPECT_EQ(result.requests[i].output, expected[i])
          << SystemName(kind) << " altered outputs of request " << i;
    }
  }
}

TEST_F(IntegrationTest, AdaServeBeatsVllmOnStressedMultiSloWorkload) {
  const std::vector<Request> workload =
      exp_.RealTraceWorkload(/*duration=*/15.0, /*rps=*/4.0, WorkloadConfig{.mix = {0.6, 0.2, 0.2}});
  AdaServeScheduler adaserve;
  VllmScheduler vllm;
  const EngineResult a = exp_.Run(adaserve, workload);
  const EngineResult v = exp_.Run(vllm, workload);
  EXPECT_GT(a.metrics.AttainmentPct(), v.metrics.AttainmentPct());
  EXPECT_GE(a.metrics.GoodputTps(), v.metrics.GoodputTps());
}

TEST_F(IntegrationTest, AdaServeBeatsStaticSpeculationOnUrgentHeavyMix) {
  const std::vector<Request> workload =
      exp_.RealTraceWorkload(/*duration=*/15.0, /*rps=*/4.0, WorkloadConfig{.mix = {0.9, 0.05, 0.05}});
  AdaServeScheduler adaserve;
  VllmSpecScheduler spec(VllmSpecConfig{.spec_len = 8});
  const EngineResult a = exp_.Run(adaserve, workload);
  const EngineResult s = exp_.Run(spec, workload);
  EXPECT_GE(a.metrics.AttainmentPct() + 1e-9, s.metrics.AttainmentPct());
}

TEST_F(IntegrationTest, RelaxedSloCategoryAlwaysAttainable) {
  // Cat 3's 150 ms SLO is far above any sane iteration time: every system
  // should attain ~all of it at moderate load.
  const std::vector<Request> workload =
      exp_.RealTraceWorkload(/*duration=*/10.0, /*rps=*/2.0, WorkloadConfig{.mix = {0.2, 0.2, 0.6}});
  for (SystemKind kind : MainComparisonSet()) {
    auto scheduler = MakeScheduler(kind);
    const EngineResult result = exp_.Run(*scheduler, workload);
    EXPECT_GT(result.metrics.per_category[kCatSummarization].AttainmentPct(), 90.0)
        << SystemName(kind);
  }
}

TEST_F(IntegrationTest, StochasticRunsAreSeedReproducible) {
  const std::vector<Request> workload = SmallMixedWorkload(exp_);
  AdaServeScheduler s1;
  AdaServeScheduler s2;
  const EngineResult a = exp_.Run(s1, workload);
  const EngineResult b = exp_.Run(s2, workload);
  EXPECT_EQ(a.metrics.AttainmentPct(), b.metrics.AttainmentPct());
  EXPECT_EQ(a.metrics.mean_accepted, b.metrics.mean_accepted);
  EXPECT_EQ(a.metrics.makespan, b.metrics.makespan);
}

TEST_F(IntegrationTest, BothTable1SetupsServeEndToEnd) {
  for (const ::adaserve::Setup& setup : {LlamaSetup(), QwenSetup()}) {
    Experiment exp(setup);
    AdaServeScheduler scheduler;
    const std::vector<Request> workload = exp.RealTraceWorkload(5.0, 2.0);
    const EngineResult result = exp.Run(scheduler, workload);
    EXPECT_EQ(result.metrics.finished, static_cast<int>(workload.size())) << setup.label;
  }
}

}  // namespace
}  // namespace adaserve
