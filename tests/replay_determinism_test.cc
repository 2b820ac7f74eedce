// Record/replay determinism suite: for every MainComparisonSet system the
// recorded artifact of a run must re-execute byte-identically
// (GoldenMetricsText) on the vector path, on the streaming path, and for
// every replica of a 2-replica cluster run; artifact serialization
// round-trips exactly; an injected single-bit corruption is detected with
// the correct first-divergent-tick; and an artifact that could not be
// replayed is refused at parse time, one case per rejected field.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/cluster/cluster_metrics.h"
#include "src/harness/replay.h"
#include "tests/test_util.h"

namespace adaserve {
namespace {

class ReplayDeterminismTest : public testing::TestWithParam<SystemKind> {};

// Recording is purely observational and replay re-executes byte-
// identically: the artifact's fingerprint equals the sink-free run's
// metrics, and ReplayRun reproduces it tick for tick.
TEST_P(ReplayDeterminismTest, TickNativeRecordReplayByteIdentical) {
  const SystemKind kind = GetParam();
  const RecordedRun run = RecordGoldenRun({kind});
  ASSERT_GT(run.result.metrics.finished, 0);
  ASSERT_FALSE(run.artifact.ticks.empty());

  // Observer purity: a run with a recorder attached matches one without.
  const EngineResult bare = RunCell(MakeGoldenCell({kind}));
  EXPECT_EQ(run.artifact.metrics_text, GoldenMetricsText(kind, bare.metrics));

  const ReplayOutcome outcome = ReplayRun(run.artifact);
  ASSERT_TRUE(outcome.ok) << outcome.divergence->Summary();
  EXPECT_EQ(outcome.metrics_text, run.artifact.metrics_text);
}

// The streaming path (lazy stream, bounded horizon, finished-request
// retirement) records and replays identically too.
TEST_P(ReplayDeterminismTest, StreamingRecordReplayByteIdentical) {
  const SystemKind kind = GetParam();
  const RecordedRun run = RecordGoldenRun({kind, GoldenScenario::kFlashCrowd});
  ASSERT_GT(run.result.metrics.finished, 0);
  const ReplayOutcome outcome = ReplayRun(run.artifact);
  ASSERT_TRUE(outcome.ok) << outcome.divergence->Summary();
  EXPECT_EQ(outcome.metrics_text, run.artifact.metrics_text);
}

TEST_P(ReplayDeterminismTest, ClusterReplicaRecordReplayByteIdentical) {
  const SystemKind kind = GetParam();
  ClusterConfig config;
  config.replicas.push_back({GoldenSetup(), EngineConfig{}});
  config.replicas.push_back({GoldenSetup(), EngineConfig{}});
  config.router = RouterPolicy::kJoinShortestQueue;
  const Experiment exp(GoldenSetup());
  const WorkloadSource workload = MakeGoldenCell({kind}).workload(exp);
  const RecordedClusterRun run =
      RecordClusterRun(config, kind, workload.stream(), {"golden", "golden"}, "cluster2");
  ASSERT_EQ(run.replicas.size(), 2u);

  // Every replica artifact replays standalone, byte-identically.
  std::vector<Metrics> replayed_parts;
  for (size_t i = 0; i < run.replicas.size(); ++i) {
    ASSERT_FALSE(run.replicas[i].arrivals.empty()) << "replica " << i << " got no traffic";
    const ReplayOutcome outcome = ReplayRun(run.replicas[i]);
    ASSERT_TRUE(outcome.ok) << "replica " << i << ": " << outcome.divergence->Summary();
    EXPECT_EQ(outcome.metrics_text, run.replicas[i].metrics_text) << "replica " << i;
    replayed_parts.push_back(outcome.result.metrics);
  }

  // And the merged fleet metrics rebuilt from the replays match the
  // original cluster run's merge.
  std::vector<Metrics> original_parts;
  for (const ReplicaRunResult& replica : run.result.replicas) {
    original_parts.push_back(replica.result.metrics);
  }
  EXPECT_EQ(GoldenMetricsText(kind, MergeMetrics(replayed_parts)),
            GoldenMetricsText(kind, MergeMetrics(original_parts)));
}

INSTANTIATE_TEST_SUITE_P(MainComparison, ReplayDeterminismTest,
                         testing::ValuesIn(MainComparisonSet()),
                         [](const testing::TestParamInfo<SystemKind>& info) {
                           return GoldenFileSlug(info.param);
                         });

TEST(ReplayArtifactTest, SerializationRoundTripsExactly) {
  const RecordedRun run = RecordGoldenRun({SystemKind::kAdaServe});
  const std::string text = SerializeReplayArtifact(run.artifact);

  ReplayArtifact parsed;
  std::string error;
  ASSERT_TRUE(ParseReplayArtifact(text, &parsed, &error)) << error;
  EXPECT_EQ(SerializeReplayArtifact(parsed), text);
  EXPECT_EQ(parsed.arrivals.size(), run.artifact.arrivals.size());
  EXPECT_EQ(parsed.ticks.size(), run.artifact.ticks.size());
  EXPECT_EQ(parsed.metrics_text, run.artifact.metrics_text);

  // A parsed artifact replays just like the in-memory one.
  const ReplayOutcome outcome = ReplayRun(parsed);
  ASSERT_TRUE(outcome.ok) << outcome.divergence->Summary();
}

TEST(ReplayArtifactTest, TruncationAndVersionMismatchAreParseErrors) {
  const RecordedRun run = RecordGoldenRun({SystemKind::kVllm});
  const std::string text = SerializeReplayArtifact(run.artifact);

  ReplayArtifact parsed;
  std::string error;
  EXPECT_FALSE(ParseReplayArtifact(text.substr(0, text.size() / 2), &parsed, &error));
  EXPECT_FALSE(error.empty());

  std::string future = text;
  const std::string header =
      "adaserve_replay_schema: " + std::to_string(kReplaySchemaVersion);
  ASSERT_EQ(future.find(header), 0u);
  future.replace(0, header.size(), "adaserve_replay_schema: 999");
  EXPECT_FALSE(ParseReplayArtifact(future, &parsed, &error));
  EXPECT_NE(error.find("unsupported replay schema"), std::string::npos) << error;

  // Schema 4 (the last one with the draft_budget header key) is refused
  // by version rather than misparsed.
  ASSERT_EQ(kReplaySchemaVersion, 5);
  std::string v4 = text;
  v4.replace(0, header.size(), "adaserve_replay_schema: 4");
  error.clear();
  EXPECT_FALSE(ParseReplayArtifact(v4, &parsed, &error));
  EXPECT_NE(error.find("unsupported replay schema 4"), std::string::npos) << error;
}

// A single flipped bit in a recorded tick is caught, and the divergence
// report names exactly that tick and field — the debugging contract: the
// first divergent tick is where to look.
TEST(ReplayCorruptionTest, SingleBitFlipDetectedAtExactTick) {
  const RecordedRun run = RecordGoldenRun({SystemKind::kAdaServe});
  ASSERT_GT(run.artifact.ticks.size(), 4u);
  const size_t victim = run.artifact.ticks.size() / 2;

  ReplayArtifact corrupted = run.artifact;
  corrupted.ticks[victim].record.committed_tokens ^= 1;

  // Serialize + reparse so the corruption flows the full artifact path.
  ReplayArtifact reloaded;
  std::string error;
  ASSERT_TRUE(ParseReplayArtifact(SerializeReplayArtifact(corrupted), &reloaded, &error)) << error;

  const ReplayOutcome outcome = ReplayRun(reloaded);
  ASSERT_FALSE(outcome.ok);
  ASSERT_TRUE(outcome.divergence.has_value());
  EXPECT_EQ(outcome.divergence->tick, static_cast<long>(victim));
  EXPECT_EQ(outcome.divergence->field, "record.committed_tokens");
  EXPECT_FALSE(outcome.divergence->Summary().empty());
}

// Corrupting an arrival cannot silently pass either: the replay serves
// the corrupted workload and the metrics fingerprint catches it.
TEST(ReplayCorruptionTest, CorruptedArrivalDiverges) {
  const RecordedRun run = RecordGoldenRun({SystemKind::kVllm});
  ASSERT_FALSE(run.artifact.arrivals.empty());

  ReplayArtifact corrupted = run.artifact;
  corrupted.arrivals[corrupted.arrivals.size() / 2].target_output_len += 1;

  const ReplayOutcome outcome = ReplayRun(corrupted);
  ASSERT_FALSE(outcome.ok);
  ASSERT_TRUE(outcome.divergence.has_value());
}

// Parse-time validation: each case corrupts one field of a recorded
// artifact and expects ParseReplayArtifact to refuse it with an error
// naming that field, instead of ReplayRun aborting on it later.
class ReplayValidationTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    recorded_ = new ReplayArtifact(RecordGoldenRun({SystemKind::kVllm}).artifact);
  }
  static void TearDownTestSuite() {
    delete recorded_;
    recorded_ = nullptr;
  }

  void SetUp() override { ASSERT_GE(recorded_->arrivals.size(), 3u); }

  // Serializes `artifact`, expects the parse to fail, returns the error.
  static std::string ParseError(const ReplayArtifact& artifact) {
    ReplayArtifact parsed;
    std::string error;
    EXPECT_FALSE(ParseReplayArtifact(SerializeReplayArtifact(artifact), &parsed, &error));
    EXPECT_FALSE(error.empty());
    return error;
  }

  static ReplayArtifact* recorded_;
};

ReplayArtifact* ReplayValidationTest::recorded_ = nullptr;

TEST_F(ReplayValidationTest, RejectsUnknownSystem) {
  ReplayArtifact artifact = *recorded_;
  artifact.system = "NoSuchSystem";
  const std::string error = ParseError(artifact);
  EXPECT_NE(error.find("unknown system 'NoSuchSystem'"), std::string::npos) << error;
}

TEST_F(ReplayValidationTest, RejectsUnknownSetup) {
  ReplayArtifact artifact = *recorded_;
  artifact.setup_id = "no_such_setup";
  const std::string error = ParseError(artifact);
  EXPECT_NE(error.find("unknown setup 'no_such_setup'"), std::string::npos) << error;
}

TEST_F(ReplayValidationTest, RejectsNonPositivePromptLen) {
  ReplayArtifact artifact = *recorded_;
  artifact.arrivals[1].prompt_len = 0;
  const std::string error = ParseError(artifact);
  EXPECT_NE(error.find("bad arrival prompt_len"), std::string::npos) << error;
}

// Non-positive, and also 1: a one-token request has no TPOT.
TEST_F(ReplayValidationTest, RejectsTargetOutputLenBelowTwo) {
  for (const int target : {0, 1}) {
    ReplayArtifact artifact = *recorded_;
    artifact.arrivals[1].target_output_len = target;
    const std::string error = ParseError(artifact);
    EXPECT_NE(error.find("bad arrival target_output_len"), std::string::npos) << error;
  }
}

TEST_F(ReplayValidationTest, RejectsNonPositiveTpotSlo) {
  ReplayArtifact artifact = *recorded_;
  artifact.arrivals[1].tpot_slo = 0.0;
  const std::string error = ParseError(artifact);
  EXPECT_NE(error.find("bad arrival tpot_slo"), std::string::npos) << error;
}

TEST_F(ReplayValidationTest, RejectsCategoryOutsideTheTable) {
  for (const int category : {-1, kNumCategories}) {
    ReplayArtifact artifact = *recorded_;
    artifact.arrivals[1].category = category;
    const std::string error = ParseError(artifact);
    EXPECT_NE(error.find("bad arrival category"), std::string::npos) << error;
  }
}

TEST_F(ReplayValidationTest, RejectsDecreasingArrivalTimes) {
  ReplayArtifact artifact = *recorded_;
  artifact.arrivals[1].arrival = artifact.arrivals[2].arrival + 1.0;
  const std::string error = ParseError(artifact);
  EXPECT_NE(error.find("bad arrival arrival"), std::string::npos) << error;
}

TEST_F(ReplayValidationTest, RejectsNonDenseIds) {
  ReplayArtifact artifact = *recorded_;
  artifact.arrivals[1].id = 5;
  const std::string error = ParseError(artifact);
  EXPECT_NE(error.find("bad arrival id"), std::string::npos) << error;
}

}  // namespace
}  // namespace adaserve
