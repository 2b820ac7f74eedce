#include "src/model/distribution.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

namespace adaserve {
namespace {

SparseDist MakeDist(std::vector<Token> tokens, std::vector<double> weights) {
  return SparseDist::FromWeights(tokens, weights);
}

TEST(SparseDist, NormalisesWeights) {
  const SparseDist d = MakeDist({1, 2, 3}, {1.0, 2.0, 1.0});
  EXPECT_NEAR(d.TotalMass(), 1.0, 1e-12);
  EXPECT_NEAR(d.ProbOf(2), 0.5, 1e-12);
  EXPECT_NEAR(d.ProbOf(1), 0.25, 1e-12);
}

TEST(SparseDist, EntriesSortedDescending) {
  const SparseDist d = MakeDist({5, 6, 7}, {0.1, 0.7, 0.2});
  EXPECT_EQ(d.entry(0).token, 6);
  EXPECT_EQ(d.entry(1).token, 7);
  EXPECT_EQ(d.entry(2).token, 5);
}

TEST(SparseDist, CoalescesDuplicateTokens) {
  const SparseDist d = MakeDist({1, 1, 2}, {0.25, 0.25, 0.5});
  EXPECT_EQ(d.size(), 2u);
  EXPECT_NEAR(d.ProbOf(1), 0.5, 1e-12);
}

TEST(SparseDist, DropsZeroWeights) {
  const SparseDist d = MakeDist({1, 2, 3}, {1.0, 0.0, 1.0});
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.ProbOf(2), 0.0);
}

TEST(SparseDist, ProbOfMissingTokenIsZero) {
  const SparseDist d = MakeDist({1}, {1.0});
  EXPECT_EQ(d.ProbOf(99), 0.0);
}

TEST(SparseDist, ArgMaxBreaksTiesTowardSmallerToken) {
  const SparseDist d = MakeDist({9, 3}, {0.5, 0.5});
  EXPECT_EQ(d.ArgMax(), 3);
}

TEST(SparseDist, PointMass) {
  const SparseDist d = SparseDist::PointMass(17);
  EXPECT_EQ(d.size(), 1u);
  EXPECT_EQ(d.ArgMax(), 17);
  EXPECT_EQ(d.ProbOf(17), 1.0);
  Rng rng(1);
  EXPECT_EQ(d.Sample(rng), 17);
}

TEST(SparseDist, SampleFrequenciesMatchProbs) {
  const SparseDist d = MakeDist({1, 2, 3}, {0.6, 0.3, 0.1});
  Rng rng(77);
  std::map<Token, int> counts;
  constexpr int kN = 60000;
  for (int i = 0; i < kN; ++i) {
    ++counts[d.Sample(rng)];
  }
  EXPECT_NEAR(counts[1] / static_cast<double>(kN), 0.6, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(kN), 0.3, 0.01);
  EXPECT_NEAR(counts[3] / static_cast<double>(kN), 0.1, 0.01);
}

TEST(SparseDist, EntropyOfUniform) {
  const SparseDist d = MakeDist({1, 2, 3, 4}, {1, 1, 1, 1});
  EXPECT_NEAR(d.Entropy(), std::log(4.0), 1e-12);
}

TEST(SparseDist, EntropyOfPointMassIsZero) {
  EXPECT_NEAR(SparseDist::PointMass(1).Entropy(), 0.0, 1e-12);
}

TEST(Mix, WeightedAverageOverUnionSupport) {
  const SparseDist a = MakeDist({1, 2}, {0.5, 0.5});
  const SparseDist b = MakeDist({2, 3}, {0.5, 0.5});
  const SparseDist m = Mix(a, b, 0.5);
  EXPECT_NEAR(m.ProbOf(1), 0.25, 1e-12);
  EXPECT_NEAR(m.ProbOf(2), 0.5, 1e-12);
  EXPECT_NEAR(m.ProbOf(3), 0.25, 1e-12);
}

TEST(Mix, ExtremeWeightsRecoverInputs) {
  const SparseDist a = MakeDist({1}, {1.0});
  const SparseDist b = MakeDist({2}, {1.0});
  EXPECT_NEAR(Mix(a, b, 1.0).ProbOf(1), 1.0, 1e-12);
  EXPECT_NEAR(Mix(a, b, 0.0).ProbOf(2), 1.0, 1e-12);
}

}  // namespace
}  // namespace adaserve
