// Bit-exactness of the distribution kernel.
//
// Every served metric depends on the exact doubles the synthetic target and
// draft models emit, so the kernel's fast paths (the shared Zipf table,
// hashed duplicate coalescing, insertion sort) must reproduce the plain
// coalesce-then-sort arithmetic bit for bit. The checksums below were
// recorded from that plain implementation.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "src/harness/experiment.h"
#include "src/model/distribution.h"
#include "src/model/draft_lm.h"
#include "src/model/synthetic_lm.h"

namespace adaserve {
namespace {

// FNV-1a over the raw bits of each distribution: size, then every
// (token, prob) entry in order.
class BitChecksum {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  void Add(const SparseDist& d) {
    Add(d.size());
    for (const auto& e : d.entries()) {
      Add(static_cast<uint64_t>(static_cast<uint32_t>(e.token)));
      Add(std::bit_cast<uint64_t>(e.prob));
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

struct KernelSums {
  uint64_t target;
  uint64_t draft;
};

// Queries target and draft `queries` times each over random streams and
// contexts (lengths 0..7, so both the padded and the trailing-window cases
// occur) and checksums every output.
KernelSums Checksum(const LmConfig& lm_config, const DraftConfig& draft_config, int queries) {
  const SyntheticLm target(lm_config);
  const DraftLm draft(&target, draft_config);
  Rng rng(0xc0ffee);
  BitChecksum target_sum;
  BitChecksum draft_sum;
  std::vector<Token> context;
  for (int q = 0; q < queries; ++q) {
    const uint64_t stream = rng.UniformInt(64);
    context.clear();
    const uint64_t length = rng.UniformInt(8);
    for (uint64_t i = 0; i < length; ++i) {
      context.push_back(
          static_cast<Token>(rng.UniformInt(static_cast<uint64_t>(lm_config.vocab_size))));
    }
    target_sum.Add(target.NextDist(stream, context));
    draft_sum.Add(draft.NextDist(stream, context));
  }
  return {target_sum.value(), draft_sum.value()};
}

constexpr int kQueries = 12000;

TEST(ModelKernel, LlamaSetupOutputsAreBitExact) {
  const adaserve::Setup setup = LlamaSetup();
  const KernelSums sums = Checksum(setup.lm_config, setup.draft_config, kQueries);
  EXPECT_EQ(sums.target, 0x07073a29c59634b6ULL);
  EXPECT_EQ(sums.draft, 0xff98cfa16281db18ULL);
}

TEST(ModelKernel, QwenSetupOutputsAreBitExact) {
  const adaserve::Setup setup = QwenSetup();
  const KernelSums sums = Checksum(setup.lm_config, setup.draft_config, kQueries);
  EXPECT_EQ(sums.target, 0x091ec05421016e71ULL);
  EXPECT_EQ(sums.draft, 0x4ca9cbe8fa1e2073ULL);
}

TEST(ModelKernel, DefaultConfigOutputsAreBitExact) {
  const KernelSums sums = Checksum(LmConfig{}, DraftConfig{}, kQueries);
  EXPECT_EQ(sums.target, 0x2cb365a7c7abd4c6ULL);
  EXPECT_EQ(sums.draft, 0x8fad884cdc6b92f2ULL);
}

// Supports past the inline capacity: the target spills, and the draft mix
// sees up to 64 + 40 tokens, more than the coalescing table holds.
TEST(ModelKernel, WideSupportOutputsAreBitExact) {
  LmConfig lm_config;
  lm_config.vocab_size = 5000;
  lm_config.support = 64;
  lm_config.zipf_exponent = 1.1;
  const DraftConfig draft_config{.fidelity = 0.7, .noise_seed = 99, .noise_support = 40};
  const KernelSums sums = Checksum(lm_config, draft_config, kQueries / 4);
  EXPECT_EQ(sums.target, 0x4a54d404b4e89409ULL);
  EXPECT_EQ(sums.draft, 0xfc5d2fec5df843abULL);
}

// --- Mix against a plain reference -----------------------------------------

// The historical Mix: concatenate the weighted a terms then b terms,
// coalesce duplicates by linear scan in input order (a's term first),
// accumulate the total in input order, normalise, sort.
std::vector<SparseDist::Entry> ReferenceMix(const SparseDist& a, const SparseDist& b,
                                            double weight) {
  std::vector<SparseDist::Entry> out;
  double total = 0.0;
  auto add = [&](Token token, double w) {
    if (w <= 0.0) {
      return;
    }
    total += w;
    for (auto& e : out) {
      if (e.token == token) {
        e.prob += w;
        return;
      }
    }
    out.push_back({token, w});
  };
  for (const auto& e : a.entries()) {
    add(e.token, weight * e.prob);
  }
  for (const auto& e : b.entries()) {
    add(e.token, (1.0 - weight) * e.prob);
  }
  for (auto& e : out) {
    e.prob /= total;
  }
  std::sort(out.begin(), out.end(), [](const auto& x, const auto& y) {
    return x.prob != y.prob ? x.prob > y.prob : x.token < y.token;
  });
  return out;
}

// A distribution over `n` distinct tokens drawn from [lo, lo + range).
// `levels` > 0 quantises the weights to that many values, so normalisation
// produces exact ties.
SparseDist RandomDist(Rng& rng, int n, Token lo, Token range, int levels) {
  std::vector<Token> tokens;
  std::vector<double> weights;
  while (static_cast<int>(tokens.size()) < n) {
    const auto t = static_cast<Token>(lo + static_cast<Token>(rng.UniformInt(range)));
    if (std::find(tokens.begin(), tokens.end(), t) != tokens.end()) {
      continue;
    }
    tokens.push_back(t);
    weights.push_back(levels > 0 ? static_cast<double>(1 + rng.UniformInt(levels))
                                 : rng.Uniform() + 1e-3);
  }
  return SparseDist::FromWeights(tokens, weights);
}

void ExpectMixMatchesReference(const SparseDist& a, const SparseDist& b, double weight) {
  const SparseDist mixed = Mix(a, b, weight);
  const std::vector<SparseDist::Entry> expected = ReferenceMix(a, b, weight);
  ASSERT_EQ(mixed.size(), expected.size()) << "weight " << weight;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(mixed.entry(i).token, expected[i].token) << "entry " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(mixed.entry(i).prob),
              std::bit_cast<uint64_t>(expected[i].prob))
        << "entry " << i;
  }
}

struct MixCase {
  int a_support;
  int b_support;
  Token b_offset;  // b's tokens start here; a's start at 0.
  Token range;
  int levels;
};

TEST(ModelKernel, MixMatchesReferenceBitForBit) {
  const MixCase cases[] = {
      {24, 24, 0, 40, 0},       // Heavily overlapping supports.
      {24, 24, 0, 32000, 0},    // Realistic: rare collisions.
      {24, 24, 1000, 1000, 0},  // Disjoint: nothing coalesces.
      {24, 24, 1000, 1000, 3},  // Disjoint with ties.
      {24, 24, 0, 30, 2},       // Overlapping with ties.
      {40, 40, 1000, 1000, 0},  // Disjoint union of 80: past inline capacity.
      {60, 60, 0, 100, 0},      // Overlapping wide supports: table fallback.
      {1, 1, 0, 2, 0},          // Tiny.
  };
  const double weights[] = {0.0, 1.0, 0.5, 0.85, 0.82, 1e-300, 1.0 - 1e-16};
  Rng rng(2024);
  for (const MixCase& c : cases) {
    for (int rep = 0; rep < 50; ++rep) {
      const SparseDist a = RandomDist(rng, c.a_support, 0, c.range, c.levels);
      const SparseDist b = RandomDist(rng, c.b_support, c.b_offset, c.range, c.levels);
      for (const double w : weights) {
        ExpectMixMatchesReference(a, b, w);
      }
      ExpectMixMatchesReference(a, b, rng.Uniform());
    }
  }
}

// Probabilities one ulp apart collapse to a tie once scaled, which Mix
// must order by token.
TEST(ModelKernel, MixOrdersTiesCreatedByScaling) {
  Rng rng(7);
  for (int rep = 0; rep < 200; ++rep) {
    std::vector<Token> tokens;
    std::vector<double> weights;
    double w = 0.5;
    for (Token t = 0; t < 24; ++t) {
      tokens.push_back(static_cast<Token>(23 - t + 100 * (rep % 3)));
      weights.push_back(w);
      if (rng.UniformInt(2) == 0) {
        w = std::nextafter(w, 0.0);
      }
    }
    const SparseDist a = SparseDist::FromWeights(tokens, weights);
    for (auto& t : tokens) {
      t += 5000;
    }
    const SparseDist b = SparseDist::FromWeights(tokens, weights);
    ExpectMixMatchesReference(a, b, 0.3 + 0.4 * rng.Uniform());
  }
}

// --- Shared Zipf table under concurrency -----------------------------------

// Checksum of one LM shape's outputs over a fixed set of queries.
uint64_t ShapeChecksum(int support, double exponent) {
  LmConfig config;
  config.support = support;
  config.zipf_exponent = exponent;
  const SyntheticLm lm(config);
  const std::vector<Token> context = {3, 1, 4};
  BitChecksum sum;
  for (uint64_t stream = 0; stream < 16; ++stream) {
    sum.Add(lm.NextDist(stream, context));
  }
  return sum.value();
}

TEST(ModelKernel, ConcurrentConstructionMatchesSerial) {
  // (support, exponent) pairs no other test uses, so the threads race to
  // insert them into the shared table.
  constexpr int kShapes = 6;
  constexpr int kThreads = 8;
  auto shape = [](int k) { return std::pair<int, double>{8 + 4 * k, 1.05 + 0.37 * k}; };
  std::vector<std::vector<uint64_t>> sums(kThreads, std::vector<uint64_t>(kShapes, 0));
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      // Each thread visits the shapes starting at a different one.
      threads.emplace_back([&sums, &shape, t] {
        for (int i = 0; i < kShapes; ++i) {
          const int k = (t + i) % kShapes;
          const auto [support, exponent] = shape(k);
          sums[t][k] = ShapeChecksum(support, exponent);
        }
      });
    }
  }
  for (int k = 0; k < kShapes; ++k) {
    const auto [support, exponent] = shape(k);
    const uint64_t serial = ShapeChecksum(support, exponent);
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(sums[t][k], serial) << "thread " << t << " shape " << k;
    }
  }
}

}  // namespace
}  // namespace adaserve
