// Sparse categorical next-token distributions.
//
// The synthetic language models emit distributions with small support
// (top-k tokens); speculative-sampling verification needs pointwise
// probability lookups and exact sampling. All of that lives here.
#ifndef ADASERVE_SRC_MODEL_DISTRIBUTION_H_
#define ADASERVE_SRC_MODEL_DISTRIBUTION_H_

#include <cstddef>
#include <span>

#include "src/common/arena.h"
#include "src/common/rng.h"
#include "src/common/types.h"

namespace adaserve {

// A probability distribution over a small token support. Entries are kept
// sorted by descending probability; probabilities sum to 1 (within
// floating-point error) over the support. Entries live inline up to
// kInlineEntries (a 24-token target, or the union of two such supports in a
// draft mix), so building a distribution does not touch the heap.
class SparseDist {
 public:
  struct Entry {
    Token token;
    double prob;
  };
  static constexpr size_t kInlineEntries = 48;

  SparseDist() = default;

  // Builds a normalised distribution from (token, weight) pairs. Weights must
  // be non-negative with a positive sum; duplicate tokens are coalesced.
  //
  // Bit-identity rules, which every fast path here keeps so that each output
  // double equals the plain coalesce-then-sort result:
  //   1. A duplicated token's weight sums its terms in input order.
  //   2. The normalising total accumulates the positive weights in input
  //      order.
  // The entry order (prob descending, token ascending) is total over
  // distinct tokens, so any correct sort then yields the same array.
  static SparseDist FromWeights(std::span<const Token> tokens, std::span<const double> weights);

  // Convenience: a point mass on a single token.
  static SparseDist PointMass(Token token);

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const Entry& entry(size_t i) const { return entries_[i]; }
  std::span<const Entry> entries() const { return {entries_.data(), entries_.size()}; }

  // Probability of `token`; 0 if outside the support.
  double ProbOf(Token token) const;

  // Highest-probability token. Ties break toward the smaller token id so
  // greedy decoding is deterministic. Requires a non-empty distribution.
  Token ArgMax() const;

  // Samples a token using inverse-CDF over the sorted support.
  Token Sample(Rng& rng) const;

  // Shannon entropy in nats (diagnostics).
  double Entropy() const;

  // Sum of stored probabilities (should be ~1; exposed for tests).
  double TotalMass() const;

 private:
  friend SparseDist Mix(const SparseDist& a, const SparseDist& b, double weight);

  // Sorted by descending prob, ties by ascending token id.
  SmallVector<Entry, kInlineEntries> entries_;
};

// Mixes two distributions: result = weight * a + (1 - weight) * b over the
// union support, renormalised. Used to derive the draft model from the
// target plus noise.
//
// The result is bit-identical to FromWeights over a's weighted entries
// followed by b's, under the same two rules: a token in both supports sums
// its a term before its b term, and the total adds every a term, then every
// b term, each in entry order.
SparseDist Mix(const SparseDist& a, const SparseDist& b, double weight);

}  // namespace adaserve

#endif  // ADASERVE_SRC_MODEL_DISTRIBUTION_H_
