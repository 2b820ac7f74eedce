#include "src/model/distribution.h"

#include <bit>
#include <cmath>
#include <cstdint>

#include "src/common/arena.h"
#include "src/common/logging.h"

namespace adaserve {
namespace {

using Entry = SparseDist::Entry;
using Entries = SmallVector<Entry, SparseDist::kInlineEntries>;

// Supports up to this size coalesce through a TokenIndex; larger ones scan.
constexpr size_t kIndexedSupport = 64;

// Orders entries by prob descending, then token ascending. Near-linear on
// the inputs it gets: target weights follow the Zipf rank order up to
// jitter, and a Mix is two such runs back to back. Every configured LM has
// at most 48 terms, so the quadratic worst case never runs at size.
void SortEntries(std::span<Entry> entries) {
  const auto before = [](const Entry& a, const Entry& b) {
    return a.prob != b.prob ? a.prob > b.prob : a.token < b.token;
  };
  for (size_t i = 1; i < entries.size(); ++i) {
    const Entry e = entries[i];
    size_t j = i;
    for (; j > 0 && before(e, entries[j - 1]); --j) {
      entries[j] = entries[j - 1];
    }
    entries[j] = e;
  }
}

// Open-addressed token -> entry-index table, at load factor <= 1/2.
class TokenIndex {
 public:
  // Index of `token` among `entries` if present; otherwise records it as
  // the next entry, entries[entries.size()], and returns -1.
  int FindOrInsert(std::span<const Entry> entries, Token token) {
    size_t s = (static_cast<uint32_t>(token) * 0x9e3779b1u) >> (32 - std::countr_zero(kSlots));
    for (; slots_[s] != 0; s = (s + 1) & (kSlots - 1)) {
      if (entries[slots_[s] - 1].token == token) {
        return slots_[s] - 1;
      }
    }
    slots_[s] = static_cast<uint8_t>(entries.size() + 1);
    return -1;
  }

 private:
  static constexpr size_t kSlots = 2 * kIndexedSupport;
  static_assert(std::has_single_bit(kSlots) && kIndexedSupport < 255);

  // entry index + 1; 0 marks an empty slot.
  uint8_t slots_[kSlots] = {};
};

// Appends (token, weight) terms to `entries`, coalescing duplicate tokens,
// under the bit-identity rules in distribution.h: each token's terms and
// the total add up in the order the terms arrive.
class Coalescer {
 public:
  // `terms` bounds the number of Add calls.
  Coalescer(Entries& entries, size_t terms)
      : entries_(entries), indexed_(terms <= kIndexedSupport) {}

  // Non-positive weights are dropped.
  void Add(Token token, double weight) {
    if (weight <= 0.0) {
      return;
    }
    total_ += weight;
    const int found = indexed_ ? index_.FindOrInsert({entries_.data(), entries_.size()}, token)
                               : ScanFor(token);
    if (found >= 0) {
      entries_[static_cast<size_t>(found)].prob += weight;
    } else {
      entries_.push_back({token, weight});
    }
  }

  void Normalise() {
    ADASERVE_CHECK(total_ > 0.0) << "distribution has no mass";
    for (Entry& e : entries_) {
      e.prob /= total_;
    }
  }

 private:
  int ScanFor(Token token) const {
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].token == token) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }

  Entries& entries_;
  const bool indexed_;
  TokenIndex index_;
  double total_ = 0.0;
};

}  // namespace

SparseDist SparseDist::FromWeights(std::span<const Token> tokens, std::span<const double> weights) {
  ADASERVE_CHECK(tokens.size() == weights.size()) << "token/weight size mismatch";
  SparseDist dist;
  Coalescer coalescer(dist.entries_, tokens.size());
  for (size_t i = 0; i < tokens.size(); ++i) {
    ADASERVE_CHECK(weights[i] >= 0.0) << "negative weight for token " << tokens[i];
    coalescer.Add(tokens[i], weights[i]);
  }
  coalescer.Normalise();
  SortEntries({dist.entries_.data(), dist.entries_.size()});
  return dist;
}

SparseDist SparseDist::PointMass(Token token) {
  SparseDist dist;
  dist.entries_.push_back({token, 1.0});
  return dist;
}

double SparseDist::ProbOf(Token token) const {
  for (const Entry& e : entries_) {
    if (e.token == token) {
      return e.prob;
    }
  }
  return 0.0;
}

Token SparseDist::ArgMax() const {
  ADASERVE_CHECK(!entries_.empty()) << "ArgMax of empty distribution";
  return entries_[0].token;
}

Token SparseDist::Sample(Rng& rng) const {
  ADASERVE_CHECK(!entries_.empty()) << "Sample from empty distribution";
  const double u = rng.Uniform() * TotalMass();
  double cum = 0.0;
  for (const Entry& e : entries_) {
    cum += e.prob;
    if (u < cum) {
      return e.token;
    }
  }
  return entries_.back().token;
}

double SparseDist::Entropy() const {
  double h = 0.0;
  for (const Entry& e : entries_) {
    if (e.prob > 0.0) {
      h -= e.prob * std::log(e.prob);
    }
  }
  return h;
}

double SparseDist::TotalMass() const {
  double total = 0.0;
  for (const Entry& e : entries_) {
    total += e.prob;
  }
  return total;
}

SparseDist Mix(const SparseDist& a, const SparseDist& b, double weight) {
  ADASERVE_CHECK(weight >= 0.0 && weight <= 1.0) << "mix weight out of range: " << weight;
  SparseDist dist;
  Coalescer coalescer(dist.entries_, a.size() + b.size());
  for (const Entry& e : a.entries_) {
    coalescer.Add(e.token, weight * e.prob);
  }
  for (const Entry& e : b.entries_) {
    coalescer.Add(e.token, (1.0 - weight) * e.prob);
  }
  coalescer.Normalise();
  SortEntries({dist.entries_.data(), dist.entries_.size()});
  return dist;
}

}  // namespace adaserve
