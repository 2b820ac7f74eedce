// Lightweight statistics helpers used by the metrics layer and tests.
#ifndef ADASERVE_SRC_COMMON_STATS_H_
#define ADASERVE_SRC_COMMON_STATS_H_

#include <cstddef>
#include <vector>

namespace adaserve {

// Online mean/variance/min/max accumulator (Welford's algorithm).
class RunningStat {
 public:
  void Add(double x);

  size_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  // Extrema of the samples seen so far. NaN for an empty accumulator: a
  // fabricated 0.0 silently poisons merged aggregates (a cluster
  // min-latency of 0.0 from a replica that served nothing looks like a
  // miracle, not a hole), while NaN survives min/max folds as a visible
  // sentinel and trips any comparison-based assertion.
  double min() const;
  double max() const;

  // Population variance (divides by N); 0 for fewer than two samples.
  double Variance() const;
  double Stddev() const;

  // Sample (Bessel-corrected, divides by N-1) variance; 0 for fewer than
  // two samples. This is the right estimator when the samples are a
  // handful of seed shards standing in for the seed population — the
  // cross-seed error bars of AggregateSeeds (sweep_runner.h) use it.
  double SampleVariance() const;
  double SampleStddev() const;

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Stores all samples and answers percentile queries. Intended for
// per-request latency summaries where sample counts are modest.
class Samples {
 public:
  void Add(double x) {
    values_.push_back(x);
    sorted_valid_ = false;
  }
  void Reserve(size_t n) { values_.reserve(n); }

  // Appends every sample of `other` (in its insertion order). Cluster
  // metrics merging concatenates per-replica sample sets with this;
  // appending in replica order keeps the merge deterministic.
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
    sorted_valid_ = false;
  }

  size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Mean() const;
  double Sum() const;
  double Min() const;
  double Max() const;

  // Pre-computes the sorted view backing Percentile. Call once after the
  // last Add (MetricsAccumulator::Finalize does) so later Percentile
  // queries share the cached sort instead of each paying O(n log n).
  // Mutation is confined to this non-const call: const Percentile never
  // writes, so any number of threads may query one shared finalized
  // Samples concurrently (stats_test pins this under TSan).
  void MaterializeSorted();

  // Linear-interpolated percentile, p in [0, 100]. Returns 0 when empty.
  // Uses the MaterializeSorted cache when valid; otherwise sorts a local
  // copy per call — correct but O(n log n) each time, so materialize
  // before repeated queries.
  double Percentile(double p) const;

  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
  // Sorted copy backing Percentile; valid iff sorted_valid_. Written only
  // by MaterializeSorted (invalidated by Add), never by const queries.
  std::vector<double> sorted_;
  bool sorted_valid_ = false;
};

// Fixed-bin histogram over [lo, hi); out-of-range samples clamp to the
// first/last bin. Used by trace visualisation benches. Degenerate shapes
// are guarded rather than UB: bins == 0 is clamped to one bin, a
// zero-width range puts every sample in the first bin, and NaN samples
// are dropped (counted by dropped(), not total()).
class Histogram {
 public:
  Histogram(double lo, double hi, size_t bins);

  void Add(double x);

  size_t bins() const { return counts_.size(); }
  size_t count(size_t bin) const { return counts_[bin]; }
  double BinCenter(size_t bin) const;
  size_t total() const { return total_; }
  // NaN samples rejected by Add.
  size_t dropped() const { return dropped_; }

 private:
  double lo_;
  double hi_;
  std::vector<size_t> counts_;
  size_t total_ = 0;
  size_t dropped_ = 0;
};

}  // namespace adaserve

#endif  // ADASERVE_SRC_COMMON_STATS_H_
