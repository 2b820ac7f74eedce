// The benchmark's served-metric arithmetic: failure accounting across the
// cells of a workload, attainment, goodput and tail percentiles.
#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <string>
#include <vector>

#include "perfbench/cell.h"

namespace perfbench {

// A percentile is reported at the highest rank that still has this many
// samples beyond it.
inline constexpr long kTailSamples = 10;

struct Percentile {
  // The percentile actually reported (the wanted one, or lower when the
  // samples are too few), its value, and the sample count. `valid` is
  // false when fewer than kTailSamples + 1 samples exist.
  double percentile = 0.0;
  double value = 0.0;
  long samples = 0;
  bool valid = false;
};

// Nearest-rank percentile `want` of `finite` plus `failed` samples of +inf,
// lowered to the highest rank with at least kTailSamples samples beyond it.
Percentile TailPercentile(std::vector<double> finite, long failed, double want);

// One cell of a workload as the parent process saw it.
struct CellRecord {
  std::string name;
  // Requests in the cell's trace, counted apart from serving.
  CategoryCounts generated{};
  // The cell's process died; its whole trace counts as failed.
  bool aborted = false;
  std::string failure;
  CellOutcome outcome;  // meaningful only when !aborted

  long GeneratedTotal() const;
  // Requests that were rejected, never finished, or lost to an abort.
  long Failed() const;
};

// Empty when the cell accounts for every generated request exactly once:
// generated == pulled == finished + rejected + unfinished. Otherwise a
// description of the mismatch.
std::string CheckConservation(const CellRecord& cell);

// Served metrics pooled over every request of every cell.
struct ServedSummary {
  long generated = 0;
  long succeeded = 0;
  long failed = 0;
  double failed_pct = 0.0;
  // Finished within the TPOT SLO / generated; urgent is category 1 only.
  double slo_attainment_pct = 0.0;
  double urgent_attainment_pct = 0.0;
  // Mean over cells of SLO-attaining output tokens per simulated second
  // (an aborted cell contributes 0).
  double goodput_tok_s = 0.0;
  Percentile ttft_p50;
  Percentile ttft_p99;
  Percentile tpot_p50;
  Percentile tpot_p99;
};

ServedSummary Summarize(const std::vector<CellRecord>& cells);

// Median of `values` (mean of the middle pair for an even count); 0 when
// empty.
double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
