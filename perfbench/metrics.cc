#include "perfbench/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

Percentile TailPercentile(std::vector<double> finite, long failed, double want) {
  Percentile p;
  p.samples = static_cast<long>(finite.size()) + failed;
  if (p.samples < kTailSamples + 1) {
    return p;
  }
  // 1-based nearest rank, capped so that kTailSamples samples lie beyond it.
  const long wanted_rank =
      static_cast<long>(std::ceil(want / 100.0 * static_cast<double>(p.samples)));
  const long rank = std::max(1L, std::min(wanted_rank, p.samples - kTailSamples));
  p.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(p.samples);
  if (rank > static_cast<long>(finite.size())) {
    p.value = std::numeric_limits<double>::infinity();
  } else {
    std::nth_element(finite.begin(), finite.begin() + (rank - 1), finite.end());
    p.value = finite[static_cast<size_t>(rank - 1)];
  }
  p.percentile = std::min(p.percentile, want);
  p.valid = true;
  return p;
}

long CellRecord::GeneratedTotal() const {
  long total = 0;
  for (long n : generated) {
    total += n;
  }
  return total;
}

long CellRecord::Failed() const {
  if (aborted) {
    return GeneratedTotal();
  }
  return GeneratedTotal() - outcome.finished;
}

std::string CheckConservation(const CellRecord& cell) {
  if (cell.aborted) {
    return "";
  }
  const CellOutcome& o = cell.outcome;
  const long generated = cell.GeneratedTotal();
  if (o.pulled != generated) {
    return cell.name + ": engine pulled " + std::to_string(o.pulled) + " of " +
           std::to_string(generated) + " generated requests";
  }
  if (o.finished + o.rejected + o.unfinished != generated) {
    return cell.name + ": finished " + std::to_string(o.finished) + " + rejected " +
           std::to_string(o.rejected) + " + unfinished " + std::to_string(o.unfinished) +
           " != generated " + std::to_string(generated);
  }
  for (int c = 0; c < kNumCategories; ++c) {
    const size_t i = static_cast<size_t>(c);
    if (o.finished_by_cat[i] > cell.generated[i] || o.attained_by_cat[i] > o.finished_by_cat[i]) {
      return cell.name + ": category " + std::to_string(c + 1) +
             " finished/attained exceed its generated requests";
    }
  }
  if (static_cast<long>(o.ttft_ms.size()) != o.finished ||
      static_cast<long>(o.tpot_ms.size()) != o.finished) {
    return cell.name + ": latency samples do not match finished requests";
  }
  return "";
}

ServedSummary Summarize(const std::vector<CellRecord>& cells) {
  ServedSummary s;
  long attained = 0;
  long urgent_generated = 0;
  long urgent_attained = 0;
  double goodput_sum = 0.0;
  std::vector<double> ttft;
  std::vector<double> tpot;
  for (const CellRecord& cell : cells) {
    s.generated += cell.GeneratedTotal();
    s.failed += cell.Failed();
    urgent_generated += cell.generated[0];
    if (cell.aborted) {
      continue;
    }
    const CellOutcome& o = cell.outcome;
    s.succeeded += o.finished;
    for (long n : o.attained_by_cat) {
      attained += n;
    }
    urgent_attained += o.attained_by_cat[0];
    goodput_sum += o.goodput_tok_s;
    ttft.insert(ttft.end(), o.ttft_ms.begin(), o.ttft_ms.end());
    tpot.insert(tpot.end(), o.tpot_ms.begin(), o.tpot_ms.end());
  }
  auto pct = [](long part, long whole) {
    return whole > 0 ? 100.0 * static_cast<double>(part) / static_cast<double>(whole) : 0.0;
  };
  s.failed_pct = pct(s.failed, s.generated);
  s.slo_attainment_pct = pct(attained, s.generated);
  s.urgent_attainment_pct = pct(urgent_attained, urgent_generated);
  s.goodput_tok_s = cells.empty() ? 0.0 : goodput_sum / static_cast<double>(cells.size());
  s.ttft_p50 = TailPercentile(ttft, s.failed, 50.0);
  s.ttft_p99 = TailPercentile(ttft, s.failed, 99.0);
  s.tpot_p50 = TailPercentile(tpot, s.failed, 50.0);
  s.tpot_p99 = TailPercentile(std::move(tpot), s.failed, 99.0);
  return s;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace perfbench
