// VTC: virtual token counter fair scheduling (Fig. 1 baseline).
//
// Each service (request category) accrues a virtual counter of served
// tokens; decode iterations batch requests from the least-served categories
// first, bounded by a fairness batch cap. Fair across services, but blind
// to SLO heterogeneity.
#ifndef ADASERVE_SRC_BASELINES_VTC_H_
#define ADASERVE_SRC_BASELINES_VTC_H_

#include <array>

#include "src/serve/scheduler.h"
#include "src/workload/categories.h"

namespace adaserve {

struct VtcConfig {
  // Fair-sharing batch cap per decode iteration. Small enough to bind under
  // load, so the virtual counters actually time-slice the categories.
  int max_batch = 16;
  // Per-category service weights (tokens are charged as tokens / weight).
  std::array<double, kNumCategories> weights = {1.0, 1.0, 1.0};
};

class VtcScheduler : public Scheduler {
 public:
  explicit VtcScheduler(const VtcConfig& config = {}) : config_(config) { counters_.fill(0.0); }

  std::string_view name() const override { return "VTC"; }

  // Fairness across services is the point: admission must not favor a
  // category, so VTC keeps FIFO admission.
  PriorityPolicy AdmissionPriority() const override { return PriorityPolicy::kFifo; }

 protected:
  // Decode phase: the counter-ordered fair decode batch.
  IterationRecord DecodePhase(SimTime now, RequestPool& pool, ServingContext& ctx) override;

 private:
  VtcConfig config_;
  std::array<double, kNumCategories> counters_;
};

}  // namespace adaserve

#endif  // ADASERVE_SRC_BASELINES_VTC_H_
