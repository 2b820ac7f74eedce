#include "src/baselines/admission_control.h"

#include <algorithm>
#include <vector>

#include "src/common/logging.h"
#include "src/hw/budget.h"

namespace adaserve {

void AdmissionControlScheduler::Reclaim(const RequestPool& pool) {
  for (auto it = accepted_util_.begin(); it != accepted_util_.end();) {
    const RequestId id = it->first;
    const bool retired = id < static_cast<RequestId>(pool.retired_count());
    if (retired || pool.Get(id).state == RequestState::kFinished) {
      utilization_ -= it->second;
      it = accepted_util_.erase(it);
    } else {
      ++it;
    }
  }
  if (accepted_util_.empty()) {
    utilization_ = 0.0;  // Clear floating-point residue at idle.
  }
}

void AdmissionControlScheduler::ControlPass(SimTime now, RequestPool& pool, int* rejected,
                                            int* degraded) {
  // Fresh candidates: queued requests the controller has not scored yet.
  // AddArrival appends, so they sit in ascending id order already;
  // re-queued evicted/paused requests are below the watermark and skip.
  std::vector<RequestId> fresh;
  for (RequestId id : pool.queued()) {
    if (id >= next_fresh_id_) {
      fresh.push_back(id);
    }
  }
  if (fresh.empty()) {
    return;
  }
  std::sort(fresh.begin(), fresh.end());
  for (RequestId id : fresh) {
    Request& req = pool.Get(id);
    ADASERVE_CHECK(req.tpot_slo > 0.0) << "request " << id << " with non-positive SLO";
    const double demand = 1.0 / (req.tpot_slo * service_tps_);
    if (utilization_ + demand <= config_.utilization_bound) {
      accepted_util_[id] = demand;
      utilization_ += demand;
      continue;
    }
    // Over the bound. Degrade if the remaining headroom can serve the
    // request at some bounded-looser SLO; otherwise reject.
    const double headroom = config_.utilization_bound - utilization_;
    bool accepted = false;
    if (config_.allow_degrade && headroom > 0.0) {
      // The tightest SLO the headroom can serve; by construction looser
      // than the original (its demand exceeded the headroom).
      const double needed_slo = 1.0 / (headroom * service_tps_);
      if (needed_slo <= config_.max_degrade_factor * req.tpot_slo) {
        req.tpot_slo = needed_slo;
        accepted_util_[id] = headroom;
        utilization_ += headroom;
        ++*degraded;
        accepted = true;
      }
    }
    if (!accepted) {
      pool.Reject(id, now);
      ++*rejected;
    }
  }
  next_fresh_id_ = std::max(next_fresh_id_, fresh.back() + 1);
}

TickResult AdmissionControlScheduler::Tick(SimTime now, RequestPool& pool, ServingContext& ctx) {
  if (service_tps_ <= 0.0) {
    service_tps_ = DeriveServiceTps(*ctx.target_latency);
  }
  Reclaim(pool);
  int rejected = 0;
  int degraded = 0;
  // Score to fixpoint: rejections shrink the queue below the engine's
  // pull target, which can surface further due arrivals — keep pulling
  // and scoring until the pull comes back empty, so every request visible
  // this tick has been evaluated before any admission runs.
  while (true) {
    ControlPass(now, pool, &rejected, &degraded);
    if (!ctx.pull_arrivals || ctx.pull_arrivals(now) == 0) {
      break;
    }
  }
  // Gate arrival pulls for the rest of the tick: a mid-tick arrival must
  // not reach admission before the next boundary control pass scores it.
  // Everything already queued has been scored, so mid-tick admission
  // still runs — over evaluated candidates only.
  ServingContext gated = ctx;
  gated.pull_arrivals = nullptr;
  TickResult tick = EdfScheduler::Tick(now, pool, gated);
  tick.record.rejected += rejected;
  tick.record.degraded += degraded;
  return tick;
}

}  // namespace adaserve
