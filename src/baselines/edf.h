// Earliest-deadline-first on TPOT deadlines (deadline-theoretic baseline).
//
// The classic real-time answer to the problem AdaServe attacks with
// SLO-customized speculation: every request carries a *next token
// deadline* (NextTokenDeadline — first_token_time + committed_len *
// tpot_slo once decoding started), and the scheduler orders every
// decision by it. Admission ranks earliest-deadline-first
// (PriorityPolicy::kEdf, so the TickPolicy pause/evict machinery composes
// unchanged), the prefill budget is spent tightest-deadline-first, and
// the decode phase runs the largest deadline-sorted prefix of the running
// batch that can still meet its earliest live deadline — EDF's "serve the
// most urgent job, shed what provably cannot be helped by serving
// everyone" discipline, adapted to batched decoding.
#ifndef ADASERVE_SRC_BASELINES_EDF_H_
#define ADASERVE_SRC_BASELINES_EDF_H_

#include "src/serve/scheduler.h"

namespace adaserve {

// Picks the EDF decode batch at `now`: the running requests sorted by
// (NextTokenDeadline, id), truncated to the largest prefix whose batched
// forward latency still meets the prefix's earliest not-yet-overdue
// deadline. Overdue deadlines impose no constraint (the tardiness is
// already sunk; EDF keeps serving them by order), and the prefix never
// shrinks below one request, so progress is guaranteed. Exposed for the
// EDF law tests.
std::vector<RequestId> EdfDecodeBatch(SimTime now, const RequestPool& pool,
                                      const ServingContext& ctx);

class EdfScheduler : public Scheduler {
 public:
  std::string_view name() const override { return "EDF"; }

  // Deadline order extends to admission and the pause/evict machinery:
  // the queue head is the earliest deadline, and victims are
  // latest-deadline prefilling requests.
  PriorityPolicy AdmissionPriority() const override { return PriorityPolicy::kEdf; }

 protected:
  IterationRecord DecodePhase(SimTime now, RequestPool& pool, ServingContext& ctx) override;
};

}  // namespace adaserve

#endif  // ADASERVE_SRC_BASELINES_EDF_H_
