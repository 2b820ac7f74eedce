// The AdaServe scheduler: SLO-customized speculative decoding (§4.3, §5).
//
// Each tick's decode phase runs the speculate-select-verify pipeline:
//   1. Speculation   — adaptive-depth/width beam search builds a candidate
//                      token tree per running request (draft model, GPU).
//   2. Selection     — SLO-customized phase satisfies each request's
//                      A_cap(r), then the throughput-optimized phase spends
//                      what remains of the budget (CPU; its cost is
//                      modelled and shows up in Fig. 15).
//   3. Verification  — one batched target forward pass verifies all draft
//                      trees; accepted + bonus tokens commit.
// Prompts are prefilled by the tick's shared burst-capped prefill phase.
#ifndef ADASERVE_SRC_CORE_ADASERVE_SCHEDULER_H_
#define ADASERVE_SRC_CORE_ADASERVE_SCHEDULER_H_

#include "src/core/adaptive.h"
#include "src/core/selection.h"
#include "src/serve/scheduler.h"
#include "src/spec/beam_search.h"

namespace adaserve {

struct AdaServeConfig {
  SelectionConfig selection;
  AdaptiveConfig adaptive;
  // Ablation switches.
  bool adaptive_control = true;  // false => use fixed_beam
  BeamConfig fixed_beam = {.depth = 4, .width = 2};
  bool slo_phase_enabled = true;  // false => throughput-only selection
  // CPU cost model of the selection phase: base + per-candidate-token cost.
  double select_cost_base = 20e-6;
  double select_cost_per_token = 150e-9;
};

class AdaServeScheduler : public Scheduler {
 public:
  explicit AdaServeScheduler(const AdaServeConfig& config = {}) : config_(config) {}

  std::string_view name() const override { return "AdaServe"; }

  // SLO-customized serving extends to admission: urgent-category arrivals
  // jump the queue and may recompute-evict non-urgent prefills.
  PriorityPolicy AdmissionPriority() const override { return PriorityPolicy::kSloUrgentFirst; }

  // Last iteration's (d, w) — exposed for the adaptive-control tests.
  const BeamConfig& last_beam() const { return last_beam_; }

 protected:
  // One speculate-select-verify iteration over the running requests with
  // the full budget.
  IterationRecord DecodePhase(SimTime now, RequestPool& pool, ServingContext& ctx) override;

 private:
  AdaServeConfig config_;
  // Previous iteration duration, used as the t_spec estimate in A(r).
  SimTime last_duration_ = -1.0;
  BeamConfig last_beam_;
};

}  // namespace adaserve

#endif  // ADASERVE_SRC_CORE_ADASERVE_SCHEDULER_H_
