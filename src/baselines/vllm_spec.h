// vLLM with sequence-based speculative decoding, vLLM-Spec(k) (§6.1).
//
// A static speculation strategy: every decode iteration drafts a k-token
// greedy chain per request and verifies all chains in one batched target
// pass. k is fixed regardless of load — the rigidity AdaServe's adaptive
// control removes.
#ifndef ADASERVE_SRC_BASELINES_VLLM_SPEC_H_
#define ADASERVE_SRC_BASELINES_VLLM_SPEC_H_

#include <string>

#include "src/serve/scheduler.h"

namespace adaserve {

struct VllmSpecConfig {
  // Fixed speculation length (the paper evaluates 4, 6, 8).
  int spec_len = 4;
};

class VllmSpecScheduler : public Scheduler {
 public:
  explicit VllmSpecScheduler(const VllmSpecConfig& config = {});

  std::string_view name() const override { return name_; }

  // Speculation changes decode, not admission: FIFO like base vLLM.
  PriorityPolicy AdmissionPriority() const override { return PriorityPolicy::kFifo; }

 protected:
  // Decode phase: the k-token chain speculate-verify pass.
  IterationRecord DecodePhase(SimTime now, RequestPool& pool, ServingContext& ctx) override;

 private:
  VllmSpecConfig config_;
  std::string name_;
};

}  // namespace adaserve

#endif  // ADASERVE_SRC_BASELINES_VLLM_SPEC_H_
