// vLLM-style continuous batching (§2, §6.1 baselines).
//
// Each tick's decode phase runs one decode iteration over every running
// request, committing exactly one token each; prompts are prefilled by the
// tick's shared burst-capped prefill phase. Per-token latency is therefore
// uniform across the batch — the limitation AdaServe targets.
#ifndef ADASERVE_SRC_BASELINES_VLLM_H_
#define ADASERVE_SRC_BASELINES_VLLM_H_

#include "src/serve/scheduler.h"

namespace adaserve {

class VllmScheduler : public Scheduler {
 public:
  std::string_view name() const override { return "vLLM"; }

  // vLLM admits strictly FIFO; SLO-blindness at admission is part of the
  // baseline the paper compares against.
  PriorityPolicy AdmissionPriority() const override { return PriorityPolicy::kFifo; }

 protected:
  IterationRecord DecodePhase(SimTime now, RequestPool& pool, ServingContext& ctx) override;
};

}  // namespace adaserve

#endif  // ADASERVE_SRC_BASELINES_VLLM_H_
