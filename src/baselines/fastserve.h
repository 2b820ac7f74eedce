// FastServe: preemptive MLFQ scheduling (Fig. 1 baseline).
//
// Skip-join multi-level feedback queue at token granularity: requests enter
// a priority level, are demoted after exhausting the level's token quantum,
// and each decode iteration serves only the highest-priority non-empty
// level. Short requests finish fast; long ones sink. SLO-blind by design.
#ifndef ADASERVE_SRC_BASELINES_FASTSERVE_H_
#define ADASERVE_SRC_BASELINES_FASTSERVE_H_

#include <unordered_map>

#include "src/serve/scheduler.h"

namespace adaserve {

struct FastServeConfig {
  // Token quantum of the highest-priority level; level i gets base << i.
  int base_quantum = 16;
  int num_levels = 5;
  // Decode batch cap. Higher-priority levels fill the batch first; lower
  // levels back-fill so demoted requests are not starved while the GPU has
  // spare batch slots (FastServe batches across queues).
  int max_batch = 16;
};

class FastServeScheduler : public Scheduler {
 public:
  explicit FastServeScheduler(const FastServeConfig& config = {}) : config_(config) {}

  std::string_view name() const override { return "FastServe"; }

  // MLFQ prioritizes by service received, not SLO; admission stays FIFO
  // (the skip-join queue assignment happens after admission).
  PriorityPolicy AdmissionPriority() const override { return PriorityPolicy::kFifo; }

 protected:
  // Decode phase: the MLFQ-prioritized decode batch.
  IterationRecord DecodePhase(SimTime now, RequestPool& pool, ServingContext& ctx) override;

 private:
  struct MlfqState {
    int level = 0;
    int served_in_level = 0;
  };

  int QuantumOf(int level) const { return config_.base_quantum << level; }

  FastServeConfig config_;
  std::unordered_map<RequestId, MlfqState> mlfq_;
};

}  // namespace adaserve

#endif  // ADASERVE_SRC_BASELINES_FASTSERVE_H_
