// Sarathi-Serve: chunked prefill co-batched with decode (§2, §7).
//
// Each tick decodes one token for up to `chunk_budget` running requests,
// then the tick's shared prefill phase co-schedules burst-capped prompt
// chunks on the leftover token budget. Long prompts no longer stall
// decodes, at the cost of slightly longer ticks — the throughput/latency
// trade Sarathi targets.
#ifndef ADASERVE_SRC_BASELINES_SARATHI_H_
#define ADASERVE_SRC_BASELINES_SARATHI_H_

#include "src/serve/scheduler.h"

namespace adaserve {

struct SarathiConfig {
  // Per-tick cap on decode tokens (one per running request).
  int chunk_budget = 512;
};

class SarathiScheduler : public Scheduler {
 public:
  explicit SarathiScheduler(const SarathiConfig& config = {}) : config_(config) {}

  std::string_view name() const override { return "Sarathi-Serve"; }

  // Chunked prefill changes iteration shape, not admission order: FIFO.
  PriorityPolicy AdmissionPriority() const override { return PriorityPolicy::kFifo; }

 protected:
  // Decode phase: one token each for up to chunk_budget running
  // requests. Prompt chunks belong to the tick's shared prefill phase.
  IterationRecord DecodePhase(SimTime now, RequestPool& pool, ServingContext& ctx) override;

 private:
  SarathiConfig config_;
};

}  // namespace adaserve

#endif  // ADASERVE_SRC_BASELINES_SARATHI_H_
