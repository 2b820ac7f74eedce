#include "src/baselines/sarathi.h"

namespace adaserve {

IterationRecord SarathiScheduler::DecodePhase(SimTime now, RequestPool& pool,
                                              ServingContext& ctx) {
  std::vector<RequestId> running = RunningRequests(pool);
  if (static_cast<int>(running.size()) > config_.chunk_budget) {
    running.resize(static_cast<size_t>(config_.chunk_budget));
  }
  return RunDecodeIteration(now, pool, ctx, running);
}

}  // namespace adaserve
