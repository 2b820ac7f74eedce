#include "src/baselines/priority.h"

namespace adaserve {

IterationRecord PriorityScheduler::DecodePhase(SimTime now, RequestPool& pool,
                                               ServingContext& ctx) {
  const std::vector<RequestId> running = RunningRequests(pool);
  std::vector<RequestId> urgent;
  for (RequestId id : running) {
    if (pool.Get(id).category == config_.urgent_category) {
      urgent.push_back(id);
    }
  }
  return RunDecodeIteration(now, pool, ctx, urgent.empty() ? running : urgent);
}

}  // namespace adaserve
