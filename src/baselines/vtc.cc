#include "src/baselines/vtc.h"

#include <algorithm>

namespace adaserve {

IterationRecord VtcScheduler::DecodePhase(SimTime now, RequestPool& pool, ServingContext& ctx) {
  IterationRecord record;
  std::vector<RequestId> running = RunningRequests(pool);
  if (running.empty()) {
    return record;
  }
  // Least-served categories first; FIFO within a category.
  std::stable_sort(running.begin(), running.end(), [&](RequestId a, RequestId b) {
    return counters_[static_cast<size_t>(pool.Get(a).category)] <
           counters_[static_cast<size_t>(pool.Get(b).category)];
  });
  if (static_cast<int>(running.size()) > config_.max_batch) {
    running.resize(static_cast<size_t>(config_.max_batch));
  }
  record = RunDecodeIteration(now, pool, ctx, running);
  for (RequestId id : running) {
    const auto cat = static_cast<size_t>(pool.Get(id).category);
    counters_[cat] += 1.0 / config_.weights[cat];
  }
  return record;
}

}  // namespace adaserve
