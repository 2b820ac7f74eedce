// Extending the framework: plugging in a custom scheduler.
//
// Implements a deliberately simple "round-robin decode" policy against the
// public Scheduler interface and races it against AdaServe on the same
// workload. This is the template for experimenting with new multi-SLO
// policies on the simulator substrate.
#include <algorithm>
#include <iostream>

#include "src/adaserve.h"

namespace {

using namespace adaserve;

// Round-robin: each tick decodes a rotating window of at most
// `window` running requests — fair, SLO-blind, and batch-capped. A custom
// scheduler implements one hook, DecodePhase; the base class supplies the
// rest of the tick (boundary and mid-tick admission, burst-capped prefill)
// around it.
class RoundRobinScheduler : public Scheduler {
 public:
  explicit RoundRobinScheduler(int window) : window_(window) {}

  std::string_view name() const override { return "RoundRobin"; }

  // Optional second hook: the admission-priority default. Declaring
  // kSloUrgentFirst makes urgent-category arrivals jump the admission
  // queue (TickPolicy::admission_priority overrides it).
  PriorityPolicy AdmissionPriority() const override {
    return PriorityPolicy::kSloUrgentFirst;
  }

 protected:
  IterationRecord DecodePhase(SimTime now, RequestPool& pool, ServingContext& ctx) override {
    std::vector<RequestId> running = RunningRequests(pool);
    if (running.empty()) {
      return IterationRecord{};
    }
    std::sort(running.begin(), running.end());
    std::vector<RequestId> batch;
    for (size_t i = 0; i < running.size() && batch.size() < static_cast<size_t>(window_); ++i) {
      batch.push_back(running[(cursor_ + i) % running.size()]);
    }
    cursor_ = (cursor_ + batch.size()) % std::max<size_t>(running.size(), 1);
    return RunDecodeIteration(now, pool, ctx, batch);
  }

 private:
  int window_;
  size_t cursor_ = 0;
};

}  // namespace

int main() {
  Experiment exp(QwenSetup());
  const std::vector<Request> workload =
      exp.RealTraceWorkload(/*duration=*/20.0, /*mean_rps=*/3.5,
                            WorkloadConfig{.mix = {0.5, 0.3, 0.2}});
  std::cout << "Custom scheduler demo on " << exp.setup().label << " ("
            << workload.size() << " requests)\n\n";

  RoundRobinScheduler round_robin(/*window=*/8);
  AdaServeScheduler adaserve;

  TablePrinter table({"Scheduler", "Attainment(%)", "Goodput(tok/s)", "Throughput(tok/s)"});
  for (Scheduler* scheduler : {static_cast<Scheduler*>(&round_robin),
                               static_cast<Scheduler*>(&adaserve)}) {
    const EngineResult result = exp.Run(*scheduler, workload);
    table.AddRow({std::string(scheduler->name()), FmtPct(result.metrics.AttainmentPct()),
                  Fmt(result.metrics.GoodputTps(), 1), Fmt(result.metrics.ThroughputTps(), 1)});
  }
  table.Print(std::cout);
  std::cout << "\nSee examples/custom_scheduler.cpp for the ~30-line policy implementation.\n";
  return 0;
}
