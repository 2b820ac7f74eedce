// Shared fixtures for serving-layer tests: a small, fast experiment setup.
#ifndef ADASERVE_TESTS_TEST_UTIL_H_
#define ADASERVE_TESTS_TEST_UTIL_H_

#include <utility>
#include <vector>

#include "src/adaserve.h"

namespace adaserve {

// A compact setup (Qwen-32B profile, low-entropy LM) that runs fast in unit
// tests while exercising the same code paths as the benches. Shared with the
// golden harness so the baselines track the unit-test path by construction.
inline Setup TestSetup() { return GoldenSetup(); }

// A small deterministic workload: `n` requests with the given category,
// arriving uniformly over [0, spread_s].
inline std::vector<Request> UniformWorkload(const Experiment& exp, int n, int category,
                                            double spread_s, int prompt_len = 64,
                                            int output_len = 24) {
  const std::vector<CategorySpec> cats = exp.Categories();
  std::vector<Request> reqs;
  reqs.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    Request req;
    req.id = i;
    req.category = category;
    req.tpot_slo = cats[static_cast<size_t>(category)].tpot_slo;
    req.arrival = spread_s * i / std::max(1, n);
    req.prompt_len = prompt_len;
    req.target_output_len = output_len;
    req.stream_seed = HashCombine(0xfeed, static_cast<uint64_t>(i));
    reqs.push_back(req);
  }
  return reqs;
}

// A mixed-category workload from the real-shaped trace, small enough for
// unit tests.
inline std::vector<Request> SmallMixedWorkload(const Experiment& exp, double duration = 8.0,
                                               double rps = 3.0) {
  return exp.RealTraceWorkload(duration, rps, WorkloadConfig{.mix = {0.4, 0.3, 0.3}});
}

// One run with an IterationLog attached: the result plus every
// progressing tick's record, in execution order.
struct LoggedRun {
  EngineResult result;
  std::vector<IterationRecord> ticks;
};

inline LoggedRun RunLogged(const Experiment& exp, Scheduler& scheduler, WorkloadSource workload,
                           EngineConfig engine = {}, int verify_budget = 0) {
  IterationLog log;
  engine.trace_sink = &log;
  LoggedRun run;
  run.result = exp.Run(scheduler, std::move(workload), engine, verify_budget);
  run.ticks = log.records();
  return run;
}

}  // namespace adaserve

#endif  // ADASERVE_TESTS_TEST_UTIL_H_
