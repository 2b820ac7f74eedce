// Stress-scenario library: workload shapes that deliberately push the
// serving stack past its comfort zone, beyond the bursty/diurnal/churn
// generators (generator.h).
//
// Four scenarios, each expressed through the existing lazy ArrivalStream
// machinery (absolute-rate thinned processes + time-varying mixes), so
// they compose with sweep cells, the cluster router pre-pass, and the
// streaming engine unchanged:
//
//   - Flash crowd: a step overload (magnitude x the base rate) that
//     switches on and off mid-run, with a recovery-time-to-SLO metric
//     measuring how long after the step ends the system keeps missing
//     SLOs on its backlog.
//   - Adversarial tenant flood: one tenant (category) floods the queue at
//     a sustained high rate while benign traffic keeps its usual mix —
//     the workload that actually stresses fair-queuing baselines (VTC).
//   - Long-prompt head-of-line poisoning: rare arrivals with prompts
//     many times the category norm threaten to monopolise prefill and
//     starve the TTFT of everything queued behind them.
//   - Correlated category bursts: every category surges at the same
//     instants (shared Gaussian bursts), unlike Fig. 13 where each
//     category peaks at its own time — the worst case for capacity
//     planning that assumes uncorrelated tenants.
//
// Every scenario is pinned by a golden baseline (harness/golden.h) and
// swept by bench_scenarios, so future scheduler work lands against a
// reproducible stress corpus.
#ifndef ADASERVE_SRC_WORKLOAD_SCENARIOS_H_
#define ADASERVE_SRC_WORKLOAD_SCENARIOS_H_

#include <array>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/workload/generator.h"

namespace adaserve {

// The scenario set, iterable for goldens/benches/tests.
enum class StressScenario {
  kFlashCrowd,
  kTenantFlood,
  kLongPromptPoison,
  kCorrelatedBursts,
};

std::vector<StressScenario> AllStressScenarios();

// Human-readable name, e.g. "flash-crowd".
std::string StressScenarioName(StressScenario scenario);
// Filesystem-safe slug, e.g. "flash_crowd".
std::string StressScenarioSlug(StressScenario scenario);

// --- flash crowd -------------------------------------------------------------

struct FlashCrowdSpec {
  double duration = 60.0;
  // Steady-state arrival rate outside the overload window.
  double base_rps = 2.0;
  // Overload window [overload_start, overload_start + overload_duration):
  // the rate steps to magnitude * base_rps, then back.
  double overload_start = 15.0;
  double overload_duration = 10.0;
  // Step factor; the ISSUE's 10-100x overload knob.
  double magnitude = 10.0;
  std::array<double, kNumCategories> mix = {0.6, 0.2, 0.2};
  uint64_t trace_seed = 42;
  uint64_t sampling_seed = 7;
  size_t max_requests = static_cast<size_t>(-1);

  double OverloadEnd() const { return overload_start + overload_duration; }
};

std::unique_ptr<ArrivalStream> MakeFlashCrowdStream(const std::vector<CategorySpec>& categories,
                                                    const FlashCrowdSpec& spec);

// Recovery time to SLO: how long past the end of the overload window the
// system keeps violating SLOs. Defined as
//   max(0, latest violation time - spec.OverloadEnd())
// where a finished non-attained request violates at its finish_time, and
// an SLO-relevant request that never finished (evicted, still paused or
// queued at run end) counts as unrecovered at `makespan` — the run never
// brought it back within SLO, so scoring only finished requests would
// *reward* a scheduler for abandoning its backlog. A system that clears
// the flash-crowd backlog without further violations scores 0 and slower
// drains score monotonically worse. `requests` are a run's requests
// (EngineResult::requests with retire_finished off) and `makespan` the
// run's end time (EngineResult::metrics.makespan).
double RecoveryTimeToSlo(std::span<const Request> requests, const FlashCrowdSpec& spec,
                         SimTime makespan);

// --- adversarial tenant flood ------------------------------------------------

struct TenantFloodSpec {
  double duration = 60.0;
  // Benign traffic: a constant rate spread over benign_mix.
  double benign_rps = 2.0;
  std::array<double, kNumCategories> benign_mix = {0.6, 0.2, 0.2};
  // The adversarial tenant floods its category at flood_rps during
  // [flood_start, flood_start + flood_duration).
  int adversary_category = kCatChat;
  double flood_rps = 16.0;
  double flood_start = 10.0;
  double flood_duration = 30.0;
  uint64_t trace_seed = 42;
  uint64_t sampling_seed = 7;
  size_t max_requests = static_cast<size_t>(-1);
};

std::unique_ptr<ArrivalStream> MakeTenantFloodStream(const std::vector<CategorySpec>& categories,
                                                     const TenantFloodSpec& spec);

// --- long-prompt head-of-line poisoning --------------------------------------

struct LongPromptPoisonSpec {
  double duration = 60.0;
  // Normal traffic rate and mix.
  double base_rps = 3.0;
  std::array<double, kNumCategories> mix = {0.6, 0.2, 0.2};
  // Poison arrivals: a slow trickle of requests from poison_category whose
  // prompt lengths are scaled by prompt_scale (log-domain shift), so a
  // single arrival can carry thousands of prompt tokens.
  double poison_rps = 0.25;
  int poison_category = kCatSummarization;
  double prompt_scale = 8.0;
  uint64_t trace_seed = 42;
  uint64_t sampling_seed = 7;
  size_t max_requests = static_cast<size_t>(-1);
};

std::unique_ptr<ArrivalStream> MakeLongPromptPoisonStream(
    const std::vector<CategorySpec>& categories, const LongPromptPoisonSpec& spec);

// --- correlated category bursts ----------------------------------------------

struct CorrelatedBurstSpec {
  double duration = 60.0;
  // Quiet-time arrival rate (all categories combined).
  double base_rps = 1.5;
  // Rate at a burst peak. Every category surges together: the burst
  // envelope multiplies the total rate while the mix stays fixed.
  double burst_rps = 12.0;
  // Burst centres as fractions of the duration, and their common width
  // (standard deviation) as a fraction of the duration.
  std::vector<double> burst_centers = {0.3, 0.7};
  double burst_width = 0.05;
  std::array<double, kNumCategories> mix = {0.34, 0.33, 0.33};
  uint64_t trace_seed = 42;
  uint64_t sampling_seed = 7;
  size_t max_requests = static_cast<size_t>(-1);
};

std::unique_ptr<ArrivalStream> MakeCorrelatedBurstStream(
    const std::vector<CategorySpec>& categories, const CorrelatedBurstSpec& spec);

// --- duration-scaled defaults ------------------------------------------------
//
// The canonical spec of each scenario for a given run length: window
// positions scale with the duration, rates stay absolute. Goldens, the
// bench sweep, and the property suite all build their streams through
// these, so "the flash-crowd scenario" means the same thing everywhere.

FlashCrowdSpec DefaultFlashCrowd(double duration, uint64_t trace_seed);
TenantFloodSpec DefaultTenantFlood(double duration, uint64_t trace_seed);
LongPromptPoisonSpec DefaultLongPromptPoison(double duration, uint64_t trace_seed);
CorrelatedBurstSpec DefaultCorrelatedBursts(double duration, uint64_t trace_seed);

// Builds the canonical stream of `scenario` sized to `duration`.
std::unique_ptr<ArrivalStream> MakeStressStream(const std::vector<CategorySpec>& categories,
                                                StressScenario scenario, double duration,
                                                uint64_t trace_seed);

// --- stream combinator -------------------------------------------------------

// Merges several arrival-ordered streams into one: emits the earliest
// pending arrival across sources (ties break by source index), re-ids
// densely in emission order, and re-keys stream_seed from the new id with
// the generator's convention — so a merged stream is indistinguishable
// from a single generator to the engine. Deterministic for fixed sources.
std::unique_ptr<ArrivalStream> MergeArrivalStreams(
    std::vector<std::unique_ptr<ArrivalStream>> sources);

}  // namespace adaserve

#endif  // ADASERVE_SRC_WORKLOAD_SCENARIOS_H_
