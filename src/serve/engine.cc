#include "src/serve/engine.h"

#include <algorithm>

#include "src/common/logging.h"

namespace adaserve {
namespace {

// Safety valve: abort a run that exceeds this many loop iterations.
constexpr long kMaxIterations = 50'000'000;

}  // namespace

Engine::Engine(const SyntheticLm* target, const DraftLm* draft, const LatencyModel* target_latency,
               const LatencyModel* draft_latency, const EngineConfig& config)
    : target_(target),
      draft_(draft),
      target_latency_(target_latency),
      draft_latency_(draft_latency),
      config_(config) {
  ADASERVE_CHECK(target_ != nullptr && draft_ != nullptr) << "engine needs both models";
  ADASERVE_CHECK(target_latency_ != nullptr && draft_latency_ != nullptr)
      << "engine needs both latency models";
  ADASERVE_CHECK(config_.arrival_horizon >= 0) << "negative arrival horizon";
}

EngineResult Engine::Run(Scheduler& scheduler, WorkloadSource source, int verify_budget) {
  ArrivalStream& stream = source.stream();
  KvCache kv(target_latency_->KvCacheBytes(), target_latency_->model().KvBytesPerToken());
  RequestPool pool(&kv);
  pool.set_release_payload_on_finish(config_.retire_finished);
  Rng rng(config_.sampling_seed);

  ServingContext ctx;
  ctx.target = target_;
  ctx.draft = draft_;
  ctx.target_latency = target_latency_;
  ctx.draft_latency = draft_latency_;
  ctx.mode = config_.mode;
  ctx.verify_budget = verify_budget > 0 ? verify_budget : DeriveTokenBudget(*target_latency_);
  ctx.draft_budget = DeriveDraftBudget(*target_latency_, *draft_latency_);
  ctx.rng = &rng;
  // The whole tick policy crosses the engine boundary as one value:
  // ResolvedFor fills an unset admission priority from the scheduler's
  // default.
  ctx.tick = config_.tick.ResolvedFor(scheduler);

  // Pull until this many requests sit in the admission queue: admission can
  // consume at most tick.max_active per tick, so holding that many plus
  // the horizon makes lazy injection indistinguishable from the old
  // inject-everything-due loop.
  const size_t pull_target = static_cast<size_t>(ctx.tick.max_active) +
                             static_cast<size_t>(config_.arrival_horizon);
  SimTime last_arrival = 0.0;
  // Makes arrivals due by `t` visible in the admission queue, bounded by
  // the horizon. Shared between the engine's boundary pull and the
  // scheduler's mid-tick admission phase.
  // Arrivals pulled since the last traced tick; charged to the next
  // progressing tick by the trace sink (boundary + mid-tick pulls alike).
  int pulls_since_tick = 0;
  auto pull_arrivals = [&](SimTime t) {
    int pulled = 0;
    while (!stream.Exhausted() && stream.Peek()->arrival <= t &&
           pool.queued().size() < pull_target) {
      Request req = stream.Next();
      ADASERVE_CHECK(req.arrival >= last_arrival)
          << "stream arrivals must be nondecreasing; got " << req.arrival << " after "
          << last_arrival;
      last_arrival = req.arrival;
      if (config_.trace_sink != nullptr) {
        config_.trace_sink->OnArrival(req);
      }
      pool.AddArrival(req);
      ++pulled;
    }
    pulls_since_tick += pulled;
    return pulled;
  };
  ctx.pull_arrivals = pull_arrivals;

  MetricsAccumulator acc;
  auto retire_sink = [&acc](const Request& req) { acc.AddRequest(req); };

  EngineResult result;
  SimTime now = 0.0;
  long iterations = 0;
  long traced_ticks = 0;
  while (!stream.Exhausted() || pool.HasWork()) {
    ADASERVE_CHECK(++iterations <= kMaxIterations) << "iteration budget exhausted";
    pull_arrivals(now);
    const TickResult tick = scheduler.Tick(now, pool, ctx);
    result.peak_resident_requests = std::max(result.peak_resident_requests, pool.resident_count());
    if (!tick.MadeProgress()) {
      // A no-progress tick may still have *rejected* work (admission
      // control refusing an entire backlog consumes no simulated time);
      // keep its counters so Metrics::rejections stays exact. It is not a
      // tick to the trace sink.
      if (tick.record.rejected > 0 || tick.record.degraded > 0) {
        acc.AddIteration(tick.record);
      }
      // Nothing was admissible and nothing ran. Either the pool is idle
      // (jump the clock to the next arrival) or admission is blocked,
      // which cannot happen with an empty active set given worst-case
      // reservations.
      ADASERVE_CHECK(pool.active().empty()) << scheduler.name() << " made no progress";
      ADASERVE_CHECK(pool.queued().empty()) << "admission deadlock";
      if (stream.Exhausted()) {
        // Legal only when this tick rejected the final backlog; the loop
        // condition then ends the run.
        ADASERVE_CHECK(tick.record.rejected > 0) << "engine stalled with no work";
        continue;
      }
      now = stream.Peek()->arrival;
      continue;
    }
    if (config_.trace_sink != nullptr) {
      TickTraceEvent event;
      event.index = traced_ticks++;
      event.start = now;
      event.record = tick.record;
      event.arrivals_pulled = pulls_since_tick;
      config_.trace_sink->OnTick(event);
      pulls_since_tick = 0;
    }
    now += tick.record.duration;
    acc.AddIteration(tick.record);
    if (config_.retire_finished) {
      pool.RetireFinishedPrefix(retire_sink);
    }
  }
  result.total_iterations = iterations;
  if (config_.retire_finished) {
    pool.RetireFinishedPrefix(retire_sink);
    ADASERVE_CHECK(pool.resident_count() == 0) << "undrained pool at end of run";
  } else {
    for (const Request& req : pool.requests()) {
      acc.AddRequest(req);
    }
    result.requests.assign(pool.requests().begin(), pool.requests().end());
  }
  result.metrics = acc.Finalize(now);
  return result;
}

}  // namespace adaserve
