#include "src/core/adaserve_scheduler.h"

#include <algorithm>

#include "src/core/slo_accounting.h"
#include "src/spec/verifier.h"

namespace adaserve {

IterationRecord AdaServeScheduler::DecodePhase(SimTime now, RequestPool& pool,
                                               ServingContext& ctx) {
  IterationRecord record;
  const std::vector<RequestId> running = RunningRequests(pool);
  if (running.empty()) {
    return record;
  }
  const int n = static_cast<int>(running.size());
  record.decode_requests = n;

  // --- adaptive control (Eqs. 8-9) ---
  const BeamConfig beam = config_.adaptive_control
                              ? AdaptSpecParams(n, ctx.verify_budget, ctx.draft_budget,
                                                config_.adaptive)
                              : config_.fixed_beam;
  last_beam_ = beam;

  // --- Step 1: speculation (candidate trees via beam search) ---
  // Draft cost: step 1 processes the n roots; steps 2..d process n*w
  // beam tokens each, shapes that repeat and replay from CUDA graphs.
  const long draft_context = pool.SumContextTokens(running);
  SimTime spec_time =
      ctx.draft_latency->ForwardLatency(n, draft_context, /*use_cuda_graph=*/true);
  for (int step = 1; step < beam.depth; ++step) {
    spec_time += ctx.draft_latency->ForwardLatency(n * beam.width,
                                                   draft_context + n * step,
                                                   /*use_cuda_graph=*/true);
  }
  std::vector<TokenTree> candidates;
  candidates.reserve(running.size());
  long candidate_tokens = 0;
  for (RequestId id : running) {
    const Request& req = pool.Get(id);
    candidates.push_back(BuildCandidateTree(*ctx.draft, req.stream_seed, req.output, beam));
    candidate_tokens += candidates.back().size() - 1;
  }

  // --- Step 2: selection ---
  // t_spec estimate for A(r): the previous iteration's duration (warm
  // start: twice the verifier's memory-bound floor).
  const SimTime t_spec_estimate =
      last_duration_ > 0.0 ? last_duration_ : 2.0 * ctx.target_latency->WeightLoadTime();
  std::vector<SelectionRequest> sel_requests(running.size());
  for (size_t i = 0; i < running.size(); ++i) {
    const Request& req = pool.Get(running[i]);
    const double a = MinAcceptedForSlo(req, now, t_spec_estimate);
    sel_requests[i].tree = &candidates[i];
    sel_requests[i].a_cap = config_.slo_phase_enabled ? CapRequirement(a, beam.depth) : 0.0;
  }
  // Budget: B counts every verified token, roots included (Algorithm 2
  // decrements B once per root at initialisation).
  const int budget_total = std::max(0, ctx.verify_budget - n);
  // The SLO-customized phase spends the budget first; the
  // throughput-optimized phase gets whatever it left.
  TokenSelector selector(sel_requests, config_.selection);
  selector.SloPhase(budget_total);
  selector.ThroughputPhase(budget_total - selector.result().total_taken);
  const SelectionResult& sel = selector.result();
  const SimTime select_time =
      config_.select_cost_base + config_.select_cost_per_token * candidate_tokens;

  // --- Step 3: verification (one batched target pass) ---
  const int verify_tokens = n + sel.total_taken;
  const SimTime verify_time = ctx.target_latency->ForwardLatency(
      verify_tokens, pool.SumContextTokens(running), /*use_cuda_graph=*/true);

  const SimTime latency = spec_time + select_time + verify_time;
  const SimTime end = now + latency;

  // Commit: verify each draft tree, commit accepted + bonus tokens.
  for (size_t i = 0; i < running.size(); ++i) {
    const RequestId id = running[i];
    Request& req = pool.Get(id);
    if (req.decode_start_time < 0.0) {
      req.decode_start_time = now;
    }
    const VerifyResult verdict = VerifyTree(*ctx.target, req.stream_seed, req.output,
                                            candidates[i], sel.selected[i], ctx.mode, *ctx.rng);
    req.verifications += 1;
    req.accepted_tokens += static_cast<long>(verdict.accepted.size());
    req.verified_tokens += verdict.tokens_verified;
    record.verified_tokens += verdict.tokens_verified;
    for (Token t : verdict.accepted) {
      if (pool.Get(id).state != RequestState::kRunning) {
        break;  // Reached target length mid-path.
      }
      pool.CommitToken(id, t, end);
      ++record.committed_tokens;
    }
    if (pool.Get(id).state == RequestState::kRunning) {
      pool.CommitToken(id, verdict.bonus, end);
      ++record.committed_tokens;
    }
  }

  record.duration = latency;
  record.spec_time = spec_time;
  record.select_time = select_time;
  record.verify_time = verify_time;
  last_duration_ = latency;
  return record;
}

}  // namespace adaserve
