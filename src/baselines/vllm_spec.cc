#include "src/baselines/vllm_spec.h"

#include "src/common/logging.h"
#include "src/spec/sequence_spec.h"
#include "src/spec/verifier.h"

namespace adaserve {

VllmSpecScheduler::VllmSpecScheduler(const VllmSpecConfig& config)
    : config_(config), name_("vLLM-Spec(" + std::to_string(config.spec_len) + ")") {
  ADASERVE_CHECK(config_.spec_len >= 1) << "speculation length must be >= 1";
}

IterationRecord VllmSpecScheduler::DecodePhase(SimTime now, RequestPool& pool,
                                               ServingContext& ctx) {
  IterationRecord record;
  const std::vector<RequestId> running = RunningRequests(pool);
  if (running.empty()) {
    return record;
  }
  const int n = static_cast<int>(running.size());
  const int k = config_.spec_len;

  // Draft phase: k sequential draft-model steps over the whole batch.
  const long draft_context = pool.SumContextTokens(running);
  SimTime spec_time = 0.0;
  for (int step = 0; step < k; ++step) {
    spec_time += ctx.draft_latency->ForwardLatency(n, draft_context + n * step,
                                                   /*use_cuda_graph=*/true);
  }

  // Verification: each request contributes its root + k chain tokens.
  const long verify_context = pool.SumContextTokens(running);
  const SimTime verify_time = ctx.target_latency->ForwardLatency(n * (k + 1), verify_context,
                                                                 /*use_cuda_graph=*/true);
  const SimTime latency = spec_time + verify_time;
  const SimTime end = now + latency;

  for (RequestId id : running) {
    Request& req = pool.Get(id);
    if (req.decode_start_time < 0.0) {
      req.decode_start_time = now;
    }
    const TokenTree chain = BuildChainTree(*ctx.draft, req.stream_seed, req.output, k);
    const VerifyResult verdict = VerifyTree(*ctx.target, req.stream_seed, req.output, chain,
                                            /*selected=*/{}, ctx.mode, *ctx.rng);
    req.verifications += 1;
    req.accepted_tokens += static_cast<long>(verdict.accepted.size());
    req.verified_tokens += verdict.tokens_verified;
    record.verified_tokens += verdict.tokens_verified;
    for (Token t : verdict.accepted) {
      if (pool.Get(id).state != RequestState::kRunning) {
        break;  // Finished mid-path; drop surplus speculated tokens.
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
  record.verify_time = verify_time;
  record.decode_requests = n;
  return record;
}

}  // namespace adaserve
