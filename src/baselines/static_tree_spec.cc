#include "src/baselines/static_tree_spec.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/spec/verifier.h"

namespace adaserve {

TokenTree BuildStaticTree(const DraftLm& draft, uint64_t stream, std::span<const Token> committed,
                          const std::vector<int>& branching) {
  ADASERVE_CHECK(!branching.empty()) << "static tree needs at least one level";
  const Token root_token = committed.empty() ? kInvalidToken : committed.back();
  TokenTree tree(root_token);
  std::vector<NodeId> frontier = {kRootNode};
  const std::vector<Token> base(committed.begin(), committed.end());
  for (int k : branching) {
    ADASERVE_CHECK(k >= 1) << "branching factors must be positive";
    std::vector<NodeId> next;
    for (NodeId node : frontier) {
      std::vector<Token> ctx = base;
      const std::vector<Token> path = tree.PathTokens(node);
      ctx.insert(ctx.end(), path.begin(), path.end());
      const SparseDist dist = draft.NextDist(stream, ctx);
      const int take = std::min<int>(k, static_cast<int>(dist.size()));
      for (int i = 0; i < take; ++i) {
        next.push_back(tree.AddNode(node, dist.entry(i).token, dist.entry(i).prob));
      }
    }
    frontier = std::move(next);
  }
  return tree;
}

StaticTreeSpecScheduler::StaticTreeSpecScheduler(const StaticTreeConfig& config)
    : config_(config) {
  tokens_per_tree_ = 0;
  int level_width = 1;
  std::string shape;
  for (int k : config_.branching) {
    level_width *= k;
    tokens_per_tree_ += level_width;
    if (!shape.empty()) shape += 'x';
    shape += std::to_string(k);
  }
  name_ = "StaticTree(" + shape + ")";
}

IterationRecord StaticTreeSpecScheduler::DecodePhase(SimTime now, RequestPool& pool,
                                                     ServingContext& ctx) {
  IterationRecord record;
  const std::vector<RequestId> running = RunningRequests(pool);
  if (running.empty()) {
    return record;
  }
  const int n = static_cast<int>(running.size());
  const int depth = static_cast<int>(config_.branching.size());

  // Draft phase: one step per level; the batch width grows with the level.
  const long draft_context = pool.SumContextTokens(running);
  SimTime spec_time = 0.0;
  int level_width = 1;
  for (int level = 0; level < depth; ++level) {
    spec_time += ctx.draft_latency->ForwardLatency(n * level_width, draft_context,
                                                   /*use_cuda_graph=*/true);
    level_width *= config_.branching[static_cast<size_t>(level)];
  }

  const SimTime verify_time = ctx.target_latency->ForwardLatency(
      n * (tokens_per_tree_ + 1), pool.SumContextTokens(running), /*use_cuda_graph=*/true);
  const SimTime latency = spec_time + verify_time;
  const SimTime end = now + latency;

  for (RequestId id : running) {
    Request& req = pool.Get(id);
    if (req.decode_start_time < 0.0) {
      req.decode_start_time = now;
    }
    const TokenTree tree =
        BuildStaticTree(*ctx.draft, req.stream_seed, req.output, config_.branching);
    const VerifyResult verdict = VerifyTree(*ctx.target, req.stream_seed, req.output, tree,
                                            /*selected=*/{}, ctx.mode, *ctx.rng);
    req.verifications += 1;
    req.accepted_tokens += static_cast<long>(verdict.accepted.size());
    req.verified_tokens += verdict.tokens_verified;
    record.verified_tokens += verdict.tokens_verified;
    for (Token t : verdict.accepted) {
      if (pool.Get(id).state != RequestState::kRunning) {
        break;
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
