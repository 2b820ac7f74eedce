// Static-topology tree speculation (SpecInfer/Medusa-style, §7).
//
// Early tree-based speculative decoding fixes the tree *shape* per
// iteration — e.g. expand the top-k1 draft tokens at depth 1, top-k2 under
// each at depth 2, and so on — independent of request SLOs or load. This
// baseline rounds out the design space between vLLM-Spec's chains and
// AdaServe's SLO-customized trees, and feeds the tree-topology ablation.
#ifndef ADASERVE_SRC_BASELINES_STATIC_TREE_SPEC_H_
#define ADASERVE_SRC_BASELINES_STATIC_TREE_SPEC_H_

#include <string>
#include <vector>

#include "src/serve/scheduler.h"
#include "src/spec/token_tree.h"

namespace adaserve {

struct StaticTreeConfig {
  // Branching factor per level; the tree has branching.size() levels.
  // Default (3, 2, 2, 1): 3 + 6 + 12 + 12 = 33 nodes... kept modest:
  std::vector<int> branching = {3, 2, 1};
};

// Builds the fixed-topology draft tree for one request: at each level,
// every frontier node expands its top-k draft children, k given by the
// level's branching factor.
TokenTree BuildStaticTree(const DraftLm& draft, uint64_t stream, std::span<const Token> committed,
                          const std::vector<int>& branching);

class StaticTreeSpecScheduler : public Scheduler {
 public:
  explicit StaticTreeSpecScheduler(const StaticTreeConfig& config = {});

  std::string_view name() const override { return name_; }

 protected:
  // Decode phase: the fixed-topology tree speculate-verify pass.
  IterationRecord DecodePhase(SimTime now, RequestPool& pool, ServingContext& ctx) override;

 private:
  StaticTreeConfig config_;
  std::string name_;
  int tokens_per_tree_;
};

}  // namespace adaserve

#endif  // ADASERVE_SRC_BASELINES_STATIC_TREE_SPEC_H_
