// Link-time interposers around the library's layer entry points.
//
// The benchmark links the unchanged simulator library with
// `-Wl,--wrap=<mangled symbol>` for each function below (the list lives in
// CMakeLists.txt): every call from another object file then lands in
// `__wrap_<symbol>`, which times it as a span and forwards to
// `__real_<symbol>`, the original code. RunBudgetedPrefillPhase is called
// from its own translation unit, which --wrap cannot reach; the build
// instead weakens that symbol in scheduler.cc's object and adds the alias
// `perfbench_real_prefill_phase` for the original code, so the strong
// definition here takes every call.
//
// Member functions are declared as free functions taking `self` first:
// under the Itanium C++ ABI a non-virtual member function is called exactly
// like that. With tracing off an interposer adds a branch and a call, and
// no interposer changes an argument or a result.
#include <span>
#include <vector>

#include "perfbench/tracer.h"
#include "src/core/selection.h"
#include "src/model/draft_lm.h"
#include "src/model/synthetic_lm.h"
#include "src/serve/request_pool.h"
#include "src/serve/scheduler.h"
#include "src/spec/beam_search.h"
#include "src/spec/sequence_spec.h"
#include "src/spec/verifier.h"

using adaserve::BeamConfig;
using adaserve::DecodeMode;
using adaserve::DraftLm;
using adaserve::EvictionStyle;
using adaserve::IterationRecord;
using adaserve::RequestId;
using adaserve::RequestPool;
using adaserve::Rng;
using adaserve::ServingContext;
using adaserve::SimTime;
using adaserve::SparseDist;
using adaserve::SyntheticLm;
using adaserve::Token;
using adaserve::TokenSelector;
using adaserve::TokenTree;
using adaserve::VerifyResult;
using perfbench::GlobalCounters;
using perfbench::Layer;
using perfbench::ScopedSpan;

using Context = std::span<const Token>;

#define PB_TARGET_NEXT_DIST _ZNK8adaserve11SyntheticLm8NextDistEmSt4spanIKiLm18446744073709551615EE
#define PB_DRAFT_NEXT_DIST _ZNK8adaserve7DraftLm8NextDistEmSt4spanIKiLm18446744073709551615EE
#define PB_DECODE_ONE_TOKEN \
  _ZN8adaserve14DecodeOneTokenERKNS_11SyntheticLmEmSt4spanIKiLm18446744073709551615EENS_10DecodeModeERNS_3RngE
#define PB_CANDIDATE_TREE \
  _ZN8adaserve18BuildCandidateTreeERKNS_7DraftLmEmSt4spanIKiLm18446744073709551615EERKNS_10BeamConfigE
#define PB_CHAIN_TREE \
  _ZN8adaserve14BuildChainTreeERKNS_7DraftLmEmSt4spanIKiLm18446744073709551615EEi
#define PB_VERIFY_TREE _ZN8adaserve10VerifyTreeERKNS_11SyntheticLmEmSt4spanIKiLm18446744073709551615EERKNS_9TokenTreeERKSt6vectorIcSaIcEENS_10DecodeModeERNS_3RngE
#define PB_SLO_PHASE _ZN8adaserve13TokenSelector8SloPhaseEi
#define PB_THROUGHPUT_PHASE _ZN8adaserve13TokenSelector15ThroughputPhaseEi
#define PB_ADMIT_UP_TO _ZN8adaserve11RequestPool9AdmitUpToEiRKSt8functionIFbRKNS_7RequestES4_EE
#define PB_ADMIT_WITH_EVICTION _ZN8adaserve11RequestPool17AdmitWithEvictionEiiPiRKSt8functionIFbRKNS_7RequestES5_EERKS2_IFlS5_RKS0_EENS_13EvictionStyleE

#define PB_STR2(x) #x
#define PB_STR(x) PB_STR2(x)
#define PB_REAL(sym) __asm__("__real_" PB_STR(sym))
#define PB_WRAP(sym) __asm__("__wrap_" PB_STR(sym))

// --- model ------------------------------------------------------------------

// Every SyntheticLm::NextDist call counts as a target query, including the
// target and noise queries DraftLm::NextDist makes: the draft's own self
// time is then only its mixing of the two.
SparseDist RealTargetNextDist(const SyntheticLm* self, uint64_t stream, Context context)
    PB_REAL(PB_TARGET_NEXT_DIST);
SparseDist WrapTargetNextDist(const SyntheticLm* self, uint64_t stream, Context context)
    PB_WRAP(PB_TARGET_NEXT_DIST);
SparseDist WrapTargetNextDist(const SyntheticLm* self, uint64_t stream, Context context) {
  ScopedSpan span(Layer::kTargetNextDist);
  return RealTargetNextDist(self, stream, context);
}

SparseDist RealDraftNextDist(const DraftLm* self, uint64_t stream, Context context)
    PB_REAL(PB_DRAFT_NEXT_DIST);
SparseDist WrapDraftNextDist(const DraftLm* self, uint64_t stream, Context context)
    PB_WRAP(PB_DRAFT_NEXT_DIST);
SparseDist WrapDraftNextDist(const DraftLm* self, uint64_t stream, Context context) {
  ScopedSpan span(Layer::kDraftNextDist);
  return RealDraftNextDist(self, stream, context);
}

Token RealDecodeOneToken(const SyntheticLm& target, uint64_t stream, Context committed,
                         DecodeMode mode, Rng& rng) PB_REAL(PB_DECODE_ONE_TOKEN);
Token WrapDecodeOneToken(const SyntheticLm& target, uint64_t stream, Context committed,
                         DecodeMode mode, Rng& rng) PB_WRAP(PB_DECODE_ONE_TOKEN);
Token WrapDecodeOneToken(const SyntheticLm& target, uint64_t stream, Context committed,
                         DecodeMode mode, Rng& rng) {
  ScopedSpan span(Layer::kSample);
  return RealDecodeOneToken(target, stream, committed, mode, rng);
}

// --- spec -------------------------------------------------------------------

TokenTree RealCandidateTree(const DraftLm& draft, uint64_t stream, Context committed,
                            const BeamConfig& config) PB_REAL(PB_CANDIDATE_TREE);
TokenTree WrapCandidateTree(const DraftLm& draft, uint64_t stream, Context committed,
                            const BeamConfig& config) PB_WRAP(PB_CANDIDATE_TREE);
TokenTree WrapCandidateTree(const DraftLm& draft, uint64_t stream, Context committed,
                            const BeamConfig& config) {
  ScopedSpan span(Layer::kCandidateTree);
  TokenTree tree = RealCandidateTree(draft, stream, committed, config);
  GlobalCounters().candidate_tree_nodes += tree.size();
  return tree;
}

TokenTree RealChainTree(const DraftLm& draft, uint64_t stream, Context committed, int k)
    PB_REAL(PB_CHAIN_TREE);
TokenTree WrapChainTree(const DraftLm& draft, uint64_t stream, Context committed, int k)
    PB_WRAP(PB_CHAIN_TREE);
TokenTree WrapChainTree(const DraftLm& draft, uint64_t stream, Context committed, int k) {
  ScopedSpan span(Layer::kChainTree);
  return RealChainTree(draft, stream, committed, k);
}

VerifyResult RealVerifyTree(const SyntheticLm& target, uint64_t stream, Context committed,
                            const TokenTree& tree, const std::vector<char>& selected,
                            DecodeMode mode, Rng& rng) PB_REAL(PB_VERIFY_TREE);
VerifyResult WrapVerifyTree(const SyntheticLm& target, uint64_t stream, Context committed,
                            const TokenTree& tree, const std::vector<char>& selected,
                            DecodeMode mode, Rng& rng) PB_WRAP(PB_VERIFY_TREE);
VerifyResult WrapVerifyTree(const SyntheticLm& target, uint64_t stream, Context committed,
                            const TokenTree& tree, const std::vector<char>& selected,
                            DecodeMode mode, Rng& rng) {
  ScopedSpan span(Layer::kVerify);
  VerifyResult result = RealVerifyTree(target, stream, committed, tree, selected, mode, rng);
  GlobalCounters().verify_accepted += static_cast<long>(result.accepted.size());
  GlobalCounters().verify_tokens += result.tokens_verified;
  return result;
}

// --- core -------------------------------------------------------------------

int RealSloPhase(TokenSelector* self, int budget) PB_REAL(PB_SLO_PHASE);
int WrapSloPhase(TokenSelector* self, int budget) PB_WRAP(PB_SLO_PHASE);
int WrapSloPhase(TokenSelector* self, int budget) {
  ScopedSpan span(Layer::kSelect);
  const int used = RealSloPhase(self, budget);
  GlobalCounters().select_tokens += used;
  return used;
}

int RealThroughputPhase(TokenSelector* self, int budget) PB_REAL(PB_THROUGHPUT_PHASE);
int WrapThroughputPhase(TokenSelector* self, int budget) PB_WRAP(PB_THROUGHPUT_PHASE);
int WrapThroughputPhase(TokenSelector* self, int budget) {
  ScopedSpan span(Layer::kSelect);
  const int used = RealThroughputPhase(self, budget);
  GlobalCounters().select_tokens += used;
  return used;
}

// --- serve ------------------------------------------------------------------

int RealAdmitUpTo(RequestPool* self, int max_active, const RequestPool::AdmissionRanker& rank)
    PB_REAL(PB_ADMIT_UP_TO);
int WrapAdmitUpTo(RequestPool* self, int max_active, const RequestPool::AdmissionRanker& rank)
    PB_WRAP(PB_ADMIT_UP_TO);
int WrapAdmitUpTo(RequestPool* self, int max_active, const RequestPool::AdmissionRanker& rank) {
  ScopedSpan span(Layer::kAdmit);
  return RealAdmitUpTo(self, max_active, rank);
}

RequestId RealAdmitWithEviction(RequestPool* self, int max_active, int max_evictions,
                                int* evicted, const RequestPool::AdmissionRanker& rank,
                                const RequestPool::VictimSelector& select_victim,
                                EvictionStyle style) PB_REAL(PB_ADMIT_WITH_EVICTION);
RequestId WrapAdmitWithEviction(RequestPool* self, int max_active, int max_evictions,
                                int* evicted, const RequestPool::AdmissionRanker& rank,
                                const RequestPool::VictimSelector& select_victim,
                                EvictionStyle style) PB_WRAP(PB_ADMIT_WITH_EVICTION);
RequestId WrapAdmitWithEviction(RequestPool* self, int max_active, int max_evictions,
                                int* evicted, const RequestPool::AdmissionRanker& rank,
                                const RequestPool::VictimSelector& select_victim,
                                EvictionStyle style) {
  ScopedSpan span(Layer::kAdmit);
  return RealAdmitWithEviction(self, max_active, max_evictions, evicted, rank, select_victim,
                               style);
}

IterationRecord RealPrefillPhase(SimTime now, RequestPool& pool, ServingContext& ctx, int budget,
                                 int burst) __asm__("perfbench_real_prefill_phase");
namespace adaserve {
IterationRecord RunBudgetedPrefillPhase(SimTime now, RequestPool& pool, ServingContext& ctx,
                                        int budget, int burst) {
  ScopedSpan span(Layer::kPrefillPhase);
  return RealPrefillPhase(now, pool, ctx, budget, burst);
}
}  // namespace adaserve
