// Factory for the serving systems compared in the paper's evaluation.
#ifndef ADASERVE_SRC_HARNESS_COMPARISONS_H_
#define ADASERVE_SRC_HARNESS_COMPARISONS_H_

#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "src/serve/scheduler.h"

namespace adaserve {

enum class SystemKind {
  kAdaServe,
  kVllm,
  kSarathi,
  kVllmSpec4,
  kVllmSpec6,
  kVllmSpec8,
  kVllmPriority,
  kFastServe,
  kVtc,
  kEdf,
  kEdfAdmission,
};

std::unique_ptr<Scheduler> MakeScheduler(SystemKind kind);
std::string_view SystemName(SystemKind kind);

// Inverse of SystemName (exact match); nullopt for an unknown name. The
// replay harness resolves recorded artifacts' system field through this.
std::optional<SystemKind> SystemKindFromName(std::string_view name);

// Systems of the end-to-end comparison (Figs. 8-12, 14):
// AdaServe, Sarathi-Serve, vLLM, vLLM-Spec(4/6/8), plus the
// deadline-theoretic baselines EDF and EDF+AC (utilization-bound
// admission control).
std::vector<SystemKind> MainComparisonSet();

// Systems of the motivation study (Fig. 1): vLLM, vLLM+chunked-prefill
// (Sarathi), vLLM+Priority, FastServe, VTC.
std::vector<SystemKind> MotivationSet();

}  // namespace adaserve

#endif  // ADASERVE_SRC_HARNESS_COMPARISONS_H_
