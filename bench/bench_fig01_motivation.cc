// Figure 1: existing systems cannot efficiently support multi-SLO serving.
//
// A two-category workload (Cat 1 coding copilot with a tight SLO, Cat 2
// chatbot at 50 ms) is served by five existing systems. For each system and
// category we report the per-token latency distribution and the violation
// rate. The paper's shape: every system except vLLM+Priority misses Cat-1
// SLOs badly; vLLM+Priority saves Cat 1 but congests Cat 2.
#include <cmath>
#include <iostream>

#include "bench/sweep_common.h"

namespace adaserve {
namespace {

// --admission: ablation of the tick's admission-priority knob under
// KV pressure. One continuous-batching scheduler (vLLM), one bursty
// urgent-heavy arrival process, three policies:
//   fifo          — arrival-order admission, recompute eviction
//   urgent_first  — SLO-urgent-first admission, recompute eviction
//   urgent_pause  — SLO-urgent-first admission, preemptive pause/resume
//                   (victims keep their prefill progress and resume)
// The device KV cap is pinned far below the natural 80 GB headroom so
// bursts actually force evict-for-admission decisions; the interesting
// output is the urgent category's TTFT — pause/resume stops the engine
// from re-prefilling recompute victims, so the freed budget reaches
// urgent prompts sooner.
struct AblationPolicy {
  PriorityPolicy policy;
  const char* name;
};

std::vector<AblationPolicy> AblationPolicies() {
  return {{PriorityPolicy::kFifo, "fifo"},
          {PriorityPolicy::kSloUrgentFirst, "urgent_first"},
          {PriorityPolicy::kSloUrgentPause, "urgent_pause"}};
}

// Burst-state RPS grid: the sweep's x-axis. Endpoints only under --smoke
// (the grid has two entries, so smoke == full here by construction).
std::vector<double> AblationRpsGrid() { return {24.0, 36.0}; }

int RunAdmissionAblation(const BenchArgs& args) {
  Setup setup = LlamaSetup();
  // Invert the KvCacheBytes formula (0.85 headroom, per-TP weight split)
  // to pin device KV capacity to exactly kKvCapTokens: small enough that
  // a burst of mixed prompts cannot all hold KV at once, large enough
  // that the active set still batches.
  // Must exceed the worst-case single-request footprint (a max-length
  // Cat3 prompt plus its output, ~4.6k tokens) or that request can never
  // admit and the run livelocks.
  constexpr double kKvCapTokens = 6144.0;
  setup.gpu.mem_bytes = (setup.target_profile.WeightBytes() / setup.tensor_parallel +
                         kKvCapTokens * setup.target_profile.KvBytesPerToken() /
                             setup.tensor_parallel) /
                        0.85;
  Experiment exp(setup);
  // Length-shaped variant of the default categories, keeping the SLOs:
  // urgent requests are short (they finish in a few ticks, so KV turns
  // over and every burst re-fights the admission battle) while the
  // loose-SLO category carries long prompts (many ticks mid-prefill —
  // exactly the victims recompute eviction re-prefills from scratch and
  // pause/resume does not).
  std::vector<CategorySpec> cats = exp.Categories();
  cats[kCatCoding].prompt_len = {.log_mean = std::log(96.0), .log_stddev = 0.3, .min_len = 32,
                                 .max_len = 256};
  cats[kCatCoding].output_len = {.log_mean = std::log(12.0), .log_stddev = 0.3, .min_len = 4,
                                 .max_len = 32};
  // Two worst-case long prompts must fit in the cap at once: if only one
  // can hold KV, two blocked jumbos recompute-evict each other forever
  // (the sole active request is always the newest zero-output victim) and
  // the fifo cell livelocks.
  cats[kCatSummarization].prompt_len = {.log_mean = std::log(1500.0), .log_stddev = 0.25,
                                        .min_len = 512, .max_len = 2048};
  cats[kCatSummarization].output_len = {.log_mean = std::log(16.0), .log_stddev = 0.3,
                                        .min_len = 4, .max_len = 32};
  std::cout << "Figure 1 ablation: admission priority under KV pressure\n";
  std::cout << "Model: " << setup.label << " (KV capped at " << kKvCapTokens
            << " tokens), trace: MMPP bursts, mix 60/40 urgent/long-prefill\n";
  std::cout << "SLO1 (Cat1 urgent) = " << Fmt(ToMs(cats[0].tpot_slo), 1)
            << " ms, SLO2 (Cat2 chat) = " << Fmt(ToMs(cats[1].tpot_slo), 1) << " ms\n\n";

  BenchJson json("fig01_admission");
  TablePrinter table({"Policy", "BurstRPS", "Cat1 TTFT(ms)", "Cat1 attain(%)", "Goodput(tok/s)",
                      "Evictions", "Pauses"});
  for (double rps : GridFor(args, AblationRpsGrid())) {
    for (const AblationPolicy& ablation : AblationPolicies()) {
      MmppStreamConfig config;
      config.mmpp.state_rps = {6.0, rps};
      config.mmpp.mean_sojourn_s = {1.0, 1.0};
      config.duration = SweepDurationFor(args);
      config.mix = {0.6, 0.0, 0.4};
      auto stream = MakeMmppStream(cats, config);

      EngineConfig engine;
      engine.retire_finished = true;
      // Slots must never bind: with the KV cap the only admission blocker,
      // every displacement decision is a real evict-vs-pause call.
      engine.tick.max_active = 64;
      // Slow prefill down (vs the kBurst default) so big Cat3 prompts stay
      // mid-prefill across many ticks — the victim population the
      // displacement policies differ on — and let a burst displace more
      // than the default 4 victims per boundary.
      engine.tick.prefill_burst = 128;
      engine.tick.max_evictions = 8;
      engine.tick.admission_priority = ablation.policy;
      auto scheduler = MakeScheduler(SystemKind::kVllm);
      const EngineResult result = exp.Run(*scheduler, *stream, engine);

      const CategoryMetrics& urgent = result.metrics.per_category[0];
      table.AddRow({ablation.name, Fmt(rps, 0), Fmt(urgent.ttft_ms.Mean(), 2),
                    FmtPct(urgent.AttainmentPct()), Fmt(result.metrics.GoodputTps(), 1),
                    std::to_string(result.metrics.evictions),
                    std::to_string(result.metrics.pauses)});
      json.Add(setup.label, ablation.name, "cat1_mean_ttft_ms", rps, urgent.ttft_ms.Mean());
      json.Add(setup.label, ablation.name, "cat1_attainment_pct", rps, urgent.AttainmentPct());
      json.Add(setup.label, ablation.name, "goodput_tps", rps, result.metrics.GoodputTps());
      json.Add(setup.label, ablation.name, "evictions", rps,
               static_cast<double>(result.metrics.evictions));
      json.Add(setup.label, ablation.name, "pauses", rps,
               static_cast<double>(result.metrics.pauses));
    }
  }
  table.Print(std::cout);
  return FinishBench(args, json);
}

int Run(const BenchArgs& args) {
  if (args.admission) {
    return RunAdmissionAblation(args);
  }
  const Setup setup = LlamaSetup();
  Experiment exp(setup);
  const std::vector<CategorySpec> cats = exp.Categories();
  std::cout << "Figure 1: per-token latency of existing systems on a 2-SLO workload\n";
  std::cout << "Model: " << setup.label << ", trace: real-shaped, 3.5 req/s, mix 50/50\n";
  std::cout << "SLO1 (Cat1 coding) = " << Fmt(ToMs(cats[0].tpot_slo), 1)
            << " ms, SLO2 (Cat2 chat) = " << Fmt(ToMs(cats[1].tpot_slo), 1) << " ms\n\n";

  const std::vector<Request> workload = exp.RealTraceWorkload(
      SweepDurationFor(args), /*mean_rps=*/3.5, WorkloadConfig{.mix = {0.5, 0.5, 0.0}});

  BenchJson json("fig01_motivation");
  TablePrinter table({"System", "Cat", "mean TPOT(ms)", "p50(ms)", "p99(ms)", "Violation(%)"});
  for (SystemKind kind : MotivationSet()) {
    auto scheduler = MakeScheduler(kind);
    const EngineResult result = exp.Run(*scheduler, workload);
    for (int c = 0; c < 2; ++c) {
      const CategoryMetrics& m = result.metrics.per_category[static_cast<size_t>(c)];
      table.AddRow({std::string(SystemName(kind)), c == 0 ? "Cat1" : "Cat2",
                    Fmt(m.tpot_ms.Mean(), 2), Fmt(m.tpot_ms.Percentile(50), 2),
                    Fmt(m.tpot_ms.Percentile(99), 2), FmtPct(100.0 - m.AttainmentPct())});
      const std::string system(SystemName(kind));
      json.Add(setup.label, system, "attainment_pct", c + 1, m.AttainmentPct());
      json.Add(setup.label, system, "mean_tpot_ms", c + 1, m.tpot_ms.Mean());
    }
  }
  table.Print(std::cout);
  return FinishBench(args, json);
}

}  // namespace
}  // namespace adaserve

int main(int argc, char** argv) {
  return adaserve::Run(adaserve::ParseBenchArgs(argc, argv));
}
