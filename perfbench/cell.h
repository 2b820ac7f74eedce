// The benchmark's workloads and the in-process run of one cell.
//
// A workload is a list of cells; a cell is one serving system over the
// workload's seeded trace. RunCell sets the cell up (the timed set-up
// phase), serves it (the timed serving phase) and reports the simulated
// outcome, which is deterministic for a fixed seed, beside its host times.
#ifndef PERFBENCH_CELL_H_
#define PERFBENCH_CELL_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/workload/categories.h"

namespace perfbench {

inline constexpr int kNumCategories = adaserve::kNumCategories;

// Requests of one trace per category.
using CategoryCounts = std::array<long, kNumCategories>;

// The simulated result of one cell. Every field is a pure function of the
// workload, the cell and the seed; Serialize() is the byte-exact form the
// benchmark compares between runs.
struct CellOutcome {
  // How the engine disposed of the requests it pulled from the trace.
  long finished = 0;
  long rejected = 0;
  long unfinished = 0;
  // Requests the engine pulled from the trace.
  long pulled = 0;
  CategoryCounts finished_by_cat{};
  CategoryCounts attained_by_cat{};
  long output_tokens = 0;
  // SLO-attaining output tokens per simulated second over the makespan.
  double goodput_tok_s = 0.0;
  // Arrival to first token and per-request average TPOT, simulated ms, of
  // every finished request.
  std::vector<double> ttft_ms;
  std::vector<double> tpot_ms;
  // Engine work counters.
  long ticks = 0;
  long decode_requests = 0;
  long admissions = 0;
  long evictions = 0;
  long pauses = 0;
  long degraded = 0;
  long peak_resident = 0;
  // Cluster only: the largest replica's share of routed requests.
  double routed_share_max = 0.0;

  std::string Serialize() const;
  static bool Parse(const std::string& text, CellOutcome* out);
};

// Host seconds of one cell run.
struct CellHostTimes {
  double experiment_build_s = 0.0;
  double trace_build_s = 0.0;
  double partition_s = 0.0;
  double setup_s = 0.0;  // everything before the first tick
  double serve_s = 0.0;  // the serving phase
  double merge_s = 0.0;  // cluster metrics merge, timed on its own
};

struct WorkloadInfo {
  const char* name;
  std::vector<std::string> cells;
};

// The benchmark workload named `name`, or null.
const WorkloadInfo* FindWorkload(const std::string& name);

// Per-category request counts of the cell's trace, computed by generating
// the trace on its own (no serving). The same for every cell of a workload.
CategoryCounts CountTrace(const std::string& workload, uint64_t seed);

// Called once a cell's set-up is done, before its first tick, with the
// set-up fields of its host times filled in.
using SetupDone = std::function<void(const CellHostTimes&)>;

// Sets up and serves one cell in this process. Spans go to the global
// tracer when it is enabled. Aborts the process if the library does.
void RunCell(const std::string& workload, int cell, uint64_t seed, const SetupDone& setup_done,
             CellOutcome* outcome, CellHostTimes* times);

// `v` as exact hex-float text ("%a"), the form every double crosses a
// process boundary in.
std::string HexDouble(double v);

}  // namespace perfbench

#endif  // PERFBENCH_CELL_H_
