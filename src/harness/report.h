// Machine-readable experiment output: CSV writers for per-request records
// and the per-tick breakdown, so runs can be post-processed/plotted outside
// the binaries.
#ifndef ADASERVE_SRC_HARNESS_REPORT_H_
#define ADASERVE_SRC_HARNESS_REPORT_H_

#include <ostream>
#include <span>

#include "src/serve/engine.h"

namespace adaserve {

// One row per finished request: ids, category, lengths, timestamps, TPOT,
// attainment, speculation counters.
void WriteRequestCsv(std::ostream& os, std::span<const Request> requests);

// One row per tick of an IterationLog: duration + breakdown.
void WriteIterationCsv(std::ostream& os, std::span<const IterationRecord> iterations);

}  // namespace adaserve

#endif  // ADASERVE_SRC_HARNESS_REPORT_H_
