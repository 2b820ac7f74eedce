// External trace replay: drive the engine from recorded arrival traces
// (Azure-LLM-inference style CSV) instead of synthetic generators.
//
// Format — one request per line, comma-separated:
//
//   timestamp,prompt_tokens,output_tokens,category[,tpot_slo]
//
//   - timestamp: arrival time in seconds (nondecreasing down the file)
//   - prompt_tokens / output_tokens: positive token counts (output is
//     clamped to >= 2 so the TPOT denominator stays well defined)
//   - category: index into the workload's category table (Table 2)
//   - tpot_slo: optional per-request SLO override in seconds; omitted or
//     empty falls back to the category's SLO
//
// An optional header line (no numeric cell), blank lines, and
// '#'-comment lines are skipped. Parsing is a strict validation pass up
// front — any malformed line fails the whole load with a line-numbered
// error — and emission through the ArrivalStream contract is lazy, so
// the stream composes with sweep cells, the streaming engine, and the
// cluster router pre-pass like every generator-backed stream.
#ifndef ADASERVE_SRC_WORKLOAD_TRACE_FILE_H_
#define ADASERVE_SRC_WORKLOAD_TRACE_FILE_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/workload/arrival_stream.h"
#include "src/workload/categories.h"

namespace adaserve {

// One validated trace row; requests are built from these on demand.
struct TraceFileRow {
  double timestamp = 0.0;
  int prompt_tokens = 0;
  int output_tokens = 0;
  int category = 0;
  // Negative: use the category default.
  double tpot_slo = -1.0;
};

class TraceFileArrivalStream final : public ArrivalStream {
 public:
  // Parses CSV text. Returns nullptr and sets *error (line-numbered) on
  // any malformed, out-of-order, or out-of-range row, or when the trace
  // holds no data rows.
  static std::unique_ptr<TraceFileArrivalStream> FromString(
      const std::vector<CategorySpec>& categories, const std::string& csv, std::string* error);

  // As FromString, reading `path` from disk.
  static std::unique_ptr<TraceFileArrivalStream> Open(const std::vector<CategorySpec>& categories,
                                                      const std::string& path, std::string* error);

  bool Exhausted() override { return next_ >= rows_.size(); }
  const Request* Peek() override;
  Request Next() override;
  size_t emitted() const override { return next_; }

  size_t size() const { return rows_.size(); }

 private:
  TraceFileArrivalStream(std::vector<CategorySpec> categories, std::vector<TraceFileRow> rows)
      : categories_(std::move(categories)), rows_(std::move(rows)) {}

  Request BuildRequest(size_t index) const;

  std::vector<CategorySpec> categories_;
  std::vector<TraceFileRow> rows_;
  size_t next_ = 0;
  Request peeked_;
};

// Serializes requests to the trace CSV format (header + one row per
// request, %.17g timestamps so a round trip is exact). The per-request
// tpot_slo column is always written.
std::string TraceCsvFromRequests(std::span<const Request> requests);

// Writes TraceCsvFromRequests(requests) to `path`; false + *error on I/O
// failure.
bool WriteTraceCsv(const std::string& path, std::span<const Request> requests,
                   std::string* error);

}  // namespace adaserve

#endif  // ADASERVE_SRC_WORKLOAD_TRACE_FILE_H_
