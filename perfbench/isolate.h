// Runs a piece of the benchmark in a forked child process, so that a
// library CHECK failure (which aborts) ends only that child: the parent
// records the failure and the other cells still report.
#ifndef PERFBENCH_ISOLATE_H_
#define PERFBENCH_ISOLATE_H_

#include <functional>
#include <string>

namespace perfbench {

struct IsolatedResult {
  // The child returned normally and its whole report arrived.
  bool ok = false;
  // Why the child failed: its last CHECK line, a signal, or a timeout.
  std::string failure;
  // What the child wrote, in order; a failed child's report ends where it
  // died.
  std::string report;
  // Peak resident memory of the child, KiB.
  long max_rss_kib = 0;
};

// Sends part of the child's report to the parent at once.
using ReportWriter = std::function<void(const std::string&)>;

// Calls `body` in a child process and returns its result. The child is
// killed after `timeout_s` seconds; either way it has ended when this
// returns.
IsolatedResult RunIsolated(const std::function<void(const ReportWriter&)>& body,
                           double timeout_s);

}  // namespace perfbench

#endif  // PERFBENCH_ISOLATE_H_
