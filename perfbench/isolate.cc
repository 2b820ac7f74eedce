#include "perfbench/isolate.h"

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string_view>

namespace perfbench {
namespace {

// Marks the end of a complete report: a child that dies mid-write leaves
// a report without it.
constexpr std::string_view kTrailer = "\nperfbench-report-end\n";

bool WriteAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = write(fd, data.data(), data.size());
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    data.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

[[noreturn]] void ChildMain(const std::function<void(const ReportWriter&)>& body, int report_fd,
                            int err_fd) {
  dup2(err_fd, STDERR_FILENO);
  close(err_fd);
  bool written = true;
  body([&](const std::string& part) { written = WriteAll(report_fd, part) && written; });
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const std::string tail =
      "\nmax_rss_kib " + std::to_string(usage.ru_maxrss) + std::string(kTrailer);
  written = WriteAll(report_fd, tail) && written;
  close(report_fd);
  _exit(written ? 0 : 3);
}

// The CHECK line of a child's stderr, or its last line.
std::string FailureLine(const std::string& err) {
  const size_t check = err.rfind("[CHECK ");
  std::string line = check != std::string::npos ? err.substr(check) : err;
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.pop_back();
  }
  if (check == std::string::npos) {
    const size_t nl = line.rfind('\n');
    if (nl != std::string::npos) {
      line = line.substr(nl + 1);
    }
  }
  return line;
}

}  // namespace

IsolatedResult RunIsolated(const std::function<void(const ReportWriter&)>& body,
                           double timeout_s) {
  IsolatedResult result;
  int report_pipe[2];
  int err_pipe[2];
  if (pipe(report_pipe) != 0 || pipe(err_pipe) != 0) {
    result.failure = std::string("pipe: ") + std::strerror(errno);
    return result;
  }
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    result.failure = std::string("fork: ") + std::strerror(errno);
    return result;
  }
  if (pid == 0) {
    // Die with the parent, so no cell outlives a killed benchmark.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() == 1) {
      _exit(4);
    }
    close(report_pipe[0]);
    close(err_pipe[0]);
    ChildMain(body, report_pipe[1], err_pipe[1]);
  }
  close(report_pipe[1]);
  close(err_pipe[1]);

  // Drain both pipes together so neither can fill up and stall the child.
  std::string report;
  std::string err;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::duration<double>(timeout_s);
  pollfd fds[2] = {{report_pipe[0], POLLIN, 0}, {err_pipe[0], POLLIN, 0}};
  std::string* sinks[2] = {&report, &err};
  int open_fds = 2;
  bool timed_out = false;
  char buf[1 << 16];
  while (open_fds > 0) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) {
      timed_out = true;
      break;
    }
    const int ready = poll(fds, 2, static_cast<int>(left.count()));
    if (ready < 0 && errno != EINTR) {
      break;
    }
    for (int i = 0; i < 2; ++i) {
      if (fds[i].fd < 0 || (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      const ssize_t n = read(fds[i].fd, buf, sizeof buf);
      if (n > 0) {
        sinks[i]->append(buf, static_cast<size_t>(n));
      } else if (n == 0 || errno != EINTR) {
        close(fds[i].fd);
        fds[i].fd = -1;
        --open_fds;
      }
    }
  }
  if (timed_out) {
    kill(pid, SIGKILL);
  }
  for (const pollfd& fd : fds) {
    if (fd.fd >= 0) {
      close(fd.fd);
    }
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }

  const bool complete = report.size() >= kTrailer.size() &&
                        report.compare(report.size() - kTrailer.size(), kTrailer.size(),
                                       kTrailer) == 0;
  if (timed_out) {
    result.failure = "timed out after " + std::to_string(timeout_s) + " s";
  } else if (WIFEXITED(status) && WEXITSTATUS(status) == 0 && complete) {
    report.resize(report.size() - kTrailer.size());
    const size_t rss = report.rfind("\nmax_rss_kib ");
    result.max_rss_kib = std::stol(report.substr(rss + 13));
    report.resize(rss);
    result.ok = true;
  } else {
    char how[32] = "";
    if (WIFSIGNALED(status)) {
      std::snprintf(how, sizeof how, "(signal %d)", WTERMSIG(status));
    } else if (WIFEXITED(status)) {
      std::snprintf(how, sizeof how, "(exit %d)", WEXITSTATUS(status));
    }
    const std::string line = FailureLine(err);
    result.failure = line.empty() ? how : line + " " + how;
  }
  result.report = std::move(report);
  return result;
}

}  // namespace perfbench
