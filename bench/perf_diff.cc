// CI perf gate: diffs a bench's BENCH_*.json output against a committed
// rolling baseline and fails on regressions.
//
//   perf_diff <baseline.json> <candidate.json> [--rel_tol 0.05] [--abs_tol 2.0]
//             [--time_rel_tol 1.0] [--time_abs_tol 5.0]
//
// Every baseline row (model, system, metric, x) must exist in the
// candidate, and its value must not be below
//   baseline - max(abs_tol, rel_tol * |baseline|).
// The simulation metrics (goodput_tps, throughput_tps, attainment_pct)
// are higher-is-better by construction. "wall_clock_s" rows — the harness
// wall-clock the parallel sweep engine reports — are lower-is-better and
// gated with their own deliberately loose tolerances (--time_rel_tol /
// --time_abs_tol), because wall clock varies across machines where the
// deterministic metrics do not. Improvements beyond tolerance are
// reported as a hint to refresh the baseline but do not fail the gate.
// A non-finite candidate value (nan, inf) is always a regression; a
// non-finite baseline value is a parse error.
// Exit codes: 0 ok, 1 regression / missing rows, 2 usage or parse error
// (including a malformed tolerance or an unknown flag).
//
// The parser handles exactly the flat document BenchJson emits — an
// object with a "rows" array of one-line objects — so no JSON library is
// needed.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

namespace {

constexpr const char* kUsage =
    "usage: perf_diff <baseline.json> <candidate.json> [--rel_tol 0.05] [--abs_tol 2.0]"
    " [--time_rel_tol 1.0] [--time_abs_tol 5.0]\n";

struct Row {
  std::string model;
  std::string system;
  std::string metric;
  double x = 0.0;
  double value = 0.0;
};

// Extracts the string value of `"key": "..."` within `object`, or "".
std::string StringField(const std::string& object, const std::string& key) {
  const std::string needle = "\"" + key + "\": \"";
  const size_t at = object.find(needle);
  if (at == std::string::npos) {
    return "";
  }
  const size_t start = at + needle.size();
  const size_t end = object.find('"', start);
  return end == std::string::npos ? "" : object.substr(start, end - start);
}

// Extracts the numeric value of `"key": N` within `object`.
bool NumberField(const std::string& object, const std::string& key, double* out) {
  const std::string needle = "\"" + key + "\": ";
  const size_t at = object.find(needle);
  if (at == std::string::npos) {
    return false;
  }
  return std::sscanf(object.c_str() + at + needle.size(), "%lf", out) == 1;
}

bool ParseRows(const std::string& path, std::vector<Row>* rows) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "perf_diff: cannot open " << path << "\n";
    return false;
  }
  std::ostringstream os;
  os << in.rdbuf();
  const std::string text = os.str();
  const size_t rows_at = text.find("\"rows\"");
  if (rows_at == std::string::npos) {
    std::cerr << "perf_diff: no \"rows\" array in " << path << "\n";
    return false;
  }
  // Each row object is brace-delimited and contains no nested braces.
  size_t pos = text.find('{', rows_at);
  while (pos != std::string::npos) {
    const size_t end = text.find('}', pos);
    if (end == std::string::npos) {
      break;
    }
    const std::string object = text.substr(pos, end - pos + 1);
    Row row;
    row.model = StringField(object, "model");
    row.system = StringField(object, "system");
    row.metric = StringField(object, "metric");
    if (!row.metric.empty() && NumberField(object, "x", &row.x) &&
        NumberField(object, "value", &row.value)) {
      rows->push_back(row);
    }
    pos = text.find('{', end);
  }
  return true;
}

// Parses all of `text` as a double with std::from_chars (no trailing
// junk, no locale).
bool ParseWholeDouble(const std::string& text, double* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return !text.empty() && ec == std::errc() && ptr == end;
}

std::string RowKey(const Row& row) {
  char x[32];
  std::snprintf(x, sizeof(x), "%.6f", row.x);
  return row.model + " / " + row.system + " / " + row.metric + " @ x=" + x;
}

const Row* FindMatch(const std::vector<Row>& rows, const Row& want) {
  for (const Row& row : rows) {
    if (row.model == want.model && row.system == want.system && row.metric == want.metric &&
        std::fabs(row.x - want.x) < 1e-9) {
      return &row;
    }
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  double rel_tol = 0.05;
  double abs_tol = 2.0;
  double time_rel_tol = 1.0;
  double time_abs_tol = 5.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    double* tol = arg == "--rel_tol"        ? &rel_tol
                  : arg == "--abs_tol"      ? &abs_tol
                  : arg == "--time_rel_tol" ? &time_rel_tol
                  : arg == "--time_abs_tol" ? &time_abs_tol
                                            : nullptr;
    if (tol != nullptr) {
      const std::string value = i + 1 < argc ? argv[++i] : "";
      if (!ParseWholeDouble(value, tol) || !std::isfinite(*tol) || *tol < 0.0) {
        std::cerr << "perf_diff: invalid " << arg << ": '" << value << "'\n" << kUsage;
        return 2;
      }
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "perf_diff: unknown flag " << arg << "\n" << kUsage;
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.size() != 2) {
    std::cerr << kUsage;
    return 2;
  }
  std::vector<Row> baseline;
  std::vector<Row> candidate;
  if (!ParseRows(paths[0], &baseline) || !ParseRows(paths[1], &candidate)) {
    return 2;
  }
  if (baseline.empty()) {
    std::cerr << "perf_diff: baseline " << paths[0] << " has no rows\n";
    return 2;
  }
  for (const Row& base : baseline) {
    if (!std::isfinite(base.value)) {
      std::cerr << "perf_diff: baseline " << paths[0] << " has non-finite value "
                << base.value << " at " << RowKey(base) << "\n";
      return 2;
    }
  }

  int regressions = 0;
  int improvements = 0;
  for (const Row& base : baseline) {
    const Row* cand = FindMatch(candidate, base);
    if (cand == nullptr) {
      std::cout << "MISSING    " << RowKey(base) << " (present in baseline only)\n";
      ++regressions;
      continue;
    }
    // NaN compares false against any slack, so it must be caught up front.
    if (!std::isfinite(cand->value)) {
      std::printf("REGRESSION %s: %.3f -> %f (non-finite candidate value)\n",
                  RowKey(base).c_str(), base.value, cand->value);
      ++regressions;
      continue;
    }
    // Wall-clock rows are lower-is-better and noisy, so they flip the
    // sign AND use the loose time tolerances. recovery_s (flash-crowd
    // recovery time to SLO) is lower-is-better too, but deterministic —
    // flipped sign, strict tolerances.
    const bool is_time = base.metric == "wall_clock_s";
    const bool lower_is_better = is_time || base.metric == "recovery_s";
    const double slack = is_time
                             ? std::max(time_abs_tol, time_rel_tol * std::fabs(base.value))
                             : std::max(abs_tol, rel_tol * std::fabs(base.value));
    const double delta = (cand->value - base.value) * (lower_is_better ? -1.0 : 1.0);
    if (delta < -slack) {
      std::printf("REGRESSION %s: %.3f -> %.3f (%.3f %s tolerance %.3f)\n",
                  RowKey(base).c_str(), base.value, cand->value, -delta,
                  is_time ? "slower than" : (lower_is_better ? "worse than" : "below"), slack);
      ++regressions;
    } else if (delta > slack) {
      ++improvements;
    }
  }
  std::printf("perf_diff: %zu rows, %d regressions, %d improvements beyond tolerance"
              " (rel_tol %.3f, abs_tol %.3f, time_rel_tol %.3f, time_abs_tol %.3f)\n",
              baseline.size(), regressions, improvements, rel_tol, abs_tol, time_rel_tol,
              time_abs_tol);
  if (improvements > 0 && regressions == 0) {
    std::cout << "note: consistent improvements — consider refreshing bench/baselines/ "
                 "(run the bench with --smoke --threads 4 --json and commit the output)\n";
  }
  return regressions > 0 ? 1 : 0;
}
