// The measurement driver: set-up timing, the closed loop, the sync
// pass, the traced (per-layer) run, the ledger checks, and the result
// line.

#ifndef PERFBENCH_DRIVER_H_
#define PERFBENCH_DRIVER_H_

#include <map>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Directory for database files and spill runs; removed at exit.
  std::string scratch_dir;
  /// Self-test hook: corrupt the expected answers before measuring.
  bool corrupt_expected = false;
};

struct Metric {
  double value = 0;
  std::string unit;
};

struct RunOutcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> notes;
  /// First few problems (wrong answers, ledger failures).
  std::vector<std::string> problems;
};

/// Runs one workload as configured. Never throws; failures land in
/// `correct`/`failed`/`problems`.
RunOutcome RunWorkload(const RunConfig& config);

/// The result line: one JSON object with correct, attempted, failed
/// and metrics.
std::string ResultJson(const RunOutcome& outcome);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_H_
