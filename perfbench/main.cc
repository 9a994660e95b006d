// wsq_perfbench: runs one benchmark workload and prints its metrics.
//
//   wsq_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --scratch <dir>
//
// Lines starting with '#' describe the run; the last line of standard
// output is the JSON result.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "driver.h"

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      config.workload = value;
      have_workload = true;
    } else if (std::strcmp(flag, "--seed") == 0) {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      config.seconds = std::atoi(value);
    } else if (std::strcmp(flag, "--trace") == 0) {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (std::strcmp(flag, "--scratch") == 0) {
      config.scratch_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag);
      return 2;
    }
  }
  if (!have_workload || config.seconds < 1 || config.scratch_dir.empty()) {
    std::string names;
    for (const std::string& n : perfbench::WorkloadNames()) names += " " + n;
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --scratch <dir>\nworkloads:%s\n",
                 argv[0], names.c_str());
    return 2;
  }
  std::filesystem::create_directories(config.scratch_dir);
  perfbench::RunOutcome outcome = perfbench::RunWorkload(config);
  std::filesystem::remove_all(config.scratch_dir);
  for (const std::string& note : outcome.notes) {
    std::printf("# %s\n", note.c_str());
  }
  for (std::string problem : outcome.problems) {
    std::fprintf(stderr, "PROBLEM: %s\n", problem.c_str());
    std::replace(problem.begin(), problem.end(), '\n', ' ');
    std::printf("# PROBLEM: %s\n", problem.c_str());
  }
  std::printf("%s\n", perfbench::ResultJson(outcome).c_str());
  return 0;
}
