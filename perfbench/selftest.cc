// Self-tests for the benchmark's own statistics and gates. run.py runs
// this binary after every build and refuses to measure if it fails.
//
//   perfbench_selftest --scratch <dir>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "driver.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  std::fflush(stdout);
  if (!ok) ++g_failures;
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestTailPercentile() {
  using perfbench::Percentile;
  using perfbench::SamplesBeyond;
  // Nearest rank: p99 of 1000 samples is the 990th, leaving 10 beyond.
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  Expect(Percentile(v, 99) == 990, "p99 of 1..1000 is 990");
  Expect(Percentile(v, 50) == 500, "p50 of 1..1000 is 500");
  Expect(SamplesBeyond(1000, 99) == 10, "1000 samples leave 10 beyond p99");
  Expect(SamplesBeyond(999, 99) == 9, "999 samples leave 9 beyond p99");
  Expect(perfbench::MinSamplesForTail(99) == 1000,
         "p99 needs 1000 samples for ten beyond it");
  Expect(perfbench::MinSamplesForTail(50) == 20,
         "p50 needs 20 samples for ten beyond it");
  Expect(Percentile({1, 2, 3, 4}, 50) == 2, "p50 of 1..4 is 2 (nearest rank)");
}

void TestQuartiles() {
  // Expected values from Python: statistics.quantiles(data, n=4).
  struct Case {
    std::vector<double> data;
    std::vector<double> want;
  };
  const Case cases[] = {
      {{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, {2.75, 5.5, 8.25}},
      {{3.5, 1.25, 9.0, 2.0}, {1.4375, 2.75, 7.625}},
      {{5, 1}, {0.0, 3.0, 6.0}},
      {{0.1, 0.7, 0.3, 0.9, 0.5, 0.2, 0.8}, {0.2, 0.5, 0.8}},
  };
  for (const Case& c : cases) {
    std::vector<double> got = perfbench::Quartiles(c.data);
    bool ok = got.size() == 3;
    for (size_t i = 0; ok && i < 3; ++i) ok = Near(got[i], c.want[i]);
    Expect(ok, "quartiles match statistics.quantiles for " +
                   std::to_string(c.data.size()) + " values");
  }
  Expect(Near(perfbench::Median({4, 1, 3, 2}), 2.5), "median of 4 values");
}

perfbench::RunConfig GateConfig(const std::string& workload, int seconds,
                                const std::string& scratch) {
  perfbench::RunConfig config;
  config.workload = workload;
  config.seed = 7;
  config.seconds = seconds;
  config.scratch_dir = scratch + "/" + workload;
  std::filesystem::create_directories(config.scratch_dir);
  return config;
}

void TestHonestRunPasses(const std::string& workload, int seconds,
                         const std::string& scratch) {
  perfbench::RunConfig config = GateConfig(workload, seconds, scratch);
  perfbench::RunOutcome clean = perfbench::RunWorkload(config);
  Expect(clean.correct && clean.failed == 0 && clean.attempted > 0,
         workload + ": an honest run passes");
  for (const std::string& p : clean.problems) std::printf("  %s\n", p.c_str());
  std::filesystem::remove_all(config.scratch_dir);
}

void TestCorruptedAnswerFails(const std::string& workload,
                              const std::string& scratch) {
  perfbench::RunConfig config = GateConfig(workload, 1, scratch);
  config.corrupt_expected = true;
  perfbench::RunOutcome bad = perfbench::RunWorkload(config);
  bool wrong_answer = false;
  for (const std::string& p : bad.problems) {
    if (p.find("wrong answer") != std::string::npos ||
        p.find("shadow model") != std::string::npos) {
      wrong_answer = true;
    }
  }
  Expect(!bad.correct && bad.failed > 0 && wrong_answer,
         workload + ": a corrupted expected answer fails the run");
  std::string json = perfbench::ResultJson(bad);
  Expect(json.find("\"correct\": false") != std::string::npos,
         workload + ": the result line reports correct=false");
  std::filesystem::remove_all(config.scratch_dir);
}

}  // namespace

int main(int argc, char** argv) {
  std::string scratch;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--scratch") == 0) scratch = argv[i + 1];
  }
  if (scratch.empty()) {
    std::fprintf(stderr, "usage: %s --scratch <dir>\n", argv[0]);
    return 2;
  }
  TestTailPercentile();
  TestQuartiles();
  // Five seconds leave well over the 1000 statements the p99 rule
  // needs.
  TestHonestRunPasses("wsq_local", 5, scratch);
  TestCorruptedAnswerFails("wsq_local", scratch);
  TestCorruptedAnswerFails("stored_scan", scratch);
  TestCorruptedAnswerFails("stored_write", scratch);
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
