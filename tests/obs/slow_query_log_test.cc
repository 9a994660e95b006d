// Slow-query log: threshold semantics (database default, per-query
// override, disabled), sink capture, counters, and the injectable
// clock that keeps the tests deterministic. Also pins the one
// QueryStats renderer the slow-query line, the postmortem header and
// the EXPLAIN ANALYZE footer share.

#include <gtest/gtest.h>

#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/query_stats.h"
#include "obs/slow_query_log.h"

namespace wsq {
namespace {

SlowQueryRecord MakeRecord(int64_t elapsed_micros) {
  SlowQueryRecord r;
  r.stats.query_id = 42;
  r.sql = "SELECT Name, Count FROM States, WebCount WHERE Name = T1";
  r.stats.elapsed_micros = elapsed_micros;
  r.rows = 5;
  r.stats.external_calls = 50;
  r.stats.async_iteration = true;
  return r;
}

TEST(SlowQueryLogTest, LogsAtOrAboveThresholdOnly) {
  std::vector<SlowQueryRecord> seen;
  SlowQueryLog log(/*threshold_micros=*/1000,
                   [&seen](const SlowQueryRecord& r) { seen.push_back(r); });
  EXPECT_TRUE(log.enabled());

  EXPECT_FALSE(log.MaybeLog(MakeRecord(999)));
  EXPECT_TRUE(log.MaybeLog(MakeRecord(1000)));  // inclusive threshold
  EXPECT_TRUE(log.MaybeLog(MakeRecord(5000)));
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(log.logged_total(), 2u);
  // The effective threshold is stamped into the emitted record.
  EXPECT_EQ(seen[0].threshold_micros, 1000);
  EXPECT_EQ(seen[0].stats.elapsed_micros, 1000);
}

TEST(SlowQueryLogTest, DisabledByDefaultAndByZeroOverride) {
  std::vector<SlowQueryRecord> seen;
  SlowQueryLog off(/*threshold_micros=*/0,
                   [&seen](const SlowQueryRecord& r) { seen.push_back(r); });
  EXPECT_FALSE(off.enabled());
  EXPECT_FALSE(off.MaybeLog(MakeRecord(1'000'000)));

  SlowQueryLog on(/*threshold_micros=*/100,
                  [&seen](const SlowQueryRecord& r) { seen.push_back(r); });
  // Per-query override 0 disables even though the default would fire.
  EXPECT_FALSE(on.MaybeLog(MakeRecord(1'000'000), /*threshold_override=*/0));
  EXPECT_TRUE(seen.empty());
}

TEST(SlowQueryLogTest, PerQueryOverrideReplacesDefault) {
  std::vector<SlowQueryRecord> seen;
  SlowQueryLog log(/*threshold_micros=*/1'000'000,
                   [&seen](const SlowQueryRecord& r) { seen.push_back(r); });
  // Tighter override catches what the default would let pass...
  EXPECT_TRUE(log.MaybeLog(MakeRecord(600), /*threshold_override=*/500));
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].threshold_micros, 500);
  // ...and a disabled default stays authoritative with override < 0.
  EXPECT_FALSE(log.MaybeLog(MakeRecord(600), /*threshold_override=*/-1));
}

TEST(SlowQueryLogTest, FakeClockDrivesNowMicros) {
  int64_t now = 10'000;
  SlowQueryLog log(/*threshold_micros=*/100, /*sink=*/nullptr,
                   /*clock=*/[&now] { return now; });
  int64_t start = log.NowMicros();
  now += 750;  // the "query" runs for 750 fake microseconds
  int64_t elapsed = log.NowMicros() - start;
  EXPECT_EQ(elapsed, 750);

  std::vector<SlowQueryRecord> seen;
  SlowQueryLog capture(/*threshold_micros=*/100,
                       [&seen](const SlowQueryRecord& r) {
                         seen.push_back(r);
                       },
                       [&now] { return now; });
  EXPECT_TRUE(capture.MaybeLog(MakeRecord(elapsed)));
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].stats.elapsed_micros, 750);
}

TEST(SlowQueryLogTest, ToLineRendersKeyValuePairsWithSqlLast) {
  SlowQueryRecord r = MakeRecord(1'234'567);
  r.threshold_micros = 1'000'000;
  r.stats.failed_calls = 2;
  r.stats.dropped_tuples = 1;
  r.stats.shed_tuples = 2;
  std::string line = r.ToLine();
  EXPECT_NE(line.find("slow_query"), std::string::npos) << line;
  EXPECT_NE(line.find("id=42"), std::string::npos) << line;
  EXPECT_NE(line.find("mode=async"), std::string::npos) << line;
  EXPECT_NE(line.find("rows=5"), std::string::npos) << line;
  EXPECT_NE(line.find("external_calls=50"), std::string::npos) << line;
  EXPECT_NE(line.find("failed_calls=2"), std::string::npos) << line;
  EXPECT_NE(line.find("degraded_tuples=3"), std::string::npos) << line;
  // sql is the last field (the only one that may contain spaces).
  size_t sql_pos = line.find("sql=\"");
  ASSERT_NE(sql_pos, std::string::npos) << line;
  EXPECT_GT(sql_pos, line.find("rows=")) << line;

  // Newlines in the statement are flattened to keep the record on one
  // line.
  SlowQueryRecord multi = MakeRecord(10);
  multi.sql = "SELECT *\nFROM t";
  EXPECT_EQ(multi.ToLine().find('\n'), std::string::npos);

  // Failed queries carry the error.
  SlowQueryRecord failed = MakeRecord(10);
  failed.ok = false;
  failed.error = "DEADLINE_EXCEEDED";
  EXPECT_NE(failed.ToLine().find("DEADLINE_EXCEEDED"),
            std::string::npos);
}

TEST(SlowQueryLogTest, ToLineCarriesDegradationAndMemoryFields) {
  SlowQueryRecord r = MakeRecord(1'000);
  r.stats.partial_results = 2;
  r.stats.degraded_shards = 3;
  r.stats.spilled_bytes = 4096;
  r.stats.spill_runs = 2;
  r.stats.peak_memory_bytes = 1 << 20;
  std::string line = r.ToLine();
  EXPECT_NE(line.find("partial_results=2"), std::string::npos) << line;
  EXPECT_NE(line.find("degraded_shards=3"), std::string::npos) << line;
  EXPECT_NE(line.find("spill_runs=2"), std::string::npos) << line;
  EXPECT_NE(line.find("spilled_bytes=4096"), std::string::npos) << line;
  EXPECT_NE(line.find("peak_memory_bytes=1048576"), std::string::npos)
      << line;
  // All structured fields still precede the free-form sql.
  EXPECT_LT(line.find("peak_memory_bytes="), line.find("sql=\"")) << line;

  // A clean query omits every degradation field (lines stay short).
  std::string clean = MakeRecord(1'000).ToLine();
  EXPECT_EQ(clean.find("partial_results="), std::string::npos) << clean;
  EXPECT_EQ(clean.find("spill_runs="), std::string::npos) << clean;
  EXPECT_EQ(clean.find("peak_memory_bytes="), std::string::npos) << clean;
}

TEST(SlowQueryLogTest, EveryTokenBeforeSqlIsKeyValue) {
  SlowQueryRecord r = MakeRecord(1'234'567);  // renders "1.23s"
  r.threshold_micros = 1'000'000;
  r.ok = false;
  r.error = "DEADLINE_EXCEEDED";
  r.stats.failed_calls = 1;
  r.stats.partial_results = 1;
  r.stats.degraded_shards = 2;
  std::string line = r.ToLine();
  size_t sql_pos = line.find(" sql=\"");
  ASSERT_NE(sql_pos, std::string::npos) << line;

  std::istringstream tokens(line.substr(0, sql_pos));
  std::string token;
  ASSERT_TRUE(tokens >> token);
  EXPECT_EQ(token, "slow_query");  // the record tag, then key=value only
  const std::regex key_value("[a-z_]+=[^=\\s]+");
  int pairs = 0;
  while (tokens >> token) {
    EXPECT_TRUE(std::regex_match(token, key_value))
        << "'" << token << "' in " << line;
    ++pairs;
  }
  EXPECT_GE(pairs, 8) << line;
  EXPECT_NE(line.find(" elapsed=1.23s "), std::string::npos) << line;
  EXPECT_NE(line.find(" threshold=1.00s "), std::string::npos) << line;
}

TEST(SlowQueryLogTest, OneRendererForAllThreeQueryRecords) {
  QueryStats stats;
  stats.query_id = 9;
  stats.elapsed_micros = 2'500;
  stats.external_calls = 50;
  stats.async_iteration = true;
  stats.failed_calls = 4;
  stats.dropped_tuples = 1;
  stats.null_padded_tuples = 2;
  stats.cancelled_calls = 3;
  stats.shed_tuples = 3;
  stats.peak_buffered_rows = 7;
  stats.peak_buffered_bytes = 700;
  stats.partial_results = 5;
  stats.degraded_shards = 6;
  stats.spilled_bytes = 8192;
  stats.spill_runs = 2;
  stats.peak_memory_bytes = 65536;
  stats.pressure_released_bytes = 1024;
  EXPECT_EQ(stats.degraded_tuples(), 6u);

  const std::string rendered = stats.ToKeyValues();
  for (const char* expected :
       {"elapsed=2.5ms", "mode=async", "external_calls=50", "failed_calls=4",
        "degraded_tuples=6", "partial_results=5 degraded_shards=6",
        "spill_runs=2 spilled_bytes=8192", "peak_memory_bytes=65536"}) {
    EXPECT_NE(rendered.find(expected), std::string::npos)
        << expected << " in " << rendered;
  }

  SlowQueryRecord slow;
  slow.stats = stats;
  slow.sql = "SELECT 1";
  PostmortemRecord pm;
  pm.stats = stats;
  pm.sql = "SELECT 1";
  pm.verdict = "OK";

  EXPECT_NE(slow.ToLine().find(rendered), std::string::npos)
      << slow.ToLine();
  EXPECT_NE(pm.ToText().find(rendered), std::string::npos) << pm.ToText();
  EXPECT_EQ(ExplainAnalyzeFooter(12, stats), "-- rows=12 " + rendered);
}

}  // namespace
}  // namespace wsq
