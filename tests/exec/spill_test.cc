#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/memory.h"
#include "common/random.h"
#include "exec/executor.h"
#include "parser/parser.h"
#include "plan/binder.h"
#include "storage/disk_manager.h"
#include "storage/spill.h"

namespace wsq {
namespace {

// Mutating calls seen by every device of one CountingSpillManager.
// AllocatePage is an AppendPage of zeroes, so it counts as an append.
struct DiskCallCounts {
  std::atomic<uint64_t> appends{0};
  std::atomic<uint64_t> writes{0};
  std::atomic<uint64_t> pages{0};  // pages the devices held at teardown
};

class CountingDiskManager : public InMemoryDiskManager {
 public:
  explicit CountingDiskManager(DiskCallCounts* counts) : counts_(counts) {}
  ~CountingDiskManager() override { counts_->pages += NumPages(); }

  Status WritePage(PageId page_id, const char* data) override {
    ++counts_->writes;
    return InMemoryDiskManager::WritePage(page_id, data);
  }
  Result<PageId> AppendPage(const char* data) override {
    ++counts_->appends;
    return InMemoryDiskManager::AppendPage(data);
  }

 private:
  DiskCallCounts* counts_;
};

class CountingSpillManager : public SpillManager {
 public:
  explicit CountingSpillManager(DiskCallCounts* counts) : counts_(counts) {}

 protected:
  Result<Device> NewDevice() override {
    Device d;
    d.disk = std::make_unique<CountingDiskManager>(counts_);
    return d;
  }

 private:
  DiskCallCounts* counts_;
};

// Sort/Aggregate/Distinct under a budget too small for their build
// state: every query must degrade to the external (spilling) algorithm
// and still return byte-identical rows, with the ledger balancing to
// zero and no spill file left behind.
class SpillTest : public ::testing::Test {
 protected:
  static constexpr size_t kRows = 3000;

  SpillTest() : pool_(64, &disk_), catalog_(&pool_) {
    TableInfo* t = *catalog_.CreateTable(
        "T", Schema({Column("K", TypeId::kString),
                     Column("G", TypeId::kInt64),
                     Column("V", TypeId::kInt64),
                     Column("W", TypeId::kDouble)}));
    Rng rng(7);
    for (size_t i = 0; i < kRows; ++i) {
      // Skewed group ids and colliding sort keys so ties exercise the
      // stability guarantee through the merge.
      int64_t g = static_cast<int64_t>(rng.Uniform(37));
      std::string k = "key-" + std::to_string(rng.Uniform(city_count_));
      EXPECT_TRUE(
          t->Insert(Row({Value::Str(k), Value::Int(g),
                         Value::Int(static_cast<int64_t>(i)),
                         Value::Real(static_cast<double>(g) * 0.5)}))
              .ok());
    }
  }

  struct RunResult {
    ResultSet result;
    uint64_t spilled_bytes = 0;
    uint64_t spill_runs = 0;
  };

  /// Runs `sql` under `budget_bytes` (0 = ungoverned), spilling to
  /// `spill` (a default SpillManager when null). Asserts the ledger is
  /// balanced and every spill file is gone afterwards.
  RunResult Run(const std::string& sql, size_t budget_bytes,
                SpillManager* spill = nullptr) {
    auto stmt = Parser::ParseSelect(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    Binder binder(&catalog_, &vtables_);
    auto plan = binder.Bind(**stmt);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString() << "\n" << sql;

    MemoryBudget budget("test-query", budget_bytes);
    SpillManager default_spill;
    if (spill == nullptr) spill = &default_spill;
    ExecContext ctx;
    ctx.memory = &budget;
    ctx.spill = spill;
    auto result = ExecutePlan(**plan, &ctx);
    EXPECT_TRUE(result.ok()) << result.status().ToString() << "\n" << sql;

    EXPECT_EQ(budget.used(), 0u) << "leaked reservation: " << sql;
    EXPECT_EQ(spill->active_files(), 0u) << "leaked spill file: " << sql;

    RunResult out;
    if (result.ok()) out.result = std::move(result).value();
    out.spilled_bytes = ctx.stats.spilled_bytes;
    out.spill_runs = ctx.stats.spill_runs;
    return out;
  }

  /// The governed run must spill into at least `min_runs` runs AND
  /// match the ungoverned rows exactly.
  void ExpectSpilledIdentical(const std::string& sql, size_t budget_bytes,
                              uint64_t min_runs = 1) {
    RunResult reference = Run(sql, 0);
    EXPECT_EQ(reference.spilled_bytes, 0u);
    RunResult governed = Run(sql, budget_bytes);
    EXPECT_GT(governed.spilled_bytes, 0u) << "did not spill: " << sql;
    EXPECT_GE(governed.spill_runs, min_runs);
    ASSERT_EQ(governed.result.rows.size(), reference.result.rows.size())
        << sql;
    for (size_t i = 0; i < reference.result.rows.size(); ++i) {
      EXPECT_EQ(governed.result.rows[i], reference.result.rows[i])
          << sql << " row " << i;
    }
  }

  size_t city_count_ = 211;
  InMemoryDiskManager disk_;
  BufferPool pool_;
  Catalog catalog_;
  VirtualTableRegistry vtables_;
};

// --- Sort against an oracle outside the operator: std::stable_sort by
// Value::Compare, over keys with NULLs, int/double ties (5 vs 5.0),
// -0.0, embedded NULs, bytes >= 0x80 and mixed signs.

/// Exact equality: same type and same value (Row's operator== holds
/// 5 == 5.0, which would hide a reordered int/double tie).
bool SameRow(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a.value(i).type() != b.value(i).type()) return false;
    if (a.value(i).Compare(b.value(i)) != 0) return false;
  }
  return true;
}

class SortOracleTest : public SpillTest {
 protected:
  static constexpr size_t kMixedRows = 2000;

  struct OracleKey {
    std::function<Value(const Row&)> key;
    bool descending;
  };

  SortOracleTest() {
    TableInfo* m = *catalog_.CreateTable(
        "M", Schema({Column("S", TypeId::kString),
                     Column("X", TypeId::kDouble),
                     Column("N", TypeId::kInt64)}));
    const std::vector<Value> strings = {
        Value::Null(), Value::Str(""), Value::Str("a"),
        Value::Str(std::string("a\0", 2)), Value::Str(std::string("a\0b", 3)),
        Value::Str(std::string("\0", 1)), Value::Str("ab"), Value::Str("b"),
        Value::Str("\x80"), Value::Str("a\xff"), Value::Str("\xff\x01")};
    const std::vector<Value> numbers = {
        Value::Null(), Value::Int(5), Value::Real(5.0), Value::Int(-5),
        Value::Real(-5.0), Value::Int(0), Value::Real(-0.0),
        Value::Real(0.5), Value::Real(-0.5),
        Value::Int(std::numeric_limits<int64_t>::min()),
        Value::Int(std::numeric_limits<int64_t>::max()),
        Value::Real(-std::numeric_limits<double>::infinity())};
    Rng rng(15);
    for (size_t i = 0; i < kMixedRows; ++i) {
      Value x = numbers[rng.Uniform(numbers.size())];
      if (rng.Bernoulli(0.3)) {
        int64_t v = static_cast<int64_t>(rng.Uniform(21)) - 10;
        x = rng.Bernoulli(0.5) ? Value::Int(v)
                               : Value::Real(static_cast<double>(v));
      }
      EXPECT_TRUE(m->Insert(Row({strings[rng.Uniform(strings.size())], x,
                                 Value::Int(static_cast<int64_t>(i))}))
                      .ok());
    }
  }

  /// `order_by` over M must equal the stable sort of M's rows by
  /// `keys`, both in memory and spilled into several runs.
  void ExpectMatchesOracle(const std::string& order_by,
                           const std::vector<OracleKey>& keys) {
    const std::string select = "SELECT S, X, N FROM M";
    std::vector<Row> expected = Run(select, 0).result.rows;
    ASSERT_EQ(expected.size(), kMixedRows);
    std::stable_sort(expected.begin(), expected.end(),
                     [&](const Row& a, const Row& b) {
                       for (const OracleKey& k : keys) {
                         int c = k.key(a).Compare(k.key(b));
                         if (c != 0) return k.descending ? c > 0 : c < 0;
                       }
                       return false;
                     });
    const std::string sql = select + " ORDER BY " + order_by;
    RunResult in_memory = Run(sql, 0);
    EXPECT_EQ(in_memory.spill_runs, 0u);
    RunResult spilled = Run(sql, 8 * 1024);
    EXPECT_GE(spilled.spill_runs, 4u) << sql;
    for (const RunResult* r : {&in_memory, &spilled}) {
      ASSERT_EQ(r->result.rows.size(), expected.size()) << sql;
      for (size_t i = 0; i < expected.size(); ++i) {
        ASSERT_TRUE(SameRow(r->result.rows[i], expected[i]))
            << sql << " runs=" << r->spill_runs << " row " << i << ": "
            << r->result.rows[i].ToString() << " vs "
            << expected[i].ToString();
      }
    }
  }
};

TEST_F(SortOracleTest, MixedNumericKeyBothDirections) {
  auto x = [](const Row& r) { return r.value(1); };
  ExpectMatchesOracle("X", {{x, false}});
  ExpectMatchesOracle("X DESC", {{x, true}});
}

TEST_F(SortOracleTest, StringKeyWithNulsAndHighBytesBothDirections) {
  auto str = [](const Row& r) { return r.value(0); };
  ExpectMatchesOracle("S", {{str, false}});
  ExpectMatchesOracle("S DESC", {{str, true}});
}

TEST_F(SortOracleTest, MultiKeyMixedDirections) {
  auto str = [](const Row& r) { return r.value(0); };
  auto x = [](const Row& r) { return r.value(1); };
  ExpectMatchesOracle("S, X DESC", {{str, false}, {x, true}});
  ExpectMatchesOracle("X DESC, S", {{x, true}, {str, false}});
  ExpectMatchesOracle("S DESC, X", {{str, true}, {x, false}});
}

TEST_F(SortOracleTest, ComputedKeyBeforeColumnKey) {
  // N % 7 goes through Eval; X is read from the row in place.
  auto mod7 = [](const Row& r) { return Value::Int(r.value(2).AsInt() % 7); };
  auto x = [](const Row& r) { return r.value(1); };
  ExpectMatchesOracle("N % 7 DESC, X", {{mod7, true}, {x, false}});
}

TEST_F(SpillTest, ExternalSortMatchesInMemorySort) {
  ExpectSpilledIdentical("SELECT K, V FROM T ORDER BY K", 32 * 1024);
}

TEST_F(SpillTest, ExternalSortDescendingWithTies) {
  // Heavy key collisions: stability across spilled runs is the
  // byte-identical part that a naive merge gets wrong.
  ExpectSpilledIdentical("SELECT G, V FROM T ORDER BY G DESC",
                         32 * 1024);
}

TEST_F(SpillTest, ExternalSortMultiKey) {
  ExpectSpilledIdentical("SELECT K, G, V FROM T ORDER BY G, K DESC, V",
                         32 * 1024);
}

TEST_F(SpillTest, ExternalAggregateMatchesInMemory) {
  ExpectSpilledIdentical(
      "SELECT K, COUNT(*), SUM(V), MIN(V), MAX(V), AVG(W) FROM T "
      "GROUP BY K ORDER BY K",
      16 * 1024);
}

TEST_F(SpillTest, ExternalAggregateManyGroups) {
  // Group-per-row: the accumulator map itself is the working set.
  ExpectSpilledIdentical(
      "SELECT V, COUNT(*) FROM T GROUP BY V ORDER BY V", 32 * 1024);
}

TEST_F(SpillTest, TinyBudgetManyRuns) {
  RunResult r = Run("SELECT K, V FROM T ORDER BY K, V", 4 * 1024);
  EXPECT_EQ(r.result.rows.size(), kRows);
  EXPECT_GT(r.spill_runs, 4u);
}

TEST_F(SpillTest, ManyRunMergeKeepsStableTieOrder) {
  // 37 distinct keys over 3000 rows: nearly every output row ties with
  // rows in other runs, so the merge's tie rule (lowest run first)
  // decides the V order that the in-memory stable sort produces.
  ExpectSpilledIdentical("SELECT G, V, K FROM T ORDER BY G DESC",
                         4 * 1024, /*min_runs=*/40);
}

TEST_F(SpillTest, ManyRunAggregateMatchesInMemory) {
  // 211 groups spread over many runs: a group's partial accumulators
  // sit in several runs and must fold to the in-memory result.
  ExpectSpilledIdentical(
      "SELECT K, COUNT(*), SUM(V), MIN(V), MAX(G) FROM T GROUP BY K",
      2 * 1024, /*min_runs=*/40);
}

TEST_F(SpillTest, EverySpillPageIsWrittenOnce) {
  DiskCallCounts counts;
  CountingSpillManager spill(&counts);
  RunResult r = Run("SELECT K, V FROM T ORDER BY K", 32 * 1024, &spill);
  ASSERT_EQ(r.result.rows.size(), kRows);
  ASSERT_GT(r.spill_runs, 1u);
  // Each page is one append holding its contents: no separate
  // allocation, no rewrite.
  EXPECT_GT(counts.pages.load(), 0u);
  EXPECT_GE(counts.pages.load() * kPageDataSize, r.spilled_bytes);
  EXPECT_EQ(counts.appends.load(), counts.pages.load());
  EXPECT_EQ(counts.writes.load(), 0u);
}

TEST_F(SpillTest, NoSpillManagerFailsCleanly) {
  auto stmt = Parser::ParseSelect("SELECT K FROM T ORDER BY K");
  ASSERT_TRUE(stmt.ok());
  Binder binder(&catalog_, &vtables_);
  auto plan = binder.Bind(**stmt);
  ASSERT_TRUE(plan.ok());
  MemoryBudget budget("test-query", 4 * 1024);
  ExecContext ctx;
  ctx.memory = &budget;  // no ctx.spill: tier 1 is unavailable
  auto result = ExecutePlan(**plan, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(budget.used(), 0u);
}

TEST_F(SpillTest, UngovernedQueriesNeverSpill) {
  RunResult r = Run(
      "SELECT G, COUNT(*) FROM T GROUP BY G ORDER BY G", 0);
  EXPECT_EQ(r.spilled_bytes, 0u);
  EXPECT_EQ(r.result.rows.size(), 37u);
}

}  // namespace
}  // namespace wsq
