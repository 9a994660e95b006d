// Heap allocations per returned row on the stored read path, counted
// by replacing the global operator new. The ceilings are the row
// contract in numbers: a scan decodes into one reused row, Project
// moves columns instead of copying them, and Sort buffers records in
// slabs and decodes straight into the caller's row, so a returned row
// costs about two allocations: its value vector and its string. Not
// built under WSQ_SANITIZE: the sanitizers bring their own operator
// new.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "common/random.h"
#include "wsq/database.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocations{0};

// Out of line so that gcc, inlining a delete expression, does not see
// free() applied to a pointer from operator new (-Wmismatched-new-delete).
[[gnu::noinline]] void FreeBlock(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { FreeBlock(p); }
void operator delete[](void* p) noexcept { FreeBlock(p); }
void operator delete(void* p, std::size_t) noexcept { FreeBlock(p); }
void operator delete[](void* p, std::size_t) noexcept { FreeBlock(p); }

namespace wsq {
namespace {

constexpr int64_t kRows = 20000;

/// 20k rows shaped like the stored_write benchmark table: an INT key,
/// an INT balance and a 48-character random note, indexed on k.
class AllocCountTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new WsqDatabase();
    ASSERT_TRUE(
        db_->Execute("CREATE TABLE acct (k INT, bal INT, note STRING)").ok());
    TableInfo* t = *db_->catalog()->GetTable("acct");
    Rng rng(11);
    for (int64_t i = 0; i < kRows; ++i) {
      std::string note(48, 'a');
      for (char& c : note) c = static_cast<char>('a' + rng.Uniform(26));
      ASSERT_TRUE(t->Insert(Row({Value::Int(i),
                                 Value::Int(rng.UniformRange(0, 999999)),
                                 Value::Str(std::move(note))}))
                      .ok());
    }
    ASSERT_TRUE(db_->Execute("CREATE INDEX acct_k ON acct (k)").ok());
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  /// Runs `sql` once to warm the pool, then again counting; returns
  /// allocations per returned row.
  static double AllocationsPerRow(const std::string& sql,
                                  size_t budget_bytes = 0,
                                  size_t expect_rows = kRows) {
    WsqDatabase::ExecOptions options;
    options.memory_budget_bytes = budget_bytes;
    EXPECT_TRUE(db_->Execute(sql, options).ok()) << sql;
    g_allocations.store(0);
    g_counting.store(true);
    auto r = db_->Execute(sql, options);
    g_counting.store(false);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    if (!r.ok()) return 1e9;
    EXPECT_EQ(r->result.rows.size(), expect_rows) << sql;
    if (budget_bytes > 0) {
      EXPECT_GT(r->stats.spill_runs, 1u) << sql << " did not spill";
    }
    const double per_row = static_cast<double>(g_allocations.load()) /
                           static_cast<double>(r->result.rows.size());
    RecordProperty(("allocs_per_row: " + sql).c_str(),
                   std::to_string(per_row));
    return per_row;
  }

  static WsqDatabase* db_;
};

WsqDatabase* AllocCountTest::db_ = nullptr;

TEST_F(AllocCountTest, CounterSeesAllocations) {
  g_allocations.store(0);
  g_counting.store(true);
  auto* p = new std::string(100, 'x');
  g_counting.store(false);
  delete p;
  EXPECT_GE(g_allocations.load(), 2u);
}

TEST_F(AllocCountTest, FullScanSelect) {
  EXPECT_LE(AllocationsPerRow("SELECT k, bal, note FROM acct"), 3.0);
}

TEST_F(AllocCountTest, IndexedRangeSelect) {
  const std::string sql = "SELECT k, bal, note FROM acct WHERE k >= 1000";
  auto plan = db_->ExplainSelect(sql, /*async=*/false);
  ASSERT_TRUE(plan.ok());
  ASSERT_NE(plan->find("IndexScan"), std::string::npos) << *plan;
  EXPECT_LE(AllocationsPerRow(sql, 0, kRows - 1000), 3.0);
}

TEST_F(AllocCountTest, InMemorySort) {
  EXPECT_LE(
      AllocationsPerRow("SELECT k, bal, note FROM acct ORDER BY note, k"),
      4.0);
}

TEST_F(AllocCountTest, SpillingSort) {
  EXPECT_LE(
      AllocationsPerRow("SELECT k, bal, note FROM acct ORDER BY note, k",
                        256 * 1024),
      4.0);
}

}  // namespace
}  // namespace wsq
