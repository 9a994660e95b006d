// The stored read path without per-row copies: scans pin each heap
// page once and release every pin when they finish, are abandoned or
// are cancelled; IndexScan keeps key order while reusing its pin; and
// Project's moved and copied columns give the same rows as evaluating
// every expression.

#include <gtest/gtest.h>

#include <cctype>
#include <set>
#include <string>

#include "common/cancellation.h"
#include "exec/executor.h"
#include "parser/parser.h"
#include "plan/binder.h"
#include "storage/heap_file.h"
#include "wsq/database.h"

namespace wsq {
namespace {

constexpr int64_t kRows = 5000;

std::string NoteFor(int64_t k) {
  // 48 characters, distinct per key, never in key order.
  std::string note = "note-" + std::to_string((k * 7919) % kRows) + "-";
  note.resize(48, static_cast<char>('a' + k % 26));
  return note;
}

class RowPathTest : public ::testing::Test {
 protected:
  RowPathTest() {
    EXPECT_TRUE(
        db_.Execute("CREATE TABLE acct (k INT, bal INT, note STRING)").ok());
    TableInfo* t = *db_.catalog()->GetTable("acct");
    for (int64_t k = 0; k < kRows; ++k) {
      EXPECT_TRUE(t->Insert(Row({Value::Int(k), Value::Int(k * 3),
                                 Value::Str(NoteFor(k))}))
                      .ok());
    }
  }

  TableInfo* table() { return *db_.catalog()->GetTable("acct"); }

  std::vector<Row> Select(const std::string& sql) {
    auto r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    EXPECT_EQ(db_.buffer_pool()->pinned_pages(), 0u) << sql;
    return r.ok() ? std::move(r->result.rows) : std::vector<Row>{};
  }

  uint64_t Fetches() {
    BufferPoolStats s = db_.buffer_pool()->stats();
    return s.hits + s.misses;
  }

  /// Plans `sql` into an operator tree the test drives by hand.
  OperatorPtr Build(const std::string& sql, ExecContext* ctx) {
    auto stmt = Parser::ParseSelect(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    Binder binder(db_.catalog(), db_.vtables());
    auto plan = binder.Bind(**stmt);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    plan_ = std::move(plan).value();
    auto op = BuildOperatorTree(*plan_, ctx);
    EXPECT_TRUE(op.ok()) << op.status().ToString();
    return op.ok() ? std::move(op).value() : nullptr;
  }

  WsqDatabase db_;
  PlanNodePtr plan_;
};

TEST_F(RowPathTest, FullScanFetchesEachHeapPageOnce) {
  std::set<PageId> pages;
  {
    HeapFileScanner scanner(table()->heap());
    Rid rid;
    while (*scanner.Next(&rid, nullptr)) pages.insert(rid.page_id);
  }
  ASSERT_GT(pages.size(), 50u);
  const uint64_t before = Fetches();
  std::vector<Row> rows = Select("SELECT k, bal, note FROM acct");
  EXPECT_EQ(Fetches() - before, pages.size());
  ASSERT_EQ(rows.size(), static_cast<size_t>(kRows));
  for (int64_t k = 0; k < kRows; ++k) {
    const Row& r = rows[static_cast<size_t>(k)];
    ASSERT_EQ(r.size(), 3u);
    EXPECT_EQ(r.value(0).AsInt(), k);
    EXPECT_EQ(r.value(1).AsInt(), k * 3);
    EXPECT_EQ(r.value(2).AsString(), NoteFor(k));
  }
}

TEST_F(RowPathTest, AbandonedScanReleasesItsPin) {
  ExecContext ctx;
  OperatorPtr root = Build("SELECT k, note FROM acct", &ctx);
  ASSERT_NE(root, nullptr);
  ASSERT_TRUE(root->Open().ok());
  Row row;
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(*root->Next(&row));
  EXPECT_EQ(db_.buffer_pool()->pinned_pages(), 1u);
  root.reset();  // destroyed midway, never closed
  EXPECT_EQ(db_.buffer_pool()->pinned_pages(), 0u);
}

TEST_F(RowPathTest, CancelledScanReleasesItsPin) {
  CancellationToken token;
  ExecContext ctx;
  ctx.token = &token;
  OperatorPtr root = Build("SELECT k FROM acct WHERE bal >= 0", &ctx);
  ASSERT_NE(root, nullptr);
  ASSERT_TRUE(root->Open().ok());
  Row row;
  ASSERT_TRUE(*root->Next(&row));
  EXPECT_EQ(db_.buffer_pool()->pinned_pages(), 1u);
  token.Cancel();
  auto more = root->Next(&row);
  ASSERT_FALSE(more.ok());
  EXPECT_EQ(more.status().code(), StatusCode::kCancelled);
  ASSERT_TRUE(root->Close().ok());
  EXPECT_EQ(db_.buffer_pool()->pinned_pages(), 0u);

  // The same through Execute: a cancelled statement leaves no pin.
  CancellationToken cancelled;
  cancelled.Cancel();
  WsqDatabase::ExecOptions options;
  options.cancel = &cancelled;
  auto r = db_.Execute("SELECT k, note FROM acct", options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(db_.buffer_pool()->pinned_pages(), 0u);
}

TEST_F(RowPathTest, LimitedScanReleasesItsPin) {
  EXPECT_EQ(Select("SELECT k FROM acct LIMIT 7").size(), 7u);
}

TEST_F(RowPathTest, IndexScanKeepsKeyOrderAndReleasesItsPin) {
  ASSERT_TRUE(db_.Execute("CREATE INDEX acct_k ON acct (k)").ok());
  // Churn: updated rows move to the heap's tail, so key order is no
  // longer heap order.
  for (int64_t k = 100; k < 400; k += 3) {
    ASSERT_TRUE(db_.Execute("UPDATE acct SET bal = bal + 1 WHERE k = " +
                            std::to_string(k))
                    .ok());
  }
  EXPECT_EQ(db_.buffer_pool()->pinned_pages(), 0u);

  ExecContext ctx;
  OperatorPtr root =
      Build("SELECT k, bal, note FROM acct WHERE k >= 90 AND k < 410", &ctx);
  ASSERT_NE(root, nullptr);
  ASSERT_NE(plan_->ToString().find("IndexScan"), std::string::npos)
      << plan_->ToString();
  ASSERT_TRUE(root->Open().ok());
  Row row;
  int64_t expect = 90;
  for (; expect < 200; ++expect) {
    ASSERT_TRUE(*root->Next(&row));
    EXPECT_EQ(row.value(0).AsInt(), expect);
  }
  EXPECT_EQ(db_.buffer_pool()->pinned_pages(), 1u);
  ASSERT_TRUE(root->Close().ok());
  EXPECT_EQ(db_.buffer_pool()->pinned_pages(), 0u);

  std::vector<Row> rows =
      Select("SELECT k, bal, note FROM acct WHERE k >= 90 AND k < 410");
  ASSERT_EQ(rows.size(), 320u);
  for (size_t i = 0; i < rows.size(); ++i) {
    const int64_t k = 90 + static_cast<int64_t>(i);
    EXPECT_EQ(rows[i].value(0).AsInt(), k);
    const bool churned = k >= 100 && k < 400 && (k - 100) % 3 == 0;
    EXPECT_EQ(rows[i].value(1).AsInt(), k * 3 + (churned ? 1 : 0));
    EXPECT_EQ(rows[i].value(2).AsString(), NoteFor(k));
  }
}

TEST_F(RowPathTest, ProjectCopiesRepeatedColumnsAndMovesTheRest) {
  std::vector<Row> rows =
      Select("SELECT note, note, k + 1, k FROM acct WHERE k < 300");
  ASSERT_EQ(rows.size(), 300u);
  for (size_t i = 0; i < rows.size(); ++i) {
    const int64_t k = static_cast<int64_t>(i);
    ASSERT_EQ(rows[i].size(), 4u);
    EXPECT_EQ(rows[i].value(0).AsString(), NoteFor(k));
    EXPECT_EQ(rows[i].value(1).AsString(), NoteFor(k));
    EXPECT_EQ(rows[i].value(2).AsInt(), k + 1);
    EXPECT_EQ(rows[i].value(3).AsInt(), k);
  }
}

TEST_F(RowPathTest, ProjectEvaluatesBeforeMovingAColumnItReads) {
  // `note` is projected once (moved) and read by UPPER; `bal`
  // likewise by the arithmetic before it.
  std::vector<Row> rows = Select(
      "SELECT bal * 2 + k, note, bal, UPPER(note), k FROM acct "
      "WHERE k >= 10 AND k < 20 ORDER BY k DESC");
  ASSERT_EQ(rows.size(), 10u);
  for (size_t i = 0; i < rows.size(); ++i) {
    const int64_t k = 19 - static_cast<int64_t>(i);
    ASSERT_EQ(rows[i].size(), 5u);
    EXPECT_EQ(rows[i].value(0).AsInt(), k * 3 * 2 + k);
    EXPECT_EQ(rows[i].value(1).AsString(), NoteFor(k));
    EXPECT_EQ(rows[i].value(2).AsInt(), k * 3);
    std::string upper = NoteFor(k);
    for (char& c : upper) c = static_cast<char>(std::toupper(c));
    EXPECT_EQ(rows[i].value(3).AsString(), upper);
    EXPECT_EQ(rows[i].value(4).AsInt(), k);
  }
}

}  // namespace
}  // namespace wsq
