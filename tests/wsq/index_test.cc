#include <gtest/gtest.h>

#include <cstdio>
#include <set>

#include "common/strings.h"
#include "storage/heap_file.h"
#include "wsq/database.h"

namespace wsq {
namespace {

class IndexTest : public ::testing::Test {
 protected:
  IndexTest() {
    EXPECT_TRUE(
        db_.Execute("CREATE TABLE T (K STRING, V INT)").ok());
    for (int i = 0; i < 200; ++i) {
      EXPECT_TRUE(db_.Execute("INSERT INTO T VALUES ('k" +
                              std::to_string(i % 40) + "', " +
                              std::to_string(i) + ")")
                      .ok());
    }
  }

  ResultSet Must(const std::string& sql) {
    auto r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << "\n" << sql;
    return r.ok() ? std::move(r->result) : ResultSet{};
  }

  WsqDatabase db_;
};

TEST_F(IndexTest, CreateIndexStatement) {
  EXPECT_TRUE(db_.Execute("CREATE INDEX ix_k ON T (K)").ok());
  TableInfo* t = *db_.catalog()->GetTable("T");
  ASSERT_EQ(t->indexes().size(), 1u);
  EXPECT_EQ(t->indexes()[0]->name(), "ix_k");
  EXPECT_EQ(*t->indexes()[0]->tree()->Count(), 200);
  ASSERT_TRUE(t->indexes()[0]->tree()->CheckInvariants().ok());
}

TEST_F(IndexTest, CreateIndexErrors) {
  ASSERT_TRUE(db_.Execute("CREATE INDEX ix_k ON T (K)").ok());
  EXPECT_FALSE(db_.Execute("CREATE INDEX ix_k ON T (V)").ok());
  EXPECT_FALSE(db_.Execute("CREATE INDEX ix_k2 ON T (K)").ok());
  EXPECT_FALSE(db_.Execute("CREATE INDEX ix ON Missing (K)").ok());
  EXPECT_FALSE(db_.Execute("CREATE INDEX ix ON T (Nope)").ok());
  EXPECT_FALSE(db_.Execute("CREATE INDEX ON T (K)").ok());
}

TEST_F(IndexTest, PlannerSelectsIndexScan) {
  ASSERT_TRUE(db_.Execute("CREATE INDEX ix_k ON T (K)").ok());
  auto plan = db_.ExplainSelect("SELECT V FROM T WHERE K = 'k7'",
                                /*async=*/false);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("IndexScan: T (K = 'k7', index ix_k)"),
            std::string::npos)
      << *plan;
  // No residual filter remains.
  EXPECT_EQ(plan->find("Select:"), std::string::npos) << *plan;
}

TEST_F(IndexTest, IndexScanMatchesSeqScanResults) {
  // Answer before and after indexing must be identical.
  ResultSet before = Must("SELECT V FROM T WHERE K = 'k7' ORDER BY V");
  ASSERT_TRUE(db_.Execute("CREATE INDEX ix_k ON T (K)").ok());
  ResultSet after = Must("SELECT V FROM T WHERE K = 'k7' ORDER BY V");
  ASSERT_EQ(before.rows.size(), after.rows.size());
  ASSERT_EQ(before.rows.size(), 5u);  // 200 rows over 40 keys
  for (size_t i = 0; i < before.rows.size(); ++i) {
    EXPECT_EQ(before.rows[i], after.rows[i]);
  }
}

TEST_F(IndexTest, RangePredicateUsesIndexScan) {
  ASSERT_TRUE(db_.Execute("CREATE INDEX ix_v ON T (V)").ok());
  auto plan = db_.ExplainSelect("SELECT K FROM T WHERE V > 100",
                                /*async=*/false);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("IndexScan: T (V > 100, index ix_v)"),
            std::string::npos)
      << *plan;
  ResultSet r = Must("SELECT V FROM T WHERE V > 100 ORDER BY V");
  ASSERT_EQ(r.rows.size(), 99u);  // 101..199
  EXPECT_EQ(r.rows[0].value(0).AsInt(), 101);
  EXPECT_EQ(r.rows.back().value(0).AsInt(), 199);
}

TEST_F(IndexTest, TwoSidedRangeFoldedIntoOneScan) {
  ASSERT_TRUE(db_.Execute("CREATE INDEX ix_v ON T (V)").ok());
  auto plan = db_.ExplainSelect(
      "SELECT V FROM T WHERE V >= 10 AND V < 20", /*async=*/false);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("IndexScan: T (V >= 10 and V < 20, index ix_v)"),
            std::string::npos)
      << *plan;
  EXPECT_EQ(plan->find("Select:"), std::string::npos) << *plan;
  ResultSet r = Must(
      "SELECT V FROM T WHERE V >= 10 AND V < 20 ORDER BY V");
  ASSERT_EQ(r.rows.size(), 10u);
  EXPECT_EQ(r.rows[0].value(0).AsInt(), 10);
  EXPECT_EQ(r.rows.back().value(0).AsInt(), 19);
}

TEST_F(IndexTest, RedundantBoundsKeepTightest) {
  ASSERT_TRUE(db_.Execute("CREATE INDEX ix_v ON T (V)").ok());
  ResultSet r = Must(
      "SELECT V FROM T WHERE V > 5 AND V >= 10 AND V <= 50 AND V < 12 "
      "ORDER BY V");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0].value(0).AsInt(), 10);
  EXPECT_EQ(r.rows[1].value(0).AsInt(), 11);
}

TEST_F(IndexTest, RangeScanMatchesSeqScanResults) {
  ResultSet before = Must(
      "SELECT K, V FROM T WHERE V >= 42 AND V <= 87 ORDER BY V");
  ASSERT_TRUE(db_.Execute("CREATE INDEX ix_v ON T (V)").ok());
  ResultSet after = Must(
      "SELECT K, V FROM T WHERE V >= 42 AND V <= 87 ORDER BY V");
  ASSERT_EQ(before.rows.size(), after.rows.size());
  for (size_t i = 0; i < before.rows.size(); ++i) {
    EXPECT_EQ(before.rows[i], after.rows[i]);
  }
}

TEST_F(IndexTest, OtherConjunctsBecomeFiltersAboveIndexScan) {
  ASSERT_TRUE(db_.Execute("CREATE INDEX ix_k ON T (K)").ok());
  auto plan = db_.ExplainSelect(
      "SELECT V FROM T WHERE K = 'k7' AND V > 100", /*async=*/false);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("IndexScan"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("Select: (T.V > 100)"), std::string::npos)
      << *plan;
  ResultSet r = Must("SELECT V FROM T WHERE K = 'k7' AND V > 100 "
                     "ORDER BY V");
  for (const Row& row : r.rows) {
    EXPECT_GT(row.value(0).AsInt(), 100);
  }
}

TEST_F(IndexTest, InsertDeleteUpdateMaintainIndex) {
  ASSERT_TRUE(db_.Execute("CREATE INDEX ix_k ON T (K)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO T VALUES ('fresh', 999)").ok());
  ResultSet r = Must("SELECT V FROM T WHERE K = 'fresh'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].value(0).AsInt(), 999);

  ASSERT_TRUE(db_.Execute("DELETE FROM T WHERE K = 'k7'").ok());
  EXPECT_TRUE(Must("SELECT V FROM T WHERE K = 'k7'").rows.empty());

  ASSERT_TRUE(
      db_.Execute("UPDATE T SET K = 'renamed' WHERE K = 'k8'").ok());
  EXPECT_TRUE(Must("SELECT V FROM T WHERE K = 'k8'").rows.empty());
  EXPECT_EQ(Must("SELECT V FROM T WHERE K = 'renamed'").rows.size(),
            5u);

  TableInfo* t = *db_.catalog()->GetTable("T");
  ASSERT_TRUE(t->indexes()[0]->tree()->CheckInvariants().ok());
  EXPECT_EQ(*t->indexes()[0]->tree()->Count(), *t->NumRows());
}

TEST_F(IndexTest, IndexOnIntColumn) {
  ASSERT_TRUE(db_.Execute("CREATE INDEX ix_v ON T (V)").ok());
  auto plan = db_.ExplainSelect("SELECT K FROM T WHERE V = 123",
                                /*async=*/false);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("IndexScan"), std::string::npos) << *plan;
  ResultSet r = Must("SELECT K FROM T WHERE V = 123");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].value(0).AsString(), "k3");
}

TEST_F(IndexTest, IndexUsedInsideJoins) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE U (K STRING)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO U VALUES ('k7'), ('k9')").ok());
  ASSERT_TRUE(db_.Execute("CREATE INDEX ix_k ON T (K)").ok());
  // The single-table equality on T is consumed by an IndexScan even
  // with a join present.
  auto plan = db_.ExplainSelect(
      "SELECT U.K, V FROM U, T WHERE T.K = 'k7' AND U.K = T.K",
      /*async=*/false);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("IndexScan"), std::string::npos) << *plan;
  ResultSet r = Must(
      "SELECT U.K, V FROM U, T WHERE T.K = 'k7' AND U.K = T.K "
      "ORDER BY V");
  EXPECT_EQ(r.rows.size(), 5u);
}

TEST_F(IndexTest, IndexPersistsAcrossReopen) {
  std::string path = ::testing::TempDir() + "/wsq_index_persist.db";
  std::remove(path.c_str());
  {
    auto db = WsqDatabase::Open(path).value();
    ASSERT_TRUE(db->Execute("CREATE TABLE P (K STRING, V INT)").ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(db->Execute("INSERT INTO P VALUES ('p" +
                              std::to_string(i % 10) + "', " +
                              std::to_string(i) + ")")
                      .ok());
    }
    ASSERT_TRUE(db->Execute("CREATE INDEX ix_p ON P (K)").ok());
  }
  {
    auto db = WsqDatabase::Open(path).value();
    TableInfo* t = *db->catalog()->GetTable("P");
    ASSERT_EQ(t->indexes().size(), 1u);
    EXPECT_EQ(*t->indexes()[0]->tree()->Count(), 100);
    auto plan = db->ExplainSelect("SELECT V FROM P WHERE K = 'p3'",
                                  /*async=*/false);
    ASSERT_TRUE(plan.ok());
    EXPECT_NE(plan->find("IndexScan"), std::string::npos) << *plan;
    auto r = db->Execute("SELECT V FROM P WHERE K = 'p3' ORDER BY V");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->result.rows.size(), 10u);
    // And stays maintainable.
    ASSERT_TRUE(db->Execute("INSERT INTO P VALUES ('p3', 555)").ok());
    EXPECT_EQ(db->Execute("SELECT V FROM P WHERE K = 'p3'")
                  ->result.rows.size(),
              11u);
  }
  std::remove(path.c_str());
}

TEST_F(IndexTest, WsqQueryWithIndexedStoredFilter) {
  // Index interacts correctly with the async rewrite: the IndexScan
  // narrows the driving table, reducing external calls.
  ASSERT_TRUE(db_.Execute("CREATE INDEX ix_k ON T (K)").ok());
  auto plan = db_.ExplainSelect(
      "SELECT K, V FROM T WHERE K = 'k5' ORDER BY V", /*async=*/true);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("IndexScan"), std::string::npos) << *plan;
}

// UPDATE/DELETE take the same index access path as SELECT. Each case
// runs one statement against an indexed table (A) and an identical
// unindexed one (B); the affected-row counts, the outcome and the final
// contents must match.
class DmlAccessPathTest : public ::testing::Test {
 protected:
  DmlAccessPathTest() {
    for (const char* t : {"A", "B"}) {
      EXPECT_TRUE(db_.Execute(std::string("CREATE TABLE ") + t +
                              " (k INT, s STRING, d DOUBLE, bal INT)")
                      .ok());
      TableInfo* table = *db_.catalog()->GetTable(t);
      // 50 keys, 4 rows each (duplicate index keys), and 3 NULL keys.
      for (int i = 0; i < 200; ++i) {
        EXPECT_TRUE(table
                        ->Insert(Row({Value::Int(i % 50),
                                      Value::Str(StrFormat("s%d", i % 25)),
                                      Value::Real(i % 20), Value::Int(i)}))
                        .ok());
      }
      for (int i = 0; i < 3; ++i) {
        EXPECT_TRUE(table
                        ->Insert(Row({Value::Null(), Value::Str("none"),
                                      Value::Null(), Value::Int(500 + i)}))
                        .ok());
      }
    }
    EXPECT_TRUE(db_.Execute("CREATE INDEX a_k ON A (k)").ok());
    EXPECT_TRUE(db_.Execute("CREATE INDEX a_s ON A (s)").ok());
    EXPECT_TRUE(db_.Execute("CREATE INDEX a_d ON A (d)").ok());
  }

  static std::string For(std::string sql, const std::string& table) {
    for (size_t at; (at = sql.find("{T}")) != std::string::npos;) {
      sql.replace(at, 3, table);
    }
    return sql;
  }

  std::vector<Row> Contents(const std::string& table) {
    auto r = db_.Execute("SELECT k, s, d, bal FROM " + table +
                         " ORDER BY bal, k, s, d");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r->result.rows : std::vector<Row>{};
  }

  // Runs `sql` (with {T} naming the table) on both tables and returns
  // the affected-row count, or -1 when both failed the same way.
  int64_t RunOnBoth(const std::string& sql) {
    auto indexed = db_.Execute(For(sql, "A"));
    auto scanned = db_.Execute(For(sql, "B"));
    EXPECT_EQ(indexed.ok(), scanned.ok())
        << sql << "\nindexed: " << indexed.status().ToString()
        << "\nscanned: " << scanned.status().ToString();
    std::vector<Row> a = Contents("A");
    std::vector<Row> b = Contents("B");
    EXPECT_EQ(a.size(), b.size()) << sql;
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      EXPECT_EQ(a[i], b[i]) << sql << " row " << i;
    }
    TableInfo* t = *db_.catalog()->GetTable("A");
    for (const auto& index : t->indexes()) {
      EXPECT_TRUE(index->tree()->CheckInvariants().ok()) << index->name();
    }
    if (!indexed.ok() || !scanned.ok()) {
      EXPECT_EQ(indexed.status().code(), scanned.status().code()) << sql;
      return -1;
    }
    int64_t count = indexed->result.rows[0].value(0).AsInt();
    EXPECT_EQ(count, scanned->result.rows[0].value(0).AsInt()) << sql;
    return count;
  }

  WsqDatabase db_;
};

TEST_F(DmlAccessPathTest, EqualityOnIndexedInt) {
  EXPECT_EQ(RunOnBoth("DELETE FROM {T} WHERE k = 7"), 4);
  EXPECT_EQ(RunOnBoth("UPDATE {T} SET bal = bal + 1 WHERE {T}.k = 8"), 4);
  EXPECT_EQ(RunOnBoth("DELETE FROM {T} WHERE 9 = k"), 4);
}

TEST_F(DmlAccessPathTest, EqualityOnIndexedString) {
  EXPECT_EQ(RunOnBoth("DELETE FROM {T} WHERE s = 's3'"), 8);
  EXPECT_EQ(RunOnBoth("UPDATE {T} SET s = 'moved' WHERE s = 's4'"), 8);
  EXPECT_EQ(RunOnBoth("UPDATE {T} SET bal = 0 WHERE s = 'moved'"), 8);
  // Longer than any index key: matches nothing instead of failing.
  EXPECT_EQ(RunOnBoth("DELETE FROM {T} WHERE s = '" +
                      std::string(BPlusTree::kMaxKeyBytes, 'x') + "'"),
            0);
}

TEST_F(DmlAccessPathTest, IndexedDoubleComparedWithIntLiteral) {
  EXPECT_EQ(RunOnBoth("UPDATE {T} SET bal = 0 WHERE d = 5"), 10);
  EXPECT_EQ(RunOnBoth("DELETE FROM {T} WHERE d = 6"), 10);
  EXPECT_EQ(RunOnBoth("DELETE FROM {T} WHERE d >= 17 AND d < 19"), 20);
}

TEST_F(DmlAccessPathTest, EqualityPlusUnindexedConjunct) {
  EXPECT_EQ(RunOnBoth("DELETE FROM {T} WHERE k = 9 AND bal > 100"), 2);
  EXPECT_EQ(
      RunOnBoth("UPDATE {T} SET bal = bal * 2 WHERE bal < 120 AND k = 10"),
      3);
}

TEST_F(DmlAccessPathTest, Range) {
  EXPECT_EQ(RunOnBoth("DELETE FROM {T} WHERE k >= 20 AND k < 25"), 20);
  EXPECT_EQ(RunOnBoth("UPDATE {T} SET bal = -bal WHERE k > 45"), 16);
  EXPECT_EQ(RunOnBoth("DELETE FROM {T} WHERE k <= 2 AND k < 40 AND k > 0"),
            8);
}

TEST_F(DmlAccessPathTest, NullKeyMatchesNothing) {
  EXPECT_EQ(RunOnBoth("DELETE FROM {T} WHERE k = NULL"), 0);
  EXPECT_EQ(RunOnBoth("UPDATE {T} SET bal = 0 WHERE k = NULL"), 0);
}

TEST_F(DmlAccessPathTest, TypeMismatchKeepsScanOutcome) {
  RunOnBoth("DELETE FROM {T} WHERE k = 'abc'");
  RunOnBoth("UPDATE {T} SET bal = 0 WHERE k = 'abc'");
}

TEST_F(DmlAccessPathTest, OrFallsBackToScan) {
  EXPECT_EQ(RunOnBoth("DELETE FROM {T} WHERE k = 1 OR k = 2"), 8);
  EXPECT_EQ(RunOnBoth("UPDATE {T} SET bal = 1 WHERE k = 3 OR s = 's4'"), 12);
}

TEST_F(DmlAccessPathTest, KeyMovedWithinRangeIsUpdatedOnce) {
  EXPECT_EQ(
      RunOnBoth("UPDATE {T} SET k = k + 1000 WHERE k >= 10 AND k < 20"),
      40);
  auto moved = db_.Execute(
      "SELECT COUNT(*) FROM A WHERE k >= 1010 AND k < 1020");
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved->result.rows[0].value(0).AsInt(), 40);
  auto twice = db_.Execute("SELECT COUNT(*) FROM A WHERE k >= 2000");
  ASSERT_TRUE(twice.ok());
  EXPECT_EQ(twice->result.rows[0].value(0).AsInt(), 0);
}

// The access path, checked by pages fetched rather than by time: a DML
// statement by indexed key reads the tree and its matches, never the
// whole heap.
TEST(DmlPageFetchTest, IndexedDmlFetchesFarFewerPagesThanTheHeap) {
  WsqDatabase db;
  ASSERT_TRUE(db.Execute("CREATE TABLE Big (k INT, bal INT, note STRING)")
                  .ok());
  TableInfo* t = *db.catalog()->GetTable("Big");
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(t->Insert(Row({Value::Int(i), Value::Int(i),
                               Value::Str("note-" + std::to_string(i))}))
                    .ok());
  }
  ASSERT_TRUE(db.Execute("CREATE INDEX big_k ON Big (k)").ok());

  std::set<PageId> heap_pages;
  HeapFileScanner scanner(t->heap());
  Rid rid;
  while (*scanner.Next(&rid, nullptr)) heap_pages.insert(rid.page_id);
  ASSERT_GE(heap_pages.size(), 100u);

  BufferPool* pool = db.buffer_pool();
  auto fetches = [pool] {
    BufferPoolStats s = pool->stats();
    return s.hits + s.misses;
  };
  for (const char* sql :
       {"DELETE FROM Big WHERE k = 12345",
        "UPDATE Big SET bal = bal + 1 WHERE k = 777",
        "UPDATE Big SET k = k + 100000 WHERE k >= 500 AND k < 503",
        "DELETE FROM Big WHERE k = 4321 AND bal > 0"}) {
    uint64_t before = fetches();
    auto r = db.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    EXPECT_GE(r->result.rows[0].value(0).AsInt(), 1) << sql;
    // Tree descents, the matched rows, their removal and re-insert.
    EXPECT_LT(fetches() - before, 64u) << sql;
  }
  // An unindexed predicate still scans every page.
  uint64_t before = fetches();
  ASSERT_TRUE(db.Execute("DELETE FROM Big WHERE bal = -1").ok());
  EXPECT_GE(fetches() - before, heap_pages.size()) << "scan fallback";
}

}  // namespace
}  // namespace wsq
