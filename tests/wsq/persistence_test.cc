#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <map>

#include "catalog/catalog_serde.h"
#include "storage/checksum.h"
#include "wsq/database.h"

namespace wsq {
namespace {

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/wsq_persist_test.db";
    std::remove(path_.c_str());
    std::remove((path_ + ".wal").c_str());
  }
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".wal").c_str());
  }

  std::string path_;
};

// Index-driven UPDATE/DELETE leave heap and B+ tree consistent on disk:
// after a checkpoint and reopen, every key reads the same through the
// IndexScan as through a full scan.
TEST_F(PersistenceTest, IndexDrivenDmlSurvivesCheckpointAndReopen) {
  constexpr int kKeys = 3000;
  std::map<int64_t, int64_t> expected;  // k -> bal
  {
    auto db = WsqDatabase::Open(path_).value();
    ASSERT_TRUE(db->Execute("CREATE TABLE Acct (K INT, Bal INT)").ok());
    TableInfo* t = *db->catalog()->GetTable("Acct");
    for (int i = 0; i < kKeys; ++i) {
      ASSERT_TRUE(t->Insert(Row({Value::Int(i), Value::Int(i)})).ok());
      expected[i] = i;
    }
    ASSERT_TRUE(db->Execute("CREATE INDEX acct_k ON Acct (K)").ok());
    for (int i = 0; i < kKeys; i += 3) {
      ASSERT_TRUE(
          db->Execute("DELETE FROM Acct WHERE K = " + std::to_string(i))
              .ok());
      expected.erase(i);
    }
    for (int i = 1; i < kKeys; i += 3) {
      ASSERT_TRUE(db->Execute("UPDATE Acct SET Bal = Bal + 1000000 "
                              "WHERE K = " +
                              std::to_string(i))
                      .ok());
      expected[i] += 1000000;
    }
    ASSERT_TRUE(db->Execute("UPDATE Acct SET K = K + 10000 "
                            "WHERE K >= 2000 AND K < 2300")
                    .ok());
    for (int i = 2000; i < 2300; ++i) {
      auto it = expected.find(i);
      if (it == expected.end()) continue;
      expected[i + 10000] = it->second;
      expected.erase(it);
    }
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  auto db = WsqDatabase::Open(path_).value();
  TableInfo* t = *db->catalog()->GetTable("Acct");
  ASSERT_EQ(t->indexes().size(), 1u);
  const BPlusTree* tree = t->indexes()[0]->tree();
  ASSERT_TRUE(tree->CheckInvariants().ok());
  EXPECT_EQ(*tree->Count(), static_cast<int64_t>(expected.size()));

  // `K + 0` is no column reference, so this plans a full scan.
  auto scanned = db->Execute("SELECT K, Bal FROM Acct WHERE K + 0 >= 0");
  ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
  std::map<int64_t, int64_t> heap;
  for (const Row& row : scanned->result.rows) {
    EXPECT_TRUE(heap.emplace(row.value(0).AsInt(), row.value(1).AsInt())
                    .second)
        << "duplicate key " << row.value(0).AsInt();
  }
  EXPECT_EQ(heap, expected);

  auto plan = db->ExplainSelect("SELECT Bal FROM Acct WHERE K = 1",
                                /*async=*/false);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("IndexScan"), std::string::npos) << *plan;
  std::vector<int64_t> probes;  // every key ever written
  for (int64_t k = 0; k < kKeys; ++k) probes.push_back(k);
  for (int64_t k = 12000; k < 12300; ++k) probes.push_back(k);
  for (int64_t k : probes) {
    auto r = db->Execute("SELECT Bal FROM Acct WHERE K = " +
                         std::to_string(k));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    auto it = heap.find(k);
    if (it == heap.end()) {
      EXPECT_TRUE(r->result.rows.empty()) << "key " << k;
    } else {
      ASSERT_EQ(r->result.rows.size(), 1u) << "key " << k;
      EXPECT_EQ(r->result.rows[0].value(0).AsInt(), it->second)
          << "key " << k;
    }
  }
}

TEST_F(PersistenceTest, FreshDatabaseOpensEmpty) {
  auto db = WsqDatabase::Open(path_);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE((*db)->persistent());
  EXPECT_TRUE((*db)->catalog()->ListTables().empty());
}

TEST_F(PersistenceTest, InMemoryDatabaseRejectsCheckpoint) {
  WsqDatabase db;
  EXPECT_FALSE(db.persistent());
  EXPECT_FALSE(db.Checkpoint().ok());
}

TEST_F(PersistenceTest, SchemaAndDataSurviveReopen) {
  {
    auto db = WsqDatabase::Open(path_).value();
    ASSERT_TRUE(db->Execute("CREATE TABLE States (Name STRING, "
                            "Population INT, Capital STRING)")
                    .ok());
    ASSERT_TRUE(
        db->Execute("INSERT INTO States VALUES "
                    "('Colorado', 3971000, 'Denver'), "
                    "('Utah', 2100000, 'Salt Lake City')")
            .ok());
    ASSERT_TRUE(db->Checkpoint().ok());
  }  // destructor checkpoints again
  {
    auto db = WsqDatabase::Open(path_).value();
    auto tables = db->catalog()->ListTables();
    ASSERT_EQ(tables.size(), 1u);
    EXPECT_EQ(tables[0], "States");

    auto r = db->Execute(
        "SELECT Name, Population FROM States ORDER BY Name");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->result.rows.size(), 2u);
    EXPECT_EQ(r->result.rows[0].value(0).AsString(), "Colorado");
    EXPECT_EQ(r->result.rows[1].value(1).AsInt(), 2100000);
  }
}

TEST_F(PersistenceTest, InsertsAfterReopenAppendCorrectly) {
  {
    auto db = WsqDatabase::Open(path_).value();
    ASSERT_TRUE(db->Execute("CREATE TABLE T (A INT)").ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(db->Execute("INSERT INTO T VALUES (" +
                              std::to_string(i) + ")")
                      .ok());
    }
  }
  {
    auto db = WsqDatabase::Open(path_).value();
    for (int i = 100; i < 200; ++i) {
      ASSERT_TRUE(db->Execute("INSERT INTO T VALUES (" +
                              std::to_string(i) + ")")
                      .ok());
    }
  }
  {
    auto db = WsqDatabase::Open(path_).value();
    auto r = db->Execute("SELECT COUNT(*), SUM(A) FROM T");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->result.rows[0].value(0).AsInt(), 200);
    EXPECT_EQ(r->result.rows[0].value(1).AsInt(), 19900);
  }
}

TEST_F(PersistenceTest, MultiPageHeapSurvivesReopen) {
  const std::string big(600, 'x');  // ~6 rows per 4 KiB page
  {
    auto db = WsqDatabase::Open(path_).value();
    ASSERT_TRUE(db->Execute("CREATE TABLE T (S STRING, N INT)").ok());
    TableInfo* t = *db->catalog()->GetTable("T");
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(
          t->Insert(Row({Value::Str(big + std::to_string(i)),
                         Value::Int(i)}))
              .ok());
    }
  }
  {
    auto db = WsqDatabase::Open(path_).value();
    auto r = db->Execute("SELECT COUNT(*), MIN(N), MAX(N) FROM T");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->result.rows[0].value(0).AsInt(), 50);
    EXPECT_EQ(r->result.rows[0].value(1).AsInt(), 0);
    EXPECT_EQ(r->result.rows[0].value(2).AsInt(), 49);
    // Appending must find the true tail of the page chain, not clobber
    // the first page's next pointer.
    TableInfo* t = *db->catalog()->GetTable("T");
    ASSERT_TRUE(
        t->Insert(Row({Value::Str(big + "reopened"), Value::Int(50)}))
            .ok());
  }
  {
    auto db = WsqDatabase::Open(path_).value();
    auto r = db->Execute("SELECT COUNT(*), MAX(N) FROM T");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->result.rows[0].value(0).AsInt(), 51);
    EXPECT_EQ(r->result.rows[0].value(1).AsInt(), 50);
  }
}

TEST_F(PersistenceTest, MultipleTablesKeepSeparateHeaps) {
  {
    auto db = WsqDatabase::Open(path_).value();
    ASSERT_TRUE(db->Execute("CREATE TABLE A (X INT)").ok());
    ASSERT_TRUE(db->Execute("CREATE TABLE B (Y STRING)").ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(db->Execute("INSERT INTO A VALUES (" +
                              std::to_string(i) + ")")
                      .ok());
      ASSERT_TRUE(
          db->Execute("INSERT INTO B VALUES ('b" +
                      std::to_string(i) + "')")
              .ok());
    }
  }
  {
    auto db = WsqDatabase::Open(path_).value();
    EXPECT_EQ((*db->Execute("SELECT COUNT(*) FROM A"))
                  .result.rows[0]
                  .value(0)
                  .AsInt(),
              20);
    EXPECT_EQ((*db->Execute("SELECT COUNT(*) FROM B"))
                  .result.rows[0]
                  .value(0)
                  .AsInt(),
              20);
  }
}

TEST_F(PersistenceTest, CorruptMagicRejected) {
  {
    auto db = WsqDatabase::Open(path_);
    ASSERT_TRUE(db.ok());
  }
  // Scribble over the catalog root's page header.
  std::FILE* f = std::fopen(path_.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  const char junk[] = "JUNK";
  std::fwrite(junk, 1, 4, f);
  std::fclose(f);

  auto reopened = WsqDatabase::Open(path_);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
}

TEST_F(PersistenceTest, CorruptCatalogPayloadRejected) {
  {
    auto db = WsqDatabase::Open(path_);
    ASSERT_TRUE(db.ok());
  }
  // Flip one payload byte; the header stays plausible, so only the
  // checksum can catch it.
  std::FILE* f = std::fopen(path_.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, kPageHeaderSize + 2, SEEK_SET), 0);
  const char junk = '\x7f';
  std::fwrite(&junk, 1, 1, f);
  std::fclose(f);

  auto reopened = WsqDatabase::Open(path_);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
}

TEST_F(PersistenceTest, TruncatedFileRejected) {
  {
    auto db = WsqDatabase::Open(path_).value();
    ASSERT_TRUE(db->Execute("CREATE TABLE T (A INT)").ok());
    ASSERT_TRUE(db->Execute("INSERT INTO T VALUES (1)").ok());
  }
  // Tear the final page in half, as an interrupted ftruncate/write
  // extension would.
  ASSERT_EQ(::truncate(path_.c_str(), 2 * kPageSize + kPageSize / 2), 0);

  auto reopened = WsqDatabase::Open(path_);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
}

TEST_F(PersistenceTest, TornWalDiscardedOnReopen) {
  {
    auto db = WsqDatabase::Open(path_).value();
    ASSERT_TRUE(db->Execute("CREATE TABLE T (A INT)").ok());
    ASSERT_TRUE(db->Execute("INSERT INTO T VALUES (7)").ok());
  }
  // Fake a crash mid-checkpoint: a log that ends without its commit
  // record. Recovery must discard it and keep the checkpointed state.
  {
    std::FILE* f = std::fopen((path_ + ".wal").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const uint32_t magic = 0x4C415751;
    const uint16_t version = 1, reserved = 0;
    std::fwrite(&magic, 4, 1, f);
    std::fwrite(&version, 2, 1, f);
    std::fwrite(&reserved, 2, 1, f);
    const char partial[] = "\x01 partial page record...";
    std::fwrite(partial, 1, sizeof(partial), f);
    std::fclose(f);
  }
  {
    auto db = WsqDatabase::Open(path_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ((*db)->last_recovery().action, WalRecoveryAction::kDiscarded);
    auto r = (*db)->Execute("SELECT COUNT(*) FROM T");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->result.rows[0].value(0).AsInt(), 1);
  }
  // The torn log is gone; the next open is clean.
  {
    auto db = WsqDatabase::Open(path_).value();
    EXPECT_EQ(db->last_recovery().action, WalRecoveryAction::kNone);
  }
}

TEST_F(PersistenceTest, SyncPolicyKnobIsHonored) {
  WsqDatabase::Options options;
  options.sync_policy = SyncPolicy::kNone;
  {
    auto db = WsqDatabase::Open(path_, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->Execute("CREATE TABLE T (A INT)").ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  auto db = WsqDatabase::Open(path_, options);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->catalog()->ListTables().size(), 1u);
}

TEST_F(PersistenceTest, CatalogSerdeRoundTripDirect) {
  InMemoryDiskManager disk;
  BufferPool pool(16, &disk);
  Page* root = *pool.NewPage();
  WSQ_IGNORE_STATUS(pool.UnpinPage(root->page_id(), true));

  Catalog catalog(&pool);
  Schema schema({Column("Name", TypeId::kString),
                 Column("Population", TypeId::kInt64),
                 Column("Score", TypeId::kDouble)});
  TableInfo* t = *catalog.CreateTable("States", schema);
  ASSERT_TRUE(t->Insert(Row({Value::Str("x"), Value::Int(1),
                             Value::Real(0.5)}))
                  .ok());
  ASSERT_TRUE(SaveCatalog(catalog, &pool).ok());

  Catalog loaded(&pool);
  ASSERT_TRUE(LoadCatalog(&loaded, &pool).ok());
  TableInfo* lt = *loaded.GetTable("States");
  EXPECT_EQ(lt->schema().NumColumns(), 3u);
  EXPECT_EQ(lt->schema().column(2).type, TypeId::kDouble);
  EXPECT_EQ(lt->heap()->first_page(), t->heap()->first_page());
  auto rows = *lt->ScanAll();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].value(0).AsString(), "x");
}

}  // namespace
}  // namespace wsq
