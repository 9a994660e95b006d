#include "storage/heap_file.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace wsq {
namespace {

class HeapFileTest : public ::testing::Test {
 protected:
  HeapFileTest() : pool_(16, &disk_), file_(&pool_) {}

  InMemoryDiskManager disk_;
  BufferPool pool_;
  HeapFile file_;
};

TEST_F(HeapFileTest, InsertGetRoundTrip) {
  auto rid = file_.Insert("hello world");
  ASSERT_TRUE(rid.ok());
  auto rec = file_.Get(*rid);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(*rec, "hello world");
}

TEST_F(HeapFileTest, EmptyFileScansNothing) {
  HeapFileScanner scanner(&file_);
  auto more = scanner.Next(nullptr, nullptr);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(*more);
  EXPECT_EQ(*file_.Count(), 0);
}

TEST_F(HeapFileTest, EmptyRecordAllowed) {
  auto rid = file_.Insert("");
  ASSERT_TRUE(rid.ok());
  EXPECT_EQ(*file_.Get(*rid), "");
  EXPECT_EQ(*file_.Count(), 1);
}

TEST_F(HeapFileTest, ScanReturnsAllInInsertionOrder) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(file_.Insert("rec-" + std::to_string(i)).ok());
  }
  HeapFileScanner scanner(&file_);
  std::string_view rec;
  for (int i = 0; i < 10; ++i) {
    auto more = scanner.Next(nullptr, &rec);
    ASSERT_TRUE(more.ok() && *more);
    EXPECT_EQ(rec, "rec-" + std::to_string(i));
  }
  EXPECT_FALSE(*scanner.Next(nullptr, nullptr));
}

TEST_F(HeapFileTest, SpillsAcrossPages) {
  // ~500-byte records: 4096-byte pages hold at most 8 each.
  std::string big(500, 'x');
  const int kRecords = 40;
  std::set<PageId> pages;
  for (int i = 0; i < kRecords; ++i) {
    auto rid = file_.Insert(big + std::to_string(i));
    ASSERT_TRUE(rid.ok());
    pages.insert(rid->page_id);
  }
  EXPECT_GT(pages.size(), 3u);
  EXPECT_EQ(*file_.Count(), kRecords);

  HeapFileScanner scanner(&file_);
  std::string_view rec;
  int seen = 0;
  while (*scanner.Next(nullptr, &rec)) {
    EXPECT_EQ(rec, big + std::to_string(seen));
    ++seen;
  }
  EXPECT_EQ(seen, kRecords);
}

TEST_F(HeapFileTest, OversizedRecordRejected) {
  std::string huge(kPageSize, 'x');
  auto rid = file_.Insert(huge);
  EXPECT_FALSE(rid.ok());
  EXPECT_EQ(rid.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(HeapFileTest, MaximumSizedRecordAccepted) {
  // Page payload capacity minus heap header (8) and one slot (4).
  std::string max_rec(kPageDataSize - 12, 'y');
  auto rid = file_.Insert(max_rec);
  ASSERT_TRUE(rid.ok()) << rid.status().ToString();
  EXPECT_EQ(file_.Get(*rid)->size(), max_rec.size());
}

TEST_F(HeapFileTest, DeleteHidesRecordFromScan) {
  Rid keep = *file_.Insert("keep");
  Rid gone = *file_.Insert("gone");
  ASSERT_TRUE(file_.Delete(gone).ok());

  EXPECT_TRUE(file_.Get(keep).ok());
  EXPECT_EQ(file_.Get(gone).status().code(), StatusCode::kNotFound);

  HeapFileScanner scanner(&file_);
  std::string_view rec;
  ASSERT_TRUE(*scanner.Next(nullptr, &rec));
  EXPECT_EQ(rec, "keep");
  EXPECT_FALSE(*scanner.Next(nullptr, nullptr));
  EXPECT_EQ(*file_.Count(), 1);
}

TEST_F(HeapFileTest, DoubleDeleteFails) {
  Rid rid = *file_.Insert("x");
  ASSERT_TRUE(file_.Delete(rid).ok());
  EXPECT_FALSE(file_.Delete(rid).ok());
}

TEST_F(HeapFileTest, GetBadSlotFails) {
  Rid rid = *file_.Insert("x");
  Rid bad{rid.page_id, 99};
  EXPECT_FALSE(file_.Get(bad).ok());
}

TEST_F(HeapFileTest, PinnedGetRepinsOnlyWhenThePageChanges) {
  const std::string big(1000, 'b');
  Rid first = *file_.Insert(big);
  Rid second = *file_.Insert("s");
  Rid gone = *file_.Insert("gone");
  ASSERT_TRUE(file_.Delete(gone).ok());
  Rid other;
  do {
    other = *file_.Insert(big);
  } while (other.page_id == first.page_id);
  ASSERT_EQ(second.page_id, first.page_id);

  auto fetches = [this] {
    BufferPoolStats s = pool_.stats();
    return s.hits + s.misses;
  };
  const uint64_t before = fetches();
  PageGuard pin;
  std::string_view rec;
  ASSERT_TRUE(file_.Get(first, &pin, &rec).ok());
  EXPECT_EQ(rec, big);
  ASSERT_TRUE(file_.Get(second, &pin, &rec).ok());
  EXPECT_EQ(rec, "s");
  EXPECT_EQ(fetches() - before, 1u);  // one page, one pin
  EXPECT_EQ(file_.Get(gone, &pin, &rec).code(), StatusCode::kNotFound);
  EXPECT_EQ(file_.Get(Rid{first.page_id, 99}, &pin, &rec).code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(file_.Get(other, &pin, &rec).ok());
  EXPECT_EQ(rec, big);
  EXPECT_EQ(fetches() - before, 2u);
  EXPECT_EQ(pool_.pinned_pages(), 1u);
  pin.Release();
  EXPECT_EQ(pool_.pinned_pages(), 0u);
}

TEST_F(HeapFileTest, ScannerResetRestarts) {
  ASSERT_TRUE(file_.Insert("a").ok());
  ASSERT_TRUE(file_.Insert("b").ok());
  HeapFileScanner scanner(&file_);
  std::string_view rec;
  ASSERT_TRUE(*scanner.Next(nullptr, &rec));
  scanner.Reset();
  ASSERT_TRUE(*scanner.Next(nullptr, &rec));
  EXPECT_EQ(rec, "a");
}

TEST_F(HeapFileTest, RidsReportedBackByScan) {
  Rid r1 = *file_.Insert("one");
  Rid r2 = *file_.Insert("two");
  HeapFileScanner scanner(&file_);
  Rid rid;
  std::string_view rec;
  ASSERT_TRUE(*scanner.Next(&rid, &rec));
  EXPECT_EQ(rid, r1);
  ASSERT_TRUE(*scanner.Next(&rid, &rec));
  EXPECT_EQ(rid, r2);
}

TEST_F(HeapFileTest, ReopenedFileAppendsAtTrueTail) {
  // Build a multi-page chain, then reopen from the first page id — the
  // first insert must locate the tail instead of clobbering page one's
  // next pointer.
  std::string big(700, 'q');
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(file_.Insert(big + std::to_string(i)).ok());
  }
  PageId first = file_.first_page();
  ASSERT_NE(first, kInvalidPageId);

  HeapFile reopened(&pool_, first);
  ASSERT_TRUE(reopened.Insert("appended-after-reopen").ok());
  EXPECT_EQ(*reopened.Count(), 31);

  // Every original record is still reachable.
  HeapFileScanner scanner(&reopened);
  std::string_view rec;
  int seen = 0;
  bool found_appended = false;
  while (*scanner.Next(nullptr, &rec)) {
    ++seen;
    if (rec == "appended-after-reopen") found_appended = true;
  }
  EXPECT_EQ(seen, 31);
  EXPECT_TRUE(found_appended);
}

TEST_F(HeapFileTest, WorksWithTinyBufferPool) {
  // Pool smaller than the number of pages forces eviction during scan.
  InMemoryDiskManager disk;
  BufferPool pool(2, &disk);
  HeapFile file(&pool);
  std::string rec(800, 'z');
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(file.Insert(rec + std::to_string(i)).ok());
  }
  EXPECT_EQ(*file.Count(), 30);
}

}  // namespace
}  // namespace wsq
