#include "storage/disk_manager.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>

#include "storage/checksum.h"

namespace wsq {
namespace {

void FillPattern(char* buf, char seed) {
  for (size_t i = 0; i < kPageSize; ++i) {
    buf[i] = static_cast<char>(seed + static_cast<char>(i % 97));
  }
}

/// Persistent backends own the frame's header region; only the payload
/// is the caller's to round-trip.
bool PayloadsEqual(const char* a, const char* b) {
  return std::memcmp(a + kPageHeaderSize, b + kPageHeaderSize,
                     kPageDataSize) == 0;
}

class DiskManagerParamTest
    : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    if (GetParam() == "memory") {
      disk_ = std::make_unique<InMemoryDiskManager>();
    } else {
      path_ = ::testing::TempDir() + "/wsq_disk_test.db";
      std::remove(path_.c_str());
      auto r = FileDiskManager::Open(path_);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      disk_ = std::move(r).value();
    }
  }

  void TearDown() override {
    disk_.reset();
    if (!path_.empty()) std::remove(path_.c_str());
  }

  std::unique_ptr<DiskManager> disk_;
  std::string path_;
};

TEST_P(DiskManagerParamTest, StartsEmpty) {
  EXPECT_EQ(disk_->NumPages(), 0);
}

TEST_P(DiskManagerParamTest, AllocateGrowsDensely) {
  for (PageId expected = 0; expected < 5; ++expected) {
    auto r = disk_->AllocatePage();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, expected);
  }
  EXPECT_EQ(disk_->NumPages(), 5);
}

TEST_P(DiskManagerParamTest, WriteReadRoundTrip) {
  ASSERT_TRUE(disk_->AllocatePage().ok());
  char out[kPageSize];
  char in[kPageSize];
  FillPattern(out, 3);
  ASSERT_TRUE(disk_->WritePage(0, out).ok());
  ASSERT_TRUE(disk_->ReadPage(0, in).ok());
  EXPECT_TRUE(PayloadsEqual(out, in));
}

TEST_P(DiskManagerParamTest, AppendExtendsWithContents) {
  ASSERT_TRUE(disk_->AllocatePage().ok());
  char out[kPageSize];
  char in[kPageSize];
  FillPattern(out, 5);
  auto r = disk_->AppendPage(out);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, 1);
  EXPECT_EQ(disk_->NumPages(), 2);
  ASSERT_TRUE(disk_->ReadPage(1, in).ok());
  EXPECT_TRUE(PayloadsEqual(out, in));
}

TEST_P(DiskManagerParamTest, FreshPageIsZeroed) {
  ASSERT_TRUE(disk_->AllocatePage().ok());
  char in[kPageSize];
  std::memset(in, 1, kPageSize);
  ASSERT_TRUE(disk_->ReadPage(0, in).ok());
  for (size_t i = kPageHeaderSize; i < kPageSize; ++i) {
    ASSERT_EQ(in[i], 0) << "byte " << i;
  }
}

TEST_P(DiskManagerParamTest, ReadOutOfRangeFails) {
  char buf[kPageSize];
  EXPECT_FALSE(disk_->ReadPage(0, buf).ok());
  EXPECT_FALSE(disk_->ReadPage(-1, buf).ok());
}

TEST_P(DiskManagerParamTest, WriteOutOfRangeFails) {
  char buf[kPageSize] = {};
  EXPECT_FALSE(disk_->WritePage(7, buf).ok());
}

TEST_P(DiskManagerParamTest, PagesAreIndependent) {
  ASSERT_TRUE(disk_->AllocatePage().ok());
  ASSERT_TRUE(disk_->AllocatePage().ok());
  char a[kPageSize], b[kPageSize], in[kPageSize];
  FillPattern(a, 1);
  FillPattern(b, 9);
  ASSERT_TRUE(disk_->WritePage(0, a).ok());
  ASSERT_TRUE(disk_->WritePage(1, b).ok());
  ASSERT_TRUE(disk_->ReadPage(0, in).ok());
  EXPECT_TRUE(PayloadsEqual(a, in));
  ASSERT_TRUE(disk_->ReadPage(1, in).ok());
  EXPECT_TRUE(PayloadsEqual(b, in));
}

TEST_P(DiskManagerParamTest, SyncSucceeds) {
  ASSERT_TRUE(disk_->AllocatePage().ok());
  char out[kPageSize];
  FillPattern(out, 2);
  ASSERT_TRUE(disk_->WritePage(0, out).ok());
  EXPECT_TRUE(disk_->Sync().ok());
}

INSTANTIATE_TEST_SUITE_P(AllBackends, DiskManagerParamTest,
                         ::testing::Values("memory", "file"));

TEST(FileDiskManagerTest, ReopenSeesExistingPages) {
  std::string path = ::testing::TempDir() + "/wsq_reopen_test.db";
  std::remove(path.c_str());
  char out[kPageSize];
  FillPattern(out, 5);
  {
    auto r = FileDiskManager::Open(path);
    ASSERT_TRUE(r.ok());
    auto disk = std::move(r).value();
    ASSERT_TRUE(disk->AllocatePage().ok());
    ASSERT_TRUE(disk->WritePage(0, out).ok());
  }
  {
    auto r = FileDiskManager::Open(path);
    ASSERT_TRUE(r.ok());
    auto disk = std::move(r).value();
    EXPECT_EQ(disk->NumPages(), 1);
    char in[kPageSize];
    ASSERT_TRUE(disk->ReadPage(0, in).ok());
    EXPECT_TRUE(PayloadsEqual(out, in));
  }
  std::remove(path.c_str());
}

class FileDiskManagerCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/wsq_corrupt_test.db";
    std::remove(path_.c_str());
    auto r = FileDiskManager::Open(path_);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    disk_ = std::move(r).value();
    char frame[kPageSize];
    FillPattern(frame, 7);
    ASSERT_TRUE(disk_->AllocatePage().ok());
    ASSERT_TRUE(disk_->WritePage(0, frame).ok());
    ASSERT_TRUE(disk_->Sync().ok());
    disk_.reset();
  }

  void TearDown() override {
    disk_.reset();
    std::remove(path_.c_str());
  }

  /// Overwrites one byte of the file at `offset`.
  void ScribbleByte(long offset, char value) {
    std::FILE* f = std::fopen(path_.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(&value, 1, 1, f), 1u);
    ASSERT_EQ(std::fclose(f), 0);
  }

  std::unique_ptr<FileDiskManager> disk_;
  std::string path_;
};

TEST_F(FileDiskManagerCorruptionTest, FlippedPayloadByteIsDataLoss) {
  ScribbleByte(kPageHeaderSize + 100, '\x5a');
  auto r = FileDiskManager::Open(path_);
  ASSERT_TRUE(r.ok());
  char in[kPageSize];
  Status s = (*r)->ReadPage(0, in);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_FALSE(IsTransient(s.code()));
}

TEST_F(FileDiskManagerCorruptionTest, BadMagicIsDataLoss) {
  ScribbleByte(0, 'J');
  auto r = FileDiskManager::Open(path_);
  ASSERT_TRUE(r.ok());
  char in[kPageSize];
  Status s = (*r)->ReadPage(0, in);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
}

TEST_F(FileDiskManagerCorruptionTest, TruncatedFileRejectedAtOpen) {
  // Chop the file mid-page: a torn final page must be reported, not
  // silently rounded away.
  ASSERT_EQ(::truncate(path_.c_str(), kPageSize / 2), 0);
  auto r = FileDiskManager::Open(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
}

TEST_F(FileDiskManagerCorruptionTest, IntactFileReadsBack) {
  auto r = FileDiskManager::Open(path_);
  ASSERT_TRUE(r.ok());
  char in[kPageSize];
  EXPECT_TRUE((*r)->ReadPage(0, in).ok());
}

}  // namespace
}  // namespace wsq
