#include "storage/checksum.h"

#include <gtest/gtest.h>

#include <cstring>

#include "common/random.h"

namespace wsq {
namespace {

uint32_t PortableCrc32c(const void* data, size_t n) {
  return FinishCrc32c(internal::ExtendCrc32cPortable(kCrc32cInit, data, n));
}

TEST(Crc32cTest, KnownVector) {
  // The CRC-32C check value from RFC 3720 §B.4, through the dispatching
  // entry point (hardware on SSE4.2 hosts) and the byte-table path.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(PortableCrc32c("123456789", 9), 0xE3069283u);
}

TEST(Crc32cTest, DispatchedAndTablePathsAgreeOnEveryShortLength) {
  // Every length 0-300 at every start offset 0-7 covers the 8-byte
  // main loop, the byte tail, and unaligned starts.
  unsigned char buf[300 + 8];
  Rng rng(5);
  for (unsigned char& b : buf) {
    b = static_cast<unsigned char>(rng.Uniform(256));
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t n = 0; n <= 300; ++n) {
      ASSERT_EQ(Crc32c(buf + offset, n), PortableCrc32c(buf + offset, n))
          << "offset " << offset << " length " << n;
      // A non-initial running state must also carry through.
      const unsigned char* p = buf + offset;
      ASSERT_EQ(ExtendCrc32c(0x12345678u, p, n),
                internal::ExtendCrc32cPortable(0x12345678u, p, n))
          << "offset " << offset << " length " << n;
    }
  }
}

TEST(Crc32cTest, DispatchedAndTablePathsAgreeOnFullFrames) {
  char frame[kPageSize];
  Rng rng(9);
  for (int trial = 0; trial < 8; ++trial) {
    for (char& b : frame) b = static_cast<char>(rng.Uniform(256));
    ASSERT_EQ(Crc32c(frame, kPageSize), PortableCrc32c(frame, kPageSize))
        << "trial " << trial;
  }
}

TEST(Crc32cTest, PageCrcOfFixedFrameIsPinned) {
  // Constants computed with the byte-table implementation that defined
  // the on-disk format. A change here means every existing page and
  // WAL record would fail verification.
  char frame[kPageSize];
  for (size_t i = 0; i < kPageSize; ++i) {
    frame[i] = static_cast<char>((i * 31 + 7) & 0xFF);
  }
  EXPECT_EQ(ComputePageCrc(frame), 0xD501E042u);
  EXPECT_EQ(Crc32c(frame, kPageSize), 0xE1C2F7E8u);

  std::memset(frame, 0, kPageSize);
  std::memset(frame + kPageHeaderSize, 0x5c, 100);
  StampPageHeader(/*page_id=*/3, /*lsn=*/42, frame);
  uint32_t stamped;
  std::memcpy(&stamped, frame + kPageCrcOffset, 4);
  EXPECT_EQ(stamped, 0x98EE66EFu);
}

TEST(Crc32cTest, EmptyInput) { EXPECT_EQ(Crc32c("", 0), 0u); }

TEST(Crc32cTest, ExtendMatchesOneShot) {
  const char data[] = "hello, crc32c world";
  const size_t n = sizeof(data) - 1;
  uint32_t one_shot = Crc32c(data, n);
  // Stream the same bytes in three uneven chunks.
  uint32_t state = kCrc32cInit;
  state = ExtendCrc32c(state, data, 5);
  state = ExtendCrc32c(state, data + 5, 1);
  state = ExtendCrc32c(state, data + 6, n - 6);
  EXPECT_EQ(FinishCrc32c(state), one_shot);
}

TEST(Crc32cTest, SensitiveToSingleBit) {
  char a[64], b[64];
  std::memset(a, 0x41, sizeof(a));
  std::memcpy(b, a, sizeof(a));
  b[17] ^= 0x04;
  EXPECT_NE(Crc32c(a, sizeof(a)), Crc32c(b, sizeof(b)));
}

class PageHeaderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::memset(frame_, 0, kPageSize);
    std::memset(frame_ + kPageHeaderSize, 0x5c, 100);
    StampPageHeader(/*page_id=*/3, /*lsn=*/42, frame_);
  }
  char frame_[kPageSize];
};

TEST_F(PageHeaderTest, StampVerifyRoundTrip) {
  EXPECT_TRUE(VerifyPageHeader(3, frame_).ok());
  EXPECT_EQ(PageHeaderLsn(frame_), 42u);
}

TEST_F(PageHeaderTest, DetectsPayloadCorruption) {
  frame_[kPageHeaderSize + 50] ^= 0x01;
  Status s = VerifyPageHeader(3, frame_);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
}

TEST_F(PageHeaderTest, DetectsHeaderCorruption) {
  frame_[16] ^= 0x01;  // LSN field, covered by the CRC
  EXPECT_EQ(VerifyPageHeader(3, frame_).code(), StatusCode::kDataLoss);
}

TEST_F(PageHeaderTest, DetectsMisdirectedWrite) {
  // A frame stamped for page 3 landing at page 5's offset.
  EXPECT_EQ(VerifyPageHeader(5, frame_).code(), StatusCode::kDataLoss);
}

TEST_F(PageHeaderTest, DetectsBadMagic) {
  frame_[0] = 'J';
  EXPECT_EQ(VerifyPageHeader(3, frame_).code(), StatusCode::kDataLoss);
}

TEST_F(PageHeaderTest, RestampAfterEditVerifies) {
  frame_[kPageHeaderSize + 10] = 'z';
  EXPECT_FALSE(VerifyPageHeader(3, frame_).ok());
  StampPageHeader(3, /*lsn=*/43, frame_);
  EXPECT_TRUE(VerifyPageHeader(3, frame_).ok());
  EXPECT_EQ(PageHeaderLsn(frame_), 43u);
}

}  // namespace
}  // namespace wsq
