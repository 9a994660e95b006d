#include "storage/checksum.h"

#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

#include "common/strings.h"

namespace wsq {

namespace {

/// Byte-wise table for reflected CRC-32C (polynomial 0x82F63B78).
struct Crc32cTable {
  uint32_t entries[256];
  Crc32cTable() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int k = 0; k < 8; ++k) {
        crc = (crc & 1) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
      }
      entries[i] = crc;
    }
  }
};

const Crc32cTable& Table() {
  static const Crc32cTable* const kTable = new Crc32cTable();
  return *kTable;
}

#if defined(__x86_64__)
/// The SSE4.2 `crc32` instruction computes exactly this polynomial, 8
/// bytes per step. Compiled for SSE4.2 through the function attribute
/// alone, so the build flags stay generic; only called after the
/// runtime CPU check in ExtendCrc32c.
__attribute__((target("sse4.2"))) uint32_t ExtendCrc32cHardware(
    uint32_t state, const unsigned char* p, size_t n) {
  uint64_t crc = state;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; ++p, --n) crc32 = _mm_crc32_u8(crc32, *p);
  return crc32;
}
#endif

}  // namespace

namespace internal {

uint32_t ExtendCrc32cPortable(uint32_t state, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  const Crc32cTable& table = Table();
  for (size_t i = 0; i < n; ++i) {
    state = table.entries[(state ^ p[i]) & 0xFF] ^ (state >> 8);
  }
  return state;
}

}  // namespace internal

uint32_t ExtendCrc32c(uint32_t state, const void* data, size_t n) {
#if defined(__x86_64__)
  static const bool kHardware = __builtin_cpu_supports("sse4.2");
  if (kHardware) {
    return ExtendCrc32cHardware(
        state, static_cast<const unsigned char*>(data), n);
  }
#endif
  return internal::ExtendCrc32cPortable(state, data, n);
}

uint32_t Crc32c(const void* data, size_t n) {
  return FinishCrc32c(ExtendCrc32c(kCrc32cInit, data, n));
}

uint32_t ComputePageCrc(const char* frame) {
  static const char kZeros[4] = {0, 0, 0, 0};
  uint32_t c = ExtendCrc32c(kCrc32cInit, frame, kPageCrcOffset);
  c = ExtendCrc32c(c, kZeros, 4);
  c = ExtendCrc32c(c, frame + kPageCrcOffset + 4,
                   kPageSize - kPageCrcOffset - 4);
  return FinishCrc32c(c);
}

void StampPageHeader(PageId page_id, uint64_t lsn, char* frame) {
  uint32_t magic = kPageMagic;
  uint16_t version = kPageFormatVersion;
  uint16_t reserved = 0;
  int32_t id = page_id;
  std::memcpy(frame, &magic, 4);
  std::memcpy(frame + 4, &version, 2);
  std::memcpy(frame + 6, &reserved, 2);
  std::memcpy(frame + 8, &id, 4);
  std::memcpy(frame + 16, &lsn, 8);
  uint32_t crc = ComputePageCrc(frame);
  std::memcpy(frame + kPageCrcOffset, &crc, 4);
}

Status VerifyPageHeader(PageId page_id, const char* frame) {
  uint32_t magic;
  std::memcpy(&magic, frame, 4);
  if (magic != kPageMagic) {
    return Status::DataLoss(
        StrFormat("page %d: bad magic 0x%08x (not a WSQ page)", page_id,
                  magic));
  }
  uint16_t version;
  std::memcpy(&version, frame + 4, 2);
  if (version != kPageFormatVersion) {
    return Status::DataLoss(
        StrFormat("page %d: unsupported page format version %u", page_id,
                  version));
  }
  int32_t stored_id;
  std::memcpy(&stored_id, frame + 8, 4);
  if (stored_id != page_id) {
    return Status::DataLoss(
        StrFormat("page %d: header names page %d (misdirected write)",
                  page_id, stored_id));
  }
  uint32_t stored_crc;
  std::memcpy(&stored_crc, frame + kPageCrcOffset, 4);
  uint32_t actual = ComputePageCrc(frame);
  if (stored_crc != actual) {
    return Status::DataLoss(
        StrFormat("page %d: checksum mismatch (stored 0x%08x, computed "
                  "0x%08x)",
                  page_id, stored_crc, actual));
  }
  return Status::OK();
}

uint64_t PageHeaderLsn(const char* frame) {
  uint64_t lsn;
  std::memcpy(&lsn, frame + 16, 8);
  return lsn;
}

}  // namespace wsq
