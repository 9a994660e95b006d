#ifndef WSQ_STORAGE_CHECKSUM_H_
#define WSQ_STORAGE_CHECKSUM_H_

#include <cstdint>
#include <cstddef>

#include "common/status.h"
#include "storage/page.h"

namespace wsq {

/// CRC-32C (Castagnoli, reflected polynomial 0x82F63B78) — the checksum
/// used by the on-disk page format and the write-ahead log.
uint32_t Crc32c(const void* data, size_t n);

/// Streaming form: feeds `n` more bytes into a running checksum, so a
/// CRC can cover discontiguous ranges (e.g. a page frame with its crc
/// field skipped). Chain as:
///   uint32_t c = ExtendCrc32c(kCrc32cInit, a, na);
///   c = ExtendCrc32c(c, b, nb);
///   uint32_t crc = FinishCrc32c(c);
inline constexpr uint32_t kCrc32cInit = 0xFFFFFFFFu;
uint32_t ExtendCrc32c(uint32_t state, const void* data, size_t n);
inline uint32_t FinishCrc32c(uint32_t state) { return state ^ 0xFFFFFFFFu; }

/// ExtendCrc32c uses the SSE4.2 `crc32` instruction when the CPU has it
/// (checked once at runtime, x86-64 only) and this byte-table loop
/// otherwise. Both give the same values. Declared here so tests can
/// check the table path on hosts where the hardware path is taken.
namespace internal {
uint32_t ExtendCrc32cPortable(uint32_t state, const void* data, size_t n);
}  // namespace internal

/// On-disk page header field offsets within a kPageSize frame (layout
/// documented at kPageHeaderSize in page.h).
inline constexpr uint32_t kPageMagic = 0x57535150;  // "PQSW" LE → 'WSQP'
inline constexpr uint16_t kPageFormatVersion = 1;
inline constexpr size_t kPageCrcOffset = 12;

/// CRC over the whole frame with the crc field treated as zero.
uint32_t ComputePageCrc(const char* frame);

/// Writes a valid header (magic, version, page id, LSN, CRC over the
/// current payload) into the first kPageHeaderSize bytes of `frame`.
void StampPageHeader(PageId page_id, uint64_t lsn, char* frame);

/// Checks magic, format version, stored page id, and CRC of `frame`.
/// Returns Status::DataLoss describing the first mismatch.
Status VerifyPageHeader(PageId page_id, const char* frame);

/// The LSN stamped into `frame`'s header (0 for an unstamped frame).
uint64_t PageHeaderLsn(const char* frame);

}  // namespace wsq

#endif  // WSQ_STORAGE_CHECKSUM_H_
