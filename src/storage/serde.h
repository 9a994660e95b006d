#ifndef WSQ_STORAGE_SERDE_H_
#define WSQ_STORAGE_SERDE_H_

#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "types/row.h"

namespace wsq {

/// Serializes a row to a compact byte string (tag + payload per value).
/// Placeholder values are rejected: incomplete tuples never reach storage.
Result<std::string> SerializeRow(const Row& row);

/// Parses a byte string produced by SerializeRow.
Result<Row> DeserializeRow(std::string_view bytes);

/// Parses a byte string produced by SerializeRow into `*row`,
/// overwriting it in place: the row's vector capacity and its string
/// buffers are reused, so a scan decoding into one Row allocates only
/// for values that outgrow them. On error `*row` is unspecified.
Status DeserializeRowInto(std::string_view bytes, Row* row);

/// Spill variant: same format, but Placeholder values are allowed
/// (tagged with their CallId + field). Spill files are transient and
/// strictly in-process — a CallId is meaningful for the lifetime of
/// the query that spilled it — so incomplete tuples may round-trip
/// through a Sort/Aggregate run on disk. Never use for stored tables.
/// Appends to `*out`, so a spill record is built in one reused buffer.
void AppendSpillRow(std::span<const Value> values, std::string* out);

/// Parses bytes produced by AppendSpillRow into `*out`, overwriting it
/// in place as DeserializeRowInto does.
Status DeserializeSpillRow(std::string_view bytes, std::vector<Value>* out);

/// Appends the order-preserving ("memcmp") image of `v` to `*out`:
/// for any a, b with a.Compare(b) != 0, memcmp over the encodings has
/// the sign of a.Compare(b) (reversed when `descending`), and values
/// that Compare equal encode identically, except that an INT64 beyond
/// ±2^53 stays distinct from the DOUBLE it rounds to. Encodings are
/// prefix-free, so a concatenation of several keys orders
/// lexicographically by key. Layout:
///   NULL     0x01
///   numeric  0x02, the value as a double (-0.0 folded to 0.0, every
///            NaN to one NaN that sorts after +inf) as 8 big-endian
///            order-preserving bytes, then the exact difference
///            int − image as a 2-byte big-endian offset-binary
///            (0 for doubles and for ints up to ±2^53, at most ±512)
///   string   0x03, the bytes with 0x00 escaped as 0x00 0xFF, then
///            0x00 0x00
/// `descending` complements every byte of this key's encoding.
/// Placeholders have no order and fail with ExecutionError.
Status AppendOrderedKey(const Value& v, bool descending, std::string* out);

}  // namespace wsq

#endif  // WSQ_STORAGE_SERDE_H_
