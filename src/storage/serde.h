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

/// Spill variant: same format, but Placeholder values are allowed
/// (tagged with their CallId + field). Spill files are transient and
/// strictly in-process — a CallId is meaningful for the lifetime of
/// the query that spilled it — so incomplete tuples may round-trip
/// through a Sort/Aggregate run on disk. Never use for stored tables.
/// Appends to `*out`, so a spill record is built in one reused buffer.
void AppendSpillRow(std::span<const Value> values, std::string* out);

/// Parses bytes produced by AppendSpillRow into `*out`, replacing its
/// contents while keeping its capacity.
Status DeserializeSpillRow(std::string_view bytes, std::vector<Value>* out);

}  // namespace wsq

#endif  // WSQ_STORAGE_SERDE_H_
