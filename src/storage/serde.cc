#include "storage/serde.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/macros.h"

namespace wsq {

namespace {

void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

bool GetU32(std::string_view* in, uint32_t* v) {
  if (in->size() < 4) return false;
  std::memcpy(v, in->data(), 4);
  in->remove_prefix(4);
  return true;
}

bool GetU64(std::string_view* in, uint64_t* v) {
  if (in->size() < 8) return false;
  std::memcpy(v, in->data(), 8);
  in->remove_prefix(8);
  return true;
}

/// Shared decoder into `*row`, overwriting it in place: the vector is
/// resized to the arity (keeping its capacity) and each slot is
/// assigned, so a string slot that already holds a string reuses its
/// buffer. Every value takes at least its tag byte, so an arity larger
/// than the bytes left is corrupt and never allocates. On error the
/// contents of `*row` are unspecified.
Status DeserializeRowImpl(std::string_view bytes, bool allow_placeholders,
                          std::vector<Value>* row) {
  uint32_t n;
  if (!GetU32(&bytes, &n)) {
    return Status::IOError("corrupt row: missing arity");
  }
  if (n > bytes.size()) return Status::IOError("corrupt row: missing tag");
  row->resize(n);
  for (Value& out : *row) {
    if (bytes.empty()) return Status::IOError("corrupt row: missing tag");
    TypeId tag = static_cast<TypeId>(bytes.front());
    bytes.remove_prefix(1);
    switch (tag) {
      case TypeId::kNull:
        out = Value::Null();
        break;
      case TypeId::kInt64: {
        uint64_t v;
        if (!GetU64(&bytes, &v)) {
          return Status::IOError("corrupt row: truncated int");
        }
        out = Value::Int(static_cast<int64_t>(v));
        break;
      }
      case TypeId::kDouble: {
        uint64_t bits;
        if (!GetU64(&bytes, &bits)) {
          return Status::IOError("corrupt row: truncated double");
        }
        double d;
        std::memcpy(&d, &bits, 8);
        out = Value::Real(d);
        break;
      }
      case TypeId::kString: {
        uint32_t len;
        if (!GetU32(&bytes, &len) || bytes.size() < len) {
          return Status::IOError("corrupt row: truncated string");
        }
        out.AssignString(bytes.substr(0, len));
        bytes.remove_prefix(len);
        break;
      }
      case TypeId::kPlaceholder: {
        uint64_t call;
        uint32_t field;
        if (!allow_placeholders) {
          return Status::IOError("corrupt row: bad type tag");
        }
        if (!GetU64(&bytes, &call) || !GetU32(&bytes, &field)) {
          return Status::IOError("corrupt row: truncated placeholder");
        }
        out = Value::Pending(static_cast<CallId>(call),
                             static_cast<int32_t>(field));
        break;
      }
      default:
        return Status::IOError("corrupt row: bad type tag");
    }
  }
  if (!bytes.empty()) {
    return Status::IOError("corrupt row: trailing bytes");
  }
  return Status::OK();
}

}  // namespace

void AppendSpillRow(std::span<const Value> values, std::string* out) {
  PutU32(out, static_cast<uint32_t>(values.size()));
  for (const Value& v : values) {
    out->push_back(static_cast<char>(v.type()));
    switch (v.type()) {
      case TypeId::kNull:
        break;
      case TypeId::kInt64:
        PutU64(out, static_cast<uint64_t>(v.AsInt()));
        break;
      case TypeId::kDouble: {
        uint64_t bits;
        double d = v.AsDouble();
        std::memcpy(&bits, &d, 8);
        PutU64(out, bits);
        break;
      }
      case TypeId::kString:
        PutU32(out, static_cast<uint32_t>(v.AsString().size()));
        out->append(v.AsString());
        break;
      case TypeId::kPlaceholder:
        PutU64(out, static_cast<uint64_t>(v.AsPlaceholder().call));
        PutU32(out, static_cast<uint32_t>(v.AsPlaceholder().field));
        break;
    }
  }
}

Result<std::string> SerializeRow(const Row& row) {
  for (const Value& v : row.values()) {
    if (v.is_placeholder()) {
      return Status::Internal(
          "attempted to serialize an incomplete tuple (placeholder)");
    }
  }
  // The stored format is the spill format without placeholders.
  std::string out;
  AppendSpillRow(row.values(), &out);
  return out;
}

Result<Row> DeserializeRow(std::string_view bytes) {
  Row row;
  WSQ_RETURN_IF_ERROR(DeserializeRowInto(bytes, &row));
  return row;
}

Status DeserializeRowInto(std::string_view bytes, Row* row) {
  return DeserializeRowImpl(bytes, /*allow_placeholders=*/false,
                            row->mutable_values());
}

Status DeserializeSpillRow(std::string_view bytes, std::vector<Value>* out) {
  return DeserializeRowImpl(bytes, /*allow_placeholders=*/true, out);
}

namespace {

// Ordered-key type tags: NULL < numerics < strings, as Value::Compare.
constexpr char kOrderedNull = 0x01;
constexpr char kOrderedNumeric = 0x02;
constexpr char kOrderedString = 0x03;

void AppendOrderedNumeric(const Value& v, std::string* out) {
  double image = v.NumericAsDouble();
  if (std::isnan(image)) {
    image = std::numeric_limits<double>::quiet_NaN();  // positive: > +inf
  } else if (image == 0) {
    image = 0.0;  // fold -0.0
  }
  // Exact int − image, |diff| <= 512 (half an ulp at 2^62..2^63). The
  // image of INT64_MAX is 2^63, which int64 cannot hold.
  int64_t diff = 0;
  if (v.is_int()) {
    int64_t i = v.AsInt();
    diff = image >= 0x1p63 ? (i - std::numeric_limits<int64_t>::max()) - 1
                           : i - static_cast<int64_t>(image);
  }
  uint64_t bits;
  std::memcpy(&bits, &image, 8);
  constexpr uint64_t kSign = uint64_t{1} << 63;
  bits = (bits & kSign) != 0 ? ~bits : bits | kSign;
  uint16_t offset_diff = static_cast<uint16_t>(diff) ^ 0x8000u;
  char buf[10];
  for (int k = 0; k < 8; ++k) {
    buf[k] = static_cast<char>(bits >> (56 - 8 * k));
  }
  buf[8] = static_cast<char>(offset_diff >> 8);
  buf[9] = static_cast<char>(offset_diff);
  out->append(buf, sizeof(buf));
}

}  // namespace

Status AppendOrderedKey(const Value& v, bool descending, std::string* out) {
  const size_t start = out->size();
  switch (v.type()) {
    case TypeId::kNull:
      out->push_back(kOrderedNull);
      break;
    case TypeId::kInt64:
    case TypeId::kDouble:
      out->push_back(kOrderedNumeric);
      AppendOrderedNumeric(v, out);
      break;
    case TypeId::kString: {
      out->push_back(kOrderedString);
      std::string_view s = v.AsString();
      for (size_t nul = s.find('\0'); nul != std::string_view::npos;
           nul = s.find('\0')) {
        out->append(s.data(), nul);
        out->append("\0\xFF", 2);
        s.remove_prefix(nul + 1);
      }
      out->append(s);
      out->append("\0\0", 2);
      break;
    }
    case TypeId::kPlaceholder:
      return Status::ExecutionError(
          "sort key is an incomplete (placeholder) value");
  }
  if (descending) {
    for (size_t i = start; i < out->size(); ++i) (*out)[i] = ~(*out)[i];
  }
  return Status::OK();
}

}  // namespace wsq
