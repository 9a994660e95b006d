#ifndef WSQ_TYPES_VALUE_H_
#define WSQ_TYPES_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "common/result.h"
#include "common/status.h"

namespace wsq {

/// Column/value type tags.
enum class TypeId : uint8_t {
  kNull = 0,
  kInt64,
  kDouble,
  kString,
  /// A pending asynchronous external call result (paper §4.1): the value
  /// is not yet known; it names a ReqPump call and which output field of
  /// that call's rows will replace it.
  kPlaceholder,
};

std::string_view TypeIdToString(TypeId t);

/// Identifier of a pending asynchronous external call.
using CallId = uint64_t;
inline constexpr CallId kInvalidCallId = 0;

/// Marker stored inside an incomplete tuple (paper §4.1).
struct Placeholder {
  CallId call = kInvalidCallId;
  /// Index of the output field in the call's result rows that will
  /// replace this value.
  int32_t field = 0;

  bool operator==(const Placeholder& o) const {
    return call == o.call && field == o.field;
  }
};

/// A dynamically-typed SQL value: NULL, INT64, DOUBLE, STRING, or a
/// placeholder for a pending external call.
class Value {
 public:
  /// NULL value.
  Value() : rep_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Int(int64_t v) { return Value(v); }
  static Value Real(double v) { return Value(v); }
  static Value Str(std::string v) { return Value(std::move(v)); }
  static Value Pending(CallId call, int32_t field) {
    return Value(Placeholder{call, field});
  }

  TypeId type() const {
    switch (rep_.index()) {
      case 0: return TypeId::kNull;
      case 1: return TypeId::kInt64;
      case 2: return TypeId::kDouble;
      case 3: return TypeId::kString;
      default: return TypeId::kPlaceholder;
    }
  }

  bool is_null() const { return type() == TypeId::kNull; }
  bool is_int() const { return type() == TypeId::kInt64; }
  bool is_double() const { return type() == TypeId::kDouble; }
  bool is_string() const { return type() == TypeId::kString; }
  bool is_placeholder() const { return type() == TypeId::kPlaceholder; }
  /// True for INT64 or DOUBLE.
  bool is_numeric() const { return is_int() || is_double(); }

  int64_t AsInt() const { return std::get<int64_t>(rep_); }
  double AsDouble() const { return std::get<double>(rep_); }
  const std::string& AsString() const { return std::get<std::string>(rep_); }
  const Placeholder& AsPlaceholder() const {
    return std::get<Placeholder>(rep_);
  }

  /// Makes this a STRING holding `s`. A value that already holds a
  /// string keeps its buffer, so decoding into a reused row does not
  /// allocate once the buffer is large enough.
  void AssignString(std::string_view s) {
    if (auto* str = std::get_if<std::string>(&rep_)) {
      str->assign(s);
    } else {
      rep_.emplace<std::string>(s);
    }
  }

  /// Numeric value widened to double (INT64 or DOUBLE only).
  double NumericAsDouble() const {
    return is_int() ? static_cast<double>(AsInt()) : AsDouble();
  }

  /// Three-way comparison defining a total order for sorting:
  /// NULL < numerics (compared cross-type) < strings < placeholders.
  /// Returns <0, 0, >0.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }

  /// Stable hash consistent with operator==.
  size_t Hash() const;

  /// Approximate in-memory footprint in bytes (rep + string payload).
  /// Used by ReqSync buffer budgets; cheap, not exact.
  size_t ApproxBytes() const {
    size_t n = sizeof(Value);
    if (is_string()) n += AsString().capacity();
    return n;
  }

  /// Human-readable rendering ("NULL", 42, 3.14, 'abc', ?<call:field>).
  std::string ToString() const;

  /// Coercions used by the expression evaluator.
  Result<int64_t> ToInt() const;
  Result<double> ToDouble() const;

 private:
  explicit Value(int64_t v) : rep_(v) {}
  explicit Value(double v) : rep_(v) {}
  explicit Value(std::string v) : rep_(std::move(v)) {}
  explicit Value(Placeholder p) : rep_(p) {}

  std::variant<std::monostate, int64_t, double, std::string, Placeholder>
      rep_;
};

}  // namespace wsq

#endif  // WSQ_TYPES_VALUE_H_
