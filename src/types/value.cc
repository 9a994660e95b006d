#include "types/value.h"

#include <functional>

#include "common/strings.h"

namespace wsq {

std::string_view TypeIdToString(TypeId t) {
  switch (t) {
    case TypeId::kNull: return "NULL";
    case TypeId::kInt64: return "INT";
    case TypeId::kDouble: return "DOUBLE";
    case TypeId::kString: return "STRING";
    case TypeId::kPlaceholder: return "PLACEHOLDER";
  }
  return "UNKNOWN";
}

namespace {
// Order rank for cross-type comparisons; numerics share a rank.
int TypeRank(TypeId t) {
  switch (t) {
    case TypeId::kNull: return 0;
    case TypeId::kInt64:
    case TypeId::kDouble: return 1;
    case TypeId::kString: return 2;
    case TypeId::kPlaceholder: return 3;
  }
  return 4;
}

template <typename T>
int Cmp(const T& a, const T& b) {
  if (a < b) return -1;
  if (b < a) return 1;
  return 0;
}
}  // namespace

int Value::Compare(const Value& other) const {
  int ra = TypeRank(type());
  int rb = TypeRank(other.type());
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (type()) {
    case TypeId::kNull:
      return 0;
    case TypeId::kInt64:
    case TypeId::kDouble:
      if (is_int() && other.is_int()) return Cmp(AsInt(), other.AsInt());
      return Cmp(NumericAsDouble(), other.NumericAsDouble());
    case TypeId::kString: {
      int c = AsString().compare(other.AsString());
      return (c > 0) - (c < 0);
    }
    case TypeId::kPlaceholder: {
      const Placeholder& a = AsPlaceholder();
      const Placeholder& b = other.AsPlaceholder();
      if (int c = Cmp(a.call, b.call); c != 0) return c;
      return Cmp(a.field, b.field);
    }
  }
  return 0;
}

size_t Value::Hash() const {
  switch (type()) {
    case TypeId::kNull:
      return 0x9E3779B9u;
    case TypeId::kInt64:
      return std::hash<int64_t>()(AsInt());
    case TypeId::kDouble: {
      double d = AsDouble();
      // Hash integral doubles like their int64 counterparts so that
      // 1 == 1.0 implies equal hashes.
      int64_t as_int = static_cast<int64_t>(d);
      if (static_cast<double>(as_int) == d) {
        return std::hash<int64_t>()(as_int);
      }
      return std::hash<double>()(d);
    }
    case TypeId::kString:
      return std::hash<std::string>()(AsString());
    case TypeId::kPlaceholder: {
      const Placeholder& p = AsPlaceholder();
      return std::hash<uint64_t>()(p.call * 31 +
                                   static_cast<uint64_t>(p.field));
    }
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type()) {
    case TypeId::kNull:
      return "NULL";
    case TypeId::kInt64:
      return std::to_string(AsInt());
    case TypeId::kDouble: {
      std::string s = StrFormat("%.6g", AsDouble());
      return s;
    }
    case TypeId::kString:
      return "'" + AsString() + "'";
    case TypeId::kPlaceholder:
      return StrFormat("?<%llu:%d>",
                       static_cast<unsigned long long>(AsPlaceholder().call),
                       AsPlaceholder().field);
  }
  return "?";
}

Result<int64_t> Value::ToInt() const {
  switch (type()) {
    case TypeId::kInt64:
      return AsInt();
    case TypeId::kDouble:
      return static_cast<int64_t>(AsDouble());
    default:
      return Status::TypeError("cannot convert " +
                               std::string(TypeIdToString(type())) +
                               " to INT");
  }
}

Result<double> Value::ToDouble() const {
  switch (type()) {
    case TypeId::kInt64:
      return static_cast<double>(AsInt());
    case TypeId::kDouble:
      return AsDouble();
    default:
      return Status::TypeError("cannot convert " +
                               std::string(TypeIdToString(type())) +
                               " to DOUBLE");
  }
}

}  // namespace wsq
