#ifndef WSQ_TYPES_ROW_H_
#define WSQ_TYPES_ROW_H_

#include <string>
#include <vector>

#include "types/value.h"

namespace wsq {

/// A materialized tuple: an ordered list of values.
///
/// Rows flowing through the asynchronous execution engine may contain
/// placeholder values (see Value::Pending) until a ReqSync operator
/// patches them (paper §4.1).
class Row {
 public:
  Row() = default;
  explicit Row(std::vector<Value> values) : values_(std::move(values)) {}

  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  const Value& value(size_t i) const { return values_[i]; }
  Value& value(size_t i) { return values_[i]; }
  const std::vector<Value>& values() const { return values_; }
  /// For producers that overwrite a reused row in place (decoders,
  /// projection): resizing keeps the vector's capacity.
  std::vector<Value>* mutable_values() { return &values_; }

  void Append(Value v) { values_.push_back(std::move(v)); }

  /// Concatenation for join outputs.
  static Row Concat(const Row& left, const Row& right);

  /// True if any value is a pending placeholder.
  bool HasPlaceholders() const;

  /// Collects the distinct CallIds this row is waiting on.
  std::vector<CallId> PendingCalls() const;

  /// Lexicographic comparison; see Value::Compare for the value order.
  int Compare(const Row& other) const;
  bool operator==(const Row& other) const { return Compare(other) == 0; }

  size_t Hash() const;

  /// Approximate in-memory footprint (sum of Value::ApproxBytes plus
  /// the vector itself). Used by ReqSync buffer budgets.
  size_t ApproxBytes() const;

  /// "[v1, v2, ...]"
  std::string ToString() const;

 private:
  std::vector<Value> values_;
};

}  // namespace wsq

#endif  // WSQ_TYPES_ROW_H_
