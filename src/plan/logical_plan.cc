#include "plan/logical_plan.h"

#include "common/strings.h"

namespace wsq {

std::string PlanNode::ToString() const {
  std::string out;
  AppendTo(&out, 0);
  return out;
}

void PlanNode::AppendTo(std::string* out, int indent) const {
  out->append(static_cast<size_t>(indent) * 2, ' ');
  out->append(Label());
  out->push_back('\n');
  for (const auto& child : children_) {
    child->AppendTo(out, indent + 1);
  }
}

std::string ScanNode::Label() const {
  std::string label = "Scan: " + table_->name();
  if (!EqualsIgnoreCase(effective_name_, table_->name())) {
    label += " " + effective_name_;
  }
  return label;
}

std::string IndexScanNode::Label() const {
  std::string label = "IndexScan: " + table_->name();
  if (!EqualsIgnoreCase(effective_name_, table_->name())) {
    label += " " + effective_name_;
  }
  const std::string& col = schema_.column(index_->column()).name;
  std::string restriction;
  const IndexBound& lo = range_.lo;
  const IndexBound& hi = range_.hi;
  if (range_.IsEquality()) {
    restriction = col + " = " + lo.value->ToString();
  } else {
    std::vector<std::string> parts;
    if (lo.value.has_value()) {
      parts.push_back(col + (lo.inclusive ? " >= " : " > ") +
                      lo.value->ToString());
    }
    if (hi.value.has_value()) {
      parts.push_back(col + (hi.inclusive ? " <= " : " < ") +
                      hi.value->ToString());
    }
    restriction = Join(parts, " and ");
  }
  label += " (" + restriction + ", index " + index_->name() + ")";
  return label;
}

std::vector<size_t> EVScanNode::OutputColumnIndices() const {
  std::vector<size_t> out;
  size_t inputs = schema_.NumColumns() - table_->NumOutputColumns();
  for (size_t i = inputs; i < schema_.NumColumns(); ++i) {
    out.push_back(i);
  }
  return out;
}

std::string EVScanNode::Label() const {
  std::string label = async ? "AEVScan: " : "EVScan: ";
  label += table_->name();
  if (!EqualsIgnoreCase(effective_name_, table_->name())) {
    label += " " + effective_name_;
  }
  std::vector<std::string> details;
  if (!search_exp.empty()) {
    details.push_back("SearchExp = '" + search_exp + "'");
  }
  for (const auto& [term, value] : constant_terms) {
    details.push_back(StrFormat("T%zu = ", term) + value.ToString());
  }
  if (!table_->SingleRowOutput()) {
    details.push_back(StrFormat("Rank <= %lld",
                                static_cast<long long>(rank_limit)));
  }
  if (!details.empty()) {
    label += " (" + Join(details, ", ") + ")";
  }
  return label;
}

std::string FilterNode::Label() const {
  return "Select: " + predicate_->ToString();
}

std::string ProjectNode::Label() const {
  std::vector<std::string> parts;
  parts.reserve(schema_.NumColumns());
  for (size_t i = 0; i < schema_.NumColumns(); ++i) {
    std::string rendered = exprs_[i]->ToString();
    const std::string& name = schema_.column(i).name;
    if (rendered == name || rendered == schema_.column(i).QualifiedName()) {
      parts.push_back(rendered);
    } else {
      parts.push_back(rendered + " AS " + name);
    }
  }
  return "Project: " + Join(parts, ", ");
}

std::string NestedLoopJoinNode::Label() const {
  return "Join: " + predicate_->ToString();
}

std::string DependentJoinNode::Label() const {
  const Schema& left = children_[0]->schema();
  const Schema& right = children_[1]->schema();
  std::vector<std::string> parts;
  parts.reserve(bindings_.size());
  for (const Binding& b : bindings_) {
    // Term columns sit at index term_index within the right schema
    // (index 0 is SearchExp).
    std::string rhs = b.term_index < right.NumColumns()
                          ? right.column(b.term_index).QualifiedName()
                          : StrFormat("T%zu", b.term_index);
    parts.push_back(left.column(b.left_column).QualifiedName() + " -> " +
                    rhs);
  }
  return "Dependent Join: " + Join(parts, ", ");
}

std::string SortNode::Label() const {
  std::vector<std::string> parts;
  parts.reserve(keys_.size());
  for (const SortKey& k : keys_) {
    parts.push_back(k.expr->ToString() +
                    (k.descending ? " desc" : ""));
  }
  return "Sort: " + Join(parts, ", ");
}

std::string_view AggFuncToString(AggFunc f) {
  switch (f) {
    case AggFunc::kCountStar: return "COUNT(*)";
    case AggFunc::kCount: return "COUNT";
    case AggFunc::kSum: return "SUM";
    case AggFunc::kAvg: return "AVG";
    case AggFunc::kMin: return "MIN";
    case AggFunc::kMax: return "MAX";
  }
  return "?";
}

std::string AggregateNode::Label() const {
  std::vector<std::string> parts;
  for (const auto& g : group_by_) parts.push_back(g->ToString());
  for (const AggSpec& a : aggs_) {
    if (a.func == AggFunc::kCountStar) {
      parts.push_back("COUNT(*)");
    } else {
      parts.push_back(std::string(AggFuncToString(a.func)) + "(" +
                      a.arg->ToString() + ")");
    }
  }
  return "Aggregate: " + Join(parts, ", ");
}

std::string LimitNode::Label() const {
  return StrFormat("Limit: %lld", static_cast<long long>(limit_));
}

std::string_view OnCallErrorToString(OnCallError policy) {
  switch (policy) {
    case OnCallError::kFailQuery: return "fail-query";
    case OnCallError::kDropTuple: return "drop-tuple";
    case OnCallError::kNullPad: return "null-pad";
  }
  return "?";
}

std::string ReqSyncNode::Label() const {
  // The default policy is not rendered: golden plan tests (and EXPLAIN
  // users) only see the annotation when degradation is enabled.
  std::string label = streaming ? "ReqSync (streaming)" : "ReqSync";
  if (on_call_error != OnCallError::kFailQuery) {
    label += " [on error: ";
    label += OnCallErrorToString(on_call_error);
    label += "]";
  }
  return label;
}

}  // namespace wsq
