#include "exec/basic_ops.h"

#include <unordered_map>

#include "common/macros.h"
#include "expr/expr.h"

namespace wsq {

Result<bool> FilterOperator::NextImpl(Row* row) {
  while (true) {
    WSQ_RETURN_IF_ERROR(CheckAlive());
    WSQ_ASSIGN_OR_RETURN(bool more, child_->Next(row));
    if (!more) return false;
    WSQ_ASSIGN_OR_RETURN(bool pass,
                         EvalPredicate(node_->predicate(), *row));
    if (pass) return true;
  }
}

ProjectOperator::ProjectOperator(const ProjectNode* node, OperatorPtr child)
    : Operator(&node->schema()), node_(node), child_(std::move(child)) {
  AddChild(child_.get());
  const auto& exprs = node_->exprs();
  std::unordered_map<size_t, size_t> uses;  // input column → references
  for (const BoundExprPtr& e : exprs) {
    if (e->kind() == BoundExpr::Kind::kColumnRef) {
      ++uses[static_cast<const BoundColumnRef&>(*e).index()];
    }
  }
  for (size_t i = 0; i < exprs.size(); ++i) {
    if (exprs[i]->kind() != BoundExpr::Kind::kColumnRef) {
      computed_.push_back(i);
      continue;
    }
    size_t in = static_cast<const BoundColumnRef&>(*exprs[i]).index();
    (uses[in] == 1 ? moves_ : copies_).push_back({i, in});
  }
}

Result<bool> ProjectOperator::NextImpl(Row* row) {
  WSQ_ASSIGN_OR_RETURN(bool more, child_->Next(&input_));
  if (!more) return false;
  const auto& exprs = node_->exprs();
  std::vector<Value>& out = *row->mutable_values();
  out.resize(exprs.size());
  // Computed expressions may read any input column, so they run
  // before a column is moved out.
  for (size_t i : computed_) {
    WSQ_ASSIGN_OR_RETURN(out[i], exprs[i]->Eval(input_));
  }
  auto check = [&](const ColumnSlot& c) -> Status {
    // Out of range: Eval reports the error.
    return c.in < input_.size() ? Status::OK()
                                : exprs[c.out]->Eval(input_).status();
  };
  for (const ColumnSlot& c : copies_) {
    WSQ_RETURN_IF_ERROR(check(c));
    out[c.out] = input_.value(c.in);
  }
  for (const ColumnSlot& c : moves_) {
    WSQ_RETURN_IF_ERROR(check(c));
    out[c.out] = std::move(input_.value(c.in));
  }
  return true;
}

Result<bool> LimitOperator::NextImpl(Row* row) {
  if (emitted_ >= node_->limit()) return false;
  WSQ_ASSIGN_OR_RETURN(bool more, child_->Next(row));
  if (!more) return false;
  ++emitted_;
  return true;
}

Result<bool> DistinctOperator::NextImpl(Row* row) {
  while (true) {
    WSQ_RETURN_IF_ERROR(CheckAlive());
    WSQ_ASSIGN_OR_RETURN(bool more, child_->Next(row));
    if (!more) return false;
    if (seen_.insert(*row).second) {
      size_t delta = row->ApproxBytes() + sizeof(Row);
      if (!mem_.TryAdd(delta)) mem_.ForceAdd(delta);
      return true;
    }
  }
}

}  // namespace wsq
