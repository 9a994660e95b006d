#include "plan/binder.h"

#include <algorithm>
#include <set>

#include "common/macros.h"
#include "common/strings.h"

namespace wsq {

void CollectConjuncts(const ParsedExpr& expr,
                      std::vector<const ParsedExpr*>* out) {
  if (expr.kind() == ParsedExpr::Kind::kBinary) {
    const auto& bin = static_cast<const BinaryExpr&>(expr);
    if (bin.op() == BinaryOp::kAnd) {
      CollectConjuncts(bin.left(), out);
      CollectConjuncts(bin.right(), out);
      return;
    }
  }
  out->push_back(&expr);
}

size_t ParseTermIndex(const std::string& name) {
  if (name.size() != 2) return 0;
  if (name[0] != 'T' && name[0] != 't') return 0;
  if (name[1] < '1' || name[1] > '9') return 0;
  return static_cast<size_t>(name[1] - '0');
}

namespace {

/// Recursively collects every column reference in `expr`.
void CollectColumnRefs(const ParsedExpr& expr,
                       std::vector<const ColumnRefExpr*>* out) {
  switch (expr.kind()) {
    case ParsedExpr::Kind::kColumnRef:
      out->push_back(static_cast<const ColumnRefExpr*>(&expr));
      return;
    case ParsedExpr::Kind::kUnary:
      CollectColumnRefs(static_cast<const UnaryExpr&>(expr).operand(),
                        out);
      return;
    case ParsedExpr::Kind::kBinary: {
      const auto& bin = static_cast<const BinaryExpr&>(expr);
      CollectColumnRefs(bin.left(), out);
      CollectColumnRefs(bin.right(), out);
      return;
    }
    case ParsedExpr::Kind::kFunctionCall: {
      const auto& f = static_cast<const FuncExpr&>(expr);
      for (const auto& a : f.args()) CollectColumnRefs(*a, out);
      return;
    }
    default:
      return;
  }
}

/// Collects aggregate function calls (no recursion into their args);
/// scalar functions (UPPER, ...) are transparent.
void CollectAggCalls(const ParsedExpr& expr,
                     std::vector<const FuncExpr*>* out) {
  switch (expr.kind()) {
    case ParsedExpr::Kind::kFunctionCall: {
      const auto& f = static_cast<const FuncExpr&>(expr);
      ScalarFunc scalar;
      if (LookupScalarFunc(f.name(), &scalar)) {
        for (const auto& a : f.args()) CollectAggCalls(*a, out);
        return;
      }
      out->push_back(&f);
      return;
    }
    case ParsedExpr::Kind::kUnary:
      CollectAggCalls(static_cast<const UnaryExpr&>(expr).operand(), out);
      return;
    case ParsedExpr::Kind::kBinary: {
      const auto& bin = static_cast<const BinaryExpr&>(expr);
      CollectAggCalls(bin.left(), out);
      CollectAggCalls(bin.right(), out);
      return;
    }
    default:
      return;
  }
}

/// Every scalar expression in the statement, for ref analysis.
template <typename Fn>
void ForEachStatementExpr(const SelectStatement& stmt, Fn fn) {
  for (const SelectItem& item : stmt.select_list) fn(*item.expr);
  if (stmt.where != nullptr) fn(*stmt.where);
  for (const auto& g : stmt.group_by) fn(*g);
  if (stmt.having != nullptr) fn(*stmt.having);
  for (const auto& o : stmt.order_by) fn(*o.expr);
}

BinaryOp MirrorComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt: return BinaryOp::kGt;
    case BinaryOp::kLe: return BinaryOp::kGe;
    case BinaryOp::kGt: return BinaryOp::kLt;
    case BinaryOp::kGe: return BinaryOp::kLe;
    default: return op;
  }
}

/// A `column op literal` conjunct on one of the table's indexed
/// columns, with the column on the left and the literal widened to the
/// column's type.
struct Sargable {
  IndexInfo* index;
  BinaryOp op;
  Value key;
};

std::optional<Sargable> MatchSargable(const TableInfo& table,
                                      const ParsedExpr& expr,
                                      const ColumnResolver& column_of) {
  if (expr.kind() != ParsedExpr::Kind::kBinary) return std::nullopt;
  const auto& bin = static_cast<const BinaryExpr&>(expr);
  BinaryOp op = bin.op();
  if (op != BinaryOp::kEq && op != BinaryOp::kLt && op != BinaryOp::kLe &&
      op != BinaryOp::kGt && op != BinaryOp::kGe) {
    return std::nullopt;
  }
  const ParsedExpr* col = &bin.left();
  const ParsedExpr* lit = &bin.right();
  if (col->kind() != ParsedExpr::Kind::kColumnRef) {
    std::swap(col, lit);
    op = MirrorComparison(op);
  }
  if (col->kind() != ParsedExpr::Kind::kColumnRef ||
      lit->kind() != ParsedExpr::Kind::kLiteral) {
    return std::nullopt;
  }
  std::optional<size_t> position =
      column_of(static_cast<const ColumnRefExpr&>(*col));
  if (!position.has_value()) return std::nullopt;
  const Column& column = table.schema().column(*position);
  IndexInfo* index = table.FindIndexOn(column.name);
  if (index == nullptr) return std::nullopt;

  Value key = static_cast<const LiteralExpr&>(*lit).value();
  if (key.is_null()) return std::nullopt;
  if (column.type == TypeId::kDouble && key.is_int()) {
    key = Value::Real(static_cast<double>(key.AsInt()));
  }
  if (key.type() != column.type) return std::nullopt;  // let the filter error
  // A string too long for an index key matches no indexed row; the
  // filter gives that answer instead of a key-encoding error.
  if (!EncodeBTreeKey(key).ok()) return std::nullopt;
  return Sargable{index, op, std::move(key)};
}

}  // namespace

std::optional<IndexAccess> MatchIndexAccess(
    const TableInfo& table, const std::vector<const ParsedExpr*>& conjuncts,
    const ColumnResolver& column_of) {
  std::vector<std::optional<Sargable>> matched;
  matched.reserve(conjuncts.size());
  for (const ParsedExpr* conjunct : conjuncts) {
    matched.push_back(conjunct == nullptr
                          ? std::nullopt
                          : MatchSargable(table, *conjunct, column_of));
  }

  // An equality probe: the first one wins.
  for (size_t i = 0; i < matched.size(); ++i) {
    if (matched[i].has_value() && matched[i]->op == BinaryOp::kEq) {
      return IndexAccess{matched[i]->index,
                         IndexRange::Equal(matched[i]->key), {i}};
    }
  }

  // No equality: fold the range conjuncts on one indexed column (the
  // first one matched) into one range, keeping the tightest bounds.
  IndexAccess access;
  for (size_t i = 0; i < matched.size(); ++i) {
    if (!matched[i].has_value()) continue;
    Sargable& m = *matched[i];
    if (access.index != nullptr && m.index != access.index) continue;
    bool is_upper = m.op == BinaryOp::kLt || m.op == BinaryOp::kLe;
    bool inclusive = m.op == BinaryOp::kLe || m.op == BinaryOp::kGe;
    IndexBound* side = is_upper ? &access.range.hi : &access.range.lo;
    bool tighter;
    if (!side->value.has_value()) {
      tighter = true;
    } else {
      int c = m.key.Compare(*side->value);
      tighter = is_upper ? (c < 0 || (c == 0 && !inclusive))
                         : (c > 0 || (c == 0 && !inclusive));
    }
    if (tighter) {
      side->value = std::move(m.key);
      side->inclusive = inclusive;
    }
    access.index = m.index;
    access.consumed.push_back(i);
  }
  if (access.index == nullptr) return std::nullopt;
  return access;
}

Binder::Binder(const Catalog* catalog, const VirtualTableRegistry* vtables,
               BinderOptions options)
    : catalog_(catalog), vtables_(vtables), options_(options) {}

Result<BoundExprPtr> Binder::BindScalar(const ParsedExpr& expr,
                                        const Schema& schema) {
  switch (expr.kind()) {
    case ParsedExpr::Kind::kColumnRef: {
      const auto& ref = static_cast<const ColumnRefExpr&>(expr);
      WSQ_ASSIGN_OR_RETURN(size_t idx,
                           schema.Find(ref.qualifier(), ref.name()));
      return BoundExprPtr(
          std::make_unique<BoundColumnRef>(idx, schema.column(idx)));
    }
    case ParsedExpr::Kind::kLiteral:
      return BoundExprPtr(std::make_unique<BoundLiteral>(
          static_cast<const LiteralExpr&>(expr).value()));
    case ParsedExpr::Kind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(expr);
      WSQ_ASSIGN_OR_RETURN(BoundExprPtr operand,
                           BindScalar(u.operand(), schema));
      return BoundExprPtr(
          std::make_unique<BoundUnary>(u.op(), std::move(operand)));
    }
    case ParsedExpr::Kind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(expr);
      WSQ_ASSIGN_OR_RETURN(BoundExprPtr left, BindScalar(b.left(), schema));
      WSQ_ASSIGN_OR_RETURN(BoundExprPtr right,
                           BindScalar(b.right(), schema));
      return BoundExprPtr(std::make_unique<BoundBinary>(
          b.op(), std::move(left), std::move(right)));
    }
    case ParsedExpr::Kind::kStar:
      return Status::BindError("'*' is not valid in this context");
    case ParsedExpr::Kind::kFunctionCall: {
      const auto& f = static_cast<const FuncExpr&>(expr);
      ScalarFunc func;
      if (LookupScalarFunc(f.name(), &func)) {
        std::vector<BoundExprPtr> args;
        args.reserve(f.args().size());
        for (const auto& a : f.args()) {
          WSQ_ASSIGN_OR_RETURN(BoundExprPtr bound,
                               BindScalar(*a, schema));
          args.push_back(std::move(bound));
        }
        return BoundExprPtr(
            std::make_unique<BoundFunction>(func, std::move(args)));
      }
      return Status::BindError(
          "aggregate function in a non-aggregated context: " +
          expr.ToString());
    }
  }
  return Status::Internal("unknown expression kind");
}

Result<std::vector<Binder::Source>> Binder::ResolveSources(
    const SelectStatement& stmt) {
  if (stmt.from.empty()) {
    return Status::BindError("FROM clause is empty");
  }
  std::vector<Source> sources;
  std::set<std::string> seen;
  for (const TableRef& ref : stmt.from) {
    Source src;
    src.effective_name = ref.EffectiveName();
    std::string key = ToLower(src.effective_name);
    if (!seen.insert(key).second) {
      return Status::BindError("duplicate table name/alias in FROM: " +
                               src.effective_name);
    }
    auto stored = catalog_->GetTable(ref.table);
    if (stored.ok()) {
      src.table = *stored;
    } else {
      auto vt = vtables_->Get(ref.table);
      if (!vt.ok()) {
        return Status::BindError("no such table or virtual table: " +
                                 ref.table);
      }
      src.is_virtual = true;
      src.vtable = *vt;
      src.rank_limit = options_.default_rank_limit;
    }
    sources.push_back(std::move(src));
  }
  return sources;
}

Status Binder::DetermineTermCounts(const SelectStatement& stmt,
                                   std::vector<Source>* sources) {
  size_t num_virtual = 0;
  for (const Source& s : *sources) {
    if (s.is_virtual) ++num_virtual;
  }

  // Map qualifier → source index for virtual sources.
  auto find_virtual = [&](const std::string& qualifier) -> Source* {
    if (qualifier.empty()) {
      if (num_virtual == 1) {
        for (Source& s : *sources) {
          if (s.is_virtual) return &s;
        }
      }
      return nullptr;
    }
    for (Source& s : *sources) {
      if (s.is_virtual && EqualsIgnoreCase(s.effective_name, qualifier)) {
        return &s;
      }
    }
    return nullptr;
  };

  Status error;
  ForEachStatementExpr(stmt, [&](const ParsedExpr& e) {
    std::vector<const ColumnRefExpr*> refs;
    CollectColumnRefs(e, &refs);
    for (const ColumnRefExpr* ref : refs) {
      size_t term = ParseTermIndex(ref->name());
      if (term == 0) continue;
      Source* src = find_virtual(ref->qualifier());
      if (src == nullptr) {
        if (ref->qualifier().empty() && num_virtual > 1 &&
            error.ok()) {
          error = Status::BindError(
              "ambiguous term column " + ref->name() +
              ": qualify it with a table alias");
        }
        continue;
      }
      src->num_terms = std::max(src->num_terms, term);
    }
  });
  WSQ_RETURN_IF_ERROR(error);

  // A constant SearchExp can reference terms beyond any Ti column, and
  // raises n accordingly ("%1 near %3" needs T1..T3 to exist).
  if (stmt.where != nullptr) {
    std::vector<const ParsedExpr*> conjuncts;
    CollectConjuncts(*stmt.where, &conjuncts);
    for (const ParsedExpr* c : conjuncts) {
      if (c->kind() != ParsedExpr::Kind::kBinary) continue;
      const auto& bin = static_cast<const BinaryExpr&>(*c);
      if (bin.op() != BinaryOp::kEq) continue;
      const ParsedExpr* col = &bin.left();
      const ParsedExpr* lit = &bin.right();
      if (col->kind() != ParsedExpr::Kind::kColumnRef) {
        std::swap(col, lit);
      }
      if (col->kind() != ParsedExpr::Kind::kColumnRef ||
          lit->kind() != ParsedExpr::Kind::kLiteral) {
        continue;
      }
      const auto& ref = static_cast<const ColumnRefExpr&>(*col);
      if (!EqualsIgnoreCase(ref.name(), "SearchExp")) continue;
      Source* src = find_virtual(ref.qualifier());
      if (src == nullptr) continue;
      const Value& v = static_cast<const LiteralExpr&>(*lit).value();
      if (!v.is_string()) continue;
      const std::string& s = v.AsString();
      for (size_t i = 0; i + 1 < s.size(); ++i) {
        if (s[i] == '%' && s[i + 1] >= '1' && s[i + 1] <= '9') {
          src->num_terms = std::max(
              src->num_terms, static_cast<size_t>(s[i + 1] - '0'));
        }
      }
    }
  }

  // Build schemas and offsets.
  size_t offset = 0;
  for (Source& s : *sources) {
    if (s.is_virtual) {
      s.schema = s.vtable->SchemaForTerms(s.num_terms)
                     .WithQualifier(s.effective_name);
    } else {
      s.schema = s.table->schema().WithQualifier(s.effective_name);
    }
    s.offset = offset;
    offset += s.schema.NumColumns();
  }
  return Status::OK();
}

Result<std::pair<size_t, size_t>> Binder::ResolveColumn(
    const std::vector<Source>& sources, const std::string& qualifier,
    const std::string& name) const {
  int found_source = -1;
  size_t found_col = 0;
  int matches = 0;
  for (size_t i = 0; i < sources.size(); ++i) {
    if (!qualifier.empty() &&
        !EqualsIgnoreCase(sources[i].effective_name, qualifier)) {
      continue;
    }
    for (size_t c = 0; c < sources[i].schema.NumColumns(); ++c) {
      if (EqualsIgnoreCase(sources[i].schema.column(c).name, name)) {
        found_source = static_cast<int>(i);
        found_col = c;
        ++matches;
      }
    }
  }
  if (matches == 0) {
    std::string full = qualifier.empty() ? name : qualifier + "." + name;
    return Status::BindError("column not found: " + full);
  }
  if (matches > 1) {
    return Status::BindError("ambiguous column reference: " + name);
  }
  return std::make_pair(static_cast<size_t>(found_source), found_col);
}

Status Binder::ClassifyWhere(const SelectStatement& stmt,
                             std::vector<Source>* sources,
                             std::vector<Residual>* residuals,
                             const Schema& combined) {
  if (stmt.where == nullptr) return Status::OK();
  std::vector<const ParsedExpr*> conjuncts;
  CollectConjuncts(*stmt.where, &conjuncts);

  for (const ParsedExpr* conjunct : conjuncts) {
    bool consumed = false;
    if (conjunct->kind() == ParsedExpr::Kind::kBinary) {
      const auto& bin = static_cast<const BinaryExpr&>(*conjunct);
      if (IsComparisonOp(bin.op())) {
        // Identify column/other sides.
        const ParsedExpr* a = &bin.left();
        const ParsedExpr* b = &bin.right();
        BinaryOp op = bin.op();

        auto side_source = [&](const ParsedExpr* e)
            -> std::optional<std::pair<size_t, size_t>> {
          if (e->kind() != ParsedExpr::Kind::kColumnRef) {
            return std::nullopt;
          }
          const auto& ref = static_cast<const ColumnRefExpr&>(*e);
          auto r = ResolveColumn(*sources, ref.qualifier(), ref.name());
          if (!r.ok()) return std::nullopt;
          return *r;
        };

        auto is_vinput = [&](std::pair<size_t, size_t> sc) {
          const Source& s = (*sources)[sc.first];
          return s.is_virtual && sc.second <= s.num_terms;
        };
        auto is_rank = [&](std::pair<size_t, size_t> sc) {
          const Source& s = (*sources)[sc.first];
          if (!s.is_virtual) return false;
          std::string rank_col = s.vtable->RankColumn();
          return !rank_col.empty() &&
                 EqualsIgnoreCase(s.schema.column(sc.second).name,
                                  rank_col);
        };

        std::optional<std::pair<size_t, size_t>> sa = side_source(a);
        std::optional<std::pair<size_t, size_t>> sb = side_source(b);

        // Normalize so the virtual input (if any) is on the left.
        if ((!sa.has_value() || !is_vinput(*sa)) && sb.has_value() &&
            is_vinput(*sb)) {
          std::swap(a, b);
          std::swap(sa, sb);
          op = MirrorComparison(op);
        }

        if (sa.has_value() && is_vinput(*sa)) {
          Source& vsrc = (*sources)[sa->first];
          size_t col = sa->second;  // 0 = SearchExp, 1..n = terms
          if (op != BinaryOp::kEq) {
            return Status::BindError(
                "virtual table input " +
                vsrc.schema.column(col).QualifiedName() +
                " must be bound with '='");
          }
          if (b->kind() == ParsedExpr::Kind::kLiteral) {
            const Value& v =
                static_cast<const LiteralExpr&>(*b).value();
            if (col == 0) {
              if (!v.is_string()) {
                return Status::BindError(
                    "SearchExp must be bound to a string");
              }
              if (!vsrc.search_exp.empty()) {
                return Status::BindError("SearchExp bound twice for " +
                                         vsrc.effective_name);
              }
              vsrc.search_exp = v.AsString();
            } else {
              bool already_dep = false;
              for (const auto& existing : vsrc.dependent_bindings) {
                if (existing.term_index == col) already_dep = true;
              }
              if (vsrc.constant_terms.count(col) > 0 || already_dep) {
                return Status::BindError(
                    vsrc.schema.column(col).QualifiedName() +
                    " bound twice");
              }
              vsrc.constant_terms[col] = v;
            }
            consumed = true;
          } else if (sb.has_value()) {
            // Equi-join binding from another source's column.
            if (is_vinput(*sb)) {
              return Status::BindError(
                  "cannot bind two virtual table inputs to each other: " +
                  conjunct->ToString());
            }
            if (col == 0) {
              return Status::BindError(
                  "SearchExp must be bound to a string constant");
            }
            if (sb->first > sa->first) {
              return Status::BindError(
                  (*sources)[sb->first].effective_name +
                  " must precede " + vsrc.effective_name +
                  " in the FROM clause to supply its T" +
                  std::to_string(col) + " binding");
            }
            if (sb->first == sa->first) {
              return Status::BindError(
                  "virtual table input bound to its own column: " +
                  conjunct->ToString());
            }
            for (const auto& existing : vsrc.dependent_bindings) {
              if (existing.term_index == col) {
                return Status::BindError(
                    vsrc.schema.column(col).QualifiedName() +
                    " bound twice");
              }
            }
            if (vsrc.constant_terms.count(col) > 0) {
              return Status::BindError(
                  vsrc.schema.column(col).QualifiedName() +
                  " bound twice");
            }
            vsrc.dependent_bindings.push_back(DependentJoinNode::Binding{
                (*sources)[sb->first].offset + sb->second, col});
            consumed = true;
          } else {
            return Status::BindError(
                "virtual table input must be bound by a constant or an "
                "equi-join: " +
                conjunct->ToString());
          }
        } else {
          // Rank pushdown: Rank <= k / Rank < k (literal side).
          const ParsedExpr* rank_side = nullptr;
          const ParsedExpr* lit_side = nullptr;
          BinaryOp rop = bin.op();
          if (sa.has_value() && is_rank(*sa) &&
              b->kind() == ParsedExpr::Kind::kLiteral) {
            rank_side = a;
            lit_side = b;
          } else if (sb.has_value() && is_rank(*sb) &&
                     a->kind() == ParsedExpr::Kind::kLiteral) {
            rank_side = b;
            lit_side = a;
            rop = MirrorComparison(rop);
          }
          if (rank_side != nullptr) {
            const Value& v =
                static_cast<const LiteralExpr&>(*lit_side).value();
            if (v.is_int()) {
              auto rank_source = side_source(rank_side);
              Source& rsrc = (*sources)[rank_source->first];
              if (rop == BinaryOp::kLe) {
                rsrc.rank_limit = std::min(rsrc.rank_limit, v.AsInt());
                consumed = true;
              } else if (rop == BinaryOp::kLt) {
                rsrc.rank_limit =
                    std::min(rsrc.rank_limit, v.AsInt() - 1);
                consumed = true;
              } else if (rop == BinaryOp::kEq) {
                rsrc.rank_limit = std::min(rsrc.rank_limit, v.AsInt());
                // Keep the equality as a residual filter too.
              }
            }
          }
        }
      }
    }

    if (!consumed) {
      // Residual predicate: validate all column refs and find the
      // latest source it mentions.
      std::vector<const ColumnRefExpr*> refs;
      CollectColumnRefs(*conjunct, &refs);
      size_t attach_after = 0;
      for (const ColumnRefExpr* ref : refs) {
        WSQ_ASSIGN_OR_RETURN(
            auto sc, ResolveColumn(*sources, ref->qualifier(),
                                   ref->name()));
        attach_after = std::max(attach_after, sc.first);
      }
      // Sanity: the conjunct must bind against the combined schema.
      WSQ_RETURN_IF_ERROR(BindScalar(*conjunct, combined).status());
      residuals->push_back(Residual{conjunct, attach_after});
    }
  }
  return Status::OK();
}

Result<PlanNodePtr> Binder::BuildJoinTree(std::vector<Source>* sources,
                                          std::vector<Residual>* residuals,
                                          const Schema& combined) {
  // Validate virtual bindings.
  for (Source& s : *sources) {
    if (!s.is_virtual) continue;
    if (s.num_terms == 0 && s.search_exp.empty()) {
      return Status::BindError(
          "virtual table " + s.effective_name +
          " requires at least one bound term (T1) or a constant "
          "SearchExp");
    }
    for (size_t k = 1; k <= s.num_terms; ++k) {
      bool has_const = s.constant_terms.count(k) > 0;
      bool has_dep = false;
      for (const auto& b : s.dependent_bindings) {
        if (b.term_index == k) has_dep = true;
      }
      if (!has_const && !has_dep) {
        return Status::BindError(
            s.effective_name + ".T" + std::to_string(k) +
            " is unbound; virtual table inputs must be bound by a "
            "constant or an equi-join");
      }
    }
  }

  // Access a stored source through an IndexScan when one of its
  // single-table residuals is sargable; the index consumes the conjuncts
  // it answers.
  auto make_table_access = [&](Source& s, size_t level) -> PlanNodePtr {
    std::vector<const ParsedExpr*> conjuncts;
    for (const Residual& r : *residuals) {
      conjuncts.push_back(r.attach_after == level ? r.expr : nullptr);
    }
    std::optional<IndexAccess> access = MatchIndexAccess(
        *s.table, conjuncts,
        [&](const ColumnRefExpr& ref) -> std::optional<size_t> {
          auto resolved =
              ResolveColumn(*sources, ref.qualifier(), ref.name());
          if (!resolved.ok() || resolved->first != level) {
            return std::nullopt;
          }
          return resolved->second;
        });
    if (!access.has_value()) {
      return std::make_unique<ScanNode>(s.table, s.effective_name);
    }
    for (size_t i : access->consumed) (*residuals)[i].expr = nullptr;
    return std::make_unique<IndexScanNode>(s.table, access->index,
                                           s.effective_name,
                                           std::move(access->range));
  };

  auto make_ev_scan = [&](Source& s) {
    auto ev = std::make_unique<EVScanNode>(s.vtable, s.effective_name,
                                           s.num_terms);
    ev->constant_terms = s.constant_terms;
    ev->search_exp = s.search_exp;
    ev->rank_limit = s.rank_limit;
    return ev;
  };

  auto attach_residuals = [&](PlanNodePtr node,
                              size_t level) -> Result<PlanNodePtr> {
    for (Residual& r : *residuals) {
      if (r.expr == nullptr || r.attach_after != level) continue;
      WSQ_ASSIGN_OR_RETURN(BoundExprPtr pred,
                           BindScalar(*r.expr, combined));
      node = std::make_unique<FilterNode>(std::move(node),
                                          std::move(pred));
      r.expr = nullptr;
    }
    return node;
  };

  // First source.
  Source& first = (*sources)[0];
  PlanNodePtr plan;
  if (first.is_virtual) {
    if (!first.dependent_bindings.empty()) {
      return Status::Internal(
          "dependent binding on the first FROM table escaped validation");
    }
    plan = make_ev_scan(first);
  } else {
    plan = make_table_access(first, 0);
  }
  WSQ_ASSIGN_OR_RETURN(plan, attach_residuals(std::move(plan), 0));

  for (size_t i = 1; i < sources->size(); ++i) {
    Source& s = (*sources)[i];
    if (s.is_virtual) {
      PlanNodePtr ev = make_ev_scan(s);
      if (!s.dependent_bindings.empty()) {
        plan = std::make_unique<DependentJoinNode>(
            std::move(plan), std::move(ev), s.dependent_bindings);
      } else {
        plan = std::make_unique<CrossProductNode>(std::move(plan),
                                                  std::move(ev));
      }
    } else {
      PlanNodePtr scan = make_table_access(s, i);
      // Fold this level's residuals into the join predicate.
      BoundExprPtr pred;
      for (Residual& r : *residuals) {
        if (r.expr == nullptr || r.attach_after != i) continue;
        WSQ_ASSIGN_OR_RETURN(BoundExprPtr p, BindScalar(*r.expr, combined));
        if (pred == nullptr) {
          pred = std::move(p);
        } else {
          pred = std::make_unique<BoundBinary>(
              BinaryOp::kAnd, std::move(pred), std::move(p));
        }
        r.expr = nullptr;
      }
      if (pred != nullptr) {
        plan = std::make_unique<NestedLoopJoinNode>(
            std::move(plan), std::move(scan), std::move(pred));
      } else {
        plan = std::make_unique<CrossProductNode>(std::move(plan),
                                                  std::move(scan));
      }
    }
    WSQ_ASSIGN_OR_RETURN(plan, attach_residuals(std::move(plan), i));
  }

  // Any residual left is a bug.
  for (const Residual& r : *residuals) {
    if (r.expr != nullptr) {
      return Status::Internal("unattached residual predicate: " +
                              r.expr->ToString());
    }
  }
  return plan;
}

namespace {

struct Substitution {
  std::string text;  // parsed-expression rendering
  size_t column;     // aggregate output column
};

/// Binds `expr` against the aggregate output: subtrees matching a
/// substitution (a GROUP BY expression or an aggregate call, compared
/// by rendered text) become column refs; other column refs are errors.
Result<BoundExprPtr> BindOverAggregate(
    const ParsedExpr& expr, const std::vector<Substitution>& subs,
    const Schema& out_schema) {
  std::string text = expr.ToString();
  for (const Substitution& s : subs) {
    if (EqualsIgnoreCase(s.text, text)) {
      return BoundExprPtr(std::make_unique<BoundColumnRef>(
          s.column, out_schema.column(s.column)));
    }
  }
  switch (expr.kind()) {
    case ParsedExpr::Kind::kLiteral:
      return BoundExprPtr(std::make_unique<BoundLiteral>(
          static_cast<const LiteralExpr&>(expr).value()));
    case ParsedExpr::Kind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(expr);
      WSQ_ASSIGN_OR_RETURN(
          BoundExprPtr operand,
          BindOverAggregate(u.operand(), subs, out_schema));
      return BoundExprPtr(
          std::make_unique<BoundUnary>(u.op(), std::move(operand)));
    }
    case ParsedExpr::Kind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(expr);
      WSQ_ASSIGN_OR_RETURN(BoundExprPtr left,
                           BindOverAggregate(b.left(), subs, out_schema));
      WSQ_ASSIGN_OR_RETURN(BoundExprPtr right,
                           BindOverAggregate(b.right(), subs, out_schema));
      return BoundExprPtr(std::make_unique<BoundBinary>(
          b.op(), std::move(left), std::move(right)));
    }
    case ParsedExpr::Kind::kColumnRef:
      return Status::BindError(
          expr.ToString() +
          " must appear in GROUP BY or inside an aggregate function");
    case ParsedExpr::Kind::kFunctionCall: {
      const auto& f = static_cast<const FuncExpr&>(expr);
      ScalarFunc scalar;
      if (LookupScalarFunc(f.name(), &scalar)) {
        std::vector<BoundExprPtr> args;
        args.reserve(f.args().size());
        for (const auto& a : f.args()) {
          WSQ_ASSIGN_OR_RETURN(
              BoundExprPtr bound,
              BindOverAggregate(*a, subs, out_schema));
          args.push_back(std::move(bound));
        }
        return BoundExprPtr(
            std::make_unique<BoundFunction>(scalar, std::move(args)));
      }
      return Status::BindError("nested or unknown aggregate: " +
                               expr.ToString());
    }
    case ParsedExpr::Kind::kStar:
      return Status::BindError("'*' is not valid in this context");
  }
  return Status::Internal("unknown expression kind");
}

Result<AggFunc> AggFuncFromName(const std::string& name) {
  std::string upper = ToUpper(name);
  if (upper == "COUNT") return AggFunc::kCount;
  if (upper == "SUM") return AggFunc::kSum;
  if (upper == "AVG") return AggFunc::kAvg;
  if (upper == "MIN") return AggFunc::kMin;
  if (upper == "MAX") return AggFunc::kMax;
  return Status::BindError("unknown aggregate function: " + name);
}

TypeId AggOutputType(AggFunc f, const BoundExpr* arg) {
  switch (f) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return TypeId::kInt64;
    case AggFunc::kAvg:
      return TypeId::kDouble;
    case AggFunc::kSum:
    case AggFunc::kMin:
    case AggFunc::kMax:
      return arg != nullptr ? arg->OutputType() : TypeId::kNull;
  }
  return TypeId::kNull;
}

}  // namespace

Result<PlanNodePtr> Binder::ApplyAggregation(
    const SelectStatement& stmt, PlanNodePtr plan,
    std::vector<SelectItem>* select_out) {
  // Gather aggregate calls from SELECT / HAVING / ORDER BY.
  std::vector<const FuncExpr*> calls;
  for (const SelectItem& item : stmt.select_list) {
    CollectAggCalls(*item.expr, &calls);
  }
  if (stmt.having != nullptr) CollectAggCalls(*stmt.having, &calls);
  for (const auto& o : stmt.order_by) CollectAggCalls(*o.expr, &calls);

  bool aggregated = !calls.empty() || !stmt.group_by.empty();
  if (!aggregated) {
    if (stmt.having != nullptr) {
      return Status::BindError("HAVING requires GROUP BY or aggregates");
    }
    // Pass the select list through untouched.
    for (const SelectItem& item : stmt.select_list) {
      select_out->push_back(SelectItem{item.expr->Clone(), item.alias});
    }
    return plan;
  }

  const Schema& in_schema = plan->schema();
  std::vector<Substitution> subs;
  std::vector<BoundExprPtr> group_exprs;
  Schema out_schema;

  for (const auto& g : stmt.group_by) {
    WSQ_ASSIGN_OR_RETURN(BoundExprPtr bound, BindScalar(*g, in_schema));
    std::string name = g->ToString();
    std::string qualifier;
    if (g->kind() == ParsedExpr::Kind::kColumnRef) {
      const auto& ref = static_cast<const ColumnRefExpr&>(*g);
      name = ref.name();
      // Preserve the source qualifier so later lookups still work.
      qualifier = in_schema
                      .column(static_cast<const BoundColumnRef&>(*bound)
                                  .index())
                      .qualifier;
    }
    subs.push_back(Substitution{g->ToString(), out_schema.NumColumns()});
    out_schema.AddColumn(Column(name, bound->OutputType(), qualifier));
    group_exprs.push_back(std::move(bound));
  }

  std::vector<AggregateNode::AggSpec> specs;
  for (const FuncExpr* call : calls) {
    std::string text = call->ToString();
    bool dup = false;
    for (const Substitution& s : subs) {
      if (EqualsIgnoreCase(s.text, text)) dup = true;
    }
    if (dup) continue;

    WSQ_ASSIGN_OR_RETURN(AggFunc func, AggFuncFromName(call->name()));
    AggregateNode::AggSpec spec;
    spec.func = func;
    if (call->args().size() == 1 &&
        call->args()[0]->kind() == ParsedExpr::Kind::kStar) {
      if (func != AggFunc::kCount) {
        return Status::BindError("only COUNT(*) accepts '*'");
      }
      spec.func = AggFunc::kCountStar;
    } else if (call->args().size() == 1) {
      WSQ_ASSIGN_OR_RETURN(spec.arg,
                           BindScalar(*call->args()[0], in_schema));
    } else {
      return Status::BindError(
          "aggregate functions take exactly one argument: " + text);
    }

    subs.push_back(Substitution{text, out_schema.NumColumns()});
    out_schema.AddColumn(
        Column(text, AggOutputType(spec.func, spec.arg.get()), ""));
    specs.push_back(std::move(spec));
  }

  plan = std::make_unique<AggregateNode>(std::move(plan),
                                         std::move(group_exprs),
                                         std::move(specs), out_schema);

  if (stmt.having != nullptr) {
    WSQ_ASSIGN_OR_RETURN(
        BoundExprPtr pred,
        BindOverAggregate(*stmt.having, subs, out_schema));
    plan = std::make_unique<FilterNode>(std::move(plan), std::move(pred));
  }

  // The select list (and later ORDER BY) now bind against the aggregate
  // output. Rewrite items into column refs over out_schema by reusing
  // the substitution-aware binder at projection time: we pre-validate
  // here and hand the original expressions through.
  for (const SelectItem& item : stmt.select_list) {
    if (item.expr->kind() == ParsedExpr::Kind::kStar) {
      return Status::BindError("SELECT * cannot be used with GROUP BY");
    }
    WSQ_RETURN_IF_ERROR(
        BindOverAggregate(*item.expr, subs, out_schema).status());
    select_out->push_back(SelectItem{item.expr->Clone(), item.alias});
  }
  return plan;
}

Result<PlanNodePtr> Binder::ApplyProjection(
    const SelectStatement& /*stmt*/,
    const std::vector<SelectItem>& items, PlanNodePtr plan) {
  const Schema& in_schema = plan->schema();
  std::vector<BoundExprPtr> exprs;
  Schema out_schema;

  // When the input is an aggregate (or HAVING filter above one), the
  // select expressions were pre-validated by ApplyAggregation and every
  // aggregate call / group expression matches an input column by name;
  // BindScalar handles plain paths. We try the plain bind first, then
  // fall back to a by-text lookup against the input schema (which is
  // how "COUNT(*)" finds the aggregate output column).
  auto bind_item = [&](const ParsedExpr& e) -> Result<BoundExprPtr> {
    // By-text match against input columns (aggregate outputs).
    std::string text = e.ToString();
    for (size_t i = 0; i < in_schema.NumColumns(); ++i) {
      if (EqualsIgnoreCase(in_schema.column(i).name, text)) {
        return BoundExprPtr(std::make_unique<BoundColumnRef>(
            i, in_schema.column(i)));
      }
    }
    std::vector<Substitution> subs;
    for (size_t i = 0; i < in_schema.NumColumns(); ++i) {
      subs.push_back(Substitution{in_schema.column(i).name, i});
    }
    auto plain = BindScalar(e, in_schema);
    if (plain.ok()) return plain;
    return BindOverAggregate(e, subs, in_schema);
  };

  for (const SelectItem& item : items) {
    if (item.expr->kind() == ParsedExpr::Kind::kStar) {
      for (size_t i = 0; i < in_schema.NumColumns(); ++i) {
        exprs.push_back(std::make_unique<BoundColumnRef>(
            i, in_schema.column(i)));
        out_schema.AddColumn(in_schema.column(i));
      }
      continue;
    }
    WSQ_ASSIGN_OR_RETURN(BoundExprPtr bound, bind_item(*item.expr));
    Column col;
    if (!item.alias.empty()) {
      col = Column(item.alias, bound->OutputType(), "");
    } else if (item.expr->kind() == ParsedExpr::Kind::kColumnRef &&
               bound->kind() == BoundExpr::Kind::kColumnRef) {
      col = in_schema.column(
          static_cast<const BoundColumnRef&>(*bound).index());
    } else {
      col = Column(item.expr->ToString(), bound->OutputType(), "");
    }
    out_schema.AddColumn(col);
    exprs.push_back(std::move(bound));
  }

  return PlanNodePtr(std::make_unique<ProjectNode>(
      std::move(plan), std::move(exprs), std::move(out_schema)));
}

Result<PlanNodePtr> Binder::Bind(const SelectStatement& stmt) {
  WSQ_ASSIGN_OR_RETURN(std::vector<Source> sources,
                       ResolveSources(stmt));
  WSQ_RETURN_IF_ERROR(DetermineTermCounts(stmt, &sources));

  Schema combined;
  for (const Source& s : sources) {
    combined = Schema::Concat(combined, s.schema);
  }

  std::vector<Residual> residuals;
  WSQ_RETURN_IF_ERROR(
      ClassifyWhere(stmt, &sources, &residuals, combined));
  WSQ_ASSIGN_OR_RETURN(PlanNodePtr plan,
                       BuildJoinTree(&sources, &residuals, combined));

  std::vector<SelectItem> items;
  WSQ_ASSIGN_OR_RETURN(plan,
                       ApplyAggregation(stmt, std::move(plan), &items));
  WSQ_ASSIGN_OR_RETURN(plan,
                       ApplyProjection(stmt, items, std::move(plan)));

  if (stmt.distinct) {
    plan = std::make_unique<DistinctNode>(std::move(plan));
  }

  if (!stmt.order_by.empty()) {
    const Schema& out = plan->schema();
    std::vector<SortNode::SortKey> keys;
    for (const OrderByItem& item : stmt.order_by) {
      SortNode::SortKey key;
      key.descending = item.descending;
      // Try binding against the projected output (aliases and column
      // names), then by rendered-text match with a select item.
      auto bound = BindScalar(*item.expr, out);
      if (bound.ok()) {
        key.expr = std::move(bound).value();
      } else {
        std::string text = item.expr->ToString();
        bool matched = false;
        for (size_t i = 0; i < out.NumColumns(); ++i) {
          if (EqualsIgnoreCase(out.column(i).name, text)) {
            key.expr =
                std::make_unique<BoundColumnRef>(i, out.column(i));
            matched = true;
            break;
          }
        }
        if (!matched) {
          return Status::BindError(
              "ORDER BY expression must be a select-list column or "
              "alias: " +
              text);
        }
      }
      keys.push_back(std::move(key));
    }
    plan = std::make_unique<SortNode>(std::move(plan), std::move(keys));
  }

  if (stmt.limit.has_value()) {
    plan = std::make_unique<LimitNode>(std::move(plan), *stmt.limit);
  }
  return plan;
}

}  // namespace wsq
