#ifndef WSQ_PLAN_BINDER_H_
#define WSQ_PLAN_BINDER_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "parser/ast.h"
#include "plan/logical_plan.h"
#include "vtab/virtual_table.h"

namespace wsq {

struct BinderOptions {
  /// Paper §3: "we assume a default selection predicate Rank < 20 to
  /// prevent runaway queries" — expressed as an inclusive limit.
  int64_t default_rank_limit = 19;
};

/// Translates a parsed SELECT into a logical plan:
///  - FROM-order left-deep join tree (the Redbase convention, §5);
///  - WHERE conjuncts classified into virtual-table constant bindings,
///    dependent-join bindings, rank-limit pushdowns, join predicates,
///    and residual filters;
///  - aggregation, projection, DISTINCT, ORDER BY, LIMIT on top.
class Binder {
 public:
  Binder(const Catalog* catalog, const VirtualTableRegistry* vtables,
         BinderOptions options = BinderOptions());

  /// Builds the (synchronous) logical plan. The asynchronous-iteration
  /// rewrite is applied separately (async_rewriter.h).
  Result<PlanNodePtr> Bind(const SelectStatement& stmt);

  /// Binds a scalar expression against `schema` (exposed for tests and
  /// the executor's INSERT path).
  static Result<BoundExprPtr> BindScalar(const ParsedExpr& expr,
                                         const Schema& schema);

 private:
  struct Source {
    std::string effective_name;
    bool is_virtual = false;
    TableInfo* table = nullptr;
    VirtualTable* vtable = nullptr;
    size_t num_terms = 0;
    Schema schema;
    size_t offset = 0;  // column offset within the combined schema

    // Virtual-table binding state gathered from WHERE conjuncts.
    std::map<size_t, Value> constant_terms;
    std::string search_exp;
    int64_t rank_limit = 0;
    std::vector<DependentJoinNode::Binding> dependent_bindings;
  };

  struct Residual {
    const ParsedExpr* expr;
    /// Highest source index referenced: the conjunct attaches right
    /// after that source joins.
    size_t attach_after;
  };

  Result<std::vector<Source>> ResolveSources(const SelectStatement& stmt);
  Status DetermineTermCounts(const SelectStatement& stmt,
                             std::vector<Source>* sources);
  Status ClassifyWhere(const SelectStatement& stmt,
                       std::vector<Source>* sources,
                       std::vector<Residual>* residuals,
                       const Schema& combined);
  Result<PlanNodePtr> BuildJoinTree(std::vector<Source>* sources,
                                    std::vector<Residual>* residuals,
                                    const Schema& combined);
  Result<PlanNodePtr> ApplyAggregation(const SelectStatement& stmt,
                                       PlanNodePtr plan,
                                       std::vector<SelectItem>* select_out);
  Result<PlanNodePtr> ApplyProjection(const SelectStatement& stmt,
                                      const std::vector<SelectItem>& items,
                                      PlanNodePtr plan);

  /// Resolves a column ref to (source index, column index in source);
  /// returns NotFound if it does not name a source column.
  Result<std::pair<size_t, size_t>> ResolveColumn(
      const std::vector<Source>& sources, const std::string& qualifier,
      const std::string& name) const;

  const Catalog* catalog_;
  const VirtualTableRegistry* vtables_;
  BinderOptions options_;
};

/// An index access path for one stored table, matched from its WHERE
/// conjuncts: the index, the key range it reads, and the conjuncts that
/// range answers exactly.
struct IndexAccess {
  IndexInfo* index = nullptr;
  IndexRange range;
  /// Positions, in the matched conjunct list, answered by `range`.
  std::vector<size_t> consumed;
};

/// Maps a column reference to its position in the table's schema, or
/// nullopt when it names no column of that table.
using ColumnResolver =
    std::function<std::optional<size_t>(const ColumnRefExpr&)>;

/// The sargable-conjunct matcher, shared by SELECT planning and by
/// UPDATE/DELETE. Picks the first `indexed_col = literal` conjunct as an
/// equality probe; failing that, folds every `<`, `<=`, `>`, `>=` literal
/// bound on one indexed column into one range. NULL literals, and
/// literals whose type differs from the column's after INT-to-DOUBLE
/// widening, never match: the residual filter decides those. Null
/// entries in `conjuncts` are skipped. Returns nullopt when no conjunct
/// matches an index (scan the heap).
std::optional<IndexAccess> MatchIndexAccess(
    const TableInfo& table, const std::vector<const ParsedExpr*>& conjuncts,
    const ColumnResolver& column_of);

/// Splits an expression on top-level ANDs.
void CollectConjuncts(const ParsedExpr& expr,
                      std::vector<const ParsedExpr*>* out);

/// Parses "T<k>" (case-insensitive, k in 1..9); returns 0 otherwise.
size_t ParseTermIndex(const std::string& name);

}  // namespace wsq

#endif  // WSQ_PLAN_BINDER_H_
