#ifndef WSQ_EXEC_EXECUTOR_H_
#define WSQ_EXEC_EXECUTOR_H_

#include <memory>
#include <vector>

#include "async/req_pump.h"
#include "common/cancellation.h"
#include "common/memory.h"
#include "exec/operator.h"
#include "net/shard_policy.h"
#include "obs/op_profile.h"
#include "obs/query_stats.h"
#include "obs/trace.h"
#include "plan/logical_plan.h"

namespace wsq {

class SpillManager;  // storage/spill.h

/// Shared execution state: the ReqPump for asynchronous calls, the
/// per-query governor, budget and tracer, and the QueryStats the
/// operators fill in as they run.
struct ExecContext {
  ReqPump* pump = nullptr;
  /// Per-query governor state: deadline + cooperative cancellation.
  /// BuildOperatorTree installs it on every operator; null = ungoverned.
  /// Must outlive the operator tree.
  const CancellationToken* token = nullptr;
  /// Per-query trace recorder; null = tracing off. Owned by the caller,
  /// used only from the executor thread.
  Tracer* tracer = nullptr;
  /// When true, BuildOperatorTree enables per-operator profiling
  /// (EXPLAIN ANALYZE) on every operator it creates.
  bool profile = false;
  /// Per-query partial-result policy for sharded search backends;
  /// copied into every VTableRequest the scans build.
  ShardOptions shard;
  /// Per-query memory budget (child of the database budget); null =
  /// ungoverned. Operators charge their materialized state here and
  /// degrade (spill, backpressure) when a reservation fails. Must
  /// outlive the operator tree.
  MemoryBudget* memory = nullptr;
  /// Spill scratch-file factory; null disables spilling (a failed
  /// reservation then fails the query with kResourceExhausted).
  SpillManager* spill = nullptr;
  /// The query's stats, bumped directly by the operators (blocking
  /// external calls, failed calls, degraded tuples, ReqSync peaks,
  /// partial results, spill activity). Every bump happens inside an
  /// operator's Open/Next/Close on the query thread, so no atomics.
  QueryStats stats;
};

/// A fully-materialized query result.
struct ResultSet {
  Schema schema;
  std::vector<Row> rows;

  /// Fixed-width table rendering with a header row.
  std::string ToString(size_t max_rows = 0) const;
};

/// Compiles a logical plan into a physical operator tree. `ctx->pump`
/// is required when the plan contains asynchronous scans or ReqSyncs;
/// `ctx` must outlive the returned operators.
Result<OperatorPtr> BuildOperatorTree(const PlanNode& plan,
                                      ExecContext* ctx);

/// Builds, opens, drains, and closes the plan. With `profile_out`
/// non-null, `ctx->profile` is forced on and the annotated operator
/// tree (EXPLAIN ANALYZE) is written there on success.
Result<ResultSet> ExecutePlan(const PlanNode& plan, ExecContext* ctx,
                              PlanProfileNode* profile_out = nullptr);

}  // namespace wsq

#endif  // WSQ_EXEC_EXECUTOR_H_
