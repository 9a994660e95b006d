#ifndef WSQ_OBS_OP_PROFILE_H_
#define WSQ_OBS_OP_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace wsq {

/// Per-operator execution profile, filled by the Operator base wrappers
/// when a query runs with profiling (EXPLAIN ANALYZE / \analyze).
struct OpProfile {
  uint64_t opens = 0;
  uint64_t next_calls = 0;
  uint64_t rows_out = 0;
  /// External calls issued by this operator (EVScan/AEVScan).
  uint64_t calls_issued = 0;
  int64_t open_micros = 0;
  int64_t next_micros = 0;
  int64_t close_micros = 0;
  /// Time a ReqSync spent parked on ReqPump completions (the number the
  /// paper's max-vs-sum latency claim is about: under asynchronous
  /// iteration this approaches the MAX of the outstanding call
  /// latencies, not their sum).
  int64_t blocked_on_sync_micros = 0;
  /// Calls that completed OK but with shards missing (sharded backend
  /// under a degrading quorum policy), and the total missing shards.
  uint64_t partial_results = 0;
  uint64_t degraded_shards = 0;
  /// Memory governor: record bytes this operator spilled to temp runs
  /// (and how many runs), plus the high-water mark of its tracked
  /// reservation. peak_bytes is filled even when the query is
  /// ungoverned — the reservation still counts locally.
  uint64_t spilled_bytes = 0;
  uint64_t spill_runs = 0;
  uint64_t peak_bytes = 0;

  /// Wall time spent inside this operator's Open+Next+Close, including
  /// time inside its children.
  int64_t total_micros() const {
    return open_micros + next_micros + close_micros;
  }
};

/// Annotated plan tree returned by EXPLAIN ANALYZE: one node per
/// operator, mirroring the logical plan shape.
struct PlanProfileNode {
  std::string label;  ///< the plan node's Label()
  OpProfile profile;
  /// total_micros minus the children's totals (clamped at 0).
  int64_t self_micros = 0;
  std::vector<PlanProfileNode> children;

  std::string ToString() const;
  void AppendTo(std::string* out, int indent) const;

  /// Sum of a field across this node and every descendant.
  uint64_t TotalCallsIssued() const;
  int64_t TotalBlockedMicros() const;
};

/// "417us" / "30.1ms" / "2.50s" — compact duration for plan
/// annotations and QueryStats::ToKeyValues. No embedded space, so
/// `key=<duration>` stays one token.
std::string FormatMicros(int64_t micros);

}  // namespace wsq

#endif  // WSQ_OBS_OP_PROFILE_H_
