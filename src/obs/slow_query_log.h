#ifndef WSQ_OBS_SLOW_QUERY_LOG_H_
#define WSQ_OBS_SLOW_QUERY_LOG_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "obs/query_stats.h"

namespace wsq {

/// One-line structured record for a query that exceeded the slow-query
/// threshold.
struct SlowQueryRecord {
  /// The query's record; stats.elapsed_micros is what the threshold is
  /// checked against.
  QueryStats stats;
  std::string sql;
  int64_t threshold_micros = 0;
  bool ok = true;
  /// Status code name for failed queries ("DEADLINE_EXCEEDED", ...).
  std::string error;
  size_t rows = 0;

  /// `slow_query id=7 threshold=1.00s rows=5 elapsed=1.20s ...
  /// sql="SELECT ..."`: after the tag, key=value pairs with no space in
  /// any value, sql last (the only field that can contain spaces).
  std::string ToLine() const;
};

/// Slow-query log with a pluggable sink and injectable clock.
///
/// The database owns one; Execute() feeds it every query's timing and
/// it forwards the ones at or above the threshold. ExecOptions can
/// override the threshold per query (<0 = inherit, 0 = disabled).
///
/// Thread-safety: MaybeLog may run concurrently (one Execute per
/// thread); the sink must tolerate concurrent calls. The default sink
/// writes single lines to stderr, which is atomic enough in practice.
class SlowQueryLog {
 public:
  using Sink = std::function<void(const SlowQueryRecord&)>;
  using Clock = std::function<int64_t()>;

  SlowQueryLog() = default;
  /// `threshold_micros` 0 disables logging. Null `sink` = stderr.
  /// `clock` overrides the steady clock (deterministic tests).
  explicit SlowQueryLog(int64_t threshold_micros, Sink sink = nullptr,
                        Clock clock = nullptr);

  SlowQueryLog(const SlowQueryLog&) = delete;
  SlowQueryLog& operator=(const SlowQueryLog&) = delete;

  /// Current time from the injected clock (or the steady clock); pair
  /// two calls to measure a query with the same clock the threshold
  /// check uses.
  int64_t NowMicros() const;

  /// Logs `record` iff its elapsed time reaches the effective
  /// threshold: `threshold_override` >= 0 replaces the configured one
  /// for this call (0 = disabled). Fills record.threshold_micros.
  /// Returns true when the record was emitted.
  bool MaybeLog(SlowQueryRecord record, int64_t threshold_override = -1);

  int64_t threshold_micros() const { return threshold_micros_; }
  bool enabled() const { return threshold_micros_ > 0; }
  /// Records emitted so far.
  uint64_t logged_total() const {
    return logged_total_.load(std::memory_order_relaxed);
  }

 private:
  int64_t threshold_micros_ = 0;
  Sink sink_;
  Clock clock_;
  std::atomic<uint64_t> logged_total_{0};
};

}  // namespace wsq

#endif  // WSQ_OBS_SLOW_QUERY_LOG_H_
