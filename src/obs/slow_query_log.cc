#include "obs/slow_query_log.h"

#include <cstdio>
#include <utility>

#include "common/clock.h"
#include "common/strings.h"
#include "obs/op_profile.h"

namespace wsq {

std::string SlowQueryRecord::ToLine() const {
  std::string out = StrFormat("slow_query id=%llu threshold=%s rows=%zu ",
                              (unsigned long long)stats.query_id,
                              FormatMicros(threshold_micros).c_str(), rows);
  out += stats.ToKeyValues();
  if (!ok) {
    out += StrFormat(" error=%s", error.empty() ? "UNKNOWN" : error.c_str());
  }
  // sql last: the only free-form field, so everything before it stays
  // trivially splittable on spaces.
  std::string compact;
  compact.reserve(sql.size());
  for (char c : sql) compact += (c == '\n' || c == '\r') ? ' ' : c;
  out += StrFormat(" sql=\"%s\"", compact.c_str());
  return out;
}

SlowQueryLog::SlowQueryLog(int64_t threshold_micros, Sink sink, Clock clock)
    : threshold_micros_(threshold_micros < 0 ? 0 : threshold_micros),
      sink_(std::move(sink)),
      clock_(std::move(clock)) {}

int64_t SlowQueryLog::NowMicros() const {
  return clock_ ? clock_() : wsq::NowMicros();
}

bool SlowQueryLog::MaybeLog(SlowQueryRecord record, int64_t threshold_override) {
  int64_t threshold =
      threshold_override >= 0 ? threshold_override : threshold_micros_;
  if (threshold <= 0 || record.stats.elapsed_micros < threshold) {
    return false;
  }
  record.threshold_micros = threshold;
  logged_total_.fetch_add(1, std::memory_order_relaxed);
  if (sink_) {
    sink_(record);
  } else {
    std::string line = record.ToLine();
    std::fprintf(stderr, "%s\n", line.c_str());
  }
  return true;
}

}  // namespace wsq
