#include "obs/query_stats.h"

#include "common/strings.h"
#include "obs/op_profile.h"

namespace wsq {

std::string QueryStats::ToKeyValues() const {
  std::string out = StrFormat(
      "elapsed=%s mode=%s external_calls=%llu",
      FormatMicros(elapsed_micros).c_str(),
      async_iteration ? "async" : "sync", (unsigned long long)external_calls);
  if (failed_calls > 0) {
    out += StrFormat(" failed_calls=%llu", (unsigned long long)failed_calls);
  }
  if (degraded_tuples() > 0) {
    out += StrFormat(" degraded_tuples=%llu",
                     (unsigned long long)degraded_tuples());
  }
  if (partial_results > 0) {
    out += StrFormat(" partial_results=%llu degraded_shards=%llu",
                     (unsigned long long)partial_results,
                     (unsigned long long)degraded_shards);
  }
  if (spill_runs > 0) {
    out += StrFormat(" spill_runs=%llu spilled_bytes=%llu",
                     (unsigned long long)spill_runs,
                     (unsigned long long)spilled_bytes);
  }
  if (peak_memory_bytes > 0) {
    out += StrFormat(" peak_memory_bytes=%llu",
                     (unsigned long long)peak_memory_bytes);
  }
  return out;
}

std::string ExplainAnalyzeFooter(size_t rows, const QueryStats& stats) {
  return StrFormat("-- rows=%zu ", rows) + stats.ToKeyValues();
}

}  // namespace wsq
