#include "obs/op_profile.h"

#include <algorithm>

#include "common/strings.h"

namespace wsq {

std::string FormatMicros(int64_t micros) {
  if (micros < 1000) return StrFormat("%lldus", (long long)micros);
  if (micros < 1000000) {
    return StrFormat("%.1fms", static_cast<double>(micros) / 1000.0);
  }
  return StrFormat("%.2fs", static_cast<double>(micros) / 1e6);
}

uint64_t PlanProfileNode::TotalCallsIssued() const {
  uint64_t total = profile.calls_issued;
  for (const PlanProfileNode& child : children) {
    total += child.TotalCallsIssued();
  }
  return total;
}

int64_t PlanProfileNode::TotalBlockedMicros() const {
  int64_t total = profile.blocked_on_sync_micros;
  for (const PlanProfileNode& child : children) {
    total += child.TotalBlockedMicros();
  }
  return total;
}

void PlanProfileNode::AppendTo(std::string* out, int indent) const {
  out->append(static_cast<size_t>(indent) * 2, ' ');
  *out += label;
  *out += StrFormat("  [rows=%llu", (unsigned long long)profile.rows_out);
  if (profile.calls_issued > 0) {
    *out += StrFormat(" calls=%llu", (unsigned long long)profile.calls_issued);
  }
  *out += " total=" + FormatMicros(profile.total_micros());
  *out += " self=" + FormatMicros(self_micros);
  if (profile.blocked_on_sync_micros > 0) {
    *out += " blocked=" + FormatMicros(profile.blocked_on_sync_micros);
  }
  if (profile.partial_results > 0) {
    *out += StrFormat(" partial=%llu degraded_shards=%llu",
                      (unsigned long long)profile.partial_results,
                      (unsigned long long)profile.degraded_shards);
  }
  if (profile.spilled_bytes > 0) {
    *out += StrFormat(" spilled_bytes=%llu spill_runs=%llu",
                      (unsigned long long)profile.spilled_bytes,
                      (unsigned long long)profile.spill_runs);
  }
  if (profile.peak_bytes > 0) {
    *out += StrFormat(" peak_bytes=%llu",
                      (unsigned long long)profile.peak_bytes);
  }
  if (profile.opens > 1) {
    *out += StrFormat(" opens=%llu", (unsigned long long)profile.opens);
  }
  *out += "]\n";
  for (const PlanProfileNode& child : children) {
    child.AppendTo(out, indent + 1);
  }
}

std::string PlanProfileNode::ToString() const {
  std::string out;
  AppendTo(&out, 0);
  return out;
}

}  // namespace wsq
