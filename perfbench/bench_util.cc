#include "bench_util.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>

namespace perfbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Sample(Rng& rng) const {
  double u = rng.NextDouble();
  size_t i = std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
  return std::min(i, cdf_.size() - 1);
}

size_t PickWeighted(const std::vector<double>& weights, Rng& rng) {
  double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  double u = rng.NextDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    if (u < weights[i]) return i;
    u -= weights[i];
  }
  return weights.size() - 1;
}

namespace {

int64_t ClockNanos(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// Nearest rank of the p-th percentile among n samples, in [1, n]:
// ceil(p * n / 100), computed in integers (p to 1/1000 of a percent)
// so that e.g. p = 99, n = 1000 gives exactly 990.
size_t NearestRank(size_t n, double p) {
  const uint64_t milli = static_cast<uint64_t>(std::llround(p * 1000.0));
  uint64_t rank = (static_cast<uint64_t>(n) * milli + 99999) / 100000;
  return static_cast<size_t>(std::clamp<uint64_t>(rank, 1, n));
}

}  // namespace

int64_t NowNanos() { return ClockNanos(CLOCK_MONOTONIC); }
int64_t ThreadCpuNanos() { return ClockNanos(CLOCK_THREAD_CPUTIME_ID); }

int64_t ProcessCpuNanos() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto nanos = [](const timeval& tv) {
    return static_cast<int64_t>(tv.tv_sec) * 1000000000 +
           static_cast<int64_t>(tv.tv_usec) * 1000;
  };
  return nanos(ru.ru_utime) + nanos(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int64_t ProcWcharBytes() {
  FILE* f = std::fopen("/proc/self/io", "r");
  if (f == nullptr) return -1;
  char line[128];
  int64_t wchar = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    long long v = 0;
    if (std::sscanf(line, "wchar: %lld", &v) == 1) wchar = v;
  }
  std::fclose(f);
  return wchar;
}

int64_t StealTicks() {
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return -1;
  long long v[8] = {0};
  int n = std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld", &v[0],
                      &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  return n == 8 ? v[7] : -1;
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  return sorted[NearestRank(sorted.size(), p) - 1];
}

size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - NearestRank(n, p);
}

size_t MinSamplesForTail(double p) {
  size_t n = 1;
  while (SamplesBeyond(n, p) < 10) ++n;
  return n;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

std::vector<double> Quartiles(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const long ld = static_cast<long>(values.size());
  const long m = ld + 1;
  const long n = 4;
  std::vector<double> out;
  for (long i = 1; i < n; ++i) {
    long j = std::clamp(i * m / n, 1L, ld - 1);
    long delta = i * m - j * n;
    out.push_back((values[j - 1] * static_cast<double>(n - delta) +
                   values[j] * static_cast<double>(delta)) /
                  static_cast<double>(n));
  }
  return out;
}

}  // namespace perfbench
