// Small self-contained helpers for the benchmark driver: a seeded RNG
// owned by the benchmark (so inputs do not change when the library's
// generators do), clocks, process resource readings, and the
// statistics the driver reports.

#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// SplitMix64: every workload input (constants, keys, statement order)
/// is drawn from one of these, seeded from --seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, bound); bound > 0.
  uint64_t Uniform(uint64_t bound) { return Next() % bound; }
  /// Uniform in [0, 1).
  double NextDouble() { return (Next() >> 11) * (1.0 / 9007199254740992.0); }
  /// An independent stream derived from this one.
  Rng Fork() { return Rng(Next() ^ 0x9e3779b97f4a7c15ULL); }

 private:
  uint64_t state_;
};

/// Zipf(s) over {0, .., n-1}; rank 0 is the most frequent.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Picks an index from a fixed weight vector.
size_t PickWeighted(const std::vector<double>& weights, Rng& rng);

int64_t NowNanos();
int64_t ThreadCpuNanos();
/// User + system CPU of the whole process (all threads).
int64_t ProcessCpuNanos();
/// Peak resident set size of the process so far, in MiB.
double PeakRssMb();
/// Bytes the process has passed to write-like syscalls (/proc/self/io
/// wchar); -1 when unavailable.
int64_t ProcWcharBytes();

/// Machine-wide CPU time stolen by the hypervisor so far (/proc/stat),
/// in clock ticks; -1 when unavailable.
int64_t StealTicks();

/// Nearest-rank percentile of `sorted` (ascending), p in (0, 100].
double Percentile(const std::vector<double>& sorted, double p);
/// Samples ranked strictly above the nearest-rank p-th percentile.
size_t SamplesBeyond(size_t n, double p);
/// Smallest sample count for which SamplesBeyond(n, p) >= 10.
size_t MinSamplesForTail(double p);
double Median(std::vector<double> values);
/// First, second and third quartile exactly as Python's
/// statistics.quantiles(values, n=4) (method 'exclusive') computes
/// them; needs at least two values.
std::vector<double> Quartiles(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
