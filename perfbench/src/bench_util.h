#ifndef SEQ_PERFBENCH_BENCH_UTIL_H_
#define SEQ_PERFBENCH_BENCH_UTIL_H_

// Small helpers shared by the benchmark loops: clocks, seeded request
// randomness, order statistics, answer fingerprints, process memory and
// the telemetry-JSON counter extraction used for server-side deltas.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "types/record.h"

namespace seq::perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// SplitMix64: the benchmark's own request randomness, so generated
/// request lists depend only on the seed and never on a library's
/// distribution implementation.
class Rand {
 public:
  explicit Rand(uint64_t seed) : state_(seed * 0x9e3779b97f4a7c15ULL + 1) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [lo, hi].
  int64_t Int(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }
  /// Random permutation of 0..n-1.
  std::vector<int> Permutation(int n);

 private:
  uint64_t state_;
};

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// A sample stamped with the time it was taken.
struct TimedSample {
  int64_t at_ns = 0;
  double value = 0;
};

/// Splits `samples` into consecutive time slices of `slice_ns` (the
/// trailing partial slice joins the previous one), takes the q-quantile
/// within each slice and returns the median of those: a tail statistic
/// that a few seconds of interference from other tenants cannot move.
double SliceMedianQuantile(const std::vector<TimedSample>& samples,
                           int64_t slice_ns, double q);

/// Order-sensitive 64-bit fingerprint of answer rows: positions and the
/// exact bit patterns of every value.
class RowHash {
 public:
  void Add(Position pos, const Record& rec);
  uint64_t value() const { return h_; }

 private:
  void Mix(uint64_t v);
  void AddBytes(const char* data, size_t n);
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Peak resident set size (VmHWM) of a process in MiB; 0 if unreadable.
double PeakRssMb(int pid = 0);

/// Counters and histogram (count, sum) pairs from Telemetry("json").
struct TelemetryCounts {
  std::map<std::string, double> counters;
  std::map<std::string, std::pair<double, double>> histograms;
  double Counter(const std::string& name) const;
  /// Mean of the histogram observations between `before` and this.
  double HistMeanSince(const TelemetryCounts& before,
                       const std::string& name) const;
  double Delta(const TelemetryCounts& before, const std::string& name) const {
    return Counter(name) - before.Counter(name);
  }
};
TelemetryCounts ParseTelemetryJson(const std::string& json);

/// Integer following `key` in free text (e.g. "peak " in the scheduler
/// summary); -1 when absent.
int64_t IntAfter(const std::string& text, const std::string& key);

/// Formats a double with all its significant digits for the result line.
std::string Num(double v);

}  // namespace seq::perfbench

#endif  // SEQ_PERFBENCH_BENCH_UTIL_H_
