#include "storage/statistics.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "common/string_util.h"

namespace seq {
namespace {

// Distinct counting is exact until this many distinct values are seen, then
// saturates; good enough for selectivity heuristics.
constexpr size_t kDistinctCap = 1 << 16;

}  // namespace

double ColumnStats::FractionBelow(double v) const {
  if (!min.has_value() || !max.has_value()) return 0.5;
  if (*max <= *min) return v > *min ? 1.0 : 0.0;
  if (v <= *min) return 0.0;
  if (v > *max) return 1.0;
  if (bucket_counts.empty() || count == 0) {
    return std::clamp((v - *min) / (*max - *min), 0.0, 1.0);
  }
  double width = (*max - *min) / kHistogramBuckets;
  double below = 0.0;
  for (int b = 0; b < kHistogramBuckets; ++b) {
    double lo = *min + b * width;
    double hi = lo + width;
    if (v >= hi) {
      below += static_cast<double>(bucket_counts[static_cast<size_t>(b)]);
    } else if (v > lo) {
      below += static_cast<double>(bucket_counts[static_cast<size_t>(b)]) *
               (v - lo) / width;
      break;
    } else {
      break;
    }
  }
  return std::clamp(below / static_cast<double>(count), 0.0, 1.0);
}

std::string ColumnStats::ToString() const {
  std::ostringstream oss;
  oss << "count=" << count << " distinct=" << distinct;
  if (min.has_value()) {
    oss << " min=" << FormatDouble(*min) << " max=" << FormatDouble(*max);
  }
  return oss.str();
}

std::vector<ColumnStats> ComputeColumnStats(
    const std::vector<PosRecord>& records, const Schema& schema) {
  const size_t num_fields = schema.num_fields();
  std::vector<ColumnStats> stats(num_fields);
  // Sized up front for every value a set can hold, so none rehashes.
  std::vector<std::unordered_set<size_t>> distinct_hashes(num_fields);
  for (auto& seen : distinct_hashes) {
    seen.reserve(std::min(records.size(), kDistinctCap));
  }
  for (const PosRecord& pr : records) {
    for (size_t i = 0; i < num_fields && i < pr.rec.size(); ++i) {
      ColumnStats& cs = stats[i];
      const Value& v = pr.rec[i];
      ++cs.count;
      if (IsNumeric(v.type())) {
        double d = v.AsDouble();
        if (!cs.min.has_value() || d < *cs.min) cs.min = d;
        if (!cs.max.has_value() || d > *cs.max) cs.max = d;
      }
      auto& seen = distinct_hashes[i];
      if (seen.size() < kDistinctCap) seen.insert(v.Hash());
    }
  }
  for (size_t i = 0; i < num_fields; ++i) {
    stats[i].distinct = static_cast<int64_t>(distinct_hashes[i].size());
  }
  // Second pass: one walk fills the equi-width histograms of every numeric
  // column with a range.
  struct Histogram {
    size_t column;
    double min;
    double width;
    int64_t* counts;
  };
  std::vector<Histogram> histograms;
  for (size_t i = 0; i < num_fields; ++i) {
    ColumnStats& cs = stats[i];
    if (!cs.min.has_value() || !cs.max.has_value() || *cs.max <= *cs.min) {
      continue;
    }
    cs.bucket_counts.assign(ColumnStats::kHistogramBuckets, 0);
    histograms.push_back(
        Histogram{i, *cs.min,
                  (*cs.max - *cs.min) / ColumnStats::kHistogramBuckets,
                  cs.bucket_counts.data()});
  }
  if (histograms.empty()) return stats;
  for (const PosRecord& pr : records) {
    for (const Histogram& h : histograms) {
      if (h.column >= pr.rec.size()) continue;
      const Value& v = pr.rec[h.column];
      if (!IsNumeric(v.type())) continue;
      int b = static_cast<int>((v.AsDouble() - h.min) / h.width);
      b = std::clamp(b, 0, ColumnStats::kHistogramBuckets - 1);
      ++h.counts[b];
    }
  }
  return stats;
}

}  // namespace seq
