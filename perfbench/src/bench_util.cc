#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace seq::perfbench {

std::vector<int> Rand::Permutation(int n) {
  std::vector<int> p(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) p[static_cast<size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i) {
    std::swap(p[static_cast<size_t>(i)], p[static_cast<size_t>(Int(0, i))]);
  }
  return p;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double idx = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(idx));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double SliceMedianQuantile(const std::vector<TimedSample>& samples,
                           int64_t slice_ns, double q) {
  if (samples.empty()) return 0.0;
  int64_t first = samples.front().at_ns;
  int64_t last = first;
  for (const TimedSample& s : samples) {
    first = std::min(first, s.at_ns);
    last = std::max(last, s.at_ns);
  }
  const int64_t slices = std::max<int64_t>(1, (last - first) / slice_ns);
  std::vector<std::vector<double>> by_slice(static_cast<size_t>(slices));
  for (const TimedSample& s : samples) {
    const int64_t k = std::min(slices - 1, (s.at_ns - first) / slice_ns);
    by_slice[static_cast<size_t>(k)].push_back(s.value);
  }
  std::vector<double> per_slice;
  for (std::vector<double>& v : by_slice) {
    if (!v.empty()) per_slice.push_back(Quantile(std::move(v), q));
  }
  return Median(std::move(per_slice));
}

void RowHash::Mix(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 0x100000001b3ULL;
  }
}

void RowHash::Add(Position pos, const Record& rec) {
  Mix(static_cast<uint64_t>(pos));
  for (const Value& v : rec) {
    Mix(static_cast<uint64_t>(v.type()));
    switch (v.type()) {
      case TypeId::kInt64:
        Mix(static_cast<uint64_t>(v.int64()));
        break;
      case TypeId::kDouble: {
        uint64_t bits = 0;
        const double d = v.dbl();
        std::memcpy(&bits, &d, sizeof(bits));
        Mix(bits);
        break;
      }
      case TypeId::kBool:
        Mix(v.boolean() ? 1 : 0);
        break;
      case TypeId::kString:
        AddBytes(v.str().data(), v.str().size());
        break;
    }
  }
}

void RowHash::AddBytes(const char* data, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    h_ ^= static_cast<unsigned char>(data[i]);
    h_ *= 0x100000001b3ULL;
  }
}

double PeakRssMb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double TelemetryCounts::Counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0.0 : it->second;
}

double TelemetryCounts::HistMeanSince(const TelemetryCounts& before,
                                      const std::string& name) const {
  auto now = histograms.find(name);
  if (now == histograms.end()) return 0.0;
  auto was = before.histograms.find(name);
  double count = now->second.first;
  double sum = now->second.second;
  if (was != before.histograms.end()) {
    count -= was->second.first;
    sum -= was->second.second;
  }
  return count > 0 ? sum / count : 0.0;
}

namespace {

// Parses `"name":number` pairs of the flat object that starts at `pos`
// (just after its '{'); stops at the matching '}'.
void ParseFlatNumbers(const std::string& json, size_t pos,
                      std::map<std::string, double>* out) {
  while (pos < json.size() && json[pos] != '}') {
    const size_t k0 = json.find('"', pos);
    const size_t k1 = json.find('"', k0 + 1);
    if (k0 == std::string::npos || k1 == std::string::npos) return;
    const std::string key = json.substr(k0 + 1, k1 - k0 - 1);
    char* end = nullptr;
    const double v = std::strtod(json.c_str() + k1 + 2, &end);
    (*out)[key] = v;
    pos = static_cast<size_t>(end - json.c_str());
    if (pos < json.size() && json[pos] == ',') ++pos;
  }
}

}  // namespace

TelemetryCounts ParseTelemetryJson(const std::string& json) {
  TelemetryCounts t;
  const size_t c = json.find("\"counters\":{");
  if (c != std::string::npos) ParseFlatNumbers(json, c + 12, &t.counters);
  const size_t h = json.find("\"histograms\":{");
  if (h != std::string::npos) {
    size_t pos = h + 14;
    while (pos < json.size() && json[pos] != '}') {
      const size_t k0 = json.find('"', pos);
      const size_t k1 = json.find('"', k0 + 1);
      const size_t close = json.find('}', k1);
      if (k0 == std::string::npos || k1 == std::string::npos ||
          close == std::string::npos) {
        break;
      }
      std::map<std::string, double> fields;
      ParseFlatNumbers(json, k1 + 3, &fields);
      t.histograms[json.substr(k0 + 1, k1 - k0 - 1)] = {fields["count"],
                                                        fields["sum"]};
      pos = close + 1;
      if (pos < json.size() && json[pos] == ',') ++pos;
    }
  }
  return t;
}

int64_t IntAfter(const std::string& text, const std::string& key) {
  const size_t at = text.find(key);
  if (at == std::string::npos) return -1;
  return std::strtoll(text.c_str() + at + key.size(), nullptr, 10);
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace seq::perfbench
