#include "tracer.h"

#include <algorithm>
#include <fstream>

#include "bench_util.h"

namespace seq::perfbench {

int Tracer::Begin(const std::string& name, int parent, int64_t request) {
  SpanRecord s;
  s.name = name;
  s.parent = parent;
  s.request = request;
  s.start_ns = NowNs();
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::End(int span) { spans_[static_cast<size_t>(span)].end_ns = NowNs(); }

std::vector<int64_t> Tracer::SelfNs() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans_.size());
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) {
      kids[static_cast<size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
    }
  }
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    auto& c = kids[i];
    std::sort(c.begin(), c.end());
    // Union of the children's intervals, clipped to the parent's.
    int64_t covered = 0;
    int64_t cur_lo = 0;
    int64_t cur_hi = -1;
    bool open = false;
    for (auto [lo, hi] : c) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

std::map<std::string, int64_t> Tracer::SelfByName(const std::string& root_name,
                                                  int64_t* roots) const {
  const std::vector<int64_t> self = SelfNs();
  std::map<std::string, int64_t> out;
  *roots = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    int r = static_cast<int>(i);
    while (spans_[static_cast<size_t>(r)].parent >= 0) {
      r = spans_[static_cast<size_t>(r)].parent;
    }
    if (spans_[static_cast<size_t>(r)].name != root_name) continue;
    if (static_cast<size_t>(r) == i) ++*roots;
    out[spans_[i].name] += self[i];
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const SpanRecord& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace seq::perfbench
