#ifndef SEQ_PERFBENCH_TRACER_H_
#define SEQ_PERFBENCH_TRACER_H_

// In-memory span recorder for the traced pass. Spans are opened and closed
// by the benchmark around its calls into each layer's public functions;
// they stay in memory until Write() at exit.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace seq::perfbench {

struct SpanRecord {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  ///< index of the causing span, -1 for a root
  int64_t request = 0;
};

class Tracer {
 public:
  /// Opens a span and returns its index.
  int Begin(const std::string& name, int parent, int64_t request);
  void End(int span);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Duration minus the part covered by direct children, per span.
  std::vector<int64_t> SelfNs() const;

  /// Sum of self time by span name over every span whose root span is
  /// named `root_name`, and how many such roots there were.
  std::map<std::string, int64_t> SelfByName(const std::string& root_name,
                                            int64_t* roots) const;

  /// Writes one JSON object per span (name, start/end ns, parent, request).
  bool Write(const std::string& path) const;

 private:
  std::vector<SpanRecord> spans_;
};

/// RAII span: closes on scope exit.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int parent,
             int64_t request)
      : tracer_(tracer),
        index_(tracer == nullptr ? -1
                                 : tracer->Begin(name, parent, request)) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace seq::perfbench

#endif  // SEQ_PERFBENCH_TRACER_H_
