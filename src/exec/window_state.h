#ifndef SEQ_EXEC_WINDOW_STATE_H_
#define SEQ_EXEC_WINDOW_STATE_H_

#include <cstdint>
#include <deque>
#include <utility>

#include "common/logging.h"
#include "exec/checkpoint.h"
#include "exec/exec_context.h"
#include "logical/logical_op.h"
#include "types/value.h"

namespace seq {

/// Incremental aggregation state over a (possibly sliding) window of
/// values. Sum/Count/Avg use running accumulators; Min/Max use monotonic
/// deques, so both insertion and eviction are O(1) amortized — this is
/// what makes Cache-Strategy-A touch each input record exactly once.
///
/// Add/EvictBefore/Current are defined inline: aggregation touches them
/// once per record in both the tuple and batch paths, and keeping them in
/// the header lets the accumulators live in registers across an
/// operator's drive loop.
class WindowState {
 public:
  WindowState(AggFunc func, TypeId value_type)
      : func_(func), value_type_(value_type) {}

  /// Adds the value at `pos`. Positions must be strictly increasing.
  void Add(Position pos, const Value& v, ExecContext* ctx) {
    if (ctx != nullptr) ctx->ChargeAggStep();
    Entry e{pos, 0, 0.0};
    if (IsNumeric(v.type())) {
      if (value_type_ == TypeId::kInt64) {
        e.i = v.int64();
        e.d = static_cast<double>(e.i);
        sum_i_ += e.i;
      } else {
        e.d = v.AsDouble();
      }
      sum_d_ += e.d;
    }
    window_.push_back(e);
    ++count_;
    if (func_ == AggFunc::kMin) {
      while (!min_q_.empty() && min_q_.back().second.Compare(v) >= 0) {
        min_q_.pop_back();
      }
      min_q_.emplace_back(pos, v);
    } else if (func_ == AggFunc::kMax) {
      while (!max_q_.empty() && max_q_.back().second.Compare(v) <= 0) {
        max_q_.pop_back();
      }
      max_q_.emplace_back(pos, v);
    }
  }

  /// Removes every entry with position < `p`. An emptied window restarts
  /// its accumulators from exact zero, so no rounding residue of evicted
  /// doubles outlives them.
  void EvictBefore(Position p) {
    if (!window_.empty() && window_.front().pos < p) {
      do {
        const Entry& e = window_.front();
        --count_;
        sum_i_ -= e.i;
        sum_d_ -= e.d;
        window_.pop_front();
      } while (!window_.empty() && window_.front().pos < p);
      if (count_ == 0) {
        sum_i_ = 0;
        sum_d_ = 0.0;
      }
    }
    while (!min_q_.empty() && min_q_.front().first < p) min_q_.pop_front();
    while (!max_q_.empty() && max_q_.front().first < p) max_q_.pop_front();
  }

  /// log2 of the re-sum period of a trailing window of `window` positions:
  /// at least 1024 positions, and never shorter than the window, so a
  /// re-sum costs at most one extra addition per input.
  static int ResumShift(int64_t window) {
    int shift = 10;
    while (shift < 62 && (int64_t{1} << shift) < window) ++shift;
    return shift;
  }

  /// First position of the re-sum period holding `pos`.
  static Position ResumPeriodStart(Position pos, int64_t window) {
    const int shift = ResumShift(window);
    return (pos >> shift) << shift;
  }

  /// True when the aggregate keeps a double accumulator, whose low bits
  /// depend on the order of its updates; the others are exact.
  static bool Resums(AggFunc func, TypeId value_type) {
    return (func == AggFunc::kSum || func == AggFunc::kAvg) &&
           value_type != TypeId::kInt64;
  }

  /// Makes this the state of a trailing window of `window` positions,
  /// updated through Slide.
  void SetTrailingWindow(int64_t window) {
    window_len_ = window;
    shift_ = ResumShift(window);
    resums_ = Resums(func_, value_type_);
  }

  /// Trailing-window update (Cache-A): adds the value at `pos`. A double
  /// accumulator (Resums) first evicts what lies outside the window ending
  /// at `pos`, and whenever `pos` starts a new re-sum period (ResumShift)
  /// re-sums the live entries in position order. It is therefore a
  /// function of the input positions and values since the last period
  /// start alone — not of which output positions a consumer visited, and
  /// not of how long ago the stream began — so a morsel's carry-in fold
  /// that starts one window before the period start reproduces the serial
  /// state bit for bit (docs/execution.md, "Bit-exact window carry").
  void Slide(Position pos, const Value& v) {
    if (resums_) {
      EvictBefore(pos - window_len_ + 1);
      const Position period = pos >> shift_;
      if (!has_period_ || period != period_) {
        Resum();
        period_ = period;
        has_period_ = true;
      }
    }
    Add(pos, v, nullptr);
  }

  int64_t count() const { return count_; }

  /// Approximate heap footprint of the live window in bytes, for the
  /// operator-cache memory budget (QueryGuards::max_cache_bytes). Entries
  /// dominate; the min/max candidate queues are bounded by the window.
  int64_t ApproxBytes() const {
    return static_cast<int64_t>(
        window_.size() * sizeof(Entry) +
        (min_q_.size() + max_q_.size()) *
            sizeof(std::pair<Position, Value>));
  }

  /// Serializes the live window into a checkpoint blob. Accumulators
  /// roundtrip as raw bits (I64/F64), so a restored state's future outputs
  /// are bit-identical to the uninterrupted run's — including the ulp-level
  /// effects of incremental double add/evict that a from-scratch rebuild
  /// would not reproduce.
  void SaveTo(OpStateWriter* w) const {
    w->U8(static_cast<uint8_t>(func_));
    w->U8(static_cast<uint8_t>(value_type_));
    w->I64(count_);
    w->I64(sum_i_);
    w->F64(sum_d_);
    w->U8(has_period_ ? 1 : 0);
    w->I64(period_);
    w->I64(static_cast<int64_t>(window_.size()));
    for (const Entry& e : window_) {
      w->I64(e.pos);
      w->I64(e.i);
      w->F64(e.d);
    }
    w->I64(static_cast<int64_t>(min_q_.size()));
    for (const auto& [pos, v] : min_q_) {
      w->I64(pos);
      w->Val(v);
    }
    w->I64(static_cast<int64_t>(max_q_.size()));
    for (const auto& [pos, v] : max_q_) {
      w->I64(pos);
      w->Val(v);
    }
  }

  /// Restores what SaveTo captured. False when the blob does not describe
  /// a state of this function/type — the shape check that keeps a stale or
  /// misrouted blob from silently corrupting aggregates.
  bool RestoreFrom(OpStateReader* r) {
    uint8_t func = 0;
    uint8_t type = 0;
    if (!r->U8(&func) || func != static_cast<uint8_t>(func_) ||
        !r->U8(&type) || type != static_cast<uint8_t>(value_type_)) {
      return false;
    }
    int64_t n = 0;
    uint8_t has_period = 0;
    if (!r->I64(&count_) || !r->I64(&sum_i_) || !r->F64(&sum_d_) ||
        !r->U8(&has_period) || has_period > 1 || !r->I64(&period_) ||
        !r->I64(&n) || n < 0) {
      return false;
    }
    has_period_ = has_period == 1;
    window_.clear();
    for (int64_t k = 0; k < n; ++k) {
      Entry e{0, 0, 0.0};
      if (!r->I64(&e.pos) || !r->I64(&e.i) || !r->F64(&e.d)) return false;
      window_.push_back(e);
    }
    for (std::deque<std::pair<Position, Value>>* q : {&min_q_, &max_q_}) {
      if (!r->I64(&n) || n < 0) return false;
      q->clear();
      for (int64_t k = 0; k < n; ++k) {
        Position pos = 0;
        Value v;
        if (!r->I64(&pos) || !r->Val(&v)) return false;
        q->emplace_back(pos, std::move(v));
      }
    }
    return true;
  }

  /// Aggregate of the live window. Requires count() > 0.
  Value Current() const {
    SEQ_CHECK(count_ > 0);
    switch (func_) {
      case AggFunc::kCount:
        return Value::Int64(count_);
      case AggFunc::kSum:
        return value_type_ == TypeId::kInt64 ? Value::Int64(sum_i_)
                                             : Value::Double(sum_d_);
      case AggFunc::kAvg:
        return Value::Double(sum_d_ / static_cast<double>(count_));
      case AggFunc::kMin:
        SEQ_CHECK(!min_q_.empty());
        return min_q_.front().second;
      case AggFunc::kMax:
        SEQ_CHECK(!max_q_.empty());
        return max_q_.front().second;
    }
    SEQ_CHECK(false);
    return Value();
  }

 private:
  // Recomputes the accumulators from the live entries, in position order.
  void Resum() {
    sum_i_ = 0;
    sum_d_ = 0.0;
    for (const Entry& e : window_) {
      sum_i_ += e.i;
      sum_d_ += e.d;
    }
  }

  // One live entry. The numeric payload is converted once on Add so
  // eviction adjusts the accumulators without re-dispatching on the value
  // type (non-numeric values store zeros, which subtract as no-ops).
  struct Entry {
    Position pos;
    int64_t i;
    double d;
  };

  AggFunc func_;
  TypeId value_type_;

  // Live entries (needed to adjust accumulators on eviction).
  std::deque<Entry> window_;
  int64_t count_ = 0;
  double sum_d_ = 0.0;
  int64_t sum_i_ = 0;
  // Trailing-window geometry and the re-sum period of the last Slide.
  int64_t window_len_ = 1;
  int shift_ = 10;
  bool resums_ = false;
  Position period_ = 0;
  bool has_period_ = false;

  // Monotonic candidate queues for min (non-decreasing values) and max
  // (non-increasing values).
  std::deque<std::pair<Position, Value>> min_q_;
  std::deque<std::pair<Position, Value>> max_q_;
};

}  // namespace seq

#endif  // SEQ_EXEC_WINDOW_STATE_H_
