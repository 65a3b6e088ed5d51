#ifndef SEQ_EXEC_AGG_OPS_H_
#define SEQ_EXEC_AGG_OPS_H_

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "exec/operator.h"
#include "exec/window_state.h"
#include "logical/logical_op.h"

namespace seq {

/// Trailing-window aggregate with Cache-Strategy-A (§3.5, Fig. 5.A): a
/// scope-sized cache over the input stream; each input record enters the
/// cache exactly once and every output reads the cached window.
/// Stream-only — the cache is inherently sequential, so probed plans use
/// WindowAggNaiveOp or MaterializedAggOp instead.
class WindowAggCachedOp : public SeqOp {
 public:
  WindowAggCachedOp(SeqOpPtr child, AggFunc func, size_t col_index,
                    TypeId col_type, int64_t window, Span required)
      : child_(std::move(child)),
        func_(func),
        col_index_(col_index),
        col_type_(col_type),
        window_(window),
        required_(required),
        state_(func, col_type) {}

  Status Open(ExecContext* ctx) override;
  std::optional<PosRecord> Next() override;
  std::optional<PosRecord> NextAtOrAfter(Position p) override;
  size_t NextBatch(RecordBatch* out) override;
  void Close() override { child_->Close(); }

  /// Installs a morsel carry-in subtree: a clone of the input clipped to
  /// the window-sized span just before this clone's first output position.
  /// Open streams it to completion into the window state, charging nothing
  /// (the preceding morsel charges those reads), so the state at every
  /// output position equals the serial run's.
  void set_carry(SeqOpPtr carry) { carry_ = std::move(carry); }

  /// Marks a morsel clone whose clip ends before the serial run's range
  /// does: once asked for a position past the clip, the operator first
  /// consumes (and charges) every remaining input of its clipped child, as
  /// the serial run does on its way to that position.
  void set_finish_at_clip_end() { finish_at_clip_end_ = true; }

  /// Checkpoint state: the live window verbatim. A resumed chunk built
  /// without a carry subtree restores this instead of re-reading the
  /// window-sized prefix, making the resume bit-identical (not merely
  /// value-identical) to the uninterrupted run.
  void SaveState(OpStateWriter* w) const override {
    w->Tag(kCkptTag);
    state_.SaveTo(w);
    child_->SaveState(w);
  }
  bool RestoreState(OpStateReader* r) override {
    return r->Tag(kCkptTag) && state_.RestoreFrom(r) &&
           child_->RestoreState(r);
  }

 private:
  static constexpr uint8_t kCkptTag = 0xA1;

  void Fill();
  // Consumes the rest of the clipped child; batch_capacity 0 means the
  // operator is driven tuple-at-a-time.
  void DrainClip(size_t batch_capacity);
  // Re-syncs the shared cache-byte counter with the window's current
  // footprint; false (with the degradation signal raised) when the
  // cache-memory budget is exceeded.
  bool SyncCacheBytes();

  SeqOpPtr child_;
  SeqOpPtr carry_;
  AggFunc func_;
  size_t col_index_;
  TypeId col_type_;
  int64_t window_;
  Span required_;
  ExecContext* ctx_ = nullptr;

  WindowState state_;
  int64_t cache_footprint_ = 0;  // approx bytes charged for state_
  std::optional<PosRecord> pending_;
  bool child_done_ = false;
  Position next_pos_ = 0;
  BatchInput input_;
  bool finish_at_clip_end_ = false;
};

/// Running (prefix) aggregate: agg over all inputs at positions <= i.
/// Dense output from the first input record onward. Stream-only; probed
/// plans materialize via MaterializedAggOp.
class RunningAggOp : public SeqOp {
 public:
  RunningAggOp(SeqOpPtr child, AggFunc func, size_t col_index,
               TypeId col_type, Span required)
      : child_(std::move(child)),
        func_(func),
        col_index_(col_index),
        col_type_(col_type),
        required_(required),
        state_(func, col_type) {}

  Status Open(ExecContext* ctx) override;
  std::optional<PosRecord> Next() override;
  std::optional<PosRecord> NextAtOrAfter(Position p) override;
  size_t NextBatch(RecordBatch* out) override;
  void Close() override { child_->Close(); }

  /// Morsel carry-in: a clone of the input clipped to the whole prefix
  /// before this clone's first output position, folded (uncharged) into
  /// the running state at Open. See WindowAggCachedOp::set_carry.
  void set_carry(SeqOpPtr carry) { carry_ = std::move(carry); }

  /// Marks a morsel clone whose clip ends before the serial run's range
  /// does: once asked for a position past the clip, the operator first
  /// consumes (and charges) every remaining input of its clipped child, as
  /// the serial run does on its way to that position.
  void set_finish_at_clip_end() { finish_at_clip_end_ = true; }

  /// Checkpoint state: the running accumulators verbatim (see
  /// WindowAggCachedOp::SaveState).
  void SaveState(OpStateWriter* w) const override {
    w->Tag(kCkptTag);
    state_.SaveTo(w);
    child_->SaveState(w);
  }
  bool RestoreState(OpStateReader* r) override {
    return r->Tag(kCkptTag) && state_.RestoreFrom(r) &&
           child_->RestoreState(r);
  }

 private:
  static constexpr uint8_t kCkptTag = 0xA2;

  // See WindowAggCachedOp::DrainClip.
  void DrainClip(size_t batch_capacity);

  SeqOpPtr child_;
  SeqOpPtr carry_;
  AggFunc func_;
  size_t col_index_;
  TypeId col_type_;
  Span required_;
  ExecContext* ctx_ = nullptr;

  WindowState state_;
  std::optional<PosRecord> pending_;
  bool child_done_ = false;
  Position next_pos_ = 0;
  BatchInput input_;
  bool finish_at_clip_end_ = false;
};

/// Whole-sequence aggregate (the paper's "agg_pos always true" case): one
/// pass over the input at Open, then the same value at every position.
/// Stream-only; probed plans materialize via MaterializedAggOp.
class OverallAggOp : public SeqOp {
 public:
  OverallAggOp(SeqOpPtr child, AggFunc func, size_t col_index,
               TypeId col_type, Span required)
      : child_(std::move(child)),
        func_(func),
        col_index_(col_index),
        col_type_(col_type),
        required_(required) {}

  Status Open(ExecContext* ctx) override;
  std::optional<PosRecord> Next() override;
  std::optional<PosRecord> NextAtOrAfter(Position p) override {
    if (p > next_pos_) next_pos_ = p;
    return Next();
  }
  size_t NextBatch(RecordBatch* out) override;
  void Close() override { child_->Close(); }

 private:
  SeqOpPtr child_;
  AggFunc func_;
  size_t col_index_;
  TypeId col_type_;
  Span required_;
  ExecContext* ctx_ = nullptr;

  std::optional<Value> value_;
  Position next_pos_ = 0;
};

/// Naive trailing-window aggregate over a probed child: every requested
/// position probes the entire window of the input (§4.1.2: "the probed
/// access cost of the input sequence multiplied by the size of the
/// operator scope"). Serves both modes — probed access aggregates the
/// window at the requested position; stream access (the Fig. 5.A
/// baseline) walks every position of the required range, re-probing the
/// whole window each time. Each probe is backtracking (window start < p),
/// so this operator's CHILD is a non-monotone probe consumer.
class WindowAggNaiveOp : public SeqOp {
 public:
  WindowAggNaiveOp(SeqOpPtr child, AggFunc func, size_t col_index,
                   TypeId col_type, int64_t window, Span required)
      : child_(std::move(child)),
        func_(func),
        col_index_(col_index),
        col_type_(col_type),
        window_(window),
        required_(required) {}

  Status Open(ExecContext* ctx) override {
    SEQ_RETURN_IF_ERROR(ctx->PollOpenFault("WindowAgg(naive)"));
    ctx_ = ctx;
    next_pos_ = required_.start;
    return child_->Open(ctx);
  }
  std::optional<PosRecord> Next() override;
  std::optional<PosRecord> NextAtOrAfter(Position p) override {
    if (p > next_pos_) next_pos_ = p;
    return Next();
  }
  size_t NextBatch(RecordBatch* out) override;
  std::optional<Record> Probe(Position p) override;
  size_t ProbeBatch(std::span<const Position> positions,
                    RecordBatch* out) override;
  void Close() override { child_->Close(); }

 private:
  // Aggregates the window ending at p, counting one agg step per input
  // found into *steps; the caller charges steps and the compute.
  std::optional<Value> WindowAt(Position p, int64_t* steps);

  SeqOpPtr child_;
  AggFunc func_;
  size_t col_index_;
  TypeId col_type_;
  int64_t window_;
  Span required_;
  ExecContext* ctx_ = nullptr;
  Position next_pos_ = 0;
};

/// Probed-mode running/overall aggregate: materializes the aggregate by
/// one stream pass of the input on Open, then serves probes by lookup
/// (§5.3's materialization option). Probe-only.
class MaterializedAggOp : public SeqOp {
 public:
  MaterializedAggOp(SeqOpPtr child, AggFunc func, size_t col_index,
                    TypeId col_type, WindowKind kind, Span out_span)
      : child_(std::move(child)),
        func_(func),
        col_index_(col_index),
        col_type_(col_type),
        kind_(kind),
        out_span_(out_span) {}

  Status Open(ExecContext* ctx) override;
  std::optional<Record> Probe(Position p) override;
  size_t ProbeBatch(std::span<const Position> positions,
                    RecordBatch* out) override;
  void Close() override { child_->Close(); }

 private:
  // Checkpoint lookup without charging; nullptr at an empty position.
  const Value* Lookup(Position p) const;

  SeqOpPtr child_;
  AggFunc func_;
  size_t col_index_;
  TypeId col_type_;
  WindowKind kind_;
  Span out_span_;
  ExecContext* ctx_ = nullptr;

  // (input position, running value) checkpoints; probe = greatest <= p.
  std::vector<std::pair<Position, Value>> checkpoints_;
};

}  // namespace seq

#endif  // SEQ_EXEC_AGG_OPS_H_
