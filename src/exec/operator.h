#ifndef SEQ_EXEC_OPERATOR_H_
#define SEQ_EXEC_OPERATOR_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "common/logging.h"
#include "common/status.h"
#include "exec/exec_context.h"
#include "types/record.h"
#include "types/span.h"

namespace seq {

class OpStateWriter;
class OpStateReader;

/// A physical operator. The paper's two access modes (§3.3) are the two
/// halves of one interface:
///
///  * stream access — "get the next non-Null record", in strictly
///    increasing position order, each exactly once: Next / NextAtOrAfter
///    tuple-at-a-time, NextBatch / NextBatchUpTo batch-at-a-time;
///  * probed access — "get the record at a specific position": Probe
///    one position at a time, ProbeBatch for a sorted run of positions.
///
/// Every entry point has a default adapter, so an operator implements only
/// its native mode(s): NextBatch loops Next, ProbeBatch loops Probe, and
/// the non-native mode's base entry point fails loudly (the planner never
/// drives an operator in a mode its plan shape does not support).
///
/// After Open, a stream must be driven either entirely through
/// Next()/NextAtOrAfter or entirely through NextBatch/NextBatchUpTo —
/// native batch implementations buffer child rows and do not replay them
/// to the tuple path. Probed access may likewise be driven through Probe
/// or through ProbeBatch, but not a mix of both.
class SeqOp {
 public:
  virtual ~SeqOp() = default;

  virtual Status Open(ExecContext* ctx) = 0;

  /// Next record, or nullopt at end of the operator's required range.
  /// Default: this operator does not support stream access.
  virtual std::optional<PosRecord> Next() {
    SEQ_CHECK_MSG(false, "operator does not support stream access");
    return std::nullopt;
  }

  /// Next record at position >= p. The default discards earlier records
  /// via Next(); operators whose output is dense (value offsets, running
  /// aggregates, constants) override this to jump directly, which is what
  /// makes lock-step joins against them cheap.
  virtual std::optional<PosRecord> NextAtOrAfter(Position p) {
    while (true) {
      std::optional<PosRecord> r = Next();
      if (!r.has_value() || r->pos >= p) return r;
    }
  }

  /// Batch stream access: fills `out` with the next up-to-capacity records
  /// in position order and returns the row count; 0 means end of stream.
  /// The default adapter loops Next(), so every streamable operator
  /// supports batches; the hot operators override it natively to cut
  /// per-record virtual dispatch and allocation.
  virtual size_t NextBatch(RecordBatch* out) {
    out->Clear();
    while (!out->full()) {
      std::optional<PosRecord> r = Next();
      if (!r.has_value()) break;
      out->Append(r->pos) = std::move(r->rec);
    }
    return out->size();
  }

  /// Bounded batch stream access: like NextBatch, but stops after the
  /// first record with position > `limit`, which IS included as the last
  /// row ("include-overshoot"). The overshoot makes a 0 return still mean
  /// true end of stream, and reproduces exactly the one-record look-ahead
  /// a tuple consumer performs when it pulls until it sees a position past
  /// the range it needs — which is what keeps AccessStats identical
  /// between the two driving modes for consumers (value offsets) that
  /// must not over-read their input. Once the stream is past `limit`,
  /// each call returns exactly one record: tuple cadence.
  virtual size_t NextBatchUpTo(Position limit, RecordBatch* out) {
    out->Clear();
    while (!out->full()) {
      std::optional<PosRecord> r = Next();
      if (!r.has_value()) break;
      Position p = r->pos;
      out->Append(p) = std::move(r->rec);
      if (p > limit) break;
    }
    return out->size();
  }

  /// The record at exactly `p`, or nullopt if that position is empty.
  /// Default: this operator does not support probed access.
  virtual std::optional<Record> Probe(Position) {
    SEQ_CHECK_MSG(false, "operator does not support probed access");
    return std::nullopt;
  }

  /// Batch probed access: probes each of `positions` (which must be
  /// non-decreasing and no longer than out->capacity()) and fills `out`
  /// with the HIT rows only, in input order — misses are simply absent,
  /// so out->size() <= positions.size(). The default adapter loops
  /// Probe(); native implementations amortize virtual dispatch and charge
  /// AccessStats in bulk exactly as NextBatch does.
  virtual size_t ProbeBatch(std::span<const Position> positions,
                            RecordBatch* out) {
    out->Clear();
    for (Position p : positions) {
      std::optional<Record> r = Probe(p);
      if (r.has_value()) MoveRecordValues(out->Append(p), *r);
    }
    return out->size();
  }

  virtual void Close() {}

  /// Morsel boundary of a probed input (docs/execution.md): the consumer
  /// of this morsel clone will, in the serial run, next probe a position
  /// past the clone's clip. Stateful probed operators (the Cache-B value
  /// offset) consume and charge the rest of their clipped input, as that
  /// serial probe would; 1:1 probe forwarders pass the call down.
  virtual void PassClipEnd() {}

  /// Appends this subtree's live sequential state (window contents,
  /// running-aggregate carries) to the checkpoint blob, in tree order.
  /// Pass-through operators forward to their children; stateless leaves
  /// write nothing — cursor positions are encoded by the resumed plan's
  /// clip spans, not here. Called at a chunk boundary, after the chunk
  /// drained and before Close.
  virtual void SaveState(OpStateWriter*) const {}

  /// Restores the state SaveState captured into a freshly Opened,
  /// isomorphic tree (the resumed chunk's clone, built with the carry
  /// rebuild suppressed). Returns false when the blob does not match this
  /// tree's shape — the caller surfaces that as DataLoss, never a crash.
  virtual bool RestoreState(OpStateReader*) { return true; }
};

/// Access-mode aliases kept for readability at construction sites: a
/// StreamOpPtr is a SeqOp the holder drives in stream mode, a ProbeOpPtr
/// one it probes. They are the same type — the unified interface is the
/// point — but the names document intent.
using StreamOp = SeqOp;
using ProbeOp = SeqOp;
using SeqOpPtr = std::unique_ptr<SeqOp>;
using StreamOpPtr = std::unique_ptr<SeqOp>;
using ProbeOpPtr = std::unique_ptr<SeqOp>;

/// Cursor over a child stream consumed batch-at-a-time. Batch-native
/// operators hold one of these per child: Ready() refills the internal
/// batch from the child when exhausted, pos()/rec() expose the current
/// unconsumed row, Consume() advances. The batch is allocated lazily at
/// the caller's capacity and reused for every refill.
class BatchInput {
 public:
  void Reset() {
    if (batch_ != nullptr) batch_->Clear();
    idx_ = 0;
    done_ = false;
    limit_ = kMinPosition;
  }

  /// Ensures a current row exists; false once the child is exhausted.
  /// When `limit` is bounded the refill uses NextBatchUpTo(limit), so the
  /// child is never pulled more than one record past `limit` — the same
  /// over-read a tuple consumer of this cursor would incur.
  ///
  /// Limits must be non-decreasing over the cursor's lifetime (until
  /// Reset). That keeps the bound exact: a refill at a raised limit reads
  /// the records up to it plus one overshoot, so the records read after
  /// any sequence of calls are those up to the latest limit plus the first
  /// one past it — what a tuple consumer reads pulling until it sees a
  /// position past that limit. A lowered limit would make a refill past
  /// the old overshoot read one record the tuple consumer never reads.
  bool Ready(SeqOp* child, size_t capacity, Position limit = kMaxPosition) {
    SEQ_DCHECK(limit >= limit_);
    limit_ = limit;
    if (batch_ != nullptr && idx_ < batch_->size()) return true;
    if (done_) return false;
    if (batch_ == nullptr) batch_ = std::make_unique<RecordBatch>(capacity);
    idx_ = 0;
    size_t n = (limit == kMaxPosition) ? child->NextBatch(batch_.get())
                                       : child->NextBatchUpTo(limit,
                                                              batch_.get());
    if (n == 0) done_ = true;
    return !done_;
  }

  Position pos() const { return batch_->pos(idx_); }
  Record& rec() { return batch_->rec(idx_); }
  void Consume() { ++idx_; }

 private:
  std::unique_ptr<RecordBatch> batch_;
  size_t idx_ = 0;
  bool done_ = false;
  Position limit_ = kMinPosition;  // latest limit, for the DCHECK above
};

}  // namespace seq

#endif  // SEQ_EXEC_OPERATOR_H_
