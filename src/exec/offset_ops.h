#ifndef SEQ_EXEC_OFFSET_OPS_H_
#define SEQ_EXEC_OFFSET_OPS_H_

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "exec/clip_source.h"
#include "exec/operator.h"

namespace seq {

/// Value offset (Previous/Next and general ±k) evaluated incrementally
/// with Cache-Strategy-B (§3.5, Fig. 5.B): a cache of the |l| most recent
/// input records makes out(i) an O(1) step from out(i-1), regardless of
/// how sparse the input is. Output is dense — defined at every position of
/// the required range once enough history exists — so NextAtOrAfter jumps
/// in O(1) plus input catch-up.
///
/// Both access modes run the same incremental advance:
///  * stream mode walks the required range; NextBatch pulls the child in
///    batch granularity bounded by NextBatchUpTo so the input is never
///    over-read relative to the tuple path (AccessStats parity);
///  * probed mode serves monotone non-decreasing probes — the §4.2 probed
///    discipline the executor drives (positions are validated ascending).
///    The child is consumed incrementally as probes advance. Probe pulls
///    it a record at a time; ProbeBatch pulls it through a BatchInput
///    cursor bounded at the batch's last position (minus one for a
///    previous-record offset): the union of the read sets of the batch's
///    tuple probes, so both drivings read the same records. A regressing
///    probe (a non-monotone consumer the planner failed to detect) is
///    handled defensively by rewinding the child and the cursor,
///    identically in both driving modes.
///
/// The cache is a ring of at most |l| slots whose record buffers are
/// reused, so steady-state ingestion allocates nothing; each slot keeps
/// the bytes it charged against QueryGuards::max_cache_bytes.
class ValueOffsetOp : public SeqOp {
 public:
  /// `offset` < 0: |offset|-th most recent input strictly before i;
  /// `offset` > 0: offset-th next input strictly after i.
  ValueOffsetOp(SeqOpPtr child, int64_t offset, Span required)
      : child_(std::move(child)),
        offset_(offset),
        magnitude_(static_cast<size_t>(offset < 0 ? -offset : offset)),
        required_(required) {}

  Status Open(ExecContext* ctx) override;
  std::optional<PosRecord> Next() override;
  std::optional<PosRecord> NextAtOrAfter(Position p) override;
  size_t NextBatch(RecordBatch* out) override;
  std::optional<Record> Probe(Position p) override;
  size_t ProbeBatch(std::span<const Position> positions,
                    RecordBatch* out) override;
  void Close() override { child_->Close(); }
  void PassClipEnd() override;
  void SaveState(OpStateWriter* w) const override { child_->SaveState(w); }
  bool RestoreState(OpStateReader* r) override {
    return child_->RestoreState(r);
  }

  /// Morsel clone of a previous-record offset (offset < 0; see
  /// docs/execution.md, "Value-offset carry-in"). `input` is the serial
  /// run's input. When the clipped input starts at `carry_before` (rather
  /// than kMinPosition, the serial start), Open seeds the cache with the
  /// |l| input records before it, read uncharged — the preceding morsel
  /// charged them. With `finish_at_clip_end` the clip ends before the
  /// serial range does: once asked past it (or told so by PassClipEnd) the
  /// operator consumes, and charges, the rest of its clipped input, as the
  /// serial run does on its way to the next position.
  void set_morsel(ClipSource input, Position carry_before,
                  bool finish_at_clip_end) {
    SEQ_CHECK(offset_ < 0);
    if (carry_before > kMinPosition) {
      carry_source_ = std::move(input);
      carry_before_ = carry_before;
    }
    finish_at_clip_end_ = finish_at_clip_end;
  }

 private:
  struct CacheSlot {
    Position pos = 0;
    Record rec;
    int64_t bytes = 0;  // charged against the cache-memory budget
  };
  // The child's next unconsumed record.
  struct Head {
    Position pos;
    Record* rec;
  };

  // Seeds the cache from carry_source_ (see set_morsel).
  Status SeedCarry();
  // Consumes the rest of the clipped child into the cache; batch_capacity
  // 0 means the child is pulled tuple-at-a-time.
  void DrainClip(size_t batch_capacity);
  // The child's next unconsumed record, pulled tuple-at-a-time into
  // pending_ (capacity 0) or through input_ bounded at `limit`; Pop
  // consumes it.
  std::optional<Head> Peek(size_t capacity, Position limit);
  void Pop(size_t capacity);
  // Advances the incremental state to output position `p`, pulling the
  // child as Peek does, and returns the answer record (owned by the
  // cache), or nullptr. Counts cache stores into *stores; the caller
  // charges stores and the hit.
  const Record* Advance(Position p, size_t capacity, Position limit,
                        int64_t* stores);
  // Advance for a probe: rewinds first when `p` regressed.
  const Record* ProbeStep(Position p, size_t capacity, Position limit,
                          int64_t* stores);
  // Defensive restart for a regressed probe position.
  void RewindProbes();
  // Moves `rec` into the back of the cache, recycling the oldest slot
  // when |l| are held. The new entry is charged against
  // QueryGuards::max_cache_bytes before the recycled one is released;
  // false = budget exceeded, degradation signal raised.
  bool Store(Position pos, Record& rec);
  size_t RingIndex(size_t k) const {  // of the k-th oldest entry
    const size_t i = head_ + k;
    return i < ring_.size() ? i : i - ring_.size();
  }
  void ReleaseFront();
  void ReleaseAllEntries();

  SeqOpPtr child_;
  int64_t offset_;
  size_t magnitude_;  // |l|
  Span required_;
  ExecContext* ctx_ = nullptr;

  std::optional<PosRecord> pending_;  // next unconsumed child record
  bool child_done_ = false;
  // Last |l| consumed (l<0) / lookahead (l>0): count_ entries from head_.
  std::vector<CacheSlot> ring_;
  size_t head_ = 0;
  size_t count_ = 0;
  int64_t cache_footprint_ = 0;  // approx bytes charged for the cache
  Position next_pos_ = 0;        // next output position to consider
  BatchInput input_;             // batched child pull (NextBatch, ProbeBatch)
  size_t probe_capacity_ = 0;    // ProbeBatch's capacity; 0 = Probe-driven
  Position last_probe_pos_ = kMinPosition;
  std::optional<ClipSource> carry_source_;
  Position carry_before_ = kMinPosition;
  bool finish_at_clip_end_ = false;
};

/// The naive algorithm for a value offset: from every output position,
/// search backward (or forward) through the input by probing until |l|
/// non-empty positions have been found (§3.5: "repeated retrievals ...
/// and recomputation"). Serves both modes over a probed child: probed
/// access searches from the requested position; stream access (the
/// ablation plan) walks every position of the required range, searching
/// from scratch at each. Batch entry points fill loops over the same
/// search, so no per-row record allocation survives batch driving.
class ValueOffsetNaiveOp : public SeqOp {
 public:
  ValueOffsetNaiveOp(SeqOpPtr child, int64_t offset, Span required,
                     Span child_span)
      : child_(std::move(child)),
        offset_(offset),
        required_(required),
        child_span_(child_span) {}

  Status Open(ExecContext* ctx) override {
    SEQ_RETURN_IF_ERROR(ctx->PollOpenFault("ValueOffset(naive)"));
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
  std::optional<Record> Probe(Position p) override { return Search(p); }
  size_t ProbeBatch(std::span<const Position> positions,
                    RecordBatch* out) override;
  void Close() override { child_->Close(); }
  void SaveState(OpStateWriter* w) const override { child_->SaveState(w); }
  bool RestoreState(OpStateReader* r) override {
    return child_->RestoreState(r);
  }

 private:
  std::optional<Record> Search(Position p);

  SeqOpPtr child_;
  int64_t offset_;
  Span required_;
  Span child_span_;
  ExecContext* ctx_ = nullptr;
  Position next_pos_ = 0;
};

}  // namespace seq

#endif  // SEQ_EXEC_OFFSET_OPS_H_
