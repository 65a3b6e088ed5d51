#ifndef SEQ_EXEC_COMPOSE_OPS_H_
#define SEQ_EXEC_COMPOSE_OPS_H_

#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "exec/clip_source.h"
#include "exec/operator.h"
#include "expr/compiled_expr.h"

namespace seq {

/// Join-Strategy-B (§3.3): stream both inputs in lock step, joining at
/// common positions — the sort-merge analogue from the paper's motivating
/// example. Stream-only. Two merges share the operator:
///
///  * the tuple merge (Advance) uses NextAtOrAfter, so dense inputs (value
///    offsets, constants) are skipped through in O(1);
///  * the batch merge pulls both inputs through BatchInput cursors. It runs
///    when the inputs are seek-free (set_batch_stop) and the operator is
///    batch-driven with no page-read or expression fault armed.
class ComposeLockstepOp : public SeqOp {
 public:
  ComposeLockstepOp(SeqOpPtr left, SeqOpPtr right, ExprPtr predicate,
                    SchemaPtr out_schema)
      : left_(std::move(left)),
        right_(std::move(right)),
        predicate_(std::move(predicate)),
        out_schema_(std::move(out_schema)) {}

  Status Open(ExecContext* ctx) override;
  std::optional<PosRecord> Next() override { return Advance(nullptr); }
  std::optional<PosRecord> NextAtOrAfter(Position p) override {
    return Advance(&p);
  }
  /// Batch-merges seek-free inputs (see set_batch_stop); otherwise fills
  /// the batch by looping the tuple merge, whose children stay on the
  /// tuple interface.
  size_t NextBatch(RecordBatch* out) override;
  void Close() override {
    left_->Close();
    right_->Close();
  }
  void SaveState(OpStateWriter* w) const override {
    left_->SaveState(w);
    right_->SaveState(w);
  }
  bool RestoreState(OpStateReader* r) override {
    return left_->RestoreState(r) && right_->RestoreState(r);
  }

  /// Morsel clone (docs/execution.md, "Lock-step boundaries"): both inputs
  /// are clipped to [lo, hi]; kMinPosition / kMaxPosition mark an edge the
  /// clone shares with the serial run, and a bounded `hi` lies before the
  /// serial merge's stop. `left` and `right` are the serial inputs. The
  /// merge starts in the state the serial merge is in when it crosses `lo`,
  /// and at `hi` it makes the reads the serial merge makes on its way past
  /// `hi` — no more, no fewer — so rows and every AccessStats counter
  /// summed over the morsels equal the serial run's.
  void set_boundary(Position lo, Position hi, ClipSource left,
                    ClipSource right) {
    lo_ = lo;
    hi_ = hi;
    left_source_ = std::move(left);
    right_source_ = std::move(right);
  }

  /// Both inputs are seek-free: a base scan under any chain of positional
  /// offsets, whose NextAtOrAfter reads and charges every record it steps
  /// over. The tuple merge then reads every record of both inputs up to
  /// `stop` — the serial merge's stop, the smaller of the two inputs'
  /// last positions over their serial spans (docs/execution.md, "Where a
  /// join stops") — plus the first record past it of the longer input.
  /// The batch merge pulls each input with NextBatchUpTo(stop), whose
  /// include-overshoot reads exactly that set. A morsel clone reads its
  /// clipped inputs whole, with no clip-start state to rebuild: the
  /// clips tile the serial read set.
  void set_batch_stop(Position stop) { batch_stop_ = stop; }

 private:
  // Which input holds the last record before the clip start (kEven:
  // neither, or both at one position); it decides which input the serial
  // merge advances first when it crosses `lo`.
  enum class Lead { kEven, kLeft, kRight };

  std::optional<PosRecord> Advance(const Position* at_or_after);
  size_t MergeBatch(RecordBatch* out);
  // The first pulls of a clone clipped at lo_, as the serial merge makes
  // them; false when the merge ends right there.
  bool StartAtClip();
  Result<Lead> LeadBefore(Position lo);
  // The merge ran out of one input inside the clip; `left_out` /
  // `right_out` say which. Advances the other input past hi_, as the
  // serial merge does.
  void FinishAtClip(bool left_out, bool right_out);

  SeqOpPtr left_;
  SeqOpPtr right_;
  ExprPtr predicate_;
  SchemaPtr out_schema_;
  std::optional<CompiledExpr> compiled_;
  ExecContext* ctx_ = nullptr;
  ExprScratch scratch_;

  std::optional<PosRecord> l_;
  std::optional<PosRecord> r_;
  bool done_ = false;

  std::optional<Position> batch_stop_;
  BatchInput left_in_;
  BatchInput right_in_;

  Position lo_ = kMinPosition;
  Position hi_ = kMaxPosition;
  ClipSource left_source_;
  ClipSource right_source_;
  bool start_pending_ = false;
};

/// Join-Strategy-A (§3.3): stream one input (the driver) and probe the
/// other at each of its record positions. The native NextBatch pulls the
/// driver a batch at a time and probes the other side through ProbeBatch
/// at the driver's (strictly increasing) positions — the same probe set
/// as the tuple path, so AccessStats totals are identical.
class ComposeStreamProbeOp : public SeqOp {
 public:
  /// `driver_is_left`: the streamed child is the compose's left input
  /// (controls output field order).
  ComposeStreamProbeOp(SeqOpPtr driver, SeqOpPtr other, bool driver_is_left,
                       ExprPtr predicate, SchemaPtr out_schema)
      : driver_(std::move(driver)),
        other_(std::move(other)),
        driver_is_left_(driver_is_left),
        predicate_(std::move(predicate)),
        out_schema_(std::move(out_schema)) {}

  Status Open(ExecContext* ctx) override;
  std::optional<PosRecord> Next() override;
  std::optional<PosRecord> NextAtOrAfter(Position p) override;
  size_t NextBatch(RecordBatch* out) override;
  void Close() override {
    driver_->Close();
    other_->Close();
  }
  void SaveState(OpStateWriter* w) const override {
    driver_->SaveState(w);
    other_->SaveState(w);
  }
  bool RestoreState(OpStateReader* r) override {
    return driver_->RestoreState(r) && other_->RestoreState(r);
  }

  /// Morsel clone over a stateful probed input (a Cache-B value offset)
  /// whose clip ends before the serial driver's last record (the executor
  /// clips the morsel holding that record to run on to the end). When the
  /// clipped driver runs out, the serial run's next probe lies past the
  /// clip: the probed input is told so (SeqOp::PassClipEnd) and consumes
  /// the rest of its clip.
  void set_pass_clip_end() { pass_clip_end_ = true; }

 private:
  std::optional<PosRecord> TryJoin(PosRecord d);
  // Called when the driver is exhausted; see set_pass_clip_end.
  void FinishAtClip();

  SeqOpPtr driver_;
  SeqOpPtr other_;
  bool driver_is_left_;
  ExprPtr predicate_;
  SchemaPtr out_schema_;
  std::optional<CompiledExpr> compiled_;
  ExecContext* ctx_ = nullptr;
  ExprScratch scratch_;

  // Reusable batch-path buffers, allocated lazily at the output capacity.
  std::unique_ptr<RecordBatch> driver_batch_;
  std::unique_ptr<RecordBatch> probe_batch_;
  std::vector<Position> positions_;

  bool pass_clip_end_ = false;
};

/// Probed-mode compose: probe one side (the cheaper rejector first), then
/// the other only on a hit. The native ProbeBatch preserves the
/// short-circuit — the second side sees only the first side's hit
/// positions — so the probe sets (and charges) match the tuple path.
class ComposeProbeBothOp : public SeqOp {
 public:
  ComposeProbeBothOp(SeqOpPtr left, SeqOpPtr right, bool probe_left_first,
                     ExprPtr predicate, SchemaPtr out_schema)
      : left_(std::move(left)),
        right_(std::move(right)),
        probe_left_first_(probe_left_first),
        predicate_(std::move(predicate)),
        out_schema_(std::move(out_schema)) {}

  Status Open(ExecContext* ctx) override;
  std::optional<Record> Probe(Position p) override;
  size_t ProbeBatch(std::span<const Position> positions,
                    RecordBatch* out) override;
  void Close() override {
    left_->Close();
    right_->Close();
  }
  void SaveState(OpStateWriter* w) const override {
    left_->SaveState(w);
    right_->SaveState(w);
  }
  bool RestoreState(OpStateReader* r) override {
    return left_->RestoreState(r) && right_->RestoreState(r);
  }

 private:
  SeqOpPtr left_;
  SeqOpPtr right_;
  bool probe_left_first_;
  ExprPtr predicate_;
  SchemaPtr out_schema_;
  std::optional<CompiledExpr> compiled_;
  ExecContext* ctx_ = nullptr;
  ExprScratch scratch_;

  std::unique_ptr<RecordBatch> batch_a_;  // first-probed side's hits
  std::unique_ptr<RecordBatch> batch_b_;  // second side's hits
  std::vector<Position> positions2_;      // first side's hit positions
};

}  // namespace seq

#endif  // SEQ_EXEC_COMPOSE_OPS_H_
