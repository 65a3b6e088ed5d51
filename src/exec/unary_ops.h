#ifndef SEQ_EXEC_UNARY_OPS_H_
#define SEQ_EXEC_UNARY_OPS_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "exec/operator.h"
#include "expr/compiled_expr.h"

namespace seq {

/// Selection: passes records satisfying the predicate (unit scope). Both
/// access modes are the child's, filtered: stream access filters the
/// child's stream, probed access filters the child's probe answers. One
/// predicate application is charged per child record seen, in every mode.
class SelectOp : public SeqOp {
 public:
  SelectOp(SeqOpPtr child, ExprPtr predicate, SchemaPtr in_schema)
      : child_(std::move(child)),
        predicate_(std::move(predicate)),
        in_schema_(std::move(in_schema)) {}

  Status Open(ExecContext* ctx) override;
  std::optional<PosRecord> Next() override;
  std::optional<PosRecord> NextAtOrAfter(Position p) override;
  size_t NextBatch(RecordBatch* out) override;
  size_t NextBatchUpTo(Position limit, RecordBatch* out) override;
  std::optional<Record> Probe(Position p) override;
  size_t ProbeBatch(std::span<const Position> positions,
                    RecordBatch* out) override;
  void Close() override { child_->Close(); }
  void PassClipEnd() override { child_->PassClipEnd(); }
  void SaveState(OpStateWriter* w) const override { child_->SaveState(w); }
  bool RestoreState(OpStateReader* r) override {
    return child_->RestoreState(r);
  }

 private:
  size_t Filter(RecordBatch* out, size_t n);
  size_t FilterGeneric(RecordBatch* out, size_t n);
  size_t FilterSimple(RecordBatch* out, size_t n);
  size_t FilterFaulted(RecordBatch* out, size_t n);

  SeqOpPtr child_;
  ExprPtr predicate_;
  SchemaPtr in_schema_;
  std::optional<CompiledExpr> compiled_;
  std::optional<SimpleIntCmp> simple_;  // set when the predicate matches
  ExecContext* ctx_ = nullptr;
  ExprScratch scratch_;
};

/// Projection: reorders/renames/narrows fields (unit scope). Like
/// selection, both access modes are 1:1 transforms of the child's.
class ProjectOp : public SeqOp {
 public:
  ProjectOp(SeqOpPtr child, std::vector<size_t> indices)
      : child_(std::move(child)), indices_(std::move(indices)) {
    // Strictly increasing source indices imply indices_[j] >= j with no
    // duplicate sources, so values can shift left within the row without
    // clobbering a slot that is still to be read.
    in_place_ = true;
    for (size_t j = 0; j + 1 < indices_.size(); ++j) {
      if (indices_[j] >= indices_[j + 1]) in_place_ = false;
    }
  }

  Status Open(ExecContext* ctx) override {
    SEQ_RETURN_IF_ERROR(ctx->PollOpenFault("Project"));
    ctx_ = ctx;
    return child_->Open(ctx);
  }
  std::optional<PosRecord> Next() override;
  std::optional<PosRecord> NextAtOrAfter(Position p) override;
  size_t NextBatch(RecordBatch* out) override;
  size_t NextBatchUpTo(Position limit, RecordBatch* out) override;
  std::optional<Record> Probe(Position p) override;
  size_t ProbeBatch(std::span<const Position> positions,
                    RecordBatch* out) override;
  void Close() override { child_->Close(); }
  void PassClipEnd() override { child_->PassClipEnd(); }
  void SaveState(OpStateWriter* w) const override { child_->SaveState(w); }
  bool RestoreState(OpStateReader* r) override {
    return child_->RestoreState(r);
  }

 private:
  Record Map(Record in) const;
  void MapBatchRows(RecordBatch* out, size_t n);

  SeqOpPtr child_;
  std::vector<size_t> indices_;
  ExecContext* ctx_ = nullptr;
  bool in_place_ = false;
  Record tmp_;  // row staging buffer for permuting projections
};

/// Positional offset: out(i) = in(i + l). Pure position relabeling in
/// both modes — the stream side's child cursor simply runs `l` positions
/// ahead of (or behind) the output, realizing the §3.4 effective-scope
/// broadening without a buffer; the probed side shifts each probe.
class PosOffsetOp : public SeqOp {
 public:
  PosOffsetOp(SeqOpPtr child, int64_t offset)
      : child_(std::move(child)), offset_(offset) {}

  Status Open(ExecContext* ctx) override {
    SEQ_RETURN_IF_ERROR(ctx->PollOpenFault("PosOffset"));
    return child_->Open(ctx);
  }
  std::optional<PosRecord> Next() override {
    std::optional<PosRecord> r = child_->Next();
    if (!r.has_value()) return std::nullopt;
    return PosRecord{r->pos - offset_, std::move(r->rec)};
  }
  std::optional<PosRecord> NextAtOrAfter(Position p) override {
    std::optional<PosRecord> r = child_->NextAtOrAfter(p + offset_);
    if (!r.has_value()) return std::nullopt;
    return PosRecord{r->pos - offset_, std::move(r->rec)};
  }
  size_t NextBatch(RecordBatch* out) override {
    // Pure position relabeling: the child fills the batch, we restamp.
    size_t n = child_->NextBatch(out);
    for (size_t i = 0; i < n; ++i) out->pos(i) -= offset_;
    return n;
  }
  size_t NextBatchUpTo(Position limit, RecordBatch* out) override {
    size_t n = child_->NextBatchUpTo(limit + offset_, out);
    for (size_t i = 0; i < n; ++i) out->pos(i) -= offset_;
    return n;
  }
  std::optional<Record> Probe(Position p) override {
    return child_->Probe(p + offset_);
  }
  size_t ProbeBatch(std::span<const Position> positions,
                    RecordBatch* out) override {
    shifted_.assign(positions.begin(), positions.end());
    for (Position& p : shifted_) p += offset_;
    size_t n = child_->ProbeBatch(shifted_, out);
    for (size_t i = 0; i < n; ++i) out->pos(i) -= offset_;
    return n;
  }
  void Close() override { child_->Close(); }
  void PassClipEnd() override { child_->PassClipEnd(); }
  void SaveState(OpStateWriter* w) const override { child_->SaveState(w); }
  bool RestoreState(OpStateReader* r) override {
    return child_->RestoreState(r);
  }

 private:
  SeqOpPtr child_;
  int64_t offset_;
  std::vector<Position> shifted_;  // reusable probe-position buffer
};

}  // namespace seq

#endif  // SEQ_EXEC_UNARY_OPS_H_
