#include "exec/compose_ops.h"

#include <algorithm>
#include <utility>

namespace seq {
namespace {

// First look-back window of a clipped lock-step merge; each retry widens
// it fourfold.
constexpr int64_t kFirstLookBack = 64;

/// Assembles a join output record by moving the consumed input values —
/// both sides are dead after the call, so no Value (and in particular no
/// std::string payload) is copied.
Record Combine(Record&& left, Record&& right) {
  Record out;
  out.reserve(left.size() + right.size());
  for (Value& v : left) out.push_back(std::move(v));
  for (Value& v : right) out.push_back(std::move(v));
  return out;
}

/// Batch-path variant: assembles the join row directly into a batch slot,
/// reusing the slot's value buffer.
void CombineInto(Record* dst, Record& first, Record& second) {
  dst->resize(first.size() + second.size());
  size_t k = 0;
  for (Value& v : first) (*dst)[k++] = std::move(v);
  for (Value& v : second) (*dst)[k++] = std::move(v);
}

}  // namespace

// --- ComposeLockstepOp ------------------------------------------------------

Status ComposeLockstepOp::Open(ExecContext* ctx) {
  SEQ_RETURN_IF_ERROR(ctx->PollOpenFault("Compose(lockstep)"));
  ctx_ = ctx;
  done_ = false;
  l_.reset();
  r_.reset();
  left_in_.Reset();
  right_in_.Reset();
  start_pending_ = lo_ > kMinPosition;
  if (predicate_ != nullptr) {
    SEQ_ASSIGN_OR_RETURN(
        CompiledExpr compiled,
        CompiledExpr::CompilePredicate(predicate_, *out_schema_));
    compiled_ = std::move(compiled);
    compiled_->InitScratch(&scratch_);
  }
  SEQ_RETURN_IF_ERROR(left_->Open(ctx));
  return right_->Open(ctx);
}

size_t ComposeLockstepOp::NextBatch(RecordBatch* out) {
  // An armed injector counts "the k-th page read" and "the k-th
  // evaluation" in the tuple merge's interleaved order.
  if (batch_stop_.has_value() && !ctx_->FaultArmed(FaultSite::kPageRead) &&
      !ctx_->FaultArmed(FaultSite::kExprEval)) {
    return MergeBatch(out);
  }
  out->Clear();
  while (!out->full()) {
    std::optional<PosRecord> r = Advance(nullptr);
    if (!r.has_value()) break;
    out->Append(r->pos) = std::move(r->rec);
  }
  return out->size();
}

// The batch merge (see set_batch_stop). An input is finished once it is
// exhausted or its current record lies past the stop; that record is the
// overshoot and is never consumed, so the cursor never refills past it.
// When one input finishes, the other is drained up to its overshoot, as
// the tuple merge's last seek reads it. Charges match the tuple merge's:
// one join predicate per positional match, compute per passing row.
size_t ComposeLockstepOp::MergeBatch(RecordBatch* out) {
  out->Clear();
  const size_t cap = out->capacity();
  const Position stop = *batch_stop_;
  SeqOp* left = left_.get();
  SeqOp* right = right_.get();
  auto live = [&](BatchInput& in, SeqOp* child) {
    return in.Ready(child, cap, stop) && in.pos() <= stop;
  };
  int64_t matches = 0;
  int64_t passed = 0;
  while (!out->full() && !ctx_->failed()) {
    const bool l = live(left_in_, left);
    const bool r = live(right_in_, right);
    if (!l || !r) {
      if (l) {
        while (live(left_in_, left)) left_in_.Consume();
      }
      if (r) {
        while (live(right_in_, right)) right_in_.Consume();
      }
      break;
    }
    const Position lp = left_in_.pos();
    const Position rp = right_in_.pos();
    if (lp < rp) {
      left_in_.Consume();
      continue;
    }
    if (rp < lp) {
      right_in_.Consume();
      continue;
    }
    Record& dst = out->Append(lp);
    CombineInto(&dst, left_in_.rec(), right_in_.rec());
    left_in_.Consume();
    right_in_.Consume();
    if (compiled_.has_value()) {
      ++matches;
      if (!compiled_->EvalBoolFlat(dst, lp, &scratch_)) {
        out->Truncate(out->size() - 1);
        continue;
      }
    }
    ++passed;
  }
  ctx_->ChargePredicates(/*join=*/true, matches);
  ctx_->ChargeComputeN(passed);
  if (ctx_->failed()) return 0;
  return out->size();
}

std::optional<PosRecord> ComposeLockstepOp::Advance(
    const Position* at_or_after) {
  if (done_) return std::nullopt;
  if (start_pending_) {
    start_pending_ = false;
    if (!StartAtClip()) {
      done_ = true;
      return std::nullopt;
    }
    // A tuple driver opens a clone with NextAtOrAfter(lo): served above.
    if (at_or_after != nullptr && *at_or_after <= lo_) at_or_after = nullptr;
  }
  // Refresh or re-seek the two pending records.
  if (at_or_after != nullptr) {
    if (!l_.has_value() || l_->pos < *at_or_after) {
      l_ = left_->NextAtOrAfter(*at_or_after);
    }
    if (!r_.has_value() || r_->pos < *at_or_after) {
      r_ = right_->NextAtOrAfter(*at_or_after);
    }
  } else {
    if (!l_.has_value()) l_ = left_->Next();
    if (!r_.has_value()) r_ = right_->Next();
  }
  while (l_.has_value() && r_.has_value()) {
    if (ctx_->failed()) {
      done_ = true;
      return std::nullopt;
    }
    if (l_->pos < r_->pos) {
      l_ = left_->NextAtOrAfter(r_->pos);
    } else if (r_->pos < l_->pos) {
      r_ = right_->NextAtOrAfter(l_->pos);
    } else {
      Position pos = l_->pos;
      Record combined = Combine(std::move(l_->rec), std::move(r_->rec));
      l_.reset();
      r_.reset();
      bool pass = true;
      if (compiled_.has_value()) {
        ctx_->ChargePredicate(/*join=*/true);
        if (ctx_->PollFaultRaise(FaultSite::kExprEval, "Compose(lockstep)",
                                 pos)) {
          done_ = true;
          return std::nullopt;
        }
        pass = compiled_->EvalBool(combined, pos);
      }
      if (pass) {
        ctx_->ChargeCompute();
        return PosRecord{pos, std::move(combined)};
      }
      l_ = left_->Next();
      r_ = right_->Next();
    }
  }
  FinishAtClip(!l_.has_value(), !r_.has_value());
  done_ = true;
  return std::nullopt;
}

// The serial merge only ever advances the input that trails: after a match
// both inputs step (Next), otherwise the trailing one seeks the leading
// one's position (NextAtOrAfter). So which records it pulls just past `lo`
// depends only on which input holds the last record before `lo`:
//  * neither, or both at one position (a match): both step, as at the
//    start of the serial run;
//  * the left input: the right one already trails it, so the serial merge
//    pulls the right input's first record at or after `lo`, then seeks the
//    left input to it;
//  * the right input: the mirror image.
// A skipping input (value offset, window, constant) therefore returns
// exactly the records the serial run pulls from it, and no others.
bool ComposeLockstepOp::StartAtClip() {
  Result<Lead> lead = LeadBefore(lo_);
  if (!lead.ok()) {
    ctx_->Raise(lead.status());
    return false;
  }
  switch (*lead) {
    case Lead::kEven:
      l_ = left_->Next();
      r_ = right_->Next();
      break;
    case Lead::kLeft:
      r_ = right_->Next();
      if (r_.has_value()) l_ = left_->NextAtOrAfter(r_->pos);
      break;
    case Lead::kRight:
      l_ = left_->Next();
      if (l_.has_value()) r_ = right_->NextAtOrAfter(l_->pos);
      break;
  }
  if (l_.has_value() && r_.has_value()) return true;
  // An input that ran out before the other was pulled at all is the only
  // one out.
  const bool left_pulled = *lead != Lead::kLeft || r_.has_value();
  const bool right_pulled = *lead != Lead::kRight || l_.has_value();
  FinishAtClip(left_pulled && !l_.has_value(),
               right_pulled && !r_.has_value());
  return false;
}

Result<ComposeLockstepOp::Lead> ComposeLockstepOp::LeadBefore(Position lo) {
  Position floor = kMaxPosition;
  for (const ClipSource* src : {&left_source_, &right_source_}) {
    if (!src->span.IsEmpty()) floor = std::min(floor, src->span.start);
  }
  if (floor >= lo) return Lead::kEven;
  int64_t back = kFirstLookBack;
  while (true) {
    const Position from = lo - back <= floor ? floor : lo - back;
    const Span window = Span::Of(from, lo - 1);
    SEQ_ASSIGN_OR_RETURN(std::optional<Position> l,
                         LastPositionIn(left_source_, window, *ctx_));
    SEQ_ASSIGN_OR_RETURN(std::optional<Position> r,
                         LastPositionIn(right_source_, window, *ctx_));
    // A record found in the window is later than anything outside it.
    if (l.has_value() && r.has_value()) {
      if (*l == *r) return Lead::kEven;
      return *l > *r ? Lead::kLeft : Lead::kRight;
    }
    if (l.has_value()) return Lead::kLeft;
    if (r.has_value()) return Lead::kRight;
    if (from == floor) return Lead::kEven;
    back = std::min<int64_t>(back * 4, lo - floor);
  }
}

// A clone whose clip ends before the serial merge stops (the executor
// clips the morsel holding the stop to run on to the end): when one input
// runs out inside the clip, the serial merge's last pull of it returned a
// record past hi_, so the serial merge goes on to seek the other input
// past hi_ too, reading the rest of that input's clip on the way.
void ComposeLockstepOp::FinishAtClip(bool left_out, bool right_out) {
  if (hi_ == kMaxPosition || left_out == right_out || ctx_->failed()) return;
  (left_out ? right_ : left_)->NextAtOrAfter(hi_ + 1);
}

// --- ComposeStreamProbeOp ---------------------------------------------------

Status ComposeStreamProbeOp::Open(ExecContext* ctx) {
  SEQ_RETURN_IF_ERROR(ctx->PollOpenFault("Compose(stream-probe)"));
  ctx_ = ctx;
  if (predicate_ != nullptr) {
    SEQ_ASSIGN_OR_RETURN(
        CompiledExpr compiled,
        CompiledExpr::CompilePredicate(predicate_, *out_schema_));
    compiled_ = std::move(compiled);
    compiled_->InitScratch(&scratch_);
  }
  SEQ_RETURN_IF_ERROR(driver_->Open(ctx));
  return other_->Open(ctx);
}

std::optional<PosRecord> ComposeStreamProbeOp::TryJoin(PosRecord d) {
  std::optional<Record> o = other_->Probe(d.pos);
  if (!o.has_value() || ctx_->failed()) return std::nullopt;
  Record combined = driver_is_left_
                        ? Combine(std::move(d.rec), std::move(*o))
                        : Combine(std::move(*o), std::move(d.rec));
  if (compiled_.has_value()) {
    ctx_->ChargePredicate(/*join=*/true);
    if (ctx_->PollFaultRaise(FaultSite::kExprEval, "Compose(stream-probe)",
                             d.pos)) {
      return std::nullopt;
    }
    if (!compiled_->EvalBool(combined, d.pos)) return std::nullopt;
  }
  ctx_->ChargeCompute();
  return PosRecord{d.pos, std::move(combined)};
}

void ComposeStreamProbeOp::FinishAtClip() {
  if (!pass_clip_end_ || ctx_->failed()) return;
  pass_clip_end_ = false;
  other_->PassClipEnd();
}

std::optional<PosRecord> ComposeStreamProbeOp::Next() {
  while (true) {
    std::optional<PosRecord> d = driver_->Next();
    if (!d.has_value()) FinishAtClip();
    if (!d.has_value() || ctx_->failed()) return std::nullopt;
    std::optional<PosRecord> joined = TryJoin(std::move(*d));
    if (joined.has_value()) return joined;
  }
}

std::optional<PosRecord> ComposeStreamProbeOp::NextAtOrAfter(Position p) {
  std::optional<PosRecord> d = driver_->NextAtOrAfter(p);
  while (d.has_value() && !ctx_->failed()) {
    std::optional<PosRecord> joined = TryJoin(std::move(*d));
    if (joined.has_value()) return joined;
    d = driver_->Next();
  }
  if (!d.has_value()) FinishAtClip();
  return std::nullopt;
}

size_t ComposeStreamProbeOp::NextBatch(RecordBatch* out) {
  out->Clear();
  if (driver_batch_ == nullptr) {
    driver_batch_ = std::make_unique<RecordBatch>(out->capacity());
    probe_batch_ = std::make_unique<RecordBatch>(out->capacity());
  }
  // Tuple parity: the other side is probed at EVERY driver position (a
  // probe miss charges inside the child, exactly as Probe would); the join
  // predicate is charged once per positional match, compute once per
  // passing row. A batch whose matches are all rejected just pulls the
  // next driver batch, so 0 still means end of stream.
  while (true) {
    size_t n = driver_->NextBatch(driver_batch_.get());
    if (n == 0) FinishAtClip();
    if (n == 0 || ctx_->failed()) return 0;
    positions_.resize(n);
    for (size_t i = 0; i < n; ++i) positions_[i] = driver_batch_->pos(i);
    size_t m = other_->ProbeBatch(positions_, probe_batch_.get());
    if (ctx_->failed()) return 0;
    int64_t hits = 0;
    int64_t passed = 0;
    size_t j = 0;
    for (size_t i = 0; i < n && j < m; ++i) {
      Position p = driver_batch_->pos(i);
      if (probe_batch_->pos(j) != p) continue;  // miss: hits are a subset
      Record& d = driver_batch_->rec(i);
      Record& o = probe_batch_->rec(j);
      ++j;
      ++hits;
      Record& dst = out->Append(p);
      if (driver_is_left_) {
        CombineInto(&dst, d, o);
      } else {
        CombineInto(&dst, o, d);
      }
      if (compiled_.has_value()) {
        if (ctx_->PollFaultRaise(FaultSite::kExprEval,
                                 "Compose(stream-probe)", p)) {
          out->Truncate(out->size() - 1);
          break;
        }
        if (!compiled_->EvalBoolFlat(dst, p, &scratch_)) {
          out->Truncate(out->size() - 1);
          continue;
        }
      }
      ++passed;
    }
    if (compiled_.has_value()) ctx_->ChargePredicates(/*join=*/true, hits);
    ctx_->ChargeComputeN(passed);
    if (ctx_->failed()) return 0;
    if (out->size() > 0) return out->size();
  }
}

// --- ComposeProbeBothOp -----------------------------------------------------

Status ComposeProbeBothOp::Open(ExecContext* ctx) {
  SEQ_RETURN_IF_ERROR(ctx->PollOpenFault("Compose(probe-both)"));
  ctx_ = ctx;
  if (predicate_ != nullptr) {
    SEQ_ASSIGN_OR_RETURN(
        CompiledExpr compiled,
        CompiledExpr::CompilePredicate(predicate_, *out_schema_));
    compiled_ = std::move(compiled);
    compiled_->InitScratch(&scratch_);
  }
  SEQ_RETURN_IF_ERROR(left_->Open(ctx));
  return right_->Open(ctx);
}

std::optional<Record> ComposeProbeBothOp::Probe(Position p) {
  std::optional<Record> l;
  std::optional<Record> r;
  if (probe_left_first_) {
    l = left_->Probe(p);
    if (!l.has_value()) return std::nullopt;
    r = right_->Probe(p);
    if (!r.has_value()) return std::nullopt;
  } else {
    r = right_->Probe(p);
    if (!r.has_value()) return std::nullopt;
    l = left_->Probe(p);
    if (!l.has_value()) return std::nullopt;
  }
  if (ctx_->failed()) return std::nullopt;
  Record combined = Combine(std::move(*l), std::move(*r));
  if (compiled_.has_value()) {
    ctx_->ChargePredicate(/*join=*/true);
    if (ctx_->PollFaultRaise(FaultSite::kExprEval, "Compose(probe-both)",
                             p)) {
      return std::nullopt;
    }
    if (!compiled_->EvalBool(combined, p)) return std::nullopt;
  }
  ctx_->ChargeCompute();
  return combined;
}

size_t ComposeProbeBothOp::ProbeBatch(std::span<const Position> positions,
                                      RecordBatch* out) {
  out->Clear();
  if (batch_a_ == nullptr) {
    batch_a_ = std::make_unique<RecordBatch>(out->capacity());
    batch_b_ = std::make_unique<RecordBatch>(out->capacity());
  }
  SeqOp* first = probe_left_first_ ? left_.get() : right_.get();
  SeqOp* second = probe_left_first_ ? right_.get() : left_.get();
  // Short-circuit parity: the second side is probed only at the first
  // side's hit positions, exactly like the tuple path.
  size_t na = first->ProbeBatch(positions, batch_a_.get());
  if (na == 0 || ctx_->failed()) return 0;
  positions2_.resize(na);
  for (size_t i = 0; i < na; ++i) positions2_[i] = batch_a_->pos(i);
  size_t nb = second->ProbeBatch(positions2_, batch_b_.get());
  if (ctx_->failed()) return 0;
  int64_t both = 0;
  int64_t passed = 0;
  size_t j = 0;
  for (size_t i = 0; i < na && j < nb; ++i) {
    Position p = batch_a_->pos(i);
    if (batch_b_->pos(j) != p) continue;  // second side missed
    Record& a = batch_a_->rec(i);
    Record& b = batch_b_->rec(j);
    ++j;
    ++both;
    Record& dst = out->Append(p);
    if (probe_left_first_) {
      CombineInto(&dst, a, b);
    } else {
      CombineInto(&dst, b, a);
    }
    if (compiled_.has_value()) {
      if (ctx_->PollFaultRaise(FaultSite::kExprEval, "Compose(probe-both)",
                               p)) {
        out->Truncate(out->size() - 1);
        break;
      }
      if (!compiled_->EvalBoolFlat(dst, p, &scratch_)) {
        out->Truncate(out->size() - 1);
        continue;
      }
    }
    ++passed;
  }
  if (compiled_.has_value()) ctx_->ChargePredicates(/*join=*/true, both);
  ctx_->ChargeComputeN(passed);
  if (ctx_->failed()) return 0;
  return out->size();
}

}  // namespace seq
