#include "exec/agg_ops.h"

#include <algorithm>

#include "common/logging.h"

namespace seq {

// --- WindowAggCachedOp ------------------------------------------------------

namespace {
constexpr const char* kCacheALabel = "WindowAgg(cache-A)";

/// Streams a morsel carry-in subtree to completion into `state`, charging
/// nothing: the carry context has no stats block and no fault injector, so
/// the fold is invisible to AccessStats and to fault determinism — the
/// records it re-reads were charged by the morsel that owns them. Budgets
/// still apply cooperatively: the cancel flag is forwarded so a tripped
/// sibling morsel stops a long fold.
/// A trailing window folds through WindowState::Slide, exactly as its
/// drive loop does; a running aggregate through Add. The carry is clipped
/// to end where the morsel starts and is read to its end, so batches feed
/// the state the same records in the same order as tuples would.
Status FoldCarry(SeqOp* carry, ExecContext* ctx, WindowState* state,
                 size_t col_index, bool trailing) {
  ExecContext carry_ctx = UnchargedContext(*ctx);
  SEQ_RETURN_IF_ERROR(carry->Open(&carry_ctx));
  RecordBatch batch(256);  // a guard check every 256 rows
  while (carry->NextBatch(&batch) > 0) {
    for (size_t i = 0; i < batch.size(); ++i) {
      if (trailing) {
        state->Slide(batch.pos(i), batch.rec(i)[col_index]);
      } else {
        state->Add(batch.pos(i), batch.rec(i)[col_index], nullptr);
      }
    }
    SEQ_RETURN_IF_ERROR(carry_ctx.CheckGuards(0));
  }
  carry->Close();
  return carry_ctx.TakeError();
}

}  // namespace

Status WindowAggCachedOp::Open(ExecContext* ctx) {
  SEQ_RETURN_IF_ERROR(ctx->PollOpenFault(kCacheALabel));
  ctx_ = ctx;
  next_pos_ = required_.start;
  pending_.reset();
  child_done_ = false;
  state_ = WindowState(func_, col_type_);
  state_.SetTrailingWindow(window_);
  cache_footprint_ = 0;
  input_.Reset();
  SEQ_RETURN_IF_ERROR(child_->Open(ctx));
  if (carry_ != nullptr) {
    // The first SyncCacheBytes after this fold charges the carried
    // entries' footprint, so the cache-memory budget sees the same state
    // size at every output position as a serial run.
    SEQ_RETURN_IF_ERROR(FoldCarry(carry_.get(), ctx, &state_, col_index_,
                                  /*trailing=*/true));
  }
  return Status::OK();
}

void WindowAggCachedOp::DrainClip(size_t batch_capacity) {
  finish_at_clip_end_ = false;
  int64_t consumed = 0;
  if (batch_capacity == 0) {
    Fill();
    while (pending_.has_value()) {
      state_.Slide(pending_->pos, pending_->rec[col_index_]);
      ++consumed;
      pending_.reset();
      Fill();
    }
  } else {
    while (input_.Ready(child_.get(), batch_capacity)) {
      state_.Slide(input_.pos(), input_.rec()[col_index_]);
      ++consumed;
      input_.Consume();
    }
  }
  ctx_->ChargeCacheStores(consumed);
  ctx_->ChargeAggSteps(consumed);
  SyncCacheBytes();
}

void WindowAggCachedOp::Fill() {
  if (child_done_ || pending_.has_value()) return;
  pending_ = child_->Next();
  if (!pending_.has_value()) child_done_ = true;
}

bool WindowAggCachedOp::SyncCacheBytes() {
  const int64_t now = state_.ApproxBytes();
  const int64_t delta = now - cache_footprint_;
  cache_footprint_ = now;
  if (delta == 0) return true;
  if (!ctx_->AdjustCacheBytes(delta)) {
    ctx_->RaiseCacheBudget(kCacheALabel);
    return false;
  }
  return true;
}

std::optional<PosRecord> WindowAggCachedOp::Next() {
  return NextAtOrAfter(next_pos_);
}

std::optional<PosRecord> WindowAggCachedOp::NextAtOrAfter(Position p) {
  if (p < next_pos_) p = next_pos_;
  if (p < required_.start) p = required_.start;
  // Asked past the clip — an empty clip included.
  if (p > required_.end && finish_at_clip_end_) DrainClip(0);
  if (required_.IsEmpty()) return std::nullopt;
  while (p <= required_.end) {
    if (ctx_->failed()) return std::nullopt;
    // Pull every input at positions <= p into the window cache.
    Fill();
    while (pending_.has_value() && pending_->pos <= p) {
      ctx_->ChargeCacheStore();
      ctx_->ChargeAggStep();
      state_.Slide(pending_->pos, pending_->rec[col_index_]);
      pending_.reset();
      Fill();
    }
    state_.EvictBefore(p - window_ + 1);
    if (!SyncCacheBytes()) return std::nullopt;
    if (state_.count() > 0) {
      ctx_->ChargeCacheHit();
      ctx_->ChargeCompute();
      next_pos_ = p + 1;
      return PosRecord{p, Record{state_.Current()}};
    }
    // Window empty at p: jump to the next input record's position.
    if (!pending_.has_value()) return std::nullopt;
    p = pending_->pos;
  }
  return std::nullopt;
}

size_t WindowAggCachedOp::NextBatch(RecordBatch* out) {
  out->Clear();
  Position p = next_pos_;
  if (p < required_.start) p = required_.start;
  // Asked past the clip — an empty clip included.
  if (p > required_.end && finish_at_clip_end_) DrainClip(out->capacity());
  if (required_.IsEmpty()) return 0;
  int64_t consumed = 0;
  while (!out->full() && p <= required_.end) {
    if (ctx_->failed()) break;
    bool have = input_.Ready(child_.get(), out->capacity());
    while (have && input_.pos() <= p) {
      state_.Slide(input_.pos(), input_.rec()[col_index_]);
      ++consumed;
      input_.Consume();
      have = input_.Ready(child_.get(), out->capacity());
    }
    state_.EvictBefore(p - window_ + 1);
    if (!SyncCacheBytes()) break;
    if (state_.count() > 0) {
      Record& dst = out->Append(p);
      dst.resize(1);
      dst[0] = state_.Current();
      ++p;
      continue;
    }
    if (!have) break;
    p = input_.pos();
  }
  next_pos_ = p;
  // Bulk charging: one cache store + agg step per consumed input, one
  // cache hit + compute per emitted row — the same totals the tuple path
  // charges per event.
  ctx_->ChargeCacheStores(consumed);
  ctx_->ChargeAggSteps(consumed);
  ctx_->ChargeCacheHits(static_cast<int64_t>(out->size()));
  ctx_->ChargeComputeN(static_cast<int64_t>(out->size()));
  return out->size();
}

// --- RunningAggOp -----------------------------------------------------------

Status RunningAggOp::Open(ExecContext* ctx) {
  SEQ_RETURN_IF_ERROR(ctx->PollOpenFault("RunningAgg"));
  ctx_ = ctx;
  next_pos_ = required_.start;
  pending_.reset();
  child_done_ = false;
  state_ = WindowState(func_, col_type_);
  input_.Reset();
  SEQ_RETURN_IF_ERROR(child_->Open(ctx));
  if (carry_ != nullptr) {
    SEQ_RETURN_IF_ERROR(FoldCarry(carry_.get(), ctx, &state_, col_index_,
                                  /*trailing=*/false));
  }
  return Status::OK();
}

void RunningAggOp::DrainClip(size_t batch_capacity) {
  finish_at_clip_end_ = false;
  if (batch_capacity == 0) {
    while (true) {
      if (!pending_.has_value() && !child_done_) {
        pending_ = child_->Next();
        if (!pending_.has_value()) child_done_ = true;
      }
      if (!pending_.has_value()) break;
      state_.Add(pending_->pos, pending_->rec[col_index_], ctx_);
      pending_.reset();
    }
    return;
  }
  int64_t consumed = 0;
  while (input_.Ready(child_.get(), batch_capacity)) {
    state_.Add(input_.pos(), input_.rec()[col_index_], nullptr);
    ++consumed;
    input_.Consume();
  }
  ctx_->ChargeAggSteps(consumed);
}

std::optional<PosRecord> RunningAggOp::Next() {
  return NextAtOrAfter(next_pos_);
}

std::optional<PosRecord> RunningAggOp::NextAtOrAfter(Position p) {
  if (p < next_pos_) p = next_pos_;
  if (p < required_.start) p = required_.start;
  // Asked past the clip — an empty clip included.
  if (p > required_.end && finish_at_clip_end_) DrainClip(0);
  if (required_.IsEmpty()) return std::nullopt;
  while (p <= required_.end) {
    if (ctx_->failed()) return std::nullopt;
    if (!pending_.has_value() && !child_done_) {
      pending_ = child_->Next();
      if (!pending_.has_value()) child_done_ = true;
    }
    while (pending_.has_value() && pending_->pos <= p) {
      state_.Add(pending_->pos, pending_->rec[col_index_], ctx_);
      pending_.reset();
      if (!child_done_) {
        pending_ = child_->Next();
        if (!pending_.has_value()) child_done_ = true;
      }
    }
    if (state_.count() > 0) {
      ctx_->ChargeCompute();
      next_pos_ = p + 1;
      return PosRecord{p, Record{state_.Current()}};
    }
    if (!pending_.has_value()) return std::nullopt;
    p = pending_->pos;
  }
  return std::nullopt;
}

size_t RunningAggOp::NextBatch(RecordBatch* out) {
  out->Clear();
  Position p = next_pos_;
  if (p < required_.start) p = required_.start;
  // Asked past the clip — an empty clip included.
  if (p > required_.end && finish_at_clip_end_) DrainClip(out->capacity());
  if (required_.IsEmpty()) return 0;
  int64_t consumed = 0;
  while (!out->full() && p <= required_.end) {
    if (ctx_->failed()) break;
    bool have = input_.Ready(child_.get(), out->capacity());
    while (have && input_.pos() <= p) {
      state_.Add(input_.pos(), input_.rec()[col_index_], nullptr);
      ++consumed;
      input_.Consume();
      have = input_.Ready(child_.get(), out->capacity());
    }
    if (state_.count() > 0) {
      Record& dst = out->Append(p);
      dst.resize(1);
      dst[0] = state_.Current();
      ++p;
      continue;
    }
    if (!have) break;
    p = input_.pos();
  }
  next_pos_ = p;
  ctx_->ChargeAggSteps(consumed);
  ctx_->ChargeComputeN(static_cast<int64_t>(out->size()));
  return out->size();
}

// --- OverallAggOp -----------------------------------------------------------

Status OverallAggOp::Open(ExecContext* ctx) {
  SEQ_RETURN_IF_ERROR(ctx->PollOpenFault("OverallAgg"));
  ctx_ = ctx;
  next_pos_ = required_.start;
  SEQ_RETURN_IF_ERROR(child_->Open(ctx));
  // One full pass computes the aggregate (the paper's "agg_pos always
  // true" special case aggregates the whole sequence). The pass blocks
  // inside Open, so it checks budgets/cancellation itself every 256
  // records — the driver's batch-boundary checks never see this loop.
  WindowState state(func_, col_type_);
  int64_t seen = 0;
  while (true) {
    std::optional<PosRecord> r = child_->Next();
    if (!r.has_value()) break;
    state.Add(r->pos, r->rec[col_index_], ctx);
    if ((++seen & 0xFF) == 0) {
      SEQ_RETURN_IF_ERROR(ctx->CheckGuards(0));
    }
  }
  if (ctx->failed()) return ctx->TakeError();
  if (state.count() > 0) value_ = state.Current();
  return Status::OK();
}

std::optional<PosRecord> OverallAggOp::Next() {
  if (!value_.has_value() || required_.IsEmpty()) return std::nullopt;
  if (next_pos_ < required_.start) next_pos_ = required_.start;
  if (next_pos_ > required_.end) return std::nullopt;
  ctx_->ChargeCompute();
  return PosRecord{next_pos_++, Record{*value_}};
}

size_t OverallAggOp::NextBatch(RecordBatch* out) {
  out->Clear();
  if (!value_.has_value() || required_.IsEmpty()) return 0;
  if (next_pos_ < required_.start) next_pos_ = required_.start;
  while (!out->full() && next_pos_ <= required_.end) {
    Record& dst = out->Append(next_pos_++);
    dst.resize(1);
    dst[0] = *value_;
  }
  ctx_->ChargeComputeN(static_cast<int64_t>(out->size()));
  return out->size();
}

// --- WindowAggNaiveOp -------------------------------------------------------

std::optional<Value> WindowAggNaiveOp::WindowAt(Position p, int64_t* steps) {
  WindowState state(func_, col_type_);
  for (Position q = p - window_ + 1; q <= p; ++q) {
    std::optional<Record> r = child_->Probe(q);
    if (ctx_->failed()) return std::nullopt;
    if (r.has_value()) {
      state.Add(q, (*r)[col_index_], nullptr);
      ++*steps;
    }
  }
  if (state.count() == 0) return std::nullopt;
  return state.Current();
}

std::optional<Record> WindowAggNaiveOp::Probe(Position p) {
  int64_t steps = 0;
  std::optional<Value> v = WindowAt(p, &steps);
  ctx_->ChargeAggSteps(steps);
  if (!v.has_value()) return std::nullopt;
  ctx_->ChargeCompute();
  return Record{std::move(*v)};
}

std::optional<PosRecord> WindowAggNaiveOp::Next() {
  while (next_pos_ <= required_.end) {
    if (ctx_->failed()) return std::nullopt;
    Position p = next_pos_++;
    std::optional<Record> r = Probe(p);
    if (r.has_value()) return PosRecord{p, std::move(*r)};
  }
  return std::nullopt;
}

size_t WindowAggNaiveOp::NextBatch(RecordBatch* out) {
  out->Clear();
  int64_t steps = 0;
  while (!out->full() && next_pos_ <= required_.end) {
    if (ctx_->failed()) break;
    Position p = next_pos_++;
    std::optional<Value> v = WindowAt(p, &steps);
    if (v.has_value()) {
      Record& dst = out->Append(p);
      dst.resize(1);
      dst[0] = std::move(*v);
    }
  }
  ctx_->ChargeAggSteps(steps);
  ctx_->ChargeComputeN(static_cast<int64_t>(out->size()));
  return out->size();
}

size_t WindowAggNaiveOp::ProbeBatch(std::span<const Position> positions,
                                    RecordBatch* out) {
  out->Clear();
  int64_t steps = 0;
  for (Position p : positions) {
    if (ctx_->failed()) break;
    std::optional<Value> v = WindowAt(p, &steps);
    if (v.has_value()) {
      Record& dst = out->Append(p);
      dst.resize(1);
      dst[0] = std::move(*v);
    }
  }
  ctx_->ChargeAggSteps(steps);
  ctx_->ChargeComputeN(static_cast<int64_t>(out->size()));
  return out->size();
}

// --- MaterializedAggOp ------------------------------------------------------

Status MaterializedAggOp::Open(ExecContext* ctx) {
  SEQ_RETURN_IF_ERROR(ctx->PollOpenFault("MaterializedAgg"));
  ctx_ = ctx;
  SEQ_RETURN_IF_ERROR(child_->Open(ctx));
  // Blocking materialization pass: like OverallAgg::Open it checks
  // budgets/cancellation itself every 256 records. The checkpoint vector
  // is a materialization, not an operator cache, so it is exempt from
  // max_cache_bytes — the degraded (cache-free) re-plan must be able to
  // run it (see docs/robustness.md).
  WindowState state(func_, col_type_);
  checkpoints_.clear();
  int64_t seen = 0;
  while (true) {
    std::optional<PosRecord> r = child_->Next();
    if (!r.has_value()) break;
    state.Add(r->pos, r->rec[col_index_], ctx);
    if (kind_ == WindowKind::kRunning) {
      checkpoints_.emplace_back(r->pos, state.Current());
    }
    if ((++seen & 0xFF) == 0) {
      SEQ_RETURN_IF_ERROR(ctx->CheckGuards(0));
    }
  }
  if (ctx->failed()) return ctx->TakeError();
  if (kind_ == WindowKind::kAll && state.count() > 0) {
    checkpoints_.emplace_back(out_span_.start, state.Current());
  }
  return Status::OK();
}

const Value* MaterializedAggOp::Lookup(Position p) const {
  if (checkpoints_.empty() || !out_span_.Contains(p)) return nullptr;
  if (kind_ == WindowKind::kAll) return &checkpoints_.front().second;
  // Running: value at the greatest checkpoint position <= p.
  auto it = std::upper_bound(
      checkpoints_.begin(), checkpoints_.end(), p,
      [](Position pos, const std::pair<Position, Value>& cp) {
        return pos < cp.first;
      });
  if (it == checkpoints_.begin()) return nullptr;
  return &std::prev(it)->second;
}

std::optional<Record> MaterializedAggOp::Probe(Position p) {
  const Value* v = Lookup(p);
  if (v == nullptr) return std::nullopt;
  ctx_->ChargeCacheHit();
  return Record{*v};
}

size_t MaterializedAggOp::ProbeBatch(std::span<const Position> positions,
                                     RecordBatch* out) {
  out->Clear();
  for (Position p : positions) {
    const Value* v = Lookup(p);
    if (v == nullptr) continue;
    Record& dst = out->Append(p);
    dst.resize(1);
    dst[0] = *v;
  }
  ctx_->ChargeCacheHits(static_cast<int64_t>(out->size()));
  return out->size();
}

}  // namespace seq
