#include "exec/offset_ops.h"

#include <cstdlib>

#include "common/logging.h"

namespace seq {

namespace {
constexpr const char* kCacheBLabel = "ValueOffset(cache-B)";
}  // namespace

Status ValueOffsetOp::Open(ExecContext* ctx) {
  SEQ_RETURN_IF_ERROR(ctx->PollOpenFault(kCacheBLabel));
  ctx_ = ctx;
  next_pos_ = required_.start;
  child_done_ = false;
  pending_.reset();
  cache_.clear();
  cache_footprint_ = 0;
  input_.Reset();
  last_probe_pos_ = kMinPosition;
  SEQ_RETURN_IF_ERROR(child_->Open(ctx));
  return SeedCarry();
}

Status ValueOffsetOp::SeedCarry() {
  if (!carry_source_.has_value()) return Status::OK();
  const size_t magnitude = static_cast<size_t>(std::abs(offset_));
  SEQ_ASSIGN_OR_RETURN(
      std::vector<PosRecord> carried,
      RecordsBefore(*carry_source_, carry_before_, magnitude, *ctx_));
  // The carried records occupy cache memory exactly as in the serial run,
  // but their cache stores were charged by the morsel that read them.
  for (PosRecord& r : carried) {
    cache_.push_back(std::move(r));
    if (!ChargeCacheEntry()) return ctx_->TakeError();
  }
  return Status::OK();
}

void ValueOffsetOp::DrainClip(size_t batch_capacity) {
  finish_at_clip_end_ = false;
  const size_t magnitude = static_cast<size_t>(std::abs(offset_));
  int64_t stores = 0;
  auto store = [&](Position pos, Record& rec) {
    cache_.emplace_back();
    cache_.back().pos = pos;
    MoveRecordValues(cache_.back().rec, rec);
    ++stores;
    if (!ChargeCacheEntry()) return false;
    if (cache_.size() > magnitude) ReleaseFrontEntry();
    return true;
  };
  if (batch_capacity == 0) {
    Fill();
    while (pending_.has_value() && store(pending_->pos, pending_->rec)) {
      pending_.reset();
      Fill();
    }
  } else {
    const Position limit = required_.end - 1;  // as NextBatch pulls
    while (input_.Ready(child_.get(), batch_capacity, limit) &&
           store(input_.pos(), input_.rec())) {
      input_.Consume();
    }
  }
  ctx_->ChargeCacheStores(stores);
}

void ValueOffsetOp::PassClipEnd() {
  if (finish_at_clip_end_) DrainClip(0);
}

void ValueOffsetOp::Fill() {
  if (child_done_ || pending_.has_value()) return;
  pending_ = child_->Next();
  if (!pending_.has_value()) child_done_ = true;
}

bool ValueOffsetOp::ChargeCacheEntry() {
  const int64_t b = static_cast<int64_t>(sizeof(Position)) +
                    ApproxRecordBytes(cache_.back().rec);
  cache_footprint_ += b;
  if (!ctx_->AdjustCacheBytes(b)) {
    ctx_->RaiseCacheBudget(kCacheBLabel);
    return false;
  }
  return true;
}

void ValueOffsetOp::ReleaseFrontEntry() {
  const int64_t b = static_cast<int64_t>(sizeof(Position)) +
                    ApproxRecordBytes(cache_.front().rec);
  cache_footprint_ -= b;
  ctx_->AdjustCacheBytes(-b);
  cache_.pop_front();
}

void ValueOffsetOp::ReleaseAllEntries() {
  ctx_->AdjustCacheBytes(-cache_footprint_);
  cache_footprint_ = 0;
  cache_.clear();
}

std::optional<PosRecord> ValueOffsetOp::Next() {
  return NextAtOrAfter(next_pos_);
}

std::optional<PosRecord> ValueOffsetOp::NextAtOrAfter(Position p) {
  if (p < next_pos_) p = next_pos_;
  if (p < required_.start) p = required_.start;
  // Asked past the clip — an empty clip included.
  if (p > required_.end && finish_at_clip_end_) DrainClip(0);
  if (required_.IsEmpty()) return std::nullopt;
  size_t magnitude = static_cast<size_t>(std::abs(offset_));

  if (offset_ < 0) {
    while (p <= required_.end && !ctx_->failed()) {
      // Consume every input strictly before p into the recency cache.
      Fill();
      while (pending_.has_value() && pending_->pos < p) {
        cache_.push_back(std::move(*pending_));
        ctx_->ChargeCacheStore();
        if (!ChargeCacheEntry()) return std::nullopt;
        if (cache_.size() > magnitude) ReleaseFrontEntry();
        pending_.reset();
        Fill();
      }
      if (cache_.size() == magnitude) {
        ctx_->ChargeCacheHit();
        next_pos_ = p + 1;
        return PosRecord{p, cache_.front().rec};
      }
      // Not enough history yet: jump to just after the next input record.
      if (!pending_.has_value()) return std::nullopt;
      p = pending_->pos + 1;
    }
    // The jump left the clip with input still pending.
    if (finish_at_clip_end_ && !ctx_->failed()) DrainClip(0);
    return std::nullopt;
  }

  // offset_ > 0: out(p) is the offset_-th input strictly after p. Keep a
  // lookahead buffer of upcoming inputs.
  while (p <= required_.end && !ctx_->failed()) {
    while (!cache_.empty() && cache_.front().pos <= p) ReleaseFrontEntry();
    while (cache_.size() < magnitude) {
      Fill();
      if (!pending_.has_value()) break;
      if (pending_->pos > p) {
        cache_.push_back(std::move(*pending_));
        ctx_->ChargeCacheStore();
        if (!ChargeCacheEntry()) return std::nullopt;
      }
      pending_.reset();
    }
    if (cache_.size() >= magnitude) {
      ctx_->ChargeCacheHit();
      next_pos_ = p + 1;
      return PosRecord{p, cache_[magnitude - 1].rec};
    }
    // Too few inputs remain after p; larger p only makes it worse.
    return std::nullopt;
  }
  return std::nullopt;
}

// Batches both sides. The child is pulled through a BatchInput cursor
// bounded by NextBatchUpTo: a value offset must not prefetch past what the
// tuple path would read, and the include-overshoot bound reproduces the
// tuple path's one-record look-ahead exactly — the consumed input set (and
// therefore every AccessStats counter) is identical in both driving modes.
size_t ValueOffsetOp::NextBatch(RecordBatch* out) {
  out->Clear();
  Position p = next_pos_;
  if (p < required_.start) p = required_.start;
  // Asked past the clip — an empty clip included.
  if (p > required_.end && finish_at_clip_end_) DrainClip(out->capacity());
  if (required_.IsEmpty()) return 0;
  const size_t magnitude = static_cast<size_t>(std::abs(offset_));
  const size_t cap = out->capacity();
  int64_t stores = 0;

  if (offset_ < 0) {
    // The tuple path consumes inputs strictly before required_.end plus
    // one look-ahead record at/past it; limit = end - 1 gives the same.
    const Position limit = required_.end - 1;
    while (!out->full() && p <= required_.end) {
      if (ctx_->failed()) break;
      bool have = input_.Ready(child_.get(), cap, limit);
      while (have && input_.pos() < p) {
        cache_.emplace_back();
        PosRecord& slot = cache_.back();
        slot.pos = input_.pos();
        MoveRecordValues(slot.rec, input_.rec());
        ++stores;
        if (!ChargeCacheEntry()) break;
        if (cache_.size() > magnitude) ReleaseFrontEntry();
        input_.Consume();
        have = input_.Ready(child_.get(), cap, limit);
      }
      if (ctx_->failed()) break;
      if (cache_.size() == magnitude) {
        AssignRecord(out->Append(p), cache_.front().rec);
        ++p;
        continue;
      }
      if (!have) break;
      p = input_.pos() + 1;
    }
    next_pos_ = p;
    // An empty batch ends the stream: a jump that left the clip with input
    // still pending consumes it now.
    if (out->empty() && p > required_.end && finish_at_clip_end_ &&
        !ctx_->failed()) {
      DrainClip(cap);
    }
    ctx_->ChargeCacheStores(stores);
    ctx_->ChargeCacheHits(static_cast<int64_t>(out->size()));
    return out->size();
  }

  // offset_ > 0: the look-ahead consumes inputs at positions <= end plus
  // exactly `magnitude` records past it — past the limit the bounded pull
  // degrades to one record per refill, so the look-ahead stops at the same
  // input record as the tuple path.
  const Position limit = required_.end;
  while (!out->full() && p <= required_.end) {
    if (ctx_->failed()) break;
    while (!cache_.empty() && cache_.front().pos <= p) ReleaseFrontEntry();
    while (cache_.size() < magnitude) {
      if (!input_.Ready(child_.get(), cap, limit)) break;
      if (input_.pos() > p) {
        cache_.emplace_back();
        PosRecord& slot = cache_.back();
        slot.pos = input_.pos();
        MoveRecordValues(slot.rec, input_.rec());
        ++stores;
        if (!ChargeCacheEntry()) break;
      }
      input_.Consume();
    }
    if (ctx_->failed()) break;
    if (cache_.size() < magnitude) break;
    AssignRecord(out->Append(p), cache_[magnitude - 1].rec);
    ++p;
  }
  next_pos_ = p;
  ctx_->ChargeCacheStores(stores);
  ctx_->ChargeCacheHits(static_cast<int64_t>(out->size()));
  return out->size();
}

void ValueOffsetOp::RewindProbes() {
  // A consumer regressed its probe position. The incremental state only
  // moves forward, so restart the child and replay deterministically —
  // the same reset happens under Probe and ProbeBatch driving, so the
  // paths still charge identically (just more than a monotone consumer
  // would; the planner avoids handing this operator to one). The reopen
  // can fail legitimately (injected Open fault), so failure is raised on
  // the context rather than asserted; ProbeStep bails on the raised error.
  child_->Close();
  Status reopened = child_->Open(ctx_);
  if (!reopened.ok()) ctx_->Raise(std::move(reopened));
  pending_.reset();
  child_done_ = false;
  ReleaseAllEntries();
  last_probe_pos_ = kMinPosition;
  Status seeded = SeedCarry();
  if (!seeded.ok()) ctx_->Raise(std::move(seeded));
}

const Record* ValueOffsetOp::ProbeStep(Position p, int64_t* stores) {
  if (ctx_->failed()) return nullptr;
  if (p < last_probe_pos_) {
    RewindProbes();
    if (ctx_->failed()) return nullptr;
  }
  last_probe_pos_ = p;
  const size_t magnitude = static_cast<size_t>(std::abs(offset_));

  if (offset_ < 0) {
    Fill();
    while (pending_.has_value() && pending_->pos < p) {
      cache_.push_back(std::move(*pending_));
      ++*stores;
      if (!ChargeCacheEntry()) return nullptr;
      if (cache_.size() > magnitude) ReleaseFrontEntry();
      pending_.reset();
      Fill();
    }
    // Repeat probes of the same position re-run this advance with nothing
    // left to consume, so they are idempotent and answer from the cache.
    if (cache_.size() < magnitude) return nullptr;
    return &cache_.front().rec;
  }

  while (!cache_.empty() && cache_.front().pos <= p) ReleaseFrontEntry();
  while (cache_.size() < magnitude) {
    Fill();
    if (!pending_.has_value()) break;
    if (pending_->pos > p) {
      cache_.push_back(std::move(*pending_));
      ++*stores;
      if (!ChargeCacheEntry()) return nullptr;
    }
    pending_.reset();
  }
  if (cache_.size() < magnitude) return nullptr;
  return &cache_[magnitude - 1].rec;
}

std::optional<Record> ValueOffsetOp::Probe(Position p) {
  int64_t stores = 0;
  const Record* r = ProbeStep(p, &stores);
  ctx_->ChargeCacheStores(stores);
  if (r == nullptr) return std::nullopt;
  ctx_->ChargeCacheHit();
  return *r;
}

size_t ValueOffsetOp::ProbeBatch(std::span<const Position> positions,
                                 RecordBatch* out) {
  out->Clear();
  int64_t stores = 0;
  for (Position p : positions) {
    const Record* r = ProbeStep(p, &stores);
    if (ctx_->failed()) break;
    if (r != nullptr) AssignRecord(out->Append(p), *r);
  }
  ctx_->ChargeCacheStores(stores);
  ctx_->ChargeCacheHits(static_cast<int64_t>(out->size()));
  return out->size();
}

std::optional<Record> ValueOffsetNaiveOp::Search(Position p) {
  if (child_span_.IsEmpty()) return std::nullopt;
  int64_t magnitude = std::abs(offset_);
  int64_t found = 0;
  if (offset_ < 0) {
    for (Position q = p - 1; q >= child_span_.start; --q) {
      std::optional<Record> r = child_->Probe(q);
      if (ctx_->failed()) return std::nullopt;
      if (r.has_value() && ++found == magnitude) return r;
    }
    return std::nullopt;
  }
  for (Position q = p + 1; q <= child_span_.end; ++q) {
    std::optional<Record> r = child_->Probe(q);
    if (ctx_->failed()) return std::nullopt;
    if (r.has_value() && ++found == magnitude) return r;
  }
  return std::nullopt;
}

std::optional<PosRecord> ValueOffsetNaiveOp::Next() {
  while (next_pos_ <= required_.end) {
    if (ctx_->failed()) return std::nullopt;
    Position p = next_pos_++;
    std::optional<Record> r = Search(p);
    if (r.has_value()) return PosRecord{p, std::move(*r)};
  }
  return std::nullopt;
}

size_t ValueOffsetNaiveOp::NextBatch(RecordBatch* out) {
  // Every access charge lives in the child probes the search performs, so
  // the batch fill loop charges exactly what the same tuple walk would.
  out->Clear();
  while (!out->full() && next_pos_ <= required_.end) {
    if (ctx_->failed()) break;
    Position p = next_pos_++;
    std::optional<Record> r = Search(p);
    if (r.has_value()) MoveRecordValues(out->Append(p), *r);
  }
  return out->size();
}

size_t ValueOffsetNaiveOp::ProbeBatch(std::span<const Position> positions,
                                      RecordBatch* out) {
  out->Clear();
  for (Position p : positions) {
    if (ctx_->failed()) break;
    std::optional<Record> r = Search(p);
    if (r.has_value()) MoveRecordValues(out->Append(p), *r);
  }
  return out->size();
}

}  // namespace seq
