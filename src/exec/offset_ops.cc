#include "exec/offset_ops.h"

#include <algorithm>
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
  head_ = 0;
  count_ = 0;
  cache_footprint_ = 0;
  input_.Reset();
  probe_capacity_ = 0;
  last_probe_pos_ = kMinPosition;
  SEQ_RETURN_IF_ERROR(child_->Open(ctx));
  return SeedCarry();
}

Status ValueOffsetOp::SeedCarry() {
  if (!carry_source_.has_value()) return Status::OK();
  SEQ_ASSIGN_OR_RETURN(
      std::vector<PosRecord> carried,
      RecordsBefore(*carry_source_, carry_before_, magnitude_, *ctx_));
  // The carried records occupy cache memory exactly as in the serial run,
  // but their cache stores were charged by the morsel that read them.
  for (PosRecord& r : carried) {
    if (!Store(r.pos, r.rec)) return ctx_->TakeError();
  }
  return Status::OK();
}

void ValueOffsetOp::DrainClip(size_t batch_capacity) {
  finish_at_clip_end_ = false;
  int64_t stores = 0;
  // Everything left is read, so the batch pull needs no bound.
  for (std::optional<Head> h = Peek(batch_capacity, kMaxPosition);
       h.has_value(); h = Peek(batch_capacity, kMaxPosition)) {
    ++stores;
    if (!Store(h->pos, *h->rec)) break;
    Pop(batch_capacity);
  }
  ctx_->ChargeCacheStores(stores);
}

void ValueOffsetOp::PassClipEnd() {
  if (finish_at_clip_end_) DrainClip(probe_capacity_);
}

std::optional<ValueOffsetOp::Head> ValueOffsetOp::Peek(size_t capacity,
                                                       Position limit) {
  if (capacity == 0) {
    if (!pending_.has_value() && !child_done_) {
      pending_ = child_->Next();
      child_done_ = !pending_.has_value();
    }
    if (!pending_.has_value()) return std::nullopt;
    return Head{pending_->pos, &pending_->rec};
  }
  if (!input_.Ready(child_.get(), capacity, limit)) return std::nullopt;
  return Head{input_.pos(), &input_.rec()};
}

void ValueOffsetOp::Pop(size_t capacity) {
  if (capacity == 0) {
    pending_.reset();
  } else {
    input_.Consume();
  }
}

bool ValueOffsetOp::Store(Position pos, Record& rec) {
  const int64_t bytes =
      static_cast<int64_t>(sizeof(Position)) + ApproxRecordBytes(rec);
  cache_footprint_ += bytes;
  if (!ctx_->AdjustCacheBytes(bytes)) {
    ctx_->RaiseCacheBudget(kCacheBLabel);
    return false;
  }
  if (count_ == magnitude_) ReleaseFront();
  if (count_ == ring_.size()) {
    // Grow by one slot, with the entries laid out from index 0 first.
    std::rotate(ring_.begin(), ring_.begin() + static_cast<ptrdiff_t>(head_),
                ring_.end());
    head_ = 0;
    ring_.emplace_back();
  }
  CacheSlot& slot = ring_[RingIndex(count_)];
  ++count_;
  slot.pos = pos;
  MoveRecordValues(slot.rec, rec);
  slot.bytes = bytes;
  return true;
}

void ValueOffsetOp::ReleaseFront() {
  const int64_t bytes = ring_[head_].bytes;
  cache_footprint_ -= bytes;
  ctx_->AdjustCacheBytes(-bytes);
  head_ = RingIndex(1);
  --count_;
}

void ValueOffsetOp::ReleaseAllEntries() {
  ctx_->AdjustCacheBytes(-cache_footprint_);
  cache_footprint_ = 0;
  head_ = 0;
  count_ = 0;
}

// A previous-record offset consumes every input before p into the recency
// cache; a next-record offset drops the cached inputs at or before p and
// looks ahead to the |l|-th input after it. Repeat probes of the same
// position re-run this with nothing left to consume, so they are
// idempotent and answer from the cache.
const Record* ValueOffsetOp::Advance(Position p, size_t capacity,
                                     Position limit, int64_t* stores) {
  if (offset_ < 0) {
    for (std::optional<Head> h = Peek(capacity, limit);
         h.has_value() && h->pos < p; h = Peek(capacity, limit)) {
      ++*stores;
      if (!Store(h->pos, *h->rec)) return nullptr;
      Pop(capacity);
    }
    return count_ == magnitude_ ? &ring_[head_].rec : nullptr;
  }
  while (count_ > 0 && ring_[head_].pos <= p) ReleaseFront();
  while (count_ < magnitude_) {
    std::optional<Head> h = Peek(capacity, limit);
    if (!h.has_value()) break;
    if (h->pos > p) {
      ++*stores;
      if (!Store(h->pos, *h->rec)) return nullptr;
    }
    Pop(capacity);
  }
  return count_ == magnitude_ ? &ring_[RingIndex(magnitude_ - 1)].rec
                              : nullptr;
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
  int64_t stores = 0;
  std::optional<PosRecord> out;
  while (p <= required_.end && !ctx_->failed()) {
    const Record* r = Advance(p, 0, kMaxPosition, &stores);
    if (r != nullptr) {
      next_pos_ = p + 1;
      out = PosRecord{p, *r};
      break;
    }
    // Too few inputs remain after p for a next-record offset; a
    // previous-record one jumps to just after the next input record.
    std::optional<Head> h;
    if (offset_ < 0 && !ctx_->failed()) h = Peek(0, kMaxPosition);
    if (!h.has_value()) break;
    p = h->pos + 1;
  }
  ctx_->ChargeCacheStores(stores);
  if (out.has_value()) {
    ctx_->ChargeCacheHit();
  } else if (p > required_.end && finish_at_clip_end_ && !ctx_->failed()) {
    DrainClip(0);  // the jump left the clip with input still pending
  }
  return out;
}

// Batches both sides. The child is pulled through a BatchInput cursor
// bounded by NextBatchUpTo: a value offset must not prefetch past what the
// tuple path would read, and the include-overshoot bound reproduces the
// tuple path's one-record look-ahead exactly — the consumed input set (and
// therefore every AccessStats counter) is identical in both driving modes.
size_t ValueOffsetOp::NextBatch(RecordBatch* out) {
  out->Clear();
  const size_t cap = out->capacity();
  Position p = next_pos_;
  if (p < required_.start) p = required_.start;
  // Asked past the clip — an empty clip included.
  if (p > required_.end && finish_at_clip_end_) DrainClip(cap);
  if (required_.IsEmpty()) return 0;
  // A previous-record offset consumes the inputs strictly before
  // required_.end plus one look-ahead record at or past it: limit end - 1
  // gives the same. A next-record offset consumes the inputs through end
  // plus |l| past it: past the limit the bounded pull degrades to one
  // record per refill, so the look-ahead stops at the same input record.
  const Position limit = offset_ < 0 ? required_.end - 1 : required_.end;
  int64_t stores = 0;
  while (!out->full() && p <= required_.end && !ctx_->failed()) {
    const Record* r = Advance(p, cap, limit, &stores);
    if (r != nullptr) {
      AssignRecord(out->Append(p), *r);
      ++p;
      continue;
    }
    std::optional<Head> h;
    if (offset_ < 0 && !ctx_->failed()) h = Peek(cap, limit);
    if (!h.has_value()) break;
    p = h->pos + 1;
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
  input_.Reset();
  ReleaseAllEntries();
  last_probe_pos_ = kMinPosition;
  Status seeded = SeedCarry();
  if (!seeded.ok()) ctx_->Raise(std::move(seeded));
}

const Record* ValueOffsetOp::ProbeStep(Position p, size_t capacity,
                                       Position limit, int64_t* stores) {
  if (ctx_->failed()) return nullptr;
  if (p < last_probe_pos_) {
    RewindProbes();
    if (ctx_->failed()) return nullptr;
  }
  last_probe_pos_ = p;
  return Advance(p, capacity, limit, stores);
}

std::optional<Record> ValueOffsetOp::Probe(Position p) {
  int64_t stores = 0;
  const Record* r = ProbeStep(p, 0, kMaxPosition, &stores);
  ctx_->ChargeCacheStores(stores);
  if (r == nullptr) return std::nullopt;
  ctx_->ChargeCacheHit();
  return *r;
}

size_t ValueOffsetOp::ProbeBatch(std::span<const Position> positions,
                                 RecordBatch* out) {
  out->Clear();
  if (positions.empty()) return 0;
  probe_capacity_ = out->capacity();
  // The union of the batch's tuple probes' read sets: a previous-record
  // offset reads the inputs before the last position plus one look-ahead
  // record, a next-record offset the inputs through it plus |l| past it.
  const Position last = positions.back();
  const Position limit = offset_ < 0 && last > kMinPosition ? last - 1 : last;
  int64_t stores = 0;
  for (Position p : positions) {
    const Record* r = ProbeStep(p, probe_capacity_, limit, &stores);
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
