#ifndef SEQ_EXEC_PROFILED_OPS_H_
#define SEQ_EXEC_PROFILED_OPS_H_

#include <chrono>
#include <optional>
#include <span>
#include <utility>

#include "exec/operator.h"
#include "obs/profile.h"

namespace seq {

/// Accumulates one operator call into an OperatorProfile: wall time plus
/// the simulated-cost / cache-counter deltas charged while the call (and
/// therefore the whole subtree under it — the pull model runs children only
/// inside parent calls) was on the stack. Wrappers nest, so every profile
/// node ends up with *inclusive* numbers; OperatorProfile::Self*() derives
/// exclusive ones.
class ScopedOpTimer {
 public:
  ScopedOpTimer(OperatorProfile* prof, const AccessStats* stats)
      : prof_(prof),
        stats_(stats),
        start_(std::chrono::steady_clock::now()) {
    if (stats_ != nullptr) {
      sim_cost_before_ = stats_->simulated_cost;
      cache_hits_before_ = stats_->cache_hits;
      cache_stores_before_ = stats_->cache_stores;
    }
  }

  ~ScopedOpTimer() {
    prof_->wall_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
    if (stats_ != nullptr) {
      prof_->sim_cost += stats_->simulated_cost - sim_cost_before_;
      prof_->cache_hits += stats_->cache_hits - cache_hits_before_;
      prof_->cache_stores += stats_->cache_stores - cache_stores_before_;
    }
  }

  ScopedOpTimer(const ScopedOpTimer&) = delete;
  ScopedOpTimer& operator=(const ScopedOpTimer&) = delete;

 private:
  OperatorProfile* prof_;
  const AccessStats* stats_;
  std::chrono::steady_clock::time_point start_;
  double sim_cost_before_ = 0.0;
  int64_t cache_hits_before_ = 0;
  int64_t cache_stores_before_ = 0;
};

/// Instrumented operator: counts calls and rows and attributes wall time
/// and simulated-cost deltas to its profile node, forwarding every entry
/// point of the unified interface. Batch calls are forwarded whole —
/// unwrapping to tuple calls here would both distort the measurement and
/// defeat the inner operators' native batch implementations. `calls`
/// counts calls (a batch call counts once); rows_out counts records. Only
/// instantiated when profiling was requested — unprofiled plans run the
/// bare operators, so the default path pays nothing.
class ProfiledOp : public SeqOp {
 public:
  ProfiledOp(SeqOpPtr inner, OperatorProfile* prof)
      : inner_(std::move(inner)), prof_(prof) {}

  Status Open(ExecContext* ctx) override {
    // Open is timed too: blocking operators (overall aggregates, probe-side
    // materializations) do their pass here.
    stats_ = ctx->stats;
    ScopedOpTimer timer(prof_, stats_);
    return inner_->Open(ctx);
  }

  std::optional<PosRecord> Next() override {
    ScopedOpTimer timer(prof_, stats_);
    ++prof_->calls;
    std::optional<PosRecord> r = inner_->Next();
    if (r.has_value()) ++prof_->rows_out;
    return r;
  }

  std::optional<PosRecord> NextAtOrAfter(Position p) override {
    ScopedOpTimer timer(prof_, stats_);
    ++prof_->calls;
    std::optional<PosRecord> r = inner_->NextAtOrAfter(p);
    if (r.has_value()) ++prof_->rows_out;
    return r;
  }

  size_t NextBatch(RecordBatch* out) override {
    ScopedOpTimer timer(prof_, stats_);
    ++prof_->calls;
    size_t n = inner_->NextBatch(out);
    prof_->rows_out += static_cast<int64_t>(n);
    return n;
  }

  size_t NextBatchUpTo(Position limit, RecordBatch* out) override {
    ScopedOpTimer timer(prof_, stats_);
    ++prof_->calls;
    size_t n = inner_->NextBatchUpTo(limit, out);
    prof_->rows_out += static_cast<int64_t>(n);
    return n;
  }

  std::optional<Record> Probe(Position p) override {
    ScopedOpTimer timer(prof_, stats_);
    ++prof_->calls;
    std::optional<Record> r = inner_->Probe(p);
    if (r.has_value()) ++prof_->rows_out;
    return r;
  }

  size_t ProbeBatch(std::span<const Position> positions,
                    RecordBatch* out) override {
    ScopedOpTimer timer(prof_, stats_);
    ++prof_->calls;
    size_t n = inner_->ProbeBatch(positions, out);
    prof_->rows_out += static_cast<int64_t>(n);
    return n;
  }

  void Close() override {
    ScopedOpTimer timer(prof_, stats_);
    inner_->Close();
  }

  void PassClipEnd() override {
    ScopedOpTimer timer(prof_, stats_);
    inner_->PassClipEnd();
  }

  // Checkpoint traversal is transparent to profiling wrappers.
  void SaveState(OpStateWriter* w) const override { inner_->SaveState(w); }
  bool RestoreState(OpStateReader* r) override {
    return inner_->RestoreState(r);
  }

 private:
  SeqOpPtr inner_;
  OperatorProfile* prof_;
  const AccessStats* stats_ = nullptr;
};

}  // namespace seq

#endif  // SEQ_EXEC_PROFILED_OPS_H_
