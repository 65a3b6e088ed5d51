#include "exec/clip_source.h"

#include <algorithm>
#include <deque>

#include "obs/metrics.h"

namespace seq {
namespace {

// First look-back window; each retry widens it fourfold.
constexpr int64_t kFirstLookBack = 64;

// Publishes one look-back, and the records its windows streamed, to the
// exec.lookbacks / exec.lookback_records counters when it goes out of
// scope.
struct LookBackCount {
  int64_t records = 0;
  ~LookBackCount() {
    static MetricCounter& lookbacks =
        MetricsRegistry::Global().Counter("exec.lookbacks");
    static MetricCounter& lookback_records =
        MetricsRegistry::Global().Counter("exec.lookback_records");
    lookbacks.Add();
    lookback_records.Add(records);
  }
};

// Streams an uncharged copy of `source` clipped to `clip` and returns its
// last `keep` (>= 1) records.
// Adds the number of records streamed to *scanned.
Result<std::deque<PosRecord>> ScanTail(const ClipSource& source, Span clip,
                                       size_t keep, const ExecContext& ctx,
                                       int64_t* scanned) {
  std::deque<PosRecord> tail;
  clip = clip.Intersect(source.span);
  if (clip.IsEmpty()) return tail;
  SEQ_ASSIGN_OR_RETURN(SeqOpPtr op, source.build(clip));
  ExecContext scan_ctx = UnchargedContext(ctx);
  SEQ_RETURN_IF_ERROR(op->Open(&scan_ctx));
  RecordBatch batch(256);
  while (op->NextBatch(&batch) > 0) {
    // Only a batch's last `keep` rows can survive into the tail.
    const size_t n = batch.size();
    *scanned += static_cast<int64_t>(n);
    for (size_t i = n > keep ? n - keep : 0; i < n; ++i) {
      if (tail.size() == keep) tail.pop_front();
      tail.push_back(PosRecord{batch.pos(i), batch.rec(i)});
    }
    SEQ_RETURN_IF_ERROR(scan_ctx.CheckGuards(0));
  }
  op->Close();
  SEQ_RETURN_IF_ERROR(scan_ctx.TakeError());
  return tail;
}

}  // namespace

Result<std::vector<PosRecord>> RecordsBefore(const ClipSource& source,
                                             Position lo, size_t n,
                                             const ExecContext& ctx) {
  std::vector<PosRecord> out;
  if (n == 0 || source.span.IsEmpty() || lo <= source.span.start) return out;
  const Position floor = source.span.start;
  int64_t back = kFirstLookBack;
  LookBackCount count;
  while (true) {
    const Position from = lo - back <= floor ? floor : lo - back;
    SEQ_ASSIGN_OR_RETURN(
        std::deque<PosRecord> tail,
        ScanTail(source, Span::Of(from, lo - 1), n, ctx, &count.records));
    if (tail.size() == n || from == floor) {
      out.assign(std::make_move_iterator(tail.begin()),
                 std::make_move_iterator(tail.end()));
      return out;
    }
    back = std::min<int64_t>(back * 4, lo - floor);
  }
}

Result<std::optional<Position>> LastPositionIn(const ClipSource& source,
                                               Span clip,
                                               const ExecContext& ctx) {
  LookBackCount count;
  SEQ_ASSIGN_OR_RETURN(std::deque<PosRecord> tail,
                       ScanTail(source, clip, 1, ctx, &count.records));
  if (tail.empty()) return std::optional<Position>();
  return std::optional<Position>(tail.back().pos);
}

}  // namespace seq
