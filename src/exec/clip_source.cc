#include "exec/clip_source.h"

#include <algorithm>
#include <deque>

namespace seq {
namespace {

// First look-back window; each retry widens it fourfold.
constexpr int64_t kFirstLookBack = 64;

// Streams an uncharged copy of `source` clipped to `clip` and returns its
// last `keep` (>= 1) records.
Result<std::deque<PosRecord>> ScanTail(const ClipSource& source, Span clip,
                                       size_t keep, const ExecContext& ctx) {
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
  while (true) {
    const Position from = lo - back <= floor ? floor : lo - back;
    SEQ_ASSIGN_OR_RETURN(std::deque<PosRecord> tail,
                         ScanTail(source, Span::Of(from, lo - 1), n, ctx));
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
  SEQ_ASSIGN_OR_RETURN(std::deque<PosRecord> tail,
                       ScanTail(source, clip, 1, ctx));
  if (tail.empty()) return std::optional<Position>();
  return std::optional<Position>(tail.back().pos);
}

}  // namespace seq
