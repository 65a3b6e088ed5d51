#ifndef SEQ_EXEC_CLIP_SOURCE_H_
#define SEQ_EXEC_CLIP_SOURCE_H_

#include <functional>
#include <optional>
#include <vector>

#include "common/result.h"
#include "exec/operator.h"

namespace seq {

/// One input of a morsel clone as the serial plan defines it: the span the
/// serial run streams it over, and a builder for fresh copies of it
/// clipped to a sub-span. Operators whose serial state at a morsel edge
/// depends on records outside their own clip (lock-step composes, Cache-B
/// value offsets, stream-probe composes over a value offset) read those
/// records through uncharged copies built here — the morsel that owns the
/// records charges them (docs/execution.md, "Morsel boundaries").
struct ClipSource {
  Span span = Span::Empty();
  std::function<Result<SeqOpPtr>(Span clip)> build;
};

/// The last `n` records of `source` at positions before `lo`, in position
/// order (fewer when the input has fewer). Looks back through windows of
/// growing length, so the replay is proportional to how far back the n-th
/// record lies, not to the length of the prefix. Charges nothing; counts
/// one exec.lookbacks and the records streamed as exec.lookback_records.
Result<std::vector<PosRecord>> RecordsBefore(const ClipSource& source,
                                             Position lo, size_t n,
                                             const ExecContext& ctx);

/// Position of the last record of `source` inside `clip`, if any. Charges
/// nothing; counted like RecordsBefore.
Result<std::optional<Position>> LastPositionIn(const ClipSource& source,
                                               Span clip,
                                               const ExecContext& ctx);

}  // namespace seq

#endif  // SEQ_EXEC_CLIP_SOURCE_H_
