#ifndef SEQ_OPTIMIZER_PHYSICAL_PLAN_H_
#define SEQ_OPTIMIZER_PHYSICAL_PLAN_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "expr/expr.h"
#include "logical/logical_op.h"
#include "types/schema.h"
#include "types/span.h"

namespace seq {

/// The access mode an operator offers to its consumer (paper §3.3): stream
/// ("get the next non-Null record") or probed ("get the record at a
/// specific position").
enum class AccessMode : uint8_t { kStream, kProbed };

const char* AccessModeName(AccessMode mode);

/// Physical strategies for the compose operator (paper §3.3, Fig. 4).
enum class JoinStrategy : uint8_t {
  kStreamBoth,            // Join-Strategy-B: lock-step scan of both inputs
  kStreamLeftProbeRight,  // Join-Strategy-A: stream left, probe right
  kStreamRightProbeLeft,  // Join-Strategy-A mirrored
  kProbeBoth,             // probed-mode output: probe both inputs
};

const char* JoinStrategyName(JoinStrategy strategy);

/// Physical strategies for windowed aggregates (paper §3.5, Fig. 5.A).
enum class AggStrategy : uint8_t {
  kCacheA,      // ring cache holding the scope; each input touched once
  kNaiveProbe,  // re-probe the whole window for every output position
};

const char* AggStrategyName(AggStrategy strategy);

/// Physical strategies for value offsets (paper §3.5, Fig. 5.B).
enum class OffsetStrategy : uint8_t {
  kIncrementalCacheB,  // derive out(i) from out(i-1) and the cached input
  kNaiveSearch,        // search backward/forward from every position
};

const char* OffsetStrategyName(OffsetStrategy strategy);

struct PhysNode;
using PhysNodePtr = std::shared_ptr<const PhysNode>;

/// An immutable physical-plan node: a logical operator with its access
/// mode, physical strategy, evaluation range and cost estimate fixed.
/// The execution engine instantiates operator objects from these
/// descriptors in one table-driven pass indexed by `op`
/// (exec/executor.cc); `mode` and the strategy fields select the
/// construction shape of a single unified operator per node, so every
/// strategy the cost model prices corresponds to exactly one executor
/// lowering: ValueOffset+kIncrementalCacheB -> ValueOffsetOp (stream or
/// probed), +kNaiveSearch -> ValueOffsetNaiveOp; WindowAgg+kCacheA ->
/// WindowAggCachedOp, +kNaiveProbe -> WindowAggNaiveOp; Compose
/// strategies -> ComposeLockstepOp / ComposeStreamProbeOp /
/// ComposeProbeBothOp. The optimizer's DP shares subplans freely.
struct PhysNode {
  OpKind op = OpKind::kBaseRef;
  AccessMode mode = AccessMode::kStream;
  JoinStrategy join_strategy = JoinStrategy::kStreamBoth;
  AggStrategy agg_strategy = AggStrategy::kCacheA;
  OffsetStrategy offset_strategy = OffsetStrategy::kIncrementalCacheB;
  /// kProbeBoth composes: probe the left child first (cheaper rejection)?
  bool probe_left_first = true;

  std::vector<PhysNodePtr> children;

  // Operator parameters (mirrors LogicalOp).
  std::string seq_name;
  ExprPtr predicate;
  std::vector<std::string> columns;
  std::vector<std::string> renames;
  int64_t offset = 0;  // positional/value offset; collapse factor
  AggFunc agg_func = AggFunc::kSum;
  WindowKind window_kind = WindowKind::kTrailing;
  int64_t window = 1;
  std::string agg_column;
  std::string output_name;

  // Annotation.
  SchemaPtr out_schema;
  Span out_span = Span::Empty();   ///< where output records may exist
  Span required = Span::Empty();   ///< range this node will be evaluated on
  double est_density = 0.0;
  double est_cost = 0.0;           ///< estimated cost in `mode` over `required`
  int64_t cache_size = 0;          ///< operator cache records (§3.5)

  // Morsel-parallel annotations, set only on the per-morsel node clones the
  // executor derives from the optimizer's plan (exec/executor.cc,
  // CloneForMorsel). Never set by the optimizer itself.
  /// For a clipped base scan: the start of the span the ORIGINAL (serial)
  /// leaf covered. The preceding span is streamed by earlier morsels, so
  /// the scan opens its cursor "resumed" — the page holding the record
  /// just before the clip is treated as already fetched, keeping
  /// stream_pages totals identical to one serial scan.
  std::optional<Position> resume_covered_from;
  /// True on sequential-aggregate clones whose children[1] is an uncharged
  /// carry-in subtree: the operator streams it to completion at Open to
  /// rebuild the aggregate state the serial run would have at the morsel
  /// boundary, charging nothing (earlier morsels charge those reads).
  bool morsel_carry = false;
  /// The serial plan's node this clone was cut from, on clones whose
  /// operator settles its clip edges at run time — reading records outside
  /// the clip uncharged (lock-step composes, Cache-B value offsets) or
  /// consuming the rest of its clipped input when the serial run would
  /// move past the clip end (aggregates, value offsets). Null elsewhere.
  PhysNodePtr morsel_source;

  /// One-line description of the node: operator, mode, strategy and
  /// parameters — shared by Explain and the runtime profile labels.
  std::string Label() const;

  /// Expected number of output records over the required span.
  double EstRows() const;

  /// Indented, annotated rendering.
  std::string Explain(int indent = 0) const;
};

/// A complete query evaluation plan: the Start operator's input plus how
/// the root is driven (full-range stream or explicit-position probes,
/// Fig. 6 query template).
struct PhysicalPlan {
  PhysNodePtr root;
  AccessMode root_mode = AccessMode::kStream;
  Span output_span = Span::Empty();       ///< range queried (stream driving)
  std::vector<Position> positions;        ///< explicit positions (probed driving)
  SchemaPtr schema;
  double est_cost = 0.0;

  std::string Explain() const;
};

}  // namespace seq

#endif  // SEQ_OPTIMIZER_PHYSICAL_PLAN_H_
