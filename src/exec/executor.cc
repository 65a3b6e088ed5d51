#include "exec/executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <span>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "exec/agg_ops.h"
#include "exec/clip_source.h"
#include "obs/metrics.h"
#include "exec/collapse_ops.h"
#include "exec/compose_ops.h"
#include "exec/offset_ops.h"
#include "exec/profiled_ops.h"
#include "exec/scan_ops.h"
#include "exec/unary_ops.h"
#include "exec/window_state.h"

namespace seq {
namespace {

/// Resolves projection column names to indices in the child schema.
Result<std::vector<size_t>> ProjectIndices(const PhysNode& node,
                                           const Schema& child_schema) {
  std::vector<size_t> indices;
  indices.reserve(node.columns.size());
  for (const std::string& col : node.columns) {
    SEQ_ASSIGN_OR_RETURN(size_t idx, child_schema.FieldIndex(col));
    indices.push_back(idx);
  }
  return indices;
}

struct AggBinding {
  size_t col_index;
  TypeId col_type;
};

Result<AggBinding> BindAggColumn(const PhysNode& node) {
  SEQ_CHECK(!node.children.empty());
  const Schema& child_schema = *node.children[0]->out_schema;
  SEQ_ASSIGN_OR_RETURN(size_t idx, child_schema.FieldIndex(node.agg_column));
  return AggBinding{idx, child_schema.field(idx).type};
}

/// Fills a fresh profile node with the PhysNode's identity and estimates.
OperatorProfile* AddProfileNode(OperatorProfile* parent,
                                const PhysNode& node) {
  OperatorProfile* prof = parent->AddChild();
  prof->label = node.Label();
  prof->est_cost = node.est_cost;
  prof->est_rows = node.EstRows();
  prof->span_len =
      (node.required.IsEmpty() || node.required.IsUnbounded())
          ? 0
          : node.required.Length();
  return prof;
}

// A builder of uncharged clipped copies of `input` (defined with the morsel
// machinery below).
ClipSource ClipSourceOf(const Executor* exec, const PhysNodePtr& input);

// The clip edges of a morsel clone relative to the node it was cut from:
// kMinPosition / kMaxPosition where the clone runs on to the serial edge.
// A clip wholly before the node's range leaves the clone's span empty but
// still ends at the clip end: the serial run consumes the clipped input on
// its way to the range.
Span ClipEdges(const PhysNode& clone) {
  const Span serial = clone.morsel_source->required;
  return Span::Of(
      clone.required.start > serial.start ? clone.required.start : kMinPosition,
      clone.required.end < serial.end ? clone.required.end : kMaxPosition);
}

// True on a clone whose clip ends before the serial node's range does.
bool EndsBeforeSerial(const PhysNode& clone) {
  return clone.morsel_source != nullptr &&
         !clone.morsel_source->required.IsEmpty() &&
         ClipEdges(clone).end < kMaxPosition;
}

// The last record position of a seek-free input (a base scan under any
// chain of positional offsets) over its serial span, found by binary
// search of the store: kMinPosition when the input is empty, nullopt for
// any other input.
std::optional<Position> SeekFreeLastPosition(const Catalog& catalog,
                                             const PhysNode& input) {
  int64_t shift = 0;  // out(p) = in(p + shift)
  const PhysNode* node = &input;
  while (node->op == OpKind::kPositionalOffset) {
    shift += node->offset;
    node = node->children[0].get();
  }
  if (node->op != OpKind::kBaseRef) return std::nullopt;
  Result<const CatalogEntry*> entry = catalog.Lookup(node->seq_name);
  if (!entry.ok()) return std::nullopt;
  std::optional<Position> last =
      (*entry)->store->LastPositionIn(node->required);
  return last.has_value() ? *last - shift : kMinPosition;
}

}  // namespace

bool DefaultUseBatch() {
  static const bool kUseBatch = [] {
    const char* env = std::getenv("SEQ_USE_BATCH");
    return env == nullptr || std::string_view(env) != "0";
  }();
  return kUseBatch;
}

int DefaultParallelism() {
  static const int kParallelism =
      ValidatedEnvInt("SEQ_PARALLELISM", 1, /*fallback=*/1);
  return kParallelism;
}

bool DefaultUsePlanCache() {
  static const bool kUsePlanCache = [] {
    const char* env = std::getenv("SEQ_PLAN_CACHE");
    if (env == nullptr) return true;
    const std::string_view v(env);
    return v != "0" && v != "off" && v != "false";
  }();
  return kUsePlanCache;
}

Result<SeqOpPtr> Executor::Build(const PhysNodePtr& node,
                                 OperatorProfile* profile_parent) const {
  if (profile_parent == nullptr) return BuildInner(node, nullptr);
  SEQ_CHECK(node != nullptr);
  OperatorProfile* prof = AddProfileNode(profile_parent, *node);
  SEQ_ASSIGN_OR_RETURN(SeqOpPtr inner, BuildInner(node, prof));
  return SeqOpPtr(new ProfiledOp(std::move(inner), prof));
}

Result<SeqOpPtr> Executor::BuildInner(const PhysNodePtr& node,
                                      OperatorProfile* prof) const {
  SEQ_CHECK(node != nullptr);
  // The lowering table: one builder per OpKind, in enum order. The access
  // mode no longer selects between operator classes — each unified
  // operator serves the mode(s) its plan shape supports — so the only
  // per-node dispatch left is this kind lookup plus the node's strategy
  // annotations inside each builder.
  using BuildFn = Result<SeqOpPtr> (Executor::*)(const PhysNode&,
                                                 OperatorProfile*) const;
  static constexpr BuildFn kLowering[] = {
      &Executor::BuildBaseRef,      // OpKind::kBaseRef
      &Executor::BuildConstantRef,  // OpKind::kConstantRef
      &Executor::BuildSelect,       // OpKind::kSelect
      &Executor::BuildProject,      // OpKind::kProject
      &Executor::BuildPosOffset,    // OpKind::kPositionalOffset
      &Executor::BuildValueOffset,  // OpKind::kValueOffset
      &Executor::BuildWindowAgg,    // OpKind::kWindowAgg
      &Executor::BuildCompose,      // OpKind::kCompose
      &Executor::BuildCollapse,     // OpKind::kCollapse
      &Executor::BuildExpand,       // OpKind::kExpand
  };
  const size_t kind = static_cast<size_t>(node->op);
  SEQ_CHECK_MSG(kind < std::size(kLowering),
                "unknown operator kind in plan: " << OpKindName(node->op));
  return (this->*kLowering[kind])(*node, prof);
}

Result<SeqOpPtr> Executor::BuildBaseRef(const PhysNode& node,
                                        OperatorProfile*) const {
  SEQ_ASSIGN_OR_RETURN(const CatalogEntry* entry,
                       catalog_.Lookup(node.seq_name));
  return SeqOpPtr(new BaseScan(entry->store.get(), node.required,
                               node.resume_covered_from));
}

Result<SeqOpPtr> Executor::BuildConstantRef(const PhysNode& node,
                                            OperatorProfile*) const {
  SEQ_ASSIGN_OR_RETURN(const CatalogEntry* entry,
                       catalog_.Lookup(node.seq_name));
  return SeqOpPtr(new ConstantOp(entry->constant, node.required));
}

Result<SeqOpPtr> Executor::BuildSelect(const PhysNode& node,
                                       OperatorProfile* prof) const {
  SEQ_ASSIGN_OR_RETURN(SeqOpPtr child, Build(node.children[0], prof));
  return SeqOpPtr(new SelectOp(std::move(child), node.predicate,
                               node.children[0]->out_schema));
}

Result<SeqOpPtr> Executor::BuildProject(const PhysNode& node,
                                        OperatorProfile* prof) const {
  SEQ_ASSIGN_OR_RETURN(SeqOpPtr child, Build(node.children[0], prof));
  SEQ_ASSIGN_OR_RETURN(std::vector<size_t> indices,
                       ProjectIndices(node, *node.children[0]->out_schema));
  return SeqOpPtr(new ProjectOp(std::move(child), std::move(indices)));
}

Result<SeqOpPtr> Executor::BuildPosOffset(const PhysNode& node,
                                          OperatorProfile* prof) const {
  SEQ_ASSIGN_OR_RETURN(SeqOpPtr child, Build(node.children[0], prof));
  return SeqOpPtr(new PosOffsetOp(std::move(child), node.offset));
}

Result<SeqOpPtr> Executor::BuildValueOffset(const PhysNode& node,
                                            OperatorProfile* prof) const {
  SEQ_ASSIGN_OR_RETURN(SeqOpPtr child, Build(node.children[0], prof));
  if (node.offset_strategy == OffsetStrategy::kIncrementalCacheB) {
    // Streamed child in both modes: the incremental cache consumes the
    // input in order whether the consumer streams or probes monotonically.
    auto* op = new ValueOffsetOp(std::move(child), node.offset, node.required);
    if (node.morsel_source != nullptr) {
      // The carry-in ends where the clipped input starts; a clone with no
      // output position needs none.
      const PhysNodePtr& input = node.morsel_source->children[0];
      const Span clip = node.children[0]->required;
      op->set_morsel(ClipSourceOf(this, input),
                     !node.required.IsEmpty() &&
                             clip.start > input->required.start
                         ? clip.start
                         : kMinPosition,
                     EndsBeforeSerial(node));
    }
    return SeqOpPtr(op);
  }
  // Naive search over a probed child.
  return SeqOpPtr(new ValueOffsetNaiveOp(std::move(child), node.offset,
                                         node.required,
                                         node.children[0]->required));
}

Result<SeqOpPtr> Executor::BuildWindowAgg(const PhysNode& node,
                                          OperatorProfile* prof) const {
  SEQ_ASSIGN_OR_RETURN(AggBinding binding, BindAggColumn(node));
  SEQ_ASSIGN_OR_RETURN(SeqOpPtr child, Build(node.children[0], prof));
  // Morsel clones of sequential aggregates carry an extra (uncharged)
  // carry-in subtree as children[1]; it is never profiled, so profiled
  // morsel trees stay isomorphic to the display tree.
  SeqOpPtr carry;
  if (node.morsel_carry) {
    SEQ_CHECK(node.children.size() == 2);
    SEQ_ASSIGN_OR_RETURN(carry, Build(node.children[1], nullptr));
  }
  const bool finish_at_clip_end = EndsBeforeSerial(node);
  switch (node.window_kind) {
    case WindowKind::kTrailing:
      if (node.mode == AccessMode::kStream &&
          node.agg_strategy == AggStrategy::kCacheA) {
        auto* op = new WindowAggCachedOp(
            std::move(child), node.agg_func, binding.col_index,
            binding.col_type, node.window, node.required);
        if (carry != nullptr) op->set_carry(std::move(carry));
        if (finish_at_clip_end) op->set_finish_at_clip_end();
        return SeqOpPtr(op);
      }
      // Naive window probing, streamed or probed (probed child).
      return SeqOpPtr(new WindowAggNaiveOp(
          std::move(child), node.agg_func, binding.col_index,
          binding.col_type, node.window, node.required));
    case WindowKind::kRunning:
      if (node.mode == AccessMode::kProbed) {
        return SeqOpPtr(new MaterializedAggOp(
            std::move(child), node.agg_func, binding.col_index,
            binding.col_type, node.window_kind, node.out_span));
      }
      {
        auto* op = new RunningAggOp(std::move(child), node.agg_func,
                                    binding.col_index, binding.col_type,
                                    node.required);
        if (carry != nullptr) op->set_carry(std::move(carry));
        if (finish_at_clip_end) op->set_finish_at_clip_end();
        return SeqOpPtr(op);
      }
    case WindowKind::kAll:
      if (node.mode == AccessMode::kProbed) {
        return SeqOpPtr(new MaterializedAggOp(
            std::move(child), node.agg_func, binding.col_index,
            binding.col_type, node.window_kind, node.out_span));
      }
      return SeqOpPtr(new OverallAggOp(std::move(child), node.agg_func,
                                       binding.col_index, binding.col_type,
                                       node.required));
  }
  return Status::Internal("unknown window kind");
}

Result<SeqOpPtr> Executor::BuildCompose(const PhysNode& node,
                                        OperatorProfile* prof) const {
  if (node.mode == AccessMode::kProbed) {
    SEQ_ASSIGN_OR_RETURN(SeqOpPtr left, Build(node.children[0], prof));
    SEQ_ASSIGN_OR_RETURN(SeqOpPtr right, Build(node.children[1], prof));
    return SeqOpPtr(new ComposeProbeBothOp(
        std::move(left), std::move(right), node.probe_left_first,
        node.predicate, node.out_schema));
  }
  switch (node.join_strategy) {
    case JoinStrategy::kStreamBoth: {
      SEQ_ASSIGN_OR_RETURN(SeqOpPtr left, Build(node.children[0], prof));
      SEQ_ASSIGN_OR_RETURN(SeqOpPtr right, Build(node.children[1], prof));
      auto* op = new ComposeLockstepOp(std::move(left), std::move(right),
                                       node.predicate, node.out_schema);
      const PhysNode& serial =
          node.morsel_source != nullptr ? *node.morsel_source : node;
      const std::optional<Position> left_last =
          SeekFreeLastPosition(catalog_, *serial.children[0]);
      const std::optional<Position> right_last =
          SeekFreeLastPosition(catalog_, *serial.children[1]);
      if (left_last.has_value() && right_last.has_value()) {
        op->set_batch_stop(std::min(*left_last, *right_last));
      }
      // A clip outside the compose's range leaves nothing to merge.
      if (node.morsel_source != nullptr && !node.required.IsEmpty()) {
        const Span edges = ClipEdges(node);
        op->set_boundary(edges.start, edges.end,
                         ClipSourceOf(this, serial.children[0]),
                         ClipSourceOf(this, serial.children[1]));
      }
      return SeqOpPtr(op);
    }
    case JoinStrategy::kStreamLeftProbeRight:
    case JoinStrategy::kStreamRightProbeLeft: {
      const bool left_drives =
          node.join_strategy == JoinStrategy::kStreamLeftProbeRight;
      SEQ_ASSIGN_OR_RETURN(SeqOpPtr left, Build(node.children[0], prof));
      SEQ_ASSIGN_OR_RETURN(SeqOpPtr right, Build(node.children[1], prof));
      auto* op = left_drives
                     ? new ComposeStreamProbeOp(std::move(left),
                                                std::move(right), true,
                                                node.predicate, node.out_schema)
                     : new ComposeStreamProbeOp(std::move(right),
                                                std::move(left), false,
                                                node.predicate,
                                                node.out_schema);
      // Even a clip before the compose's range ends in a pass: its probed
      // input's clip may start earlier.
      if (EndsBeforeSerial(node)) op->set_pass_clip_end();
      return SeqOpPtr(op);
    }
    case JoinStrategy::kProbeBoth:
      return Status::Internal("probe-both compose in a stream plan");
  }
  return Status::Internal("unknown join strategy");
}

Result<SeqOpPtr> Executor::BuildCollapse(const PhysNode& node,
                                         OperatorProfile* prof) const {
  SEQ_ASSIGN_OR_RETURN(AggBinding binding, BindAggColumn(node));
  SEQ_ASSIGN_OR_RETURN(SeqOpPtr child, Build(node.children[0], prof));
  return SeqOpPtr(new CollapseOp(
      std::move(child), node.agg_func, binding.col_index, binding.col_type,
      node.offset, node.required,
      /*materialized=*/node.mode == AccessMode::kProbed));
}

Result<SeqOpPtr> Executor::BuildExpand(const PhysNode& node,
                                       OperatorProfile* prof) const {
  SEQ_ASSIGN_OR_RETURN(SeqOpPtr child, Build(node.children[0], prof));
  return SeqOpPtr(new ExpandOp(std::move(child), node.offset, node.required));
}

// ---------------------------------------------------------------------------
// Morsel-driven parallelism (docs/execution.md).
//
// A stream-root plan's output span is split into contiguous morsels; each
// morsel is evaluated by an independent clone of the operator tree derived
// from the same PhysicalPlan, clipped to the morsel, with private
// AccessStats. Results and stats merge at the barrier in morsel order, so
// rows, counters and budget trips are identical to a serial run. Probed
// roots need no clones at all — probes are stateless per position — so the
// position list (or span walk) is simply chunked across workers.
// ---------------------------------------------------------------------------

namespace {

// Nonnegative remainder, for boundary-alignment arithmetic over possibly
// negative positions.
int64_t Mod(int64_t a, int64_t m) {
  int64_t r = a % m;
  return r < 0 ? r + m : r;
}

// Floor division for possibly negative numerators (b > 0); mirrors the
// bucket mapping of ExpandOp.
int64_t FloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  return (a % b != 0 && a < 0) ? q - 1 : q;
}

// Modular inverse of a modulo m (requires gcd(a, m) == 1, m >= 1), by the
// extended Euclidean algorithm.
int64_t ModInverse(int64_t a, int64_t m) {
  if (m == 1) return 0;
  int64_t t = 0, new_t = 1, r = m, new_r = Mod(a, m);
  while (new_r != 0) {
    const int64_t q = r / new_r;
    t -= q * new_t;
    std::swap(t, new_t);
    r -= q * new_r;
    std::swap(r, new_r);
  }
  return Mod(t, m);
}

// Alignment moduli are capped so the congruence arithmetic above cannot
// overflow; a plan stacking enough Expands to exceed this runs serial.
constexpr int64_t kMaxAlignModulus = int64_t{1} << 31;

// What AnalyzeSpine learned about a stream plan's driving spine: whether
// it partitions at all, which arithmetic class morsel boundaries must lie
// in (start ≡ phase mod modulus, so collapse/expand bucket edges coincide
// with morsel edges), and the estimated carry-in replay cost per boundary.
struct SpineInfo {
  bool ok = true;
  std::string reason;
  int64_t modulus = 1;
  int64_t phase = 0;
  double carry_cost = 0.0;
};

SpineInfo SpineFail(std::string reason) {
  SpineInfo s;
  s.ok = false;
  s.reason = std::move(reason);
  return s;
}

int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

// Cuts a bounded, non-empty `span` every `step` positions, each cut snapped
// UP into the spine's boundary class (start ≡ phase mod modulus) so
// collapse/expand bucket edges coincide with piece edges; a cut that snaps
// onto or behind the previous one is skipped. Morsel planning, the
// checkpoint grid and a checkpoint chunk's morsel sub-split all cut here,
// so a resumed run sees exactly the grid of the run it resumes.
std::vector<Span> SplitSpan(Span span, int64_t step, const SpineInfo& spine) {
  std::vector<Span> pieces;
  Position start = span.start;
  for (int64_t k = 1; span.start + k * step <= span.end; ++k) {
    Position b = span.start + k * step;
    if (spine.modulus > 1) b += Mod(spine.phase - b, spine.modulus);
    if (b > span.end) break;
    if (b <= start) continue;
    pieces.push_back(Span::Of(start, b - 1));
    start = b;
  }
  pieces.push_back(Span::Of(start, span.end));
  return pieces;
}

// Cuts a position list into consecutive slices of `step` entries.
std::vector<std::span<const Position>> SplitList(
    std::span<const Position> list, size_t step) {
  std::vector<std::span<const Position>> slices;
  for (size_t off = 0; off < list.size(); off += step) {
    slices.push_back(list.subspan(off, std::min(step, list.size() - off)));
  }
  return slices;
}

// A previous-record Cache-B value offset: clipped like the spine, with an
// |l|-record carry-in (docs/execution.md, "Value-offset carry-in").
bool IsCarriedValueOffset(const PhysNode& node) {
  return node.op == OpKind::kValueOffset &&
         node.offset_strategy == OffsetStrategy::kIncrementalCacheB &&
         node.offset < 0;
}

// Operator kinds a carry-in clone may be built over: re-streamable shapes
// whose clones rebuild their own state at the clip start — stateless
// operators, previous-record value offsets (|l|-record carry-in) and
// lock-step composes of such inputs. Aggregates would need carry-ins of
// their own inside every carry.
bool CarrySupported(const PhysNodePtr& node) {
  switch (node->op) {
    case OpKind::kBaseRef:
    case OpKind::kConstantRef:
      return true;
    case OpKind::kSelect:
    case OpKind::kProject:
    case OpKind::kPositionalOffset:
      return CarrySupported(node->children[0]);
    case OpKind::kValueOffset:
      return IsCarriedValueOffset(*node) && CarrySupported(node->children[0]);
    case OpKind::kCompose:
      return node->mode == AccessMode::kStream &&
             node->join_strategy == JoinStrategy::kStreamBoth &&
             CarrySupported(node->children[0]) &&
             CarrySupported(node->children[1]);
    default:
      return false;
  }
}

// True when the subtree is evaluated purely by per-position probes with no
// cross-probe state, so independent per-worker instances charge exactly
// what one serial instance would. Materializing operators (probed
// collapse, materialized aggregates, the Cache-B value offset) re-consume
// their whole input per instance and are rejected.
bool ProbedSafe(const PhysNodePtr& node, std::string* why) {
  switch (node->op) {
    case OpKind::kBaseRef:
    case OpKind::kConstantRef:
      return true;
    case OpKind::kSelect:
    case OpKind::kProject:
    case OpKind::kPositionalOffset:
    case OpKind::kExpand:
      return ProbedSafe(node->children[0], why);
    case OpKind::kValueOffset:
      if (node->offset_strategy == OffsetStrategy::kIncrementalCacheB) {
        *why = "stateful value-offset cache (Cache-B) is sequential";
        return false;
      }
      return ProbedSafe(node->children[0], why);
    case OpKind::kWindowAgg:
      if (node->window_kind != WindowKind::kTrailing ||
          (node->mode == AccessMode::kStream &&
           node->agg_strategy == AggStrategy::kCacheA)) {
        *why = "materialized/cached aggregate re-consumes its input per worker";
        return false;
      }
      return ProbedSafe(node->children[0], why);
    case OpKind::kCompose:
      if (node->mode != AccessMode::kProbed) {
        *why = "stream compose inside a probed subtree";
        return false;
      }
      return ProbedSafe(node->children[0], why) &&
             ProbedSafe(node->children[1], why);
    case OpKind::kCollapse:
      *why = "materialized collapse re-consumes its input per worker";
      return false;
  }
  *why = "unknown operator kind";
  return false;
}

// True for a Cache-A window whose double accumulator re-sums per period
// (WindowState::Resums): its carry-in reaches back to the period start.
bool ResumingWindow(const PhysNode& node) {
  Result<AggBinding> binding = BindAggColumn(node);
  return binding.ok() && WindowState::Resums(node.agg_func, binding->col_type);
}

// It is the one stateful operator a morsel clone may probe, reached from
// the probing compose through 1:1 probe forwarders only, so it sees every
// probe the serial run makes in its clip.
bool HasCarriedValueOffset(const PhysNodePtr& node) {
  if (IsCarriedValueOffset(*node)) return true;
  switch (node->op) {
    case OpKind::kSelect:
    case OpKind::kProject:
    case OpKind::kPositionalOffset:
      return HasCarriedValueOffset(node->children[0]);
    default:
      return false;
  }
}

// How an operator's consumer pulls its stream. Stepping consumers (the
// driver, aggregates, value offsets, collapse) read every record up to the
// end of their input; a lock-step compose seeks its inputs with
// NextAtOrAfter, and so does an expand re-reading buckets.
enum class Pull { kStep, kLockstep, kExpand };

SpineInfo AnalyzeSpine(const PhysNodePtr& node, Pull pull = Pull::kStep);

// Two inputs of one compose: both must partition, and a morsel start must
// satisfy both inputs' alignment classes.
SpineInfo CombineSpines(SpineInfo a, const SpineInfo& b) {
  if (!a.ok) return a;
  if (!b.ok) return b;
  a.carry_cost += b.carry_cost;
  if (a.modulus == 1) {
    a.modulus = b.modulus;
    a.phase = b.phase;
  } else if (b.modulus != 1 &&
             (a.modulus != b.modulus || a.phase != b.phase)) {
    return SpineFail("compose inputs need different morsel alignments");
  }
  return a;
}

// Estimated cost of re-reading `positions` positions of `node`'s input.
double ReplayCost(const PhysNode& input, double positions) {
  const int64_t len = (!input.required.IsEmpty() && !input.required.IsUnbounded())
                          ? input.required.Length()
                          : 1;
  return input.est_cost / static_cast<double>(len) * positions;
}

// A Cache-B value offset partitions when it looks back (previous-record
// offsets) and its input partitions and can be re-streamed for the
// |l|-record carry-in.
SpineInfo AnalyzeCarriedValueOffset(const PhysNodePtr& node) {
  if (node->offset > 0) {
    return SpineFail("next-record value offset looks ahead past the morsel");
  }
  if (!CarrySupported(node->children[0])) {
    return SpineFail("value-offset carry-in unsupported over " +
                     node->children[0]->Label());
  }
  SpineInfo c = AnalyzeSpine(node->children[0]);
  if (!c.ok) return c;
  const PhysNode& in = *node->children[0];
  const double density = std::max(in.est_density, 1e-3);
  c.carry_cost += ReplayCost(
      in, static_cast<double>(-node->offset) / density);
  return c;
}

// The probed input of a stream-probe compose: stateless probers are shared
// by every morsel untouched; a carried value offset (see
// IsCarriedValueOffset) is clipped like the spine, so its input's
// partition rules join the plan's.
SpineInfo AnalyzeProbedSide(const PhysNodePtr& node) {
  if (!HasCarriedValueOffset(node)) {
    std::string why;
    if (!ProbedSafe(node, &why)) return SpineFail(why);
    return SpineInfo{};
  }
  if (IsCarriedValueOffset(*node)) return AnalyzeCarriedValueOffset(node);
  SpineInfo c = AnalyzeProbedSide(node->children[0]);
  if (c.ok && node->op == OpKind::kPositionalOffset) {
    c.phase = Mod(c.phase - node->offset, c.modulus);
  }
  return c;
}

// Walks the stream-driven spine of the plan (the chain of operators whose
// state advances with the output position; probed side-branches hang off
// it) and decides whether contiguous output morsels can be evaluated by
// independent clones. `pull` is how the node's consumer pulls it. See
// docs/execution.md for the full rules.
SpineInfo AnalyzeSpine(const PhysNodePtr& node, Pull pull) {
  switch (node->op) {
    case OpKind::kBaseRef:
    case OpKind::kConstantRef:
      return SpineInfo{};
    case OpKind::kSelect:
    case OpKind::kProject:
      return AnalyzeSpine(node->children[0], pull);
    case OpKind::kPositionalOffset: {
      // out(p) = in(p + l): a morsel start b clips the child at b + l, so
      // the child's alignment class shifts by -l in output coordinates.
      SpineInfo c = AnalyzeSpine(node->children[0], pull);
      if (!c.ok) return c;
      c.phase = Mod(c.phase - node->offset, c.modulus);
      return c;
    }
    case OpKind::kValueOffset: {
      if (node->offset_strategy == OffsetStrategy::kIncrementalCacheB) {
        // An expand never pulls it past its clip, so it would not consume
        // the rest of its input there as the serial run does.
        if (pull == Pull::kExpand) {
          return SpineFail("Cache-B value offset under an expand");
        }
        return AnalyzeCarriedValueOffset(node);
      }
      std::string why;
      if (!ProbedSafe(node->children[0], &why)) return SpineFail(why);
      return SpineInfo{};  // stateless per-position search; any boundary
    }
    case OpKind::kWindowAgg:
      switch (node->window_kind) {
        case WindowKind::kAll:
          return SpineFail("overall aggregate is a blocking full pass");
        case WindowKind::kTrailing: {
          if (!(node->mode == AccessMode::kStream &&
                node->agg_strategy == AggStrategy::kCacheA)) {
            // Naive prober: stateless per position over a probed child.
            std::string why;
            if (!ProbedSafe(node->children[0], &why)) return SpineFail(why);
            return SpineInfo{};
          }
          // Cache-A: sequential window state, rebuilt per morsel by an
          // uncharged carry-in clone that starts one window before the
          // re-sum period holding the window's first position.
          if (!CarrySupported(node->children[0])) {
            return SpineFail("window carry-in unsupported over " +
                             node->children[0]->Label());
          }
          SpineInfo c = AnalyzeSpine(node->children[0]);
          if (!c.ok) return c;
          const int64_t w = std::max<int64_t>(node->window, 1);
          const double period =
              ResumingWindow(*node)
                  ? static_cast<double>(int64_t{1} << WindowState::ResumShift(w))
                  : 0.0;
          c.carry_cost += ReplayCost(
              *node->children[0], static_cast<double>(w - 1) + period / 2);
          return c;
        }
        case WindowKind::kRunning: {
          if (!CarrySupported(node->children[0])) {
            return SpineFail("running-aggregate carry-in unsupported over " +
                             node->children[0]->Label());
          }
          SpineInfo c = AnalyzeSpine(node->children[0]);
          if (!c.ok) return c;
          // Carry-in replays the whole prefix: half the input on average
          // per boundary — usually enough to force the serial fallback.
          c.carry_cost += 0.5 * node->children[0]->est_cost;
          return c;
        }
      }
      return SpineFail("unknown window kind");
    case OpKind::kCompose:
      switch (node->join_strategy) {
        case JoinStrategy::kStreamBoth:
          // The clone rebuilds the merge state at its clip start from how
          // a stepping consumer pulls it; a seeking consumer would pull it
          // differently there.
          if (pull != Pull::kStep) {
            return SpineFail("lock-step compose under a seeking consumer");
          }
          return CombineSpines(AnalyzeSpine(node->children[0], Pull::kLockstep),
                               AnalyzeSpine(node->children[1], Pull::kLockstep));
        case JoinStrategy::kStreamLeftProbeRight:
        case JoinStrategy::kStreamRightProbeLeft: {
          const bool left_drives =
              node->join_strategy == JoinStrategy::kStreamLeftProbeRight;
          const PhysNodePtr& probed = node->children[left_drives ? 1 : 0];
          if (pull == Pull::kExpand && HasCarriedValueOffset(probed)) {
            return SpineFail("Cache-B value offset probed under an expand");
          }
          return CombineSpines(
              AnalyzeSpine(node->children[left_drives ? 0 : 1], pull),
              AnalyzeProbedSide(probed));
        }
        case JoinStrategy::kProbeBoth:
          return SpineFail("probe-both compose in a stream plan");
      }
      return SpineFail("unknown join strategy");
    case OpKind::kCollapse: {
      if (node->mode == AccessMode::kProbed) {
        return SpineFail("materialized collapse re-consumes its input");
      }
      const int64_t f = node->offset;
      if (f <= 0) return SpineFail("non-positive collapse factor");
      SpineInfo c = AnalyzeSpine(node->children[0]);
      if (!c.ok) return c;
      // A morsel start b puts the child clip at b*f — always a bucket
      // edge, so collapse itself imposes no constraint; it only transports
      // the child's: f*b ≡ phase (mod modulus).
      if (c.modulus > 1) {
        const int64_t g = std::gcd(f, c.modulus);
        if (c.phase % g != 0) {
          return SpineFail("collapse cannot align morsel boundaries");
        }
        const int64_t m = c.modulus / g;
        c.phase = m == 1 ? 0 : Mod((c.phase / g) % m * ModInverse(f / g, m), m);
        c.modulus = m;
      }
      return c;
    }
    case OpKind::kExpand: {
      // A lock-step merge past the clip end would have to make the expand
      // re-read its input there.
      if (pull == Pull::kLockstep) {
        return SpineFail("expand under a lock-step compose");
      }
      const int64_t f = node->offset;
      if (f <= 0) return SpineFail("non-positive expand factor");
      SpineInfo c = AnalyzeSpine(node->children[0], Pull::kExpand);
      if (!c.ok) return c;
      // Morsel starts must land on bucket edges (multiples of f) AND map
      // to child positions in the child's class: b = f*(phase + k*mod).
      if (c.modulus > kMaxAlignModulus / f) {
        return SpineFail("alignment modulus too large");
      }
      c.phase = Mod(c.phase * f, c.modulus * f);
      c.modulus = c.modulus * f;
      return c;
    }
  }
  return SpineFail("unknown operator kind");
}

// Where, in a compose's own coordinates, the serial run stops pulling one
// of its inputs for good: for a lock-step compose the last position of the
// input that runs out first (the merge ends there), for a stream-probe
// compose over a carried value offset the driver's last position (no probe
// follows). kMinPosition when that input is empty. See docs/execution.md,
// "Where a join stops".
using EarlyStops = std::unordered_map<const PhysNode*, Position>;

// How CloneForMorsel clones a subtree.
//  * `with_carry = false` suppresses the aggregate carry-in subtrees:
//    checkpointed serial chunks restore aggregate state from the saved
//    operator-state blob instead of replaying the lead-in, so a carry clone
//    would both waste the replay and double-apply the prefix.
//  * `stops` places each compose's early stop. Carries and look-back
//    copies go without: only their rows matter, not what they read.
struct CloneMode {
  bool with_carry = true;
  const EarlyStops* stops = nullptr;
};

constexpr CloneMode kUnchargedClone{true, nullptr};

PhysNodePtr CloneProbedSide(const PhysNodePtr& node, Position lo, Position hi,
                            const CloneMode& mode);

// Clips the subtree to the morsel clip [lo, hi] given in the node's OUTPUT
// coordinates (sentinel bounds mean "unclipped on this side"), rewriting
// child clips through each operator's coordinate mapping. Base scans are
// marked to resume page accounting (the page holding the record just
// before the clip counts as already fetched), sequential aggregates on a
// clipped morsel get an uncharged carry-in subtree as children[1], and
// operators that settle their clip edges at run time get `morsel_source`.
// Only reached for shapes AnalyzeSpine approved.
PhysNodePtr CloneForMorsel(const PhysNodePtr& node, Position lo, Position hi,
                           const CloneMode& mode = CloneMode{}) {
  auto clone = std::make_shared<PhysNode>(*node);
  clone->required = node->required.Intersect(Span::Of(lo, hi));
  switch (node->op) {
    case OpKind::kBaseRef:
      clone->resume_covered_from = node->required.start;
      break;
    case OpKind::kConstantRef:
      break;
    case OpKind::kSelect:
    case OpKind::kProject:
      clone->children[0] =
          CloneForMorsel(node->children[0], lo, hi, mode);
      break;
    case OpKind::kPositionalOffset: {
      // out(p) = in(p + l).
      const Position clo = lo <= kMinPosition ? kMinPosition : lo + node->offset;
      const Position chi = hi >= kMaxPosition ? kMaxPosition : hi + node->offset;
      clone->children[0] =
          CloneForMorsel(node->children[0], clo, chi, mode);
      break;
    }
    case OpKind::kValueOffset:
      if (IsCarriedValueOffset(*node)) {
        // out(p) reads inputs before p: the clip carries over unchanged,
        // and the |l| inputs before it come from a run-time look-back.
        clone->children[0] =
            CloneForMorsel(node->children[0], lo, hi, mode);
        clone->morsel_source = node;
      }
      break;  // naive search: probed child, shared untouched
    case OpKind::kWindowAgg: {
      if (!(node->window_kind == WindowKind::kTrailing &&
            node->mode == AccessMode::kStream &&
            node->agg_strategy == AggStrategy::kCacheA) &&
          node->window_kind != WindowKind::kRunning) {
        break;  // naive prober: probed child, shared untouched
      }
      clone->children[0] =
          CloneForMorsel(node->children[0], lo, hi, mode);
      clone->morsel_source = node;
      if (lo > kMinPosition && mode.with_carry) {
        Position carry_lo;
        if (node->window_kind == WindowKind::kTrailing) {
          if (node->window <= 1) break;  // window of 1: no prior state
          // A double accumulator at lo is a function of the inputs since
          // the re-sum period holding lo's window start (WindowState::Slide).
          const int64_t w = node->window;
          carry_lo = lo - (w - 1);
          if (ResumingWindow(*node)) {
            carry_lo = WindowState::ResumPeriodStart(carry_lo, w) - (w - 1);
          }
        } else {
          carry_lo = kMinPosition;  // running: the whole prefix
        }
        clone->morsel_carry = true;
        clone->children.push_back(
            CloneForMorsel(node->children[0], carry_lo, lo - 1, kUnchargedClone));
      }
      break;
    }
    case OpKind::kCompose: {
      // Inputs the serial run stops pulling early are clipped to run on
      // past the morsel holding the stop, and are dead after it.
      Position stop_hi = hi;
      if (mode.stops != nullptr && lo <= hi) {  // an empty clip stays empty
        auto it = mode.stops->find(node.get());
        if (it != mode.stops->end() && hi >= it->second) {
          stop_hi = lo <= it->second ? kMaxPosition : lo - 1;
        }
      }
      switch (node->join_strategy) {
        case JoinStrategy::kStreamBoth:
          clone->required = node->required.Intersect(Span::Of(lo, stop_hi));
          for (PhysNodePtr& child : clone->children) {
            child = CloneForMorsel(child, lo, stop_hi, mode);
          }
          clone->morsel_source = node;
          break;
        case JoinStrategy::kStreamLeftProbeRight:
        case JoinStrategy::kStreamRightProbeLeft: {
          const size_t d =
              node->join_strategy == JoinStrategy::kStreamLeftProbeRight ? 0
                                                                        : 1;
          clone->children[d] = CloneForMorsel(node->children[d], lo, hi, mode);
          clone->children[1 - d] =
              CloneProbedSide(node->children[1 - d], lo, stop_hi, mode);
          if (clone->children[1 - d] != node->children[1 - d]) {
            clone->morsel_source = node;
          }
          break;
        }
        case JoinStrategy::kProbeBoth:
          break;
      }
      break;
    }
    case OpKind::kCollapse: {
      // Output bucket b covers child [b*f, (b+1)*f - 1].
      const int64_t f = node->offset;
      const Position clo = lo <= kMinPosition ? kMinPosition : lo * f;
      const Position chi = hi >= kMaxPosition ? kMaxPosition : hi * f + (f - 1);
      clone->children[0] =
          CloneForMorsel(node->children[0], clo, chi, mode);
      break;
    }
    case OpKind::kExpand: {
      // out(p) = in(floor(p / f)); morsel starts are multiples of f.
      const int64_t f = node->offset;
      const Position clo = lo <= kMinPosition ? kMinPosition : FloorDiv(lo, f);
      const Position chi = hi >= kMaxPosition ? kMaxPosition : FloorDiv(hi, f);
      clone->children[0] =
          CloneForMorsel(node->children[0], clo, chi, mode);
      break;
    }
  }
  return clone;
}

// The probed input of a stream-probe compose clone: shared untouched
// unless it holds a carried value offset, whose path is clipped like the
// spine (the probes of one morsel lie inside its clip).
PhysNodePtr CloneProbedSide(const PhysNodePtr& node, Position lo, Position hi,
                            const CloneMode& mode) {
  if (!HasCarriedValueOffset(node)) return node;
  if (IsCarriedValueOffset(*node)) return CloneForMorsel(node, lo, hi, mode);
  auto clone = std::make_shared<PhysNode>(*node);
  clone->required = node->required.Intersect(Span::Of(lo, hi));
  Position clo = lo;
  Position chi = hi;
  if (node->op == OpKind::kPositionalOffset) {
    if (lo > kMinPosition) clo = lo + node->offset;
    if (hi < kMaxPosition) chi = hi + node->offset;
  }
  clone->children[0] =
      CloneProbedSide(node->children[0], clo, chi, mode);
  return clone;
}

ClipSource ClipSourceOf(const Executor* exec, const PhysNodePtr& input) {
  return ClipSource{input->required, [exec, input](Span clip) {
                      return exec->Build(
                          CloneForMorsel(input, clip.start, clip.end,
                                         kUnchargedClone),
                          nullptr);
                    }};
}

// Last record position of `input` over its serial span, read off the
// store for a seek-free input and found by an uncharged look-back from the
// span end otherwise; kMinPosition when it is empty.
Result<Position> LastPosition(const Executor* exec, const PhysNodePtr& input,
                              const ExecContext& ctx) {
  const Span span = input->required;
  if (span.IsEmpty()) return kMinPosition;
  if (std::optional<Position> last =
          SeekFreeLastPosition(*ctx.catalog, *input)) {
    return *last;
  }
  if (span.end >= kMaxPosition) return kMaxPosition;
  SEQ_ASSIGN_OR_RETURN(
      std::vector<PosRecord> last,
      RecordsBefore(ClipSourceOf(exec, input), span.end + 1, 1, ctx));
  return last.empty() ? kMinPosition : last.back().pos;
}

// Fills `stops` for every compose of the plan whose serial run stops
// pulling an input early (see EarlyStops).
Status FindEarlyStops(const Executor* exec, const PhysNodePtr& node,
                      const ExecContext& ctx, EarlyStops* stops) {
  if (node->op == OpKind::kCompose && node->mode == AccessMode::kStream) {
    if (node->join_strategy == JoinStrategy::kStreamBoth) {
      SEQ_ASSIGN_OR_RETURN(Position left,
                           LastPosition(exec, node->children[0], ctx));
      SEQ_ASSIGN_OR_RETURN(Position right,
                           LastPosition(exec, node->children[1], ctx));
      (*stops)[node.get()] = std::min(left, right);
    } else if (node->join_strategy != JoinStrategy::kProbeBoth) {
      const size_t d =
          node->join_strategy == JoinStrategy::kStreamLeftProbeRight ? 0 : 1;
      if (HasCarriedValueOffset(node->children[1 - d])) {
        SEQ_ASSIGN_OR_RETURN((*stops)[node.get()],
                             LastPosition(exec, node->children[d], ctx));
      }
    }
  }
  for (const PhysNodePtr& child : node->children) {
    SEQ_RETURN_IF_ERROR(FindEarlyStops(exec, child, ctx, stops));
  }
  return Status::OK();
}

// Adds a per-morsel profile tree's measured counters into the skeleton
// built from the original plan. The trees are isomorphic — clones change
// spans, never structure, and carry-in subtrees are built unprofiled — so
// a pairwise recursive walk lines up. Per-operator wall_ns becomes summed
// worker time (documented in docs/observability.md).
void MergeProfileTree(OperatorProfile* dst, const OperatorProfile& src) {
  dst->calls += src.calls;
  dst->rows_out += src.rows_out;
  dst->wall_ns += src.wall_ns;
  dst->sim_cost += src.sim_cost;
  dst->cache_hits += src.cache_hits;
  dst->cache_stores += src.cache_stores;
  const size_t n = std::min(dst->children.size(), src.children.size());
  for (size_t i = 0; i < n; ++i) {
    MergeProfileTree(dst->children[i].get(), *src.children[i]);
  }
}

// Marks one live worker in the query registry for as long as a unit runs.
// Relaxed atomics, so reporting never blocks; a null telemetry costs a
// branch.
class LiveWorker {
 public:
  explicit LiveWorker(QueryTelemetry* telem) : telem_(telem) {
    if (telem_ != nullptr) {
      telem_->workers.fetch_add(1, std::memory_order_relaxed);
    }
  }
  ~LiveWorker() {
    if (telem_ != nullptr) {
      telem_->workers.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  LiveWorker(const LiveWorker&) = delete;
  LiveWorker& operator=(const LiveWorker&) = delete;

 private:
  QueryTelemetry* telem_;
};

// The wall-clock deadline `max_wall_ms` from now; none when it is 0.
std::optional<std::chrono::steady_clock::time_point> DeadlineIn(
    int64_t max_wall_ms) {
  if (max_wall_ms <= 0) return std::nullopt;
  return std::chrono::steady_clock::now() +
         std::chrono::milliseconds(max_wall_ms);
}

// The driver's two row consumers. `Slot` takes a row that still sits in a
// batch slot, `Own` a record the driver owns outright (tuple driving).
//
// CollectRows materializes: batch rows by moving their *values* out of the
// slots, since stealing the slot vectors themselves would drain the
// pipeline's reusable buffers and put a per-row allocation back upstream.
struct CollectRows {
  std::vector<PosRecord>* out;

  void Slot(Position p, Record& rec) {
    out->emplace_back();
    PosRecord& pr = out->back();
    pr.pos = p;
    MoveRecordValues(pr.rec, rec);
  }
  void Own(Position p, Record&& rec) {
    out->push_back(PosRecord{p, std::move(rec)});
  }
};

// VisitRows hands every row to a RowSink where it lies.
struct VisitRows {
  const RowSink* sink;

  void Slot(Position p, Record& rec) { (*sink)(p, rec); }
  void Own(Position p, Record&& rec) { (*sink)(p, rec); }
};

}  // namespace

// One unit of the driver's grid: a plan node and what of it to drive. A
// stream unit keeps the rows inside `emit` (and, for a point-position
// stream plan, only those at `positions`); a probed unit probes
// `positions`, or every position of `emit` when `positions` is empty. A
// checkpoint chunk also restores operator state right after Open and
// saves it right before Close.
struct Executor::Unit {
  PhysNodePtr node;
  Span emit = Span::Empty();
  std::span<const Position> positions;
  const std::string* restore = nullptr;
  std::string* save = nullptr;
};

// The run-level state of the one budget accountant, shared by every unit
// of a run. Rows and pages count as a base (what earlier checkpoint chunks
// spent, 0 otherwise) plus the deltas each unit adds after every batch, so
// a budget counts this run's own pages only. The first failure wins and
// raises `stop` for the other units; later ones (usually the cancellation
// cascade through `stop`) are dropped, exactly like ExecContext::Raise.
struct Executor::SharedGuardState {
  std::atomic<int64_t> rows{0};
  std::atomic<int64_t> pages{0};
  std::atomic<bool> stop{false};
  std::optional<std::chrono::steady_clock::time_point> deadline;
  std::mutex mu;
  Status first_status;

  // The accountant: after a unit emitted `rows_delta` rows and charged
  // `pages_delta` pages, checks cancel, then the deadline, then pages, then
  // rows, with ExecContext::CheckGuards' messages. False, with the failure
  // recorded, when the run must stop.
  bool Account(const ExecContext& ctx, const QueryGuards& limits,
               int64_t rows_delta, int64_t pages_delta) {
    Status s = ctx.CheckInterrupt();
    if (s.ok() && limits.max_pages > 0 &&
        pages.fetch_add(pages_delta, std::memory_order_relaxed) +
                pages_delta >
            limits.max_pages) {
      s = PageBudgetExceeded(limits.max_pages);
    }
    if (s.ok() && limits.max_rows > 0 &&
        rows.fetch_add(rows_delta, std::memory_order_relaxed) + rows_delta >
            limits.max_rows) {
      s = RowBudgetExceeded(limits.max_rows);
    }
    if (s.ok()) return true;
    Fail(std::move(s));
    return false;
  }

  void Fail(Status s) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (first_status.ok() && !s.ok()) first_status = std::move(s);
    }
    stop.store(true, std::memory_order_release);
  }

  Status TakeStatus() {
    std::lock_guard<std::mutex> lock(mu);
    return first_status;
  }
};

MorselPlan Executor::PlanMorsels(const PhysicalPlan& plan) const {
  MorselPlan mp;
  auto serial = [&mp](std::string why) -> MorselPlan {
    mp.parallel = false;
    mp.workers = 1;
    mp.morsels.clear();
    mp.reason = "serial: " + std::move(why);
    return mp;
  };
  const int workers = options_.parallelism;
  if (workers <= 1) return serial("parallelism=1");
  if (plan.root == nullptr) return serial("no plan root");
  if (!options_.use_batch) {
    return serial("tuple-at-a-time driving is the serial baseline");
  }
  if (options_.fault_injector != nullptr) {
    return serial("fault injector armed: global hit order must match serial");
  }

  // Below this many positions per would-be morsel, thread startup beats
  // the work itself. An explicit morsel_size overrides (tests use it to
  // force parallel driving on small fixtures).
  constexpr int64_t kMinMorselLen = 256;

  if (plan.root_mode == AccessMode::kProbed) {
    std::string why;
    if (!ProbedSafe(plan.root, &why)) return serial(why);
    if (!plan.positions.empty()) {
      const int64_t n = static_cast<int64_t>(plan.positions.size());
      if (options_.morsel_size == 0 && n < workers * kMinMorselLen) {
        return serial("too few probe positions to split");
      }
      mp.parallel = true;
      mp.workers = workers;
      std::ostringstream oss;
      oss << "parallel: " << workers << " workers over " << n
          << " probe positions";
      mp.reason = oss.str();
      return mp;  // morsels stay empty: MorselUnits chunks the list
    }
    if (plan.output_span.IsEmpty()) return serial("empty output span");
    if (plan.output_span.IsUnbounded()) return serial("unbounded probe range");
    const int64_t len = plan.output_span.Length();
    int64_t count;
    if (options_.morsel_size > 0) {
      const int64_t ms = static_cast<int64_t>(options_.morsel_size);
      count = std::min<int64_t>(CeilDiv(len, ms), 1024);
    } else {
      if (len < workers * kMinMorselLen) {
        return serial("output span too short to split");
      }
      count = workers;
    }
    if (count <= 1) return serial("single morsel");
    mp.morsels = SplitSpan(plan.output_span, CeilDiv(len, count), SpineInfo{});
    mp.parallel = true;
    mp.workers = static_cast<int>(
        std::min<size_t>(static_cast<size_t>(workers), mp.morsels.size()));
    std::ostringstream oss;
    oss << "parallel: " << mp.workers << " workers x " << mp.morsels.size()
        << " probe morsels over " << plan.output_span.ToString();
    mp.reason = oss.str();
    return mp;
  }

  // Stream root.
  if (!plan.positions.empty()) {
    return serial("point-position filter on a stream plan");
  }
  if (plan.output_span.IsEmpty()) return serial("empty output span");
  if (plan.output_span.IsUnbounded()) return serial("unbounded output span");
  const SpineInfo spine = AnalyzeSpine(plan.root);
  if (!spine.ok) return serial(spine.reason);

  const int64_t len = plan.output_span.Length();
  int64_t count;
  if (options_.morsel_size > 0) {
    const int64_t ms = static_cast<int64_t>(options_.morsel_size);
    count = std::min<int64_t>(CeilDiv(len, ms), 1024);
  } else {
    if (len < workers * kMinMorselLen) {
      return serial("output span too short to split");
    }
    count = workers;
  }
  if (count <= 1) return serial("single morsel");

  // Carry-in economics: replaying aggregate lead-ins is uncharged but not
  // free in wall time. Estimated replay must stay under the estimated
  // parallel win, (W-1)/2W of the plan cost; an explicit morsel_size is a
  // caller override and skips the heuristic.
  if (options_.morsel_size == 0 && spine.carry_cost > 0.0) {
    const double carry_total =
        spine.carry_cost * static_cast<double>(count - 1);
    const double parallel_win = plan.est_cost *
                                static_cast<double>(workers - 1) /
                                (2.0 * static_cast<double>(workers));
    if (carry_total > parallel_win) {
      return serial("carry-in replay would cost more than the parallel win");
    }
  }

  const Span span = plan.output_span;
  mp.morsels = SplitSpan(span, CeilDiv(len, count), spine);
  if (mp.morsels.size() <= 1) {
    return serial("boundary alignment left a single morsel");
  }
  mp.parallel = true;
  mp.workers = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(workers), mp.morsels.size()));
  std::ostringstream oss;
  oss << "parallel: " << mp.workers << " workers x " << mp.morsels.size()
      << " morsels over " << span.ToString();
  if (spine.modulus > 1) oss << " (aligned mod " << spine.modulus << ")";
  mp.reason = oss.str();
  return mp;
}

ExecContext Executor::EdgeContext() const {
  ExecContext ctx;
  ctx.catalog = &catalog_;
  ctx.params = params_;
  ctx.guards.cancel = options_.guards.cancel;
  return ctx;
}

// Row and page budgets are whole-run totals that only the accountant sees,
// so a unit's own context leaves them off; it keeps cancel, the run's
// deadline and the (position-determined) cache budget.
ExecContext Executor::UnitContext(AccessStats* stats,
                                  const SharedGuardState& shared) const {
  ExecContext ctx;
  ctx.catalog = &catalog_;
  ctx.stats = stats;
  ctx.params = params_;
  ctx.faults = options_.fault_injector;
  ctx.guards = options_.guards;
  ctx.guards.max_rows = 0;
  ctx.guards.max_pages = 0;
  if (shared.deadline) ctx.ArmGuardsAt(*shared.deadline);
  return ctx;
}

// The Start operator (paper §4): opens the unit's root and pulls it in the
// plan's root mode, hands every row to `consume` and accounts after every
// batch, or after every record under tuple driving. Every failure lands in
// `shared`.
template <class Consume>
void Executor::Drive(const Unit& unit, AccessMode mode, ExecContext* ctx,
                     SharedGuardState* shared, OperatorProfile* prof,
                     Consume& consume) const {
  LiveWorker live(options_.telemetry);
  Result<SeqOpPtr> built = Build(unit.node, prof);
  if (!built.ok()) return shared->Fail(built.status());
  SeqOpPtr root = std::move(built).value();
  if (Status open = root->Open(ctx); !open.ok()) {
    return shared->Fail(std::move(open));
  }
  if (unit.restore != nullptr) {
    OpStateReader reader(*unit.restore);
    if (!root->RestoreState(&reader) || !reader.Exhausted()) {
      root->Close();
      return shared->Fail(Status::DataLoss(
          "checkpoint operator state does not match the plan shape"));
    }
  }

  // Rows and the pages charged since the previous call go to the live-query
  // record and to the accountant. Pages charged by the final drain, after
  // the last accounted batch, are not accounted.
  QueryTelemetry* telem = options_.telemetry;
  int64_t pages_seen = 0;
  auto account = [&](int64_t emitted) {
    int64_t page_delta = 0;
    if (ctx->stats != nullptr) {
      ctx->stats->records_output += emitted;
      const int64_t now = ctx->stats->stream_pages + ctx->stats->probe_pages;
      page_delta = now - pages_seen;
      pages_seen = now;
    }
    if (telem != nullptr) {
      if (emitted > 0) {
        telem->rows.fetch_add(emitted, std::memory_order_relaxed);
      }
      if (page_delta > 0) {
        telem->pages.fetch_add(page_delta, std::memory_order_relaxed);
      }
    }
    return shared->Account(*ctx, options_.guards, emitted, page_delta);
  };
  auto running = [shared] {
    return !shared->stop.load(std::memory_order_relaxed);
  };
  const size_t cap = std::max<size_t>(options_.batch_capacity, 1);
  const Span emit = unit.emit;

  if (mode == AccessMode::kProbed) {
    // Probed (Fig. 6): the unit's positions, or every position of its span,
    // in chunks of the batch capacity. Batch and tuple driving probe the
    // same positions in the same order, so their AccessStats agree.
    std::vector<Position> walk;
    size_t taken = 0;
    Position next = emit.start;
    auto next_chunk = [&]() -> std::span<const Position> {
      if (!unit.positions.empty()) {
        const size_t n = std::min(cap, unit.positions.size() - taken);
        taken += n;
        return unit.positions.subspan(taken - n, n);
      }
      walk.clear();
      while (walk.size() < cap && next <= emit.end) walk.push_back(next++);
      return walk;
    };
    if (options_.use_batch) {
      RecordBatch batch(cap);
      for (std::span<const Position> chunk = next_chunk();
           !chunk.empty() && running(); chunk = next_chunk()) {
        const size_t n = root->ProbeBatch(chunk, &batch);
        if (ctx->failed()) break;
        for (size_t i = 0; i < n; ++i) {
          consume.Slot(batch.pos(i), batch.rec(i));
        }
        if (!account(static_cast<int64_t>(n))) break;
      }
    } else {
      bool go = true;
      for (std::span<const Position> chunk = next_chunk();
           go && !chunk.empty(); chunk = next_chunk()) {
        for (Position p : chunk) {
          std::optional<Record> r = root->Probe(p);
          if (ctx->failed()) {
            go = false;
            break;
          }
          if (r.has_value()) consume.Own(p, std::move(*r));
          go = account(r.has_value() ? 1 : 0);
          if (!go) break;
        }
      }
    }
  } else if (emit.IsEmpty()) {
    // An empty stream span drives nothing.
  } else if (options_.use_batch && unit.positions.empty()) {
    // The optimizer clips every node's required span to the requested
    // range, so a serial root never emits outside `emit`; morsel clones
    // may, on the sides they leave unclipped.
    RecordBatch batch(cap);
    while (running() && root->NextBatch(&batch) > 0 && !ctx->failed()) {
      int64_t emitted = 0;
      for (size_t i = 0; i < batch.size(); ++i) {
        if (batch.pos(i) < emit.start || batch.pos(i) > emit.end) continue;
        consume.Slot(batch.pos(i), batch.rec(i));
        ++emitted;
      }
      if (!account(emitted)) break;
    }
  } else {
    // Tuple driving, and the point-position filter of a stream plan.
    size_t wanted_at = 0;
    for (std::optional<PosRecord> r = root->NextAtOrAfter(emit.start);
         r.has_value() && r->pos <= emit.end && !ctx->failed();
         r = root->Next()) {
      bool wanted = true;
      if (!unit.positions.empty()) {
        while (wanted_at < unit.positions.size() &&
               unit.positions[wanted_at] < r->pos) {
          ++wanted_at;
        }
        wanted = wanted_at < unit.positions.size() &&
                 unit.positions[wanted_at] == r->pos;
      }
      if (wanted) consume.Own(r->pos, std::move(r->rec));
      if (!account(wanted ? 1 : 0)) break;
    }
  }

  if (unit.save != nullptr && running() && !ctx->failed()) {
    OpStateWriter writer;
    root->SaveState(&writer);
    *unit.save = writer.blob();
  }
  root->Close();
  if (Status err = ctx->TakeError(); !err.ok()) shared->Fail(std::move(err));
}

// A whole run as one unit on the calling thread. The run charges a stats
// block of its own, added to the caller's at the end whether it failed or
// not: the accountant, the leaves and the blocking operators then all see
// this run's pages only. The block exists whenever something reads it.
template <class Consume>
Status Executor::RunInline(const PhysicalPlan& plan, AccessStats* stats,
                           OperatorProfile* root_profile,
                           Consume& consume) const {
  if (plan.root == nullptr) {
    return Status::InvalidArgument("plan has no root");
  }
  SharedGuardState shared;
  shared.deadline = DeadlineIn(options_.guards.max_wall_ms);
  AccessStats own;
  const bool counted = stats != nullptr || options_.guards.max_pages > 0 ||
                       options_.telemetry != nullptr;
  ExecContext ctx = UnitContext(counted ? &own : nullptr, shared);
  // With no base and one unit, the run's own pages are its total, so the
  // leaves may stop at the page budget too.
  ctx.guards.max_pages = options_.guards.max_pages;
  Unit unit;
  unit.node = plan.root;
  unit.emit = plan.output_span;
  unit.positions = plan.positions;
  Drive(unit, plan.root_mode, &ctx, &shared, root_profile, consume);
  if (stats != nullptr) *stats += own;
  return shared.TakeStatus();
}

// The units of a morsel group. Stream morsels get a clipped clone of the
// plan tree; the first and last run on to `outer` on their open side (the
// serial plan's lead-in and tail, or a checkpoint chunk's own edges).
// Probed roots share the original immutable nodes and split the position
// list or the span walk instead.
Result<std::vector<Executor::Unit>> Executor::MorselUnits(
    const PhysicalPlan& plan, const MorselPlan& mp, Span outer) const {
  std::vector<Unit> units;
  if (plan.root_mode == AccessMode::kProbed && !plan.positions.empty()) {
    const size_t n = plan.positions.size();
    size_t chunks = options_.morsel_size > 0
                        ? static_cast<size_t>(CeilDiv(
                              static_cast<int64_t>(n),
                              static_cast<int64_t>(options_.morsel_size)))
                        : static_cast<size_t>(mp.workers);
    chunks = std::min(std::max<size_t>(chunks, 1), std::min<size_t>(n, 1024));
    const size_t step = (n + chunks - 1) / chunks;
    for (std::span<const Position> slice : SplitList(plan.positions, step)) {
      Unit u;
      u.node = plan.root;
      u.positions = slice;
      units.push_back(std::move(u));
    }
  } else if (plan.root_mode == AccessMode::kProbed) {
    for (const Span& m : mp.morsels) {
      Unit u;
      u.node = plan.root;
      u.emit = m;
      units.push_back(std::move(u));
    }
  } else {
    EarlyStops stops;
    SEQ_RETURN_IF_ERROR(FindEarlyStops(this, plan.root, EdgeContext(), &stops));
    CloneMode mode;
    mode.stops = &stops;
    for (size_t i = 0; i < mp.morsels.size(); ++i) {
      Unit u;
      u.emit = mp.morsels[i];
      const Position lo = i == 0 ? outer.start : u.emit.start;
      const Position hi = i + 1 == mp.morsels.size() ? outer.end : u.emit.end;
      u.node = CloneForMorsel(plan.root, lo, hi, mode);
      units.push_back(std::move(u));
    }
  }
  return units;
}

// Morsel-parallel driving (docs/execution.md): admission, one independent
// operator tree per unit on the scheduler pool, and the merge of their
// rows and AccessStats in unit order. `shared` holds the budget base and
// the deadline, both set by the caller before admission. Registry morsel
// counts are left to the caller when `count_morsels` is false (a checkpoint
// chunk counts chunks instead).
Result<QueryResult> Executor::RunMorsels(const PhysicalPlan& plan,
                                         const MorselPlan& mp, Span outer,
                                         SharedGuardState* shared,
                                         AccessStats* stats,
                                         OperatorProfile* root_profile,
                                         bool count_morsels) const {
  // Admission to the process-wide scheduler: at most max_running parallel
  // queries execute at once; beyond that this thread waits (visible as
  // the `queued` registry state) or is rejected. Serial queries never
  // reach this point. Time spent queued counts toward max_wall_ms.
  QueryTelemetry* telem = options_.telemetry;
  QueryScheduler& sched = QueryScheduler::Global();
  QueryScheduler::AdmitRequest admit_request;
  admit_request.priority = options_.priority;
  admit_request.timeout_ms = options_.admission_timeout_ms;
  if (shared->deadline) admit_request.deadline = *shared->deadline;
  admit_request.cancel = options_.guards.cancel;
  int pre_admit_state = static_cast<int>(QueryState::kExecuting);
  if (telem != nullptr) {
    pre_admit_state = telem->state.load(std::memory_order_relaxed);
    telem->state.store(static_cast<int>(QueryState::kQueued),
                       std::memory_order_relaxed);
  }
  Result<QueryScheduler::Admission> admit_result = sched.Admit(admit_request);
  if (telem != nullptr) {
    // Restore the pre-admission state (kExecuting, or kDegraded on the
    // cache-degradation re-run) rather than assuming it.
    telem->state.store(pre_admit_state, std::memory_order_relaxed);
  }
  if (!admit_result.ok()) return admit_result.status();
  QueryScheduler::Admission admission = std::move(admit_result).value();
  if (telem != nullptr && admission.queue_wait_us() > 0) {
    telem->queued_us.store(admission.queue_wait_us(),
                           std::memory_order_relaxed);
  }

  SEQ_ASSIGN_OR_RETURN(std::vector<Unit> units, MorselUnits(plan, mp, outer));
  const size_t n_units = units.size();
  if (telem != nullptr && count_morsels) {
    telem->morsels_total.store(static_cast<int>(n_units),
                               std::memory_order_relaxed);
  }
  // Always-on per-morsel metrics: name resolution pays the registry mutex
  // once per query here; workers then Record lock-free.
  MetricCounter& morsel_counter =
      MetricsRegistry::Global().Counter("exec.morsels");
  Histogram& morsel_hist =
      MetricsRegistry::Global().GetHistogram("exec.morsel_us");

  // Profile skeleton from the ORIGINAL plan: labels, estimates and spans
  // are the serial plan's. The builder's operator tree is discarded; the
  // per-unit scratch trees below merge their measured counters into this
  // skeleton at the barrier.
  if (root_profile != nullptr) {
    SEQ_ASSIGN_OR_RETURN(SeqOpPtr skeleton, Build(plan.root, root_profile));
    (void)skeleton;
  }
  // Everything a unit writes while it runs: its private counters (charged
  // once per record), its output rows (the vector's end pointer moves once
  // per row) and its profile tree. One slot per unit, each on its own
  // cache lines: in adjacent array elements, neighbouring workers would
  // write the same line on every record. 128 bytes, not 64, because the
  // adjacent-line prefetcher pulls lines in pairs.
  struct alignas(128) UnitSlot {
    AccessStats stats;
    std::vector<PosRecord> records;
    OperatorProfile profile;
  };
  static_assert(alignof(UnitSlot) == 128 && sizeof(UnitSlot) % 128 == 0);
  std::vector<UnitSlot> slots(n_units);
  {
    const double est = plan.root_mode == AccessMode::kProbed &&
                               !plan.positions.empty()
                           ? static_cast<double>(plan.positions.size())
                           : plan.root->EstRows();
    const size_t per_unit = std::min(
        static_cast<size_t>(std::max(est, 0.0)) / n_units + 16,
        size_t{1} << 18);
    for (UnitSlot& slot : slots) slot.records.reserve(per_unit);
  }

  // All units run on the process-wide scheduler pool: this query's units
  // form one task group, dispatched FIFO with at most mp.workers (the
  // per-query share cap) scheduler workers on it at once. The coordinating
  // thread waits at the group barrier — it does not execute units — and
  // forwards the caller's cancellation flag to the workers, which watch
  // shared->stop, from the scheduler's wait/poll loop.
  auto run_unit = [&](size_t ui) {
    const auto unit_start = std::chrono::steady_clock::now();
    UnitSlot& slot = slots[ui];
    ExecContext ctx = UnitContext(&slot.stats, *shared);
    ctx.faults = nullptr;  // an armed injector forces serial driving
    ctx.guards.cancel = &shared->stop;
    CollectRows collect{&slot.records};
    Drive(units[ui], plan.root_mode, &ctx, shared,
          root_profile != nullptr ? &slot.profile : nullptr, collect);
    if (telem != nullptr && count_morsels) {
      telem->morsels_done.fetch_add(1, std::memory_order_relaxed);
    }
    morsel_counter.Add();
    morsel_hist.Record(
        std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
            std::chrono::steady_clock::now() - unit_start)
            .count());
  };
  std::function<void()> poll;
  if (options_.guards.cancel != nullptr) {
    const std::atomic<bool>* user_cancel = options_.guards.cancel;
    poll = [shared, user_cancel] {
      if (user_cancel->load(std::memory_order_relaxed) &&
          !shared->stop.load(std::memory_order_relaxed)) {
        shared->Fail(Status::Cancelled("query cancelled by driver"));
      }
    };
  }
  sched.RunGroup(n_units, mp.workers, options_.priority, run_unit, poll);
  // Free the admission slot before the merge barrier: the next queued
  // query can start while we assemble this one's result.
  admission.Release();

  // Barrier merges, always in unit (= position) order so every total is
  // deterministic, and merged even on failure — a serial run also leaves
  // partial charges in the caller's stats block.
  if (stats != nullptr) {
    for (const UnitSlot& slot : slots) stats->Merge(slot.stats);
  }
  if (root_profile != nullptr && !root_profile->children.empty()) {
    OperatorProfile* skel = root_profile->children.back().get();
    for (const UnitSlot& slot : slots) {
      if (!slot.profile.children.empty()) {
        MergeProfileTree(skel, *slot.profile.children[0]);
      }
    }
  }
  SEQ_RETURN_IF_ERROR(shared->TakeStatus());

  QueryResult result;
  result.schema = plan.schema;
  size_t total = 0;
  for (const UnitSlot& slot : slots) total += slot.records.size();
  result.records.reserve(total);
  for (UnitSlot& slot : slots) {
    for (PosRecord& r : slot.records) result.records.push_back(std::move(r));
  }
  return result;
}

Result<QueryResult> Executor::Materialize(const PhysicalPlan& plan,
                                          AccessStats* stats,
                                          OperatorProfile* root_profile)
    const {
  if (options_.parallelism > 1) {
    const MorselPlan morsels = PlanMorsels(plan);
    if (morsels.parallel) {
      // The wall-clock budget runs from BEFORE admission, so a query that
      // queues never gets more total wall time than an uncontended one.
      SharedGuardState shared;
      shared.deadline = DeadlineIn(options_.guards.max_wall_ms);
      return RunMorsels(plan, morsels, Span::Unbounded(), &shared, stats,
                        root_profile, /*count_morsels=*/true);
    }
  }
  QueryResult result;
  result.schema = plan.schema;
  // Pre-size a stream result from the optimizer's row estimate (capped so a
  // wild overestimate cannot balloon the allocation).
  if (plan.root != nullptr && plan.root_mode == AccessMode::kStream) {
    const double est = plan.root->EstRows();
    if (est > 0) {
      result.records.reserve(
          std::min(static_cast<size_t>(est) + 16, size_t{1} << 20));
    }
  }
  // A mid-stream fault or budget trip discards the whole partial result:
  // Execute never returns truncated answers.
  CollectRows collect{&result.records};
  SEQ_RETURN_IF_ERROR(RunInline(plan, stats, root_profile, collect));
  return result;
}

Result<QueryResult> Executor::Execute(const PhysicalPlan& plan,
                                      AccessStats* stats) const {
  return Materialize(plan, stats, nullptr);
}

// Sink runs stream serially whatever `parallelism` is: the sink sees each
// row in position order while the query runs. Rows already handed to the
// sink before a mid-stream error or budget trip have been seen — streaming
// consumption cannot take them back; the returned status still reports
// the failure (docs/robustness.md).
Status Executor::ExecuteVisit(const PhysicalPlan& plan, const RowSink& sink,
                              AccessStats* stats) const {
  VisitRows visit{&sink};
  return RunInline(plan, stats, nullptr, visit);
}

Result<QueryResult> Executor::ExecuteProfiled(const PhysicalPlan& plan,
                                              QueryProfile* profile,
                                              AccessStats* stats) const {
  SEQ_CHECK(profile != nullptr);
  profile->Reset();

  // The Start operator (the driving loop) gets the root profile node; the
  // plan tree hangs under it.
  OperatorProfile& root = *profile->root;
  {
    std::ostringstream oss;
    oss << "Start [" << AccessModeName(plan.root_mode);
    if (plan.root_mode == AccessMode::kStream) {
      oss << " over " << plan.output_span.ToString();
    } else {
      oss << " at " << plan.positions.size() << " positions";
    }
    oss << "]";
    root.label = oss.str();
  }
  root.est_cost = plan.est_cost;
  if (!plan.positions.empty()) {
    root.est_rows = static_cast<double>(plan.positions.size());
  } else if (plan.root != nullptr) {
    root.est_rows = plan.root->EstRows();
  }
  if (!plan.output_span.IsEmpty() && !plan.output_span.IsUnbounded()) {
    root.span_len = plan.output_span.Length();
  }

  // Attribution needs a stats block even when the caller doesn't want
  // one: the wrappers read simulated-cost / cache-counter deltas from it.
  AccessStats local;
  auto start = std::chrono::steady_clock::now();
  Result<QueryResult> result = Materialize(plan, &local, &root);
  int64_t wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();

  root.calls = 1;
  root.wall_ns = wall_ns;
  root.sim_cost = local.simulated_cost;
  root.cache_hits = local.cache_hits;
  root.cache_stores = local.cache_stores;
  if (result.ok()) {
    root.rows_out = static_cast<int64_t>(result.value().records.size());
  }
  profile->total_wall_ns = wall_ns;
  profile->stats = local;
  if (stats != nullptr) *stats += local;
  return result;
}

// ---------------------------------------------------------------------------
// Checkpointable execution (docs/robustness.md).
//
// A chunkable plan runs as a deterministic grid of clip-span chunks over
// the SAME boundary-alignment rules as morsel planning. Between chunks the
// driver polls the suspend triggers; a firing leaves the complete prefix
// (rows, stats, operator-state blob, watermark) in the SuspendCapture for
// the engine to persist. Resuming re-enters this function with the grid
// parameters from the checkpoint, so an interrupted run replays the exact
// chunk sequence — and therefore the exact floating-point charge order —
// of an uninterrupted checkpointed run.
//
// Each chunk is one call of the driver. Serial chunks carry aggregate
// state across boundaries by SaveState/RestoreState injection (carry
// subtrees suppressed). Parallel chunks (stream, batch, no fault injector)
// run as a morsel group that rebuilds state per sub-morsel with uncharged
// carries, and never save state. Probed chunks always run serial: probes
// are stateless per position, so rebuilding the tree per chunk charges
// nothing extra.
// ---------------------------------------------------------------------------

Result<QueryResult> Executor::ExecuteCheckpointed(const PhysicalPlan& plan,
                                                  AccessStats* stats) const {
  const CheckpointConfig& ck = options_.checkpoint;
  SEQ_CHECK_MSG(ck.capture != nullptr,
                "ExecuteCheckpointed requires checkpoint.capture");
  SuspendCapture* capture = ck.capture;
  *capture = SuspendCapture{};

  if (plan.root == nullptr) {
    return Status::InvalidArgument("plan has no root");
  }

  // Plans whose shape cannot chunk run the normal path; suspend triggers
  // are ignored and the reason is reported through the capture.
  auto fallback = [&](std::string why) -> Result<QueryResult> {
    capture->not_chunkable_reason = std::move(why);
    return Materialize(plan, stats, nullptr);
  };

  const bool probed = plan.root_mode == AccessMode::kProbed;
  const bool probed_list = probed && !plan.positions.empty();
  const Span span = plan.output_span;

  SpineInfo spine;
  if (probed) {
    std::string why;
    if (!ProbedSafe(plan.root, &why)) return fallback(why);
    if (!probed_list) {
      if (span.IsEmpty()) return fallback("empty output span");
      if (span.IsUnbounded()) return fallback("unbounded output span");
    }
  } else {
    if (!plan.positions.empty()) {
      return fallback("point-position stream plan does not chunk");
    }
    if (span.IsEmpty()) return fallback("empty output span");
    if (span.IsUnbounded()) return fallback("unbounded output span");
    spine = AnalyzeSpine(plan.root);
    if (!spine.ok) return fallback(spine.reason);
  }

  const bool parallel_chunks = !probed && options_.parallelism > 1 &&
                               options_.use_batch &&
                               options_.fault_injector == nullptr;
  const int64_t workers = std::max(options_.parallelism, 1);
  EarlyStops stops;
  if (!probed && !parallel_chunks) {
    SEQ_RETURN_IF_ERROR(FindEarlyStops(this, plan.root, EdgeContext(), &stops));
  }

  // The chunk grid. A resumed run MUST reuse the original run's grid
  // (stored chunk length, boundaries derived from the ORIGINAL span and
  // snapped into the plan's alignment class): simulated-cost charges
  // accumulate in floating point per batch, so only an identical boundary
  // sequence reproduces an uninterrupted checkpointed run bit-for-bit.
  const int64_t chunk_len =
      ck.resume != nullptr && ck.resume->chunk_len > 0
          ? ck.resume->chunk_len
          : (ck.chunk > 0 ? ck.chunk : DefaultCheckpointChunk());
  std::vector<Span> grid;                         // stream, probed span walk
  std::vector<std::span<const Position>> slices;  // probed position list
  if (probed_list) {
    slices = SplitList(plan.positions, static_cast<size_t>(chunk_len));
  } else {
    grid = SplitSpan(span, chunk_len, spine);
  }
  const size_t n_chunks = probed_list ? slices.size() : grid.size();

  // Seed the prefix from a prior checkpoint. The wall-clock budget is
  // armed fresh per run — a resumed query gets a full max_wall_ms again,
  // documented in docs/robustness.md.
  AccessStats total;
  QueryResult result;
  result.schema = plan.schema;
  std::string blob;
  size_t first_chunk = 0;
  if (ck.resume != nullptr) {
    ResumeState& rs = *ck.resume;
    if (rs.probed != probed) {
      return Status::FailedPrecondition(
          "checkpoint access mode does not match the re-planned query");
    }
    if (probed_list) {
      if (rs.next_index < 0 || rs.next_index % chunk_len != 0 ||
          rs.next_index / chunk_len >= static_cast<int64_t>(n_chunks)) {
        return Status::FailedPrecondition(
            "checkpoint resume index " + std::to_string(rs.next_index) +
            " does not lie on the chunk grid (chunk length " +
            std::to_string(chunk_len) + ")");
      }
      first_chunk = static_cast<size_t>(rs.next_index / chunk_len);
    } else {
      auto at = std::find_if(grid.begin(), grid.end(), [&](const Span& c) {
        return c.start == rs.watermark;
      });
      if (at == grid.end()) {
        return Status::FailedPrecondition(
            "checkpoint watermark " + std::to_string(rs.watermark) +
            " does not lie on the chunk grid of " + span.ToString() +
            " (chunk length " + std::to_string(chunk_len) + ")");
      }
      first_chunk = static_cast<size_t>(at - grid.begin());
    }
    total = rs.stats;
    result.records = std::move(rs.rows);
    blob = std::move(rs.op_state);
  }

  // One deadline for the whole run, armed before chunk 0.
  const std::optional<std::chrono::steady_clock::time_point> deadline =
      DeadlineIn(options_.guards.max_wall_ms);

  QueryTelemetry* telem = options_.telemetry;
  if (telem != nullptr) {
    telem->morsels_total.store(static_cast<int>(n_chunks),
                               std::memory_order_relaxed);
    telem->morsels_done.store(static_cast<int>(first_chunk),
                              std::memory_order_relaxed);
  }

  // One chunk. Its rows and charges merge into the running totals only
  // when it completes, so a failed or parked chunk leaves the prefix
  // exactly at the last boundary. The budgets start from what earlier
  // chunks spent, so a checkpointed run trips at exactly the totals of an
  // uninterrupted one.
  auto run_chunk = [&](size_t i) -> Status {
    SharedGuardState shared;
    shared.rows.store(static_cast<int64_t>(result.records.size()),
                      std::memory_order_relaxed);
    shared.pages.store(total.stream_pages + total.probe_pages,
                       std::memory_order_relaxed);
    shared.deadline = deadline;
    AccessStats cs;
    std::vector<PosRecord> rows;
    std::string new_blob;
    const Span emit = probed_list ? Span::Empty() : grid[i];
    const Span clip =
        Span::Of(i == 0 ? kMinPosition : emit.start,
                 i + 1 == n_chunks ? kMaxPosition : emit.end);
    if (parallel_chunks) {
      // A morsel group over the chunk, sub-split in the plan's alignment
      // class and cloned DIRECTLY from the original root — never from
      // another clone, which would stack carry subtrees onto
      // already-carried aggregates. Admission is re-acquired per chunk, so
      // a checkpointed query yields its slot between chunks.
      MorselPlan cmp;
      cmp.morsels = SplitSpan(emit, CeilDiv(emit.Length(), workers), spine);
      cmp.workers = static_cast<int>(
          std::min<size_t>(static_cast<size_t>(workers), cmp.morsels.size()));
      SEQ_ASSIGN_OR_RETURN(QueryResult group,
                           RunMorsels(plan, cmp, clip, &shared, &cs, nullptr,
                                      /*count_morsels=*/false));
      rows = std::move(group.records);
    } else {
      Unit unit;
      unit.node = plan.root;
      unit.emit = emit;
      if (probed_list) unit.positions = slices[i];
      if (!probed) {
        // An injected chunk suppresses carry-in subtrees (state arrives
        // from the blob); an empty blob past chunk 0 — a checkpoint written
        // by a parallel run, or a stateless tree — rebuilds via carries.
        const bool inject = i > 0 && !blob.empty();
        unit.node = CloneForMorsel(plan.root, clip.start, clip.end,
                                   CloneMode{/*with_carry=*/!inject, &stops});
        if (inject) unit.restore = &blob;
        unit.save = &new_blob;
      }
      ExecContext ctx = UnitContext(&cs, shared);
      CollectRows collect{&rows};
      Drive(unit, plan.root_mode, &ctx, &shared, nullptr, collect);
      SEQ_RETURN_IF_ERROR(shared.TakeStatus());
    }
    total.Merge(cs);
    result.records.reserve(result.records.size() + rows.size());
    for (PosRecord& r : rows) result.records.push_back(std::move(r));
    // After a morsel group the blob is empty: carries rebuild state at the
    // next chunk, and an older blob is stale behind the watermark.
    blob = std::move(new_blob);
    return Status::OK();
  };

  // Suspend triggers are polled at chunk boundaries only, and never
  // before the first chunk of a run — every run makes progress, so a
  // suspend/resume chain always terminates.
  auto want_suspend = [&](size_t i) -> std::optional<SuspendReason> {
    if (i <= first_chunk) return std::nullopt;
    if (ck.request != nullptr &&
        ck.request->load(std::memory_order_acquire)) {
      return SuspendReason::kUser;
    }
    if (ck.preempt != nullptr &&
        ck.preempt->load(std::memory_order_acquire)) {
      return SuspendReason::kScheduler;
    }
    if (ck.suspend_every_chunks > 0 &&
        static_cast<int64_t>(i - first_chunk) % ck.suspend_every_chunks ==
            0) {
      return SuspendReason::kUser;
    }
    return std::nullopt;
  };

  auto fill_capture = [&](size_t i, SuspendReason reason) {
    capture->suspended = true;
    capture->reason = reason;
    capture->probed = probed;
    capture->watermark = probed_list ? 0 : grid[i].start;
    capture->next_index = probed_list ? static_cast<int64_t>(i) * chunk_len : 0;
    capture->chunks_done = static_cast<int64_t>(i);
    capture->chunk_len = chunk_len;
    capture->op_state = blob;
    capture->rows = std::move(result.records);
    capture->stats = total;
  };

  for (size_t i = first_chunk; i < n_chunks; ++i) {
    if (std::optional<SuspendReason> why = want_suspend(i)) {
      fill_capture(i, *why);
      QueryResult suspended;
      suspended.schema = plan.schema;
      return suspended;
    }
    Status s = run_chunk(i);
    if (!s.ok()) {
      if (ck.park_on_cache_budget && IsCacheBudgetExceeded(s)) {
        // The tripping chunk's rows and charges were discarded above;
        // park the query at its boundary instead of degrading.
        fill_capture(i, SuspendReason::kCacheBudget);
        QueryResult parked;
        parked.schema = plan.schema;
        return parked;
      }
      return s;
    }
    if (telem != nullptr) {
      telem->morsels_done.fetch_add(1, std::memory_order_relaxed);
    }
  }

  if (stats != nullptr) stats->Merge(total);
  return result;
}

std::string QueryResult::ToString(size_t limit) const {
  std::ostringstream oss;
  size_t shown = std::min(limit, records.size());
  for (size_t i = 0; i < shown; ++i) {
    oss << PosRecordToString(records[i], *schema) << "\n";
  }
  if (records.size() > shown) {
    oss << "... (" << records.size() << " records total)\n";
  }
  return oss.str();
}

}  // namespace seq
