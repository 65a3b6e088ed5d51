#include "optimizer/planner.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "optimizer/selectivity.h"

namespace seq {
namespace {

Result<int64_t> RequireBoundedLength(const Span& span, const char* what) {
  if (span.IsEmpty()) return int64_t{0};
  if (span.IsUnbounded()) {
    return Status::InvalidArgument(
        std::string("cannot plan over an unbounded required span for ") +
        what + "; bound the query range");
  }
  return span.Length();
}

std::shared_ptr<PhysNode> NewNode(OpKind op, AccessMode mode) {
  auto node = std::make_shared<PhysNode>();
  node->op = op;
  node->mode = mode;
  return node;
}

/// Copies the logical parameters shared by both modes of an operator.
void FillCommon(PhysNode* node, const LogicalOp& op) {
  node->seq_name = op.seq_name();
  node->predicate = op.predicate();
  node->columns = op.columns();
  node->renames = op.renames();
  node->offset = op.offset();
  node->agg_func = op.agg_func();
  node->window_kind = op.window_kind();
  node->window = op.window();
  node->agg_column = op.agg_column();
  node->output_name = op.output_name();
  node->out_schema = op.meta().schema;
  node->out_span = op.meta().span;
  node->required = op.meta().required;
  node->est_density = op.meta().density;
}

}  // namespace

Result<PlannedSeq> Planner::Plan(const LogicalOp& op) {
  SEQ_CHECK_MSG(op.meta().annotated, "Plan requires an annotated graph");
  switch (op.kind()) {
    case OpKind::kBaseRef:
      return PlanBaseRef(op);
    case OpKind::kConstantRef:
      return PlanConstantRef(op);
    case OpKind::kSelect:
      return PlanSelect(op);
    case OpKind::kProject:
      return PlanProject(op);
    case OpKind::kPositionalOffset:
      return PlanPositionalOffset(op);
    case OpKind::kValueOffset:
      return PlanValueOffset(op);
    case OpKind::kWindowAgg:
      return PlanWindowAgg(op);
    case OpKind::kCollapse:
      return PlanCollapse(op);
    case OpKind::kExpand:
      return PlanExpand(op);
    case OpKind::kCompose:
      return PlanComposeBlock(op);
  }
  return Status::Internal("unknown operator kind");
}

Result<PlannedSeq> Planner::PlanBaseRef(const LogicalOp& op) {
  SEQ_ASSIGN_OR_RETURN(const CatalogEntry* entry,
                       catalog_.Lookup(op.seq_name()));
  const Span required = op.meta().required;
  SEQ_RETURN_IF_ERROR(RequireBoundedLength(required, "base scan").status());
  AccessEst est = BaseSequenceCosts(*entry->store, required);

  PlannedSeq out;
  out.required = required;
  out.schema = op.meta().schema;
  out.density = op.meta().density;
  out.single_source = op.seq_name();
  out.stream_cost = est.stream_cost;
  out.probed_cost = est.probed_cost;

  auto stream = NewNode(OpKind::kBaseRef, AccessMode::kStream);
  FillCommon(stream.get(), op);
  stream->est_cost = est.stream_cost;
  out.stream_plan = stream;

  auto probed = NewNode(OpKind::kBaseRef, AccessMode::kProbed);
  FillCommon(probed.get(), op);
  probed->est_cost = est.probed_cost;
  out.probed_plan = probed;
  return out;
}

Result<PlannedSeq> Planner::PlanConstantRef(const LogicalOp& op) {
  const Span required = op.meta().required;
  SEQ_RETURN_IF_ERROR(
      RequireBoundedLength(required, "constant sequence").status());
  PlannedSeq out;
  out.required = required;
  out.schema = op.meta().schema;
  out.density = 1.0;
  out.stream_cost = 0.0;
  out.probed_cost = 0.0;

  auto stream = NewNode(OpKind::kConstantRef, AccessMode::kStream);
  FillCommon(stream.get(), op);
  stream->est_cost = 0.0;
  out.stream_plan = stream;

  auto probed = NewNode(OpKind::kConstantRef, AccessMode::kProbed);
  FillCommon(probed.get(), op);
  probed->est_cost = 0.0;
  out.probed_plan = probed;
  return out;
}

Result<PlannedSeq> Planner::PlanSelect(const LogicalOp& op) {
  SEQ_ASSIGN_OR_RETURN(PlannedSeq child, Plan(*op.input()));
  double sel = EstimateSelectivity(op.predicate(),
                                   op.input()->meta().stats_store, params_);
  double eval_cost = child.ToAccessEst().Records() *
                     params_.select_predicate_cost;

  PlannedSeq out;
  out.required = op.meta().required;
  out.schema = op.meta().schema;
  out.density = std::clamp(child.density * sel, 0.0, 1.0);
  out.single_source = child.single_source;
  out.stream_cost = child.stream_cost + eval_cost;
  out.probed_cost = child.probed_cost + eval_cost;

  auto stream = NewNode(OpKind::kSelect, AccessMode::kStream);
  FillCommon(stream.get(), op);
  stream->children = {child.stream_plan};
  stream->est_cost = out.stream_cost;
  stream->est_density = out.density;
  out.stream_plan = stream;

  auto probed = NewNode(OpKind::kSelect, AccessMode::kProbed);
  FillCommon(probed.get(), op);
  probed->children = {child.probed_plan};
  probed->est_cost = out.probed_cost;
  probed->est_density = out.density;
  out.probed_plan = probed;
  return out;
}

Result<PlannedSeq> Planner::PlanProject(const LogicalOp& op) {
  SEQ_ASSIGN_OR_RETURN(PlannedSeq child, Plan(*op.input()));
  double compute = child.ToAccessEst().Records() * params_.compute_cost;

  PlannedSeq out;
  out.required = op.meta().required;
  out.schema = op.meta().schema;
  out.density = child.density;
  out.single_source = child.single_source;
  out.stream_cost = child.stream_cost + compute;
  out.probed_cost = child.probed_cost + compute;

  auto stream = NewNode(OpKind::kProject, AccessMode::kStream);
  FillCommon(stream.get(), op);
  stream->children = {child.stream_plan};
  stream->est_cost = out.stream_cost;
  out.stream_plan = stream;

  auto probed = NewNode(OpKind::kProject, AccessMode::kProbed);
  FillCommon(probed.get(), op);
  probed->children = {child.probed_plan};
  probed->est_cost = out.probed_cost;
  out.probed_plan = probed;
  return out;
}

Result<PlannedSeq> Planner::PlanPositionalOffset(const LogicalOp& op) {
  // Pure position relabeling: out(i) = in(i + l). In a pull pipeline each
  // input keeps its own cursor, so the §3.4 effective-scope broadening
  // appears as cursor lead/lag rather than an explicit buffer; no extra
  // cost beyond the child's.
  SEQ_ASSIGN_OR_RETURN(PlannedSeq child, Plan(*op.input()));

  PlannedSeq out;
  out.required = op.meta().required;
  out.schema = op.meta().schema;
  out.density = child.density;
  out.single_source = child.single_source;
  out.stream_cost = child.stream_cost;
  out.probed_cost = child.probed_cost;

  auto stream = NewNode(OpKind::kPositionalOffset, AccessMode::kStream);
  FillCommon(stream.get(), op);
  stream->children = {child.stream_plan};
  stream->est_cost = out.stream_cost;
  out.stream_plan = stream;

  auto probed = NewNode(OpKind::kPositionalOffset, AccessMode::kProbed);
  FillCommon(probed.get(), op);
  probed->children = {child.probed_plan};
  probed->est_cost = out.probed_cost;
  out.probed_plan = probed;
  return out;
}

Result<PlannedSeq> Planner::PlanValueOffset(const LogicalOp& op) {
  ++stats_->nonunit_blocks;
  // Whether OUR consumers probe this node monotonically (gates the probed
  // incremental candidate below). The naive-search candidate probes the
  // child positionally backward/forward from each output position, so the
  // child subtree is planned under a cleared flag — conservative for the
  // incremental candidate's (stream) child, which ignores it.
  const bool monotone = probed_monotone_;
  probed_monotone_ = false;
  Result<PlannedSeq> child_res = Plan(*op.input());
  probed_monotone_ = monotone;
  SEQ_RETURN_IF_ERROR(child_res.status());
  PlannedSeq child = std::move(child_res).value();
  SEQ_ASSIGN_OR_RETURN(int64_t span_len,
                       RequireBoundedLength(op.meta().required,
                                            "value offset"));
  AccessEst child_est = child.ToAccessEst();
  int64_t magnitude = std::abs(op.offset());

  PlannedSeq out;
  out.required = op.meta().required;
  out.schema = op.meta().schema;
  out.density = op.meta().density;
  out.single_source = child.single_source;

  double expected_scan =
      static_cast<double>(magnitude) / std::max(child.density, 1e-6);

  // Stream mode — the incremental algorithm (Cache-Strategy-B, §3.5):
  // out(i) follows from out(i-1) and the |l| most recent cached inputs.
  // The alternative (naive search from every output position via probes on
  // the input) is only taken under ablation.
  double incremental_cost =
      child.stream_cost +
      static_cast<double>(span_len) * params_.cache_access_cost +
      child_est.Records() * params_.cache_store_cost;
  double naive_stream_cost = static_cast<double>(span_len) *
                             (expected_scan * child_est.PerProbe());
  bool use_incremental = !params_.disable_incremental_value_offset;
  if (trace_ != nullptr) {
    trace_->Add("candidate", "value-offset stream: incremental cache-B",
                incremental_cost, use_incremental);
    trace_->Add("candidate", "value-offset stream: naive-search",
                naive_stream_cost, !use_incremental);
  }

  auto stream = NewNode(OpKind::kValueOffset, AccessMode::kStream);
  FillCommon(stream.get(), op);
  if (use_incremental) {
    out.stream_cost = incremental_cost;
    stream->offset_strategy = OffsetStrategy::kIncrementalCacheB;
    stream->children = {child.stream_plan};
    stream->cache_size = magnitude;
  } else {
    out.stream_cost = naive_stream_cost;
    stream->offset_strategy = OffsetStrategy::kNaiveSearch;
    stream->children = {child.probed_plan};
  }
  stream->est_cost = out.stream_cost;
  out.stream_plan = stream;

  // Probed mode — two candidates. Naive: from each probed position,
  // search positionally until |l| non-empty input positions have been
  // found; expected |l| / density probes each (§4.1.2: "estimate ... from
  // the density of the input sequence"). Incremental: when every consumer
  // above probes at non-decreasing positions — the discipline the
  // executor's probed driving guarantees at the root — the Cache-B
  // operator serves probes exactly as it serves a stream, consuming its
  // (streamed) input forward-only; same cost shape as the stream side.
  double naive_probed_cost = static_cast<double>(span_len) *
                             (expected_scan * child_est.PerProbe());
  double incremental_probed_cost = incremental_cost;
  bool probed_incremental = monotone &&
                            !params_.disable_incremental_value_offset &&
                            incremental_probed_cost < naive_probed_cost;
  if (trace_ != nullptr) {
    trace_->Add("candidate", "value-offset probed: incremental cache-B",
                incremental_probed_cost, probed_incremental);
    trace_->Add("candidate", "value-offset probed: naive-search",
                naive_probed_cost, !probed_incremental);
  }
  auto probed = NewNode(OpKind::kValueOffset, AccessMode::kProbed);
  FillCommon(probed.get(), op);
  if (probed_incremental) {
    out.probed_cost = incremental_probed_cost;
    probed->offset_strategy = OffsetStrategy::kIncrementalCacheB;
    probed->children = {child.stream_plan};
    probed->cache_size = magnitude;
  } else {
    out.probed_cost = naive_probed_cost;
    probed->offset_strategy = OffsetStrategy::kNaiveSearch;
    probed->children = {child.probed_plan};
  }
  probed->est_cost = out.probed_cost;
  out.probed_plan = probed;
  return out;
}

Result<PlannedSeq> Planner::PlanWindowAgg(const LogicalOp& op) {
  ++stats_->nonunit_blocks;
  // Naive trailing-window probing backtracks over the child's window at
  // every position, so the child subtree is planned under a cleared
  // monotone-probes flag; running/overall consume a stream child only.
  const bool saved_monotone = probed_monotone_;
  if (op.window_kind() == WindowKind::kTrailing) probed_monotone_ = false;
  Result<PlannedSeq> child_res = Plan(*op.input());
  probed_monotone_ = saved_monotone;
  SEQ_RETURN_IF_ERROR(child_res.status());
  PlannedSeq child = std::move(child_res).value();
  SEQ_ASSIGN_OR_RETURN(int64_t span_len,
                       RequireBoundedLength(op.meta().required, "aggregate"));
  AccessEst child_est = child.ToAccessEst();
  double out_records = op.meta().density * static_cast<double>(span_len);

  PlannedSeq out;
  out.required = op.meta().required;
  out.schema = op.meta().schema;
  out.density = op.meta().density;
  out.single_source = child.single_source;

  auto stream = NewNode(OpKind::kWindowAgg, AccessMode::kStream);
  FillCommon(stream.get(), op);
  stream->children = {child.stream_plan};
  auto probed = NewNode(OpKind::kWindowAgg, AccessMode::kProbed);
  FillCommon(probed.get(), op);
  probed->children = {child.probed_plan};

  switch (op.window_kind()) {
    case WindowKind::kTrailing: {
      int64_t w = op.window();
      // Expected aggregate-state steps: Cache-Strategy-A folds each input
      // record in once; the naive algorithms re-fold the whole window at
      // every position.
      double window_steps = static_cast<double>(span_len) *
                            static_cast<double>(w) * child.density *
                            params_.agg_step_cost;
      // Cache-Strategy-A: the scope-sized cache turns every input record
      // into one store, every output into one cache window access.
      double cache_a_cost =
          child.stream_cost +
          child_est.Records() *
              (params_.cache_store_cost + params_.agg_step_cost) +
          out_records * (params_.cache_access_cost + params_.compute_cost);
      // Scope too large to cache (§4.1.2) or ablated: naive re-probing
      // of the whole window at every position in the range.
      double naive_cost =
          static_cast<double>(span_len) * static_cast<double>(w) *
              child_est.PerProbe() +
          window_steps + out_records * params_.compute_cost;
      bool use_cache =
          w <= params_.max_cached_scope && !params_.disable_window_cache;
      if (trace_ != nullptr) {
        trace_->Add("candidate", "window-agg stream: cache-A", cache_a_cost,
                    use_cache);
        trace_->Add("candidate", "window-agg stream: naive-probe",
                    naive_cost, !use_cache);
      }
      if (use_cache) {
        out.stream_cost = cache_a_cost;
        stream->agg_strategy = AggStrategy::kCacheA;
        stream->cache_size = w;
      } else {
        out.stream_cost = naive_cost;
        stream->agg_strategy = AggStrategy::kNaiveProbe;
        stream->children = {child.probed_plan};
      }
      // Probed: probe the whole window for every requested position.
      out.probed_cost =
          static_cast<double>(span_len) *
              (static_cast<double>(w) * child_est.PerProbe() +
               params_.compute_cost) +
          window_steps;
      probed->agg_strategy = AggStrategy::kNaiveProbe;
      break;
    }
    case WindowKind::kRunning:
    case WindowKind::kAll: {
      double fold_steps = child_est.Records() * params_.agg_step_cost;
      out.stream_cost = child.stream_cost + fold_steps +
                        out_records * params_.compute_cost;
      stream->cache_size = 1;
      // Probed mode materializes the aggregate in one stream pass of the
      // input, then serves each probe from the materialization (§5.3 lists
      // materialization as the fallback when stream access is unavailable).
      out.probed_cost = child.stream_cost + fold_steps +
                        static_cast<double>(span_len) *
                            params_.cache_access_cost;
      probed->children = {child.stream_plan};
      break;
    }
  }
  stream->est_cost = out.stream_cost;
  probed->est_cost = out.probed_cost;
  out.stream_plan = stream;
  out.probed_plan = probed;
  return out;
}

Result<PlannedSeq> Planner::PlanCollapse(const LogicalOp& op) {
  ++stats_->nonunit_blocks;
  SEQ_ASSIGN_OR_RETURN(PlannedSeq child, Plan(*op.input()));
  SEQ_ASSIGN_OR_RETURN(int64_t span_len,
                       RequireBoundedLength(op.meta().required, "collapse"));
  double out_records = op.meta().density * static_cast<double>(span_len);
  // Every input record is folded into its bucket's aggregate state once.
  double fold_steps = child.ToAccessEst().Records() * params_.agg_step_cost;

  PlannedSeq out;
  out.required = op.meta().required;
  out.schema = op.meta().schema;
  out.density = op.meta().density;
  out.single_source = child.single_source;
  out.stream_cost = child.stream_cost + fold_steps +
                    out_records * params_.compute_cost;
  // Probed mode materializes the collapsed sequence on first probe.
  out.probed_cost = child.stream_cost + fold_steps +
                    static_cast<double>(span_len) * params_.cache_access_cost;

  auto stream = NewNode(OpKind::kCollapse, AccessMode::kStream);
  FillCommon(stream.get(), op);
  stream->children = {child.stream_plan};
  stream->est_cost = out.stream_cost;
  out.stream_plan = stream;

  auto probed = NewNode(OpKind::kCollapse, AccessMode::kProbed);
  FillCommon(probed.get(), op);
  probed->children = {child.stream_plan};  // materializes via one stream pass
  probed->est_cost = out.probed_cost;
  out.probed_plan = probed;
  return out;
}

Result<PlannedSeq> Planner::PlanExpand(const LogicalOp& op) {
  ++stats_->nonunit_blocks;
  SEQ_ASSIGN_OR_RETURN(PlannedSeq child, Plan(*op.input()));
  SEQ_ASSIGN_OR_RETURN(int64_t span_len,
                       RequireBoundedLength(op.meta().required, "expand"));
  double out_records = op.meta().density * static_cast<double>(span_len);

  PlannedSeq out;
  out.required = op.meta().required;
  out.schema = op.meta().schema;
  out.density = op.meta().density;
  out.single_source = child.single_source;
  // Stream: one pass of the input, each record replicated factor times.
  out.stream_cost = child.stream_cost + out_records * params_.compute_cost;
  // Probed: one input probe at floor(p / factor) per output probe.
  out.probed_cost = child.probed_cost / static_cast<double>(
                        std::max<int64_t>(op.expand_factor(), 1)) +
                    static_cast<double>(span_len) * params_.compute_cost;

  auto stream = NewNode(OpKind::kExpand, AccessMode::kStream);
  FillCommon(stream.get(), op);
  stream->children = {child.stream_plan};
  stream->est_cost = out.stream_cost;
  out.stream_plan = stream;

  auto probed = NewNode(OpKind::kExpand, AccessMode::kProbed);
  FillCommon(probed.get(), op);
  probed->children = {child.probed_plan};
  probed->est_cost = out.probed_cost;
  out.probed_plan = probed;
  return out;
}

// ---------------------------------------------------------------------------
// Compose blocks: flatten, then Selinger-style DP (§4.1.3).
// ---------------------------------------------------------------------------

namespace {

std::string UniqueFieldName(int item, const std::string& name) {
  return "_i" + std::to_string(item) + "_" + name;
}

struct FlatPred {
  ExprPtr expr;   // side-0 references to unique field names
  uint32_t mask;  // items referenced
};

/// Flattens the maximal compose subtree rooted at `node` into join items
/// (non-compose subtrees) and join predicates. Returns, for each output
/// field of `node`, the (item, field) pair it originates from.
Result<std::vector<std::pair<int, int>>> FlattenCompose(
    const LogicalOp& node, std::vector<const LogicalOp*>* items,
    std::vector<FlatPred>* preds) {
  if (node.kind() != OpKind::kCompose) {
    int idx = static_cast<int>(items->size());
    items->push_back(&node);
    std::vector<std::pair<int, int>> map;
    const Schema& schema = *node.meta().schema;
    map.reserve(schema.num_fields());
    for (size_t f = 0; f < schema.num_fields(); ++f) {
      map.emplace_back(idx, static_cast<int>(f));
    }
    return map;
  }
  SEQ_ASSIGN_OR_RETURN(auto lmap,
                       FlattenCompose(*node.input(0), items, preds));
  SEQ_ASSIGN_OR_RETURN(auto rmap,
                       FlattenCompose(*node.input(1), items, preds));
  if (node.predicate() != nullptr) {
    const Schema& lschema = *node.input(0)->meta().schema;
    const Schema& rschema = *node.input(1)->meta().schema;
    // Remap (side, name) references to unique names over the flat join.
    std::map<std::pair<int, std::string>, std::pair<int, std::string>> remap;
    uint32_t mask = 0;
    std::vector<std::pair<int, std::string>> cols;
    node.predicate()->CollectColumns(&cols);
    for (const auto& [side, name] : cols) {
      const Schema& schema = (side == 0) ? lschema : rschema;
      const auto& fmap = (side == 0) ? lmap : rmap;
      std::optional<size_t> idx = schema.FindField(name);
      if (!idx.has_value()) {
        return Status::Internal("compose predicate references unknown '" +
                                name + "'");
      }
      auto [item, field] = fmap[*idx];
      const Schema& item_schema = *(*items)[item]->meta().schema;
      remap[{side, name}] = {
          0, UniqueFieldName(item, item_schema.field(field).name)};
      mask |= (1u << item);
    }
    preds->push_back(FlatPred{node.predicate()->RemapColumns(remap), mask});
  }
  lmap.insert(lmap.end(), rmap.begin(), rmap.end());
  return lmap;
}

/// A DP candidate: the cheapest known stream- and probed-mode plans for one
/// subset of join items. Stream and probed winners may come from different
/// join orders; schemas carry the same (unique) field names either way.
struct Cand {
  PhysNodePtr stream_plan;
  double stream_cost = 0.0;
  SchemaPtr stream_schema;
  PhysNodePtr probed_plan;
  double probed_cost = 0.0;
  SchemaPtr probed_schema;
  double density = 0.0;
  Span required = Span::Empty();
  std::string single_source;

  AccessEst ToAccessEst() const {
    AccessEst est;
    est.stream_cost = stream_cost;
    est.probed_cost = probed_cost;
    est.density = density;
    est.span_len = required.IsEmpty() ? 0 : required.Length();
    return est;
  }
};

PhysNodePtr MakeRenameProject(const PhysNodePtr& child,
                              const std::vector<std::string>& columns,
                              const std::vector<std::string>& renames,
                              SchemaPtr out_schema, double density,
                              double cost) {
  auto node = std::make_shared<PhysNode>();
  node->op = OpKind::kProject;
  node->mode = child->mode;
  node->children = {child};
  node->columns = columns;
  node->renames = renames;
  node->out_schema = std::move(out_schema);
  node->out_span = child->out_span;
  node->required = child->required;
  node->est_density = density;
  node->est_cost = cost;
  return node;
}

/// Renames `plan`'s output fields positionally to `schema`'s. The plan is a
/// join, or a Select over one (a maskless predicate), and both pass records
/// through positionally: only the top schema changes, and the predicates,
/// which compile against that field list, are rewritten to the new names.
PhysNodePtr WithNames(const PhysNodePtr& plan, const SchemaPtr& schema) {
  SEQ_CHECK(plan->op == OpKind::kCompose || plan->op == OpKind::kSelect);
  auto node = std::make_shared<PhysNode>(*plan);
  if (plan->predicate != nullptr) {
    std::map<std::pair<int, std::string>, std::pair<int, std::string>> remap;
    for (size_t k = 0; k < schema->num_fields(); ++k) {
      remap[{0, plan->out_schema->field(k).name}] = {0, schema->field(k).name};
    }
    node->predicate = plan->predicate->RemapColumns(remap);
  }
  if (plan->op == OpKind::kSelect) {
    node->children[0] = WithNames(plan->children[0], schema);
  }
  node->out_schema = schema;
  return node;
}

/// The block's output plan under the compose's own names: when the join
/// order kept the fields in the compose's order, the names go on the top
/// node's schema and no operator is needed; otherwise a Project reorders
/// the fields.
PhysNodePtr RestoreNames(const PhysNodePtr& plan,
                         const std::vector<std::string>& columns,
                         const std::vector<std::string>& renames,
                         const SchemaPtr& out_schema, double density,
                         double cost) {
  for (size_t k = 0; k < columns.size(); ++k) {
    if (plan->out_schema->field(k).name != columns[k]) {
      return MakeRenameProject(plan, columns, renames, out_schema, density,
                               cost);
    }
  }
  return WithNames(plan, out_schema);
}

}  // namespace

Result<PlannedSeq> Planner::PlanComposeBlock(const LogicalOp& op) {
  ++stats_->join_blocks;
  std::vector<const LogicalOp*> items;
  std::vector<FlatPred> preds;
  SEQ_ASSIGN_OR_RETURN(auto root_field_map,
                       FlattenCompose(op, &items, &preds));
  int n = static_cast<int>(items.size());
  stats_->largest_block = std::max<int64_t>(stats_->largest_block, n);
  if (n > 31) {
    return Status::InvalidArgument("compose block with more than 31 inputs");
  }
  SEQ_RETURN_IF_ERROR(
      RequireBoundedLength(op.meta().required, "compose block").status());

  // Plan each item and give its fields block-unique names so join order
  // cannot create name clashes. The names live on the joins' schemas only:
  // records are positional, so the items' plans are used as they are.
  std::vector<bool> applied_at_unit(preds.size(), false);
  std::vector<Cand> unit(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    SEQ_ASSIGN_OR_RETURN(PlannedSeq item, Plan(*items[i]));
    std::map<std::pair<int, std::string>, std::pair<int, std::string>>
        to_item_names;
    std::vector<Field> fields;
    for (const Field& f : item.schema->fields()) {
      fields.push_back(Field{UniqueFieldName(i, f.name), f.type});
      to_item_names[{0, fields.back().name}] = {0, f.name};
    }
    SchemaPtr renamed = Schema::Make(std::move(fields));
    Cand& cand = unit[static_cast<size_t>(i)];
    cand.density = item.density;
    cand.required = item.required;
    cand.single_source = item.single_source;
    cand.stream_cost = item.stream_cost;
    cand.stream_schema = renamed;
    cand.stream_plan = item.stream_plan;
    cand.probed_cost = item.probed_cost;
    cand.probed_schema = renamed;
    cand.probed_plan = item.probed_plan;
    // Apply single-item predicates (possible when the user attached a
    // one-sided predicate directly to a compose) as selections here —
    // except on dense derived items (value offsets, non-trailing
    // aggregates): filtering those below the join would degrade the
    // lock-step skip into a positional scan, so their predicates stay
    // with the join (handled in join_step).
    std::vector<ExprPtr> local;
    if (!items[i]->IsNonUnitScope()) {
      for (size_t pi = 0; pi < preds.size(); ++pi) {
        if (preds[pi].mask == (1u << i)) {
          local.push_back(preds[pi].expr);
          applied_at_unit[pi] = true;
        }
      }
    }
    if (!local.empty()) {
      ExprPtr pred = ConjoinAll(local);
      double sel = EstimateSelectivity(pred, nullptr, params_);
      double eval = cand.ToAccessEst().Records() *
                    params_.select_predicate_cost;
      // The Select runs over the item's own field names.
      ExprPtr item_pred = pred->RemapColumns(to_item_names);
      for (AccessMode mode : {AccessMode::kStream, AccessMode::kProbed}) {
        auto node = std::make_shared<PhysNode>();
        node->op = OpKind::kSelect;
        node->mode = mode;
        node->predicate = item_pred;
        node->out_schema = item.schema;
        node->required = cand.required;
        node->est_density = cand.density * sel;
        if (mode == AccessMode::kStream) {
          node->children = {cand.stream_plan};
          node->est_cost = cand.stream_cost + eval;
          cand.stream_plan = node;
          cand.stream_cost = node->est_cost;
        } else {
          node->children = {cand.probed_plan};
          node->est_cost = cand.probed_cost + eval;
          cand.probed_plan = node;
          cand.probed_cost = node->est_cost;
        }
      }
      cand.density = std::clamp(cand.density * sel, 0.0, 1.0);
    }
  }

  // Joins a subset candidate with one unit item, applying every join
  // predicate that first becomes evaluable.
  auto join_step = [&](const Cand& s, uint32_t s_mask, const Cand& x,
                       int x_idx) -> Cand {
    ++stats_->plans_considered;
    uint32_t new_mask = s_mask | (1u << x_idx);
    std::vector<ExprPtr> applicable;
    double sel = 1.0;
    for (size_t pi = 0; pi < preds.size(); ++pi) {
      const FlatPred& p = preds[pi];
      if (p.mask == 0 || (p.mask & ~new_mask) != 0) continue;
      if (applied_at_unit[pi]) continue;
      // A predicate whose items were all inside S was applied at the join
      // that completed it — except when S is still the seed singleton.
      bool inside_s = (p.mask & ~s_mask) == 0;
      if (inside_s && (s_mask & (s_mask - 1)) != 0) continue;
      // Deferred single-item predicates on x apply at this (first) join.
      applicable.push_back(p.expr);
      sel *= EstimateSelectivity(p.expr, nullptr, params_);
    }
    ExprPtr join_pred = ConjoinAll(applicable);

    double corr = 0.0;
    if (!s.single_source.empty() && !x.single_source.empty()) {
      corr = catalog_.NullCorrelation(s.single_source, x.single_source);
    }
    double joint = Catalog::JointDensity(s.density, x.density, corr);
    Cand out;
    out.required = s.required.Intersect(x.required);
    int64_t span_len = out.required.IsEmpty() ? 0 : out.required.Length();
    out.density = std::clamp(joint * sel, 0.0, 1.0);
    out.single_source = "";  // multiple sources

    ComposeCostResult costs = ComposeCosts(s.ToAccessEst(), x.ToAccessEst(),
                                           joint, span_len, params_);
    double out_compute =
        out.density * static_cast<double>(span_len) * params_.compute_cost;

    // Stream plan.
    auto stream = std::make_shared<PhysNode>();
    stream->op = OpKind::kCompose;
    stream->mode = AccessMode::kStream;
    stream->join_strategy = costs.stream_strategy;
    switch (costs.stream_strategy) {
      case JoinStrategy::kStreamBoth:
        stream->children = {s.stream_plan, x.stream_plan};
        stream->out_schema = Schema::Concat(*s.stream_schema,
                                            *x.stream_schema);
        break;
      case JoinStrategy::kStreamLeftProbeRight:
        stream->children = {s.stream_plan, x.probed_plan};
        stream->out_schema = Schema::Concat(*s.stream_schema,
                                            *x.probed_schema);
        break;
      case JoinStrategy::kStreamRightProbeLeft:
        stream->children = {s.probed_plan, x.stream_plan};
        stream->out_schema = Schema::Concat(*s.probed_schema,
                                            *x.stream_schema);
        break;
      case JoinStrategy::kProbeBoth:
        SEQ_CHECK(false);
        break;
    }
    stream->predicate = join_pred;
    stream->required = out.required;
    stream->est_density = out.density;
    stream->est_cost = costs.stream_cost + out_compute;
    out.stream_plan = stream;
    out.stream_cost = stream->est_cost;
    out.stream_schema = stream->out_schema;

    // Probed plan.
    auto probed = std::make_shared<PhysNode>();
    probed->op = OpKind::kCompose;
    probed->mode = AccessMode::kProbed;
    probed->join_strategy = JoinStrategy::kProbeBoth;
    probed->probe_left_first = costs.probe_left_first;
    probed->children = {s.probed_plan, x.probed_plan};
    probed->out_schema = Schema::Concat(*s.probed_schema, *x.probed_schema);
    probed->predicate = join_pred;
    probed->required = out.required;
    probed->est_density = out.density;
    probed->est_cost = costs.probed_cost + out_compute;
    out.probed_plan = probed;
    out.probed_cost = probed->est_cost;
    out.probed_schema = probed->out_schema;

    if (trace_ != nullptr) {
      std::ostringstream oss;
      oss << "join {";
      bool first = true;
      for (int i = 0; i < n; ++i) {
        if ((s_mask & (1u << i)) == 0) continue;
        if (!first) oss << ",";
        oss << i;
        first = false;
      }
      oss << "}+" << x_idx << ": stream "
          << JoinStrategyName(costs.stream_strategy) << " cost="
          << out.stream_cost << ", probed cost=" << out.probed_cost;
      trace_->Add("candidate", oss.str(), out.stream_cost);
    }
    return out;
  };

  Cand final_cand;
  int dp_limit = std::min<int>(kMaxDpItems, params_.max_dp_items);
  if (n == 1) {
    final_cand = unit[0];
  } else if (n <= dp_limit) {
    // Level-wise left-deep DP. Only the current level is retained (plus the
    // unit candidates), matching the paper's space analysis.
    std::map<uint32_t, Cand> level;
    for (int i = 0; i < n; ++i) level.emplace(1u << i, unit[i]);
    stats_->plans_retained_max =
        std::max<int64_t>(stats_->plans_retained_max,
                          static_cast<int64_t>(level.size()));
    for (int size = 1; size < n; ++size) {
      std::map<uint32_t, Cand> next;
      for (const auto& [mask, cand] : level) {
        for (int x = 0; x < n; ++x) {
          if (mask & (1u << x)) continue;
          Cand joined = join_step(cand, mask, unit[x], x);
          uint32_t new_mask = mask | (1u << x);
          auto it = next.find(new_mask);
          if (it == next.end()) {
            next.emplace(new_mask, std::move(joined));
          } else {
            // Keep the cheapest plan per access mode independently (the
            // sequence analogue of Selinger's interesting orders).
            Cand& best = it->second;
            if (joined.stream_cost < best.stream_cost) {
              best.stream_plan = joined.stream_plan;
              best.stream_cost = joined.stream_cost;
              best.stream_schema = joined.stream_schema;
            }
            if (joined.probed_cost < best.probed_cost) {
              best.probed_plan = joined.probed_plan;
              best.probed_cost = joined.probed_cost;
              best.probed_schema = joined.probed_schema;
            }
          }
        }
      }
      stats_->plans_retained_max = std::max<int64_t>(
          stats_->plans_retained_max, static_cast<int64_t>(next.size()));
      level = std::move(next);
    }
    SEQ_CHECK(level.size() == 1);
    final_cand = level.begin()->second;
  } else {
    // Greedy left-deep fallback in input order for very wide blocks.
    Cand acc = unit[0];
    uint32_t mask = 1u;
    for (int x = 1; x < n; ++x) {
      acc = join_step(acc, mask, unit[x], x);
      mask |= (1u << x);
    }
    final_cand = acc;
  }

  // Column-free predicates (e.g. pos()-only) have an empty item mask and
  // were skipped by the DP; apply them once over the final join.
  std::vector<ExprPtr> maskless;
  for (const FlatPred& p : preds) {
    if (p.mask == 0) maskless.push_back(p.expr);
  }
  if (!maskless.empty()) {
    ExprPtr pred = ConjoinAll(maskless);
    double sel = EstimateSelectivity(pred, nullptr, params_);
    double eval =
        final_cand.ToAccessEst().Records() * params_.select_predicate_cost;
    for (AccessMode mode : {AccessMode::kStream, AccessMode::kProbed}) {
      auto node = std::make_shared<PhysNode>();
      node->op = OpKind::kSelect;
      node->mode = mode;
      node->predicate = pred;
      node->required = final_cand.required;
      node->est_density = std::clamp(final_cand.density * sel, 0.0, 1.0);
      if (mode == AccessMode::kStream) {
        node->out_schema = final_cand.stream_schema;
        node->children = {final_cand.stream_plan};
        node->est_cost = final_cand.stream_cost + eval;
        final_cand.stream_plan = node;
        final_cand.stream_cost = node->est_cost;
      } else {
        node->out_schema = final_cand.probed_schema;
        node->children = {final_cand.probed_plan};
        node->est_cost = final_cand.probed_cost + eval;
        final_cand.probed_plan = node;
        final_cand.probed_cost = node->est_cost;
      }
    }
    final_cand.density = std::clamp(final_cand.density * sel, 0.0, 1.0);
  }

  // Restore the original compose output schema (names and order).
  const Schema& out_schema = *op.meta().schema;
  SEQ_CHECK(root_field_map.size() == out_schema.num_fields());
  std::vector<std::string> columns;
  std::vector<std::string> renames;
  for (size_t k = 0; k < root_field_map.size(); ++k) {
    auto [item, field] = root_field_map[k];
    const Schema& item_schema = *items[item]->meta().schema;
    columns.push_back(UniqueFieldName(item, item_schema.field(field).name));
    renames.push_back(out_schema.field(k).name);
  }

  PlannedSeq out;
  out.required = op.meta().required;
  out.schema = op.meta().schema;
  out.density = final_cand.density;
  out.stream_cost = final_cand.stream_cost;
  out.probed_cost = final_cand.probed_cost;
  out.stream_plan =
      RestoreNames(final_cand.stream_plan, columns, renames,
                   op.meta().schema, out.density, out.stream_cost);
  out.probed_plan =
      RestoreNames(final_cand.probed_plan, columns, renames,
                   op.meta().schema, out.density, out.probed_cost);
  return out;
}

}  // namespace seq
