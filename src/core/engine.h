#ifndef SEQ_CORE_ENGINE_H_
#define SEQ_CORE_ENGINE_H_

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/query_digest.h"
#include "common/result.h"
#include "core/plan_cache.h"
#include "core/views.h"
#include "exec/executor.h"
#include "logical/builder.h"
#include "optimizer/optimizer.h"
#include "parser/parser.h"

namespace seq {

/// Per-query run configuration — the one way to say HOW a query executes.
/// A RunOptions travels with the call, so concurrent queries on one engine
/// can use different budgets, parallelism, driving modes and
/// instrumentation without racing on shared engine state.
///
///   RunOptions opts;
///   opts.exec.guards.max_rows = 1000;
///   opts.exec.parallelism = 4;
///   opts.profile = true;
///   auto result = engine.Run(query, opts);          // result->profile set
struct RunOptions {
  /// Execution knobs for this run: driving mode, batch capacity, budgets,
  /// fault injection, morsel parallelism (a share cap on the process-wide
  /// scheduler pool), scheduler priority and admission timeout. Defaults
  /// are the library defaults (including SEQ_USE_BATCH / SEQ_PARALLELISM).
  ExecOptions exec;
  /// Collect the per-operator runtime profile and optimizer trace into
  /// QueryResult::profile. Slower (every operator call is timed); the
  /// unprofiled path is untouched when false.
  bool profile = false;
  /// When set, every answer row streams to this sink in position order and
  /// QueryResult::records stays empty — the allocation-free consumption
  /// path. The row reference is only valid during the callback. A sink run
  /// streams serially on the calling thread whatever `exec.parallelism`
  /// is. Cannot be combined with `profile`, and rows already visited before
  /// a mid-stream error or budget trip cannot be taken back
  /// (docs/robustness.md).
  RowSink sink;
  /// Simulated access/cache/predicate counters accumulate here when set.
  AccessStats* stats = nullptr;
};

/// The public facade of the SEQ library: a catalog of named sequences plus
/// optimize-and-evaluate entry points.
///
/// Thread safety: Plan/Run/RunAt/Explain are const and safe to call from
/// multiple threads concurrently, provided no thread mutates the engine
/// (RegisterBase/DefineView/Materialize/StreamSession appends) at the same
/// time — the usual "set up, then query in parallel" pattern. Per-query
/// behavior differences belong in RunOptions, which never touches engine
/// state.
///
///   Engine engine;
///   engine.RegisterBase("quakes", store);
///   auto result = engine.Run(SeqRef("quakes")
///                                .Select(Gt(Col("strength"), Lit(7.0)))
///                                .Build());
class Engine {
 public:
  explicit Engine(OptimizerOptions options = {})
      : options_(std::move(options)) {}

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }

  OptimizerOptions& options() { return options_; }

  /// Catalog mutations retire this engine's plan-cache entries eagerly.
  /// (The catalog version in every cache key already makes stale entries
  /// unreachable; invalidation reclaims their memory without waiting for
  /// LRU eviction.)
  Status RegisterBase(std::string name, BaseSequencePtr store) {
    Status s = catalog_.RegisterBase(std::move(name), std::move(store));
    if (s.ok()) PlanCache::Global().InvalidateEngine(plan_cache_id_.value());
    return s;
  }
  Status RegisterConstant(std::string name, SchemaPtr schema, Record value) {
    Status s = catalog_.RegisterConstant(std::move(name), std::move(schema),
                                         std::move(value));
    if (s.ok()) PlanCache::Global().InvalidateEngine(plan_cache_id_.value());
    return s;
  }

  /// Defines a named derived sequence (§5.2): queries referring to `name`
  /// inline a clone of `graph`. The name must not shadow a catalog
  /// sequence; definitions may reference earlier views but not cycle.
  Status DefineView(std::string name, LogicalOpPtr graph);
  const ViewMap& views() const { return views_; }

  /// Materializes a derived sequence (§5.3: "materialization of derived
  /// sequences ... is definitely an option"): evaluates `graph` over
  /// `range` (or its natural span) and registers the result as a new base
  /// sequence called `name` — with real column statistics, making it a
  /// first-class optimizer citizen for later queries.
  Status Materialize(const std::string& name, const LogicalOpPtr& graph,
                     std::optional<Span> range = std::nullopt,
                     int records_per_page = 64,
                     AccessCosts costs = AccessCosts{});

  /// Optimizes `query` and returns the selected plan without running it.
  Result<PhysicalPlan> Plan(const Query& query) const;

  /// THE run entry point: optimizes and evaluates `query` under `opts`.
  /// Covers what used to be four methods — Run (plain), RunProfiled
  /// (opts.profile), RunVisit/ExecuteVisit (opts.sink) — and applies
  /// graceful cache-budget degradation on every non-sink path.
  Result<QueryResult> Run(const Query& query, const RunOptions& opts) const;

  /// RunOptions conveniences mirroring the legacy range/point shapes.
  Result<QueryResult> Run(const LogicalOpPtr& graph, std::optional<Span> range,
                          const RunOptions& opts) const;
  Result<QueryResult> Run(const QueryBuilder& builder,
                          std::optional<Span> range,
                          const RunOptions& opts) const;
  Result<QueryResult> RunAt(const LogicalOpPtr& graph,
                            std::vector<Position> positions,
                            const RunOptions& opts) const;

  /// Conveniences: run with the library-default ExecOptions (including
  /// the SEQ_USE_BATCH / SEQ_PARALLELISM environment defaults).
  Result<QueryResult> Run(const Query& query,
                          AccessStats* stats = nullptr) const;
  Result<QueryResult> Run(const LogicalOpPtr& graph,
                          std::optional<Span> range = std::nullopt,
                          AccessStats* stats = nullptr) const;
  Result<QueryResult> Run(const QueryBuilder& builder,
                          std::optional<Span> range = std::nullopt,
                          AccessStats* stats = nullptr) const;
  Result<QueryResult> RunAt(const LogicalOpPtr& graph,
                            std::vector<Position> positions,
                            AccessStats* stats = nullptr) const;

  /// Runs a Sequin program from source text. The text fast path of the
  /// parameterized plan cache: when this exact query SHAPE (the text with
  /// literals stripped) has run before, the lexer, parser, rewriter and
  /// planner are all skipped — the literal tokens are bound straight into
  /// the cached plan template. First runs (and programs the text tier
  /// cannot safely bind: multi-statement definitions, bool literals,
  /// literals the optimizer folded away) take the normal parse-and-run
  /// path, which still hits the graph-tier plan cache. EXPLAIN programs
  /// are rejected — use Explain / ExplainAnalyze.
  Result<QueryResult> RunText(const std::string& source,
                              std::optional<Span> range = std::nullopt,
                              const RunOptions& opts = {}) const;

  /// Resumes a query suspended to `checkpoint_path` (by a run with
  /// RunOptions::exec.checkpoint.enabled — see docs/robustness.md).
  /// Validates the checkpoint's validity tuple against this engine —
  /// catalog version, optimizer-options fingerprint and plan signature
  /// must all match, or the resume is rejected with FailedPrecondition
  /// naming the mismatch. The query is re-planned from its stored text
  /// (through the plan cache), re-rooted at the stored watermark, its
  /// operator state restored, and run to completion — producing rows and
  /// stats byte-identical to an uninterrupted checkpointed run. The
  /// resumed run may itself suspend again (a new checkpoint file).
  /// `opts.profile` and `opts.sink` must be unset.
  Result<QueryResult> Resume(const std::string& checkpoint_path,
                             const RunOptions& opts = {}) const;

  /// Flags the live query `query_id` (a `.queries` id) for cooperative
  /// suspension at its next chunk boundary. Only checkpoint-enabled runs
  /// observe the flag; returns false when no such query is live.
  static bool RequestSuspend(uint64_t query_id);

  /// Annotated logical graph plus the physical plan, as text.
  Result<std::string> Explain(const Query& query) const;

  /// EXPLAIN ANALYZE: runs the query profiled and renders the plan tree
  /// with estimated vs actual rows/cost per operator, the optimizer trace,
  /// and the cost-model drift summary. The RunOptions overload profiles
  /// under the given execution knobs (opts.profile is implied; opts.sink
  /// must be unset).
  Result<std::string> ExplainAnalyze(const Query& query) const;
  Result<std::string> ExplainAnalyze(const Query& query,
                                     const RunOptions& opts) const;

  /// A query optimized once and executable many times — amortizes the
  /// fixed optimization cost for standing/repeated queries (the regime
  /// where E1's small-input nuance matters).
  class PreparedQuery {
   public:
    /// Executes the prepared plan under per-run options (profile, sink,
    /// budgets, parallelism). Unlike Engine::Run there is no degradation
    /// re-plan here — the plan is fixed; a cache-budget trip surfaces as
    /// the ResourceExhausted degradation signal for the caller to handle.
    Result<QueryResult> Run(const RunOptions& opts) const;

    /// Convenience: library-default RunOptions, stats collection only.
    Result<QueryResult> Run(AccessStats* stats = nullptr) const {
      RunOptions opts;
      opts.stats = stats;
      return Run(opts);
    }
    const PhysicalPlan& plan() const { return plan_; }

   private:
    friend class Engine;
    PreparedQuery(const Catalog* catalog, CostParams params, PhysicalPlan plan,
                  std::string text, std::string digest)
        : catalog_(catalog),
          params_(params),
          plan_(std::move(plan)),
          text_(std::move(text)),
          digest_(std::move(digest)) {}

    const Catalog* catalog_;  // owned by the Engine; must outlive this
    CostParams params_;
    PhysicalPlan plan_;
    // Query-registry identity, captured once at Prepare so repeated Runs
    // never re-unparse (empty when the registry was disabled then).
    std::string text_;
    std::string digest_;
    // True when Prepare itself was answered from the plan cache; surfaced
    // on every Run's registry record.
    bool plan_cached_ = false;
  };

  /// Optimizes once; the result stays valid while this engine (and its
  /// catalog contents) live and is safe to Run() from multiple threads.
  Result<PreparedQuery> Prepare(const Query& query) const;

  /// §5.1 sequence groupings: runs the same query graph template over a
  /// group of same-schema sequences. `graph_for` receives each member name
  /// and returns the graph to run. Returns results keyed by member name.
  Result<std::map<std::string, QueryResult>> RunGrouped(
      const std::vector<std::string>& members,
      const std::function<LogicalOpPtr(const std::string&)>& graph_for,
      std::optional<Span> range = std::nullopt,
      AccessStats* stats = nullptr) const;

 private:
  // The single execution workhorse behind every Run shape. The outer
  // RunWithOptions owns the always-on telemetry envelope — query-registry
  // ticket, run counters/latency histogram, slow-query log — around the
  // Impl, which optimizes (with trace when profiling), records the
  // morsel-parallelism decision, executes (plain / profiled / sink), and
  // re-plans cache-free on the cache-budget degradation signal (non-sink
  // paths only — sunk rows can't be unsent).
  Result<QueryResult> RunWithOptions(const Query& query,
                                     const ExecOptions& exec, bool profile,
                                     const RowSink& sink,
                                     AccessStats* stats) const;
  Result<QueryResult> RunWithOptionsImpl(const Query& query,
                                         const ExecOptions& exec, bool profile,
                                         const RowSink& sink,
                                         AccessStats* stats,
                                         QueryRegistry::Ticket& ticket) const;

  /// The checkpointed execution driver behind Run (exec.checkpoint.enabled)
  /// and Resume: drives Executor::ExecuteCheckpointed and, when a suspend
  /// trigger fires at a chunk boundary, persists the capture as a
  /// checkpoint file. User/cache-budget suspensions return the
  /// query-suspended status carrying the file path; scheduler preemptions
  /// park in place — write the file, release the slot, wait in the
  /// admission queue, then resume from the file just written.
  Result<QueryResult> RunCheckpointed(const Query& inlined,
                                      const PhysicalPlan& plan,
                                      const OptimizerOptions& opt_options,
                                      const ExecOptions& exec,
                                      AccessStats* stats,
                                      QueryRegistry::Ticket& ticket) const;

  // Plan-cache plumbing (docs/execution.md, "plan cache") ------------------

  /// Everything literal-independent that selects a plan: engine identity,
  /// catalog version and the planning-relevant optimizer options. The
  /// query-shape signature (graph tier) or normalized text (text tier) is
  /// appended to form the full cache key.
  std::string PlanKeyPrefix(const OptimizerOptions& opt_options) const;

  /// The one planning entry point behind Run/Prepare: answers from the
  /// plan cache when possible, otherwise optimizes `inlined` via
  /// `optimizer` and publishes the resulting template. `allow_read` is
  /// false for profiled runs — they must produce a real optimizer trace,
  /// so they always re-optimize but still refresh the cached template.
  /// Sets *from_cache when the returned plan skipped the optimizer.
  Result<PhysicalPlan> PlanViaCache(const Query& inlined,
                                    const OptimizerOptions& opt_options,
                                    Optimizer& optimizer, bool use_cache,
                                    bool allow_read, bool* from_cache) const;

  /// Publishes an optimized template (called on every cache miss).
  void InsertPlanEntry(const std::string& key, ParameterizedQuery pq,
                       const PhysicalPlan& plan, const Optimizer& optimizer,
                       const OptimizerOptions& opt_options,
                       const Query& inlined) const;

  /// Records the text-shape → plan-key resolution after a successful
  /// parse-path RunText, deciding whether the shape is text-bindable.
  void InsertTextEntry(const std::string& text_key, const NormalizedQuery& nq,
                       const ParsedProgram& program, const Query& query) const;

  /// Executes an already-bound cached plan for RunText with the full
  /// telemetry envelope. Sets *budget_tripped (and returns the error) when
  /// the run hit the cache-memory budget — the caller then falls back to
  /// the parse path, whose degradation re-plan handles it.
  Result<QueryResult> RunCachedPlanText(const std::string& source,
                                        const std::string& shape,
                                        const PhysicalPlan& plan,
                                        const RunOptions& opts,
                                        bool* budget_tripped) const;

  Catalog catalog_;
  OptimizerOptions options_;
  ViewMap views_;
  PlanCacheId plan_cache_id_;
};

}  // namespace seq

#endif  // SEQ_CORE_ENGINE_H_
