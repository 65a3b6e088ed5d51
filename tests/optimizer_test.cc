// Tests for selectivity estimation, the §4.1 cost model, the block
// planner's strategy choices, and the Property 4.1 enumeration counters.

#include <gtest/gtest.h>

#include <cmath>

#include "core/engine.h"
#include "optimizer/cost_model.h"
#include "optimizer/planner.h"
#include "optimizer/selectivity.h"
#include "workload/generators.h"

namespace seq {
namespace {

// --- selectivity ---------------------------------------------------------------

class SelectivityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Uniform int values in [0, 1000].
    IntSeriesOptions options;
    options.span = Span::Of(0, 9999);
    options.density = 1.0;
    options.min_value = 0;
    options.max_value = 1000;
    store_ = *MakeIntSeries(options);
  }
  BaseSequencePtr store_;
  CostParams params_;
};

TEST_F(SelectivityTest, RangePredicateInterpolates) {
  double sel = EstimateSelectivity(Gt(Col("value"), Lit(int64_t{750})),
                                   store_.get(), params_);
  EXPECT_NEAR(sel, 0.25, 0.05);
  sel = EstimateSelectivity(Lt(Col("value"), Lit(int64_t{100})),
                            store_.get(), params_);
  EXPECT_NEAR(sel, 0.1, 0.05);
}

TEST_F(SelectivityTest, ReversedOperandsMirror) {
  double sel = EstimateSelectivity(Gt(Lit(int64_t{750}), Col("value")),
                                   store_.get(), params_);
  EXPECT_NEAR(sel, 0.75, 0.05);
}

TEST_F(SelectivityTest, EqualityUsesDistinct) {
  double sel = EstimateSelectivity(Eq(Col("value"), Lit(int64_t{5})),
                                   store_.get(), params_);
  EXPECT_NEAR(sel, 1.0 / 1001.0, 0.001);
}

TEST_F(SelectivityTest, ConjunctionMultiplies) {
  ExprPtr a = Gt(Col("value"), Lit(int64_t{500}));
  ExprPtr pred = And(a, Lt(Col("value"), Lit(int64_t{750})));
  double sel = EstimateSelectivity(pred, store_.get(), params_);
  EXPECT_NEAR(sel, 0.5 * 0.75, 0.1);
}

TEST_F(SelectivityTest, DisjunctionInclusionExclusion) {
  ExprPtr pred = Or(Gt(Col("value"), Lit(int64_t{900})),
                    Lt(Col("value"), Lit(int64_t{100})));
  double sel = EstimateSelectivity(pred, store_.get(), params_);
  EXPECT_NEAR(sel, 0.1 + 0.1 - 0.01, 0.08);
}

TEST_F(SelectivityTest, NegationComplements) {
  ExprPtr pred = Not(Gt(Col("value"), Lit(int64_t{250})));
  double sel = EstimateSelectivity(pred, store_.get(), params_);
  EXPECT_NEAR(sel, 0.25, 0.05);
}

TEST_F(SelectivityTest, DefaultsWithoutStats) {
  double sel = EstimateSelectivity(Gt(Col("value"), Lit(int64_t{750})),
                                   nullptr, params_);
  EXPECT_DOUBLE_EQ(sel, params_.default_range_selectivity);
  sel = EstimateSelectivity(Eq(Col("value"), Lit(int64_t{5})), nullptr,
                            params_);
  EXPECT_DOUBLE_EQ(sel, params_.default_eq_selectivity);
}

TEST_F(SelectivityTest, NullPredicateIsOne) {
  EXPECT_DOUBLE_EQ(EstimateSelectivity(nullptr, store_.get(), params_), 1.0);
}

TEST_F(SelectivityTest, ClampedToFloor) {
  ExprPtr impossible = Gt(Col("value"), Lit(int64_t{99999}));
  double sel = EstimateSelectivity(impossible, store_.get(), params_);
  EXPECT_GT(sel, 0.0);
  EXPECT_LE(sel, 0.001);
}

// --- cost model -----------------------------------------------------------------

TEST(CostModelTest, BaseStreamCostCountsPages) {
  SchemaPtr schema = Schema::Make({Field{"v", TypeId::kInt64}});
  AccessCosts costs;
  costs.page_cost = 10.0;
  costs.probe_cost = 12.0;
  BaseSequenceStore store(schema, 64, costs);
  for (Position p = 0; p < 640; ++p) {
    ASSERT_TRUE(store.Append(p, Record{Value::Int64(p)}).ok());
  }
  AccessEst est = BaseSequenceCosts(store, store.span());
  EXPECT_DOUBLE_EQ(est.stream_cost, 100.0);           // 10 pages x 10
  EXPECT_DOUBLE_EQ(est.probed_cost, 640.0 * 12.0);    // per-position probes
  EXPECT_DOUBLE_EQ(est.density, 1.0);
  EXPECT_EQ(est.span_len, 640);
  // Range restriction shrinks both linearly.
  AccessEst half = BaseSequenceCosts(store, Span::Of(0, 319));
  EXPECT_DOUBLE_EQ(half.stream_cost, 50.0);
}

TEST(CostModelTest, ComposePrefersLockstepForDenseInputs) {
  AccessEst left{/*stream=*/100, /*probed=*/12000, /*density=*/1.0,
                 /*span=*/1000};
  AccessEst right = left;
  ComposeCostResult r =
      ComposeCosts(left, right, /*joint=*/1.0, /*span=*/1000, CostParams{});
  EXPECT_EQ(r.stream_strategy, JoinStrategy::kStreamBoth);
}

TEST(CostModelTest, ComposePrefersProbeForSparseDriver) {
  // Left is very sparse and cheap to stream; probing right per record
  // beats scanning all of right.
  AccessEst left{/*stream=*/2, /*probed=*/12000, /*density=*/0.001,
                 /*span=*/1000};
  AccessEst right{/*stream=*/1000, /*probed=*/12000, /*density=*/1.0,
                  /*span=*/1000};
  ComposeCostResult r =
      ComposeCosts(left, right, /*joint=*/0.001, /*span=*/1000, CostParams{});
  EXPECT_EQ(r.stream_strategy, JoinStrategy::kStreamLeftProbeRight);
  // Mirrored inputs mirror the strategy.
  ComposeCostResult m =
      ComposeCosts(right, left, 0.001, 1000, CostParams{});
  EXPECT_EQ(m.stream_strategy, JoinStrategy::kStreamRightProbeLeft);
}

TEST(CostModelTest, ProbedModeProbesCheaperRejectorFirst) {
  AccessEst cheap{/*stream=*/10, /*probed=*/100, /*density=*/0.1,
                  /*span=*/100};
  AccessEst dear{/*stream=*/10, /*probed=*/10000, /*density=*/1.0,
                 /*span=*/100};
  ComposeCostResult r = ComposeCosts(cheap, dear, 0.1, 100, CostParams{});
  EXPECT_TRUE(r.probe_left_first);
  ComposeCostResult m = ComposeCosts(dear, cheap, 0.1, 100, CostParams{});
  EXPECT_FALSE(m.probe_left_first);
}

TEST(CostModelTest, PredicateTermScalesWithJointDensity) {
  AccessEst e{/*stream=*/0, /*probed=*/0, /*density=*/1.0, /*span=*/1000};
  CostParams params;
  ComposeCostResult dense = ComposeCosts(e, e, 1.0, 1000, params);
  ComposeCostResult sparse = ComposeCosts(e, e, 0.1, 1000, params);
  EXPECT_NEAR(dense.stream_cost - sparse.stream_cost,
              0.9 * 1000 * params.join_predicate_cost, 1e-9);
}

// --- planner strategy choices ------------------------------------------------

class PlannerChoiceTest : public ::testing::Test {
 protected:
  // Registers "sparse" (very low density) and "dense" (density 1) over the
  // same span.
  void SetUp() override {
    IntSeriesOptions sparse;
    sparse.span = Span::Of(0, 99999);
    sparse.density = 0.001;
    sparse.seed = 5;
    ASSERT_TRUE(engine_.RegisterBase("sparse", *MakeIntSeries(sparse)).ok());
    IntSeriesOptions dense = sparse;
    dense.density = 1.0;
    dense.seed = 6;
    dense.column = "w";
    ASSERT_TRUE(engine_.RegisterBase("dense", *MakeIntSeries(dense)).ok());
  }
  Engine engine_;
};

TEST_F(PlannerChoiceTest, SparseDriverProbesDenseSide) {
  Query q;
  q.graph = SeqRef("sparse").ComposeWith(SeqRef("dense")).Build();
  auto plan = engine_.Plan(q);
  ASSERT_TRUE(plan.ok()) << plan.status();
  // Find the compose node.
  const PhysNode* node = plan->root.get();
  while (node->op != OpKind::kCompose) {
    ASSERT_FALSE(node->children.empty());
    node = node->children[0].get();
  }
  EXPECT_NE(node->join_strategy, JoinStrategy::kStreamBoth);
}

TEST_F(PlannerChoiceTest, DenseInputsUseLockstep) {
  IntSeriesOptions dense2;
  dense2.span = Span::Of(0, 99999);
  dense2.density = 1.0;
  dense2.seed = 9;
  dense2.column = "u";
  ASSERT_TRUE(engine_.RegisterBase("dense2", *MakeIntSeries(dense2)).ok());
  Query q;
  q.graph = SeqRef("dense").ComposeWith(SeqRef("dense2")).Build();
  auto plan = engine_.Plan(q);
  ASSERT_TRUE(plan.ok()) << plan.status();
  const PhysNode* node = plan->root.get();
  while (node->op != OpKind::kCompose) node = node->children[0].get();
  EXPECT_EQ(node->join_strategy, JoinStrategy::kStreamBoth);
}

TEST_F(PlannerChoiceTest, RangeQueryPicksStreamRoot) {
  Query q;
  q.graph = SeqRef("dense").Build();
  auto plan = engine_.Plan(q);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->root_mode, AccessMode::kStream);
}

TEST_F(PlannerChoiceTest, FewPointQueriesPickProbedRoot) {
  Query q;
  q.graph = SeqRef("dense").Build();
  q.positions = {5, 90000};
  auto plan = engine_.Plan(q);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->root_mode, AccessMode::kProbed);
  // And it runs correctly.
  Executor executor(engine_.catalog());
  auto result = executor.Execute(*plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->records.size(), 2u);
}

TEST_F(PlannerChoiceTest, ManyPointQueriesFlipToStream) {
  Query q;
  q.graph = SeqRef("dense").Build();
  for (Position p = 0; p < 99999; p += 2) q.positions.push_back(p);
  auto plan = engine_.Plan(q);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->root_mode, AccessMode::kStream);
}

TEST_F(PlannerChoiceTest, WindowAggUsesCacheA) {
  Query q;
  q.graph = SeqRef("dense").Agg(AggFunc::kSum, "w", 8).Build();
  auto plan = engine_.Plan(q);
  ASSERT_TRUE(plan.ok());
  const PhysNode* node = plan->root.get();
  while (node->op != OpKind::kWindowAgg) node = node->children[0].get();
  EXPECT_EQ(node->agg_strategy, AggStrategy::kCacheA);
  EXPECT_EQ(node->cache_size, 8);
}

TEST_F(PlannerChoiceTest, HugeWindowFallsBackToNaive) {
  OptimizerOptions options;
  options.cost_params.max_cached_scope = 4;
  Optimizer optimizer(engine_.catalog(), options);
  Query q;
  q.graph = SeqRef("dense").Agg(AggFunc::kSum, "w", 100).Build();
  auto plan = optimizer.Optimize(q);
  ASSERT_TRUE(plan.ok());
  const PhysNode* node = plan->root.get();
  while (node->op != OpKind::kWindowAgg) node = node->children[0].get();
  EXPECT_EQ(node->agg_strategy, AggStrategy::kNaiveProbe);
}

TEST_F(PlannerChoiceTest, ValueOffsetStreamUsesCacheB) {
  Query q;
  q.graph = SeqRef("sparse").Prev().Build();
  q.range = Span::Of(0, 99999);
  auto plan = engine_.Plan(q);
  ASSERT_TRUE(plan.ok());
  const PhysNode* node = plan->root.get();
  while (node->op != OpKind::kValueOffset) node = node->children[0].get();
  EXPECT_EQ(node->offset_strategy, OffsetStrategy::kIncrementalCacheB);
  EXPECT_EQ(node->cache_size, 1);
}

// Counts the Project nodes of a plan; with `order_preserving` only those
// that keep their input's field order (pure renames).
int CountProjects(const PhysNode& node, bool order_preserving) {
  int n = 0;
  if (node.op == OpKind::kProject) {
    const Schema& in = *node.children[0]->out_schema;
    bool keeps_order = node.columns.size() == in.num_fields();
    for (size_t k = 0; keeps_order && k < node.columns.size(); ++k) {
      keeps_order = node.columns[k] == in.field(k).name;
    }
    if (!order_preserving || keeps_order) ++n;
  }
  for (const PhysNodePtr& child : node.children) {
    n += CountProjects(*child, order_preserving);
  }
  return n;
}

TEST_F(PlannerChoiceTest, ComposeBlocksCarryNoRenameProjects) {
  // The block-unique and output field names of a compose block live on
  // the joins' schemas: no planner-made Project renames fields in order.
  IntSeriesOptions dense2;
  dense2.span = Span::Of(0, 99999);
  dense2.density = 1.0;
  dense2.seed = 9;
  dense2.column = "u";
  ASSERT_TRUE(engine_.RegisterBase("dense2", *MakeIntSeries(dense2)).ok());
  const std::vector<LogicalOpPtr> graphs = {
      SeqRef("dense").ComposeWith(SeqRef("dense2")).Build(),
      SeqRef("sparse").ComposeWith(SeqRef("dense")).Build(),
      SeqRef("dense").ComposeWith(SeqRef("sparse").Prev()).Build(),
      SeqRef("dense")
          .ComposeWith(SeqRef("dense2"), Gt(Col("w", 0), Col("u", 1)))
          .Build(),
      SeqRef("dense")
          .ComposeWith(SeqRef("dense").Offset(-1))
          .Select(Gt(Col("w"), Col("w_r")))
          .Build(),
      SeqRef("sparse")
          .ComposeWith(SeqRef("dense"))
          .ComposeWith(SeqRef("dense2"))
          .Agg(AggFunc::kSum, "u", 4)
          .Build(),
  };
  for (const LogicalOpPtr& graph : graphs) {
    for (bool probed : {false, true}) {
      engine_.options().force_root_mode =
          probed ? std::optional<AccessMode>(AccessMode::kProbed)
                 : std::nullopt;
      Query q;
      q.graph = graph;
      auto plan = engine_.Plan(q);
      ASSERT_TRUE(plan.ok()) << plan.status();
      EXPECT_EQ(CountProjects(*plan->root, /*order_preserving=*/true), 0)
          << plan->Explain();
      auto run = engine_.Run(q, RunOptions{});
      ASSERT_TRUE(run.ok()) << run.status() << "\n" << plan->Explain();
    }
  }
  engine_.options().force_root_mode = std::nullopt;
  // A two-input block keeps its fields in order, so it needs no Project.
  Query pair;
  pair.graph = SeqRef("dense").ComposeWith(SeqRef("dense2")).Build();
  auto plan = engine_.Plan(pair);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(CountProjects(*plan->root, /*order_preserving=*/false), 0);
  // A user-written rename keeps its operator.
  Query renamed;
  renamed.graph = SeqRef("dense")
                      .Project({"w"}, {"w2"})
                      .ComposeWith(SeqRef("dense2"))
                      .Build();
  plan = engine_.Plan(renamed);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(CountProjects(*plan->root, /*order_preserving=*/false), 1)
      << plan->Explain();
}

// --- Property 4.1: enumeration counts ------------------------------------------

class Prop41Test : public ::testing::TestWithParam<int> {};

TEST_P(Prop41Test, PlansConsideredMatchesFormula) {
  int n = GetParam();
  Engine engine;
  for (int i = 0; i < n; ++i) {
    IntSeriesOptions options;
    options.span = Span::Of(0, 999);
    options.density = 0.2 + 0.1 * (i % 5);
    options.seed = 100 + i;
    options.column = "c" + std::to_string(i);
    ASSERT_TRUE(engine
                    .RegisterBase("s" + std::to_string(i),
                                  *MakeIntSeries(options))
                    .ok());
  }
  QueryBuilder q = SeqRef("s0");
  for (int i = 1; i < n; ++i) {
    q = q.ComposeWith(SeqRef("s" + std::to_string(i)));
  }
  Optimizer optimizer(engine.catalog());
  Query query;
  query.graph = q.Build();
  auto plan = optimizer.Optimize(query);
  ASSERT_TRUE(plan.ok()) << plan.status();
  // Property 4.1(a): number of join plans evaluated = N * 2^(N-1) ... the
  // left-deep expansions (S, x) with S any nonempty subset, x outside S,
  // equal sum_k C(N,k)(N-k) = N * 2^(N-1); subtracting the N singleton
  // "expansions from nothing" that the DP seeds directly gives N*2^(N-1)-N.
  int64_t expected = static_cast<int64_t>(n) * (1LL << (n - 1)) -
                     static_cast<int64_t>(n);
  EXPECT_EQ(optimizer.planner_stats().plans_considered, expected);
  // Property 4.1(b): retained plans bounded by the largest DP level,
  // C(N, ceil(N/2)).
  auto choose = [](int64_t nn, int64_t k) {
    double c = 1.0;
    for (int64_t i = 1; i <= k; ++i) {
      c *= static_cast<double>(nn - k + i) / static_cast<double>(i);
    }
    return static_cast<int64_t>(std::llround(c));
  };
  EXPECT_LE(optimizer.planner_stats().plans_retained_max,
            2 * choose(n, (n + 1) / 2));
  EXPECT_EQ(optimizer.planner_stats().largest_block, n);
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, Prop41Test,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8));

TEST(WideBlockTest, GreedyFallbackBeyondDpLimit) {
  // Blocks wider than Planner::kMaxDpItems are planned greedily in input
  // order instead of by exhaustive DP; the plan must still be correct.
  constexpr int kItems = Planner::kMaxDpItems + 2;
  Engine engine;
  for (int i = 0; i < kItems; ++i) {
    IntSeriesOptions options;
    options.span = Span::Of(0, 199);
    options.density = 1.0;
    options.seed = 500 + i;
    options.min_value = i * 10;
    options.max_value = i * 10 + 5;
    options.column = "c" + std::to_string(i);
    ASSERT_TRUE(engine
                    .RegisterBase("w" + std::to_string(i),
                                  *MakeIntSeries(options))
                    .ok());
  }
  QueryBuilder builder = SeqRef("w0");
  for (int i = 1; i < kItems; ++i) {
    builder = builder.ComposeWith(SeqRef("w" + std::to_string(i)));
  }
  Optimizer optimizer(engine.catalog());
  Query query;
  query.graph = builder.Build();
  auto plan = optimizer.Optimize(query);
  ASSERT_TRUE(plan.ok()) << plan.status();
  // Greedy: exactly N-1 pairwise joins considered, not N·2^{N-1}.
  EXPECT_EQ(optimizer.planner_stats().plans_considered, kItems - 1);
  EXPECT_EQ(optimizer.planner_stats().largest_block, kItems);

  Executor executor(engine.catalog());
  auto result = executor.Execute(*plan);
  ASSERT_TRUE(result.ok()) << result.status();
  // Density 1 everywhere: every position joins across all items.
  EXPECT_EQ(result->records.size(), 200u);
  EXPECT_EQ(result->schema->num_fields(), static_cast<size_t>(kItems));
  // Field order restored to the original compose order.
  EXPECT_EQ(result->schema->field(0).name, "c0");
  EXPECT_EQ(result->schema->field(kItems - 1).name,
            "c" + std::to_string(kItems - 1));
  // Values land in the right columns.
  const Record& first = result->records[0].rec;
  for (int i = 0; i < kItems; ++i) {
    EXPECT_GE(first[static_cast<size_t>(i)].int64(), i * 10);
    EXPECT_LE(first[static_cast<size_t>(i)].int64(), i * 10 + 5);
  }
}

}  // namespace
}  // namespace seq

namespace seq {
namespace {

TEST(JoinOrderQualityTest, DpNeverWorseThanGreedy) {
  // Densities spread over two orders of magnitude; the query lists the
  // densest input first (adversarial for left-deep greedy order).
  for (int n : {3, 4, 5, 6}) {
    auto build_engine = [&](int max_dp) {
      OptimizerOptions options;
      options.cost_params.max_dp_items = max_dp;
      Engine engine(options);
      for (int i = 0; i < n; ++i) {
        IntSeriesOptions o;
        o.span = Span::Of(1, 5000);
        o.density = std::max(1.0 / (1 << i), 0.002);
        o.seed = 900 + static_cast<uint64_t>(i);
        o.column = "c" + std::to_string(i);
        EXPECT_TRUE(engine
                        .RegisterBase("s" + std::to_string(i),
                                      *MakeIntSeries(o))
                        .ok());
      }
      return engine;
    };
    QueryBuilder builder = SeqRef("s0");
    for (int i = 1; i < n; ++i) {
      builder = builder.ComposeWith(SeqRef("s" + std::to_string(i)));
    }
    Query q;
    q.graph = builder.Build();

    Engine dp_engine = build_engine(16);
    Engine greedy_engine = build_engine(1);
    auto dp_plan = dp_engine.Plan(q);
    auto greedy_plan = greedy_engine.Plan(q);
    ASSERT_TRUE(dp_plan.ok());
    ASSERT_TRUE(greedy_plan.ok());
    EXPECT_LE(dp_plan->est_cost, greedy_plan->est_cost * 1.0001)
        << "n=" << n;

    // Both plans return identical answers.
    Executor dp_exec(dp_engine.catalog());
    Executor greedy_exec(greedy_engine.catalog());
    auto a = dp_exec.Execute(*dp_plan);
    auto b = greedy_exec.Execute(*greedy_plan);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->records.size(), b->records.size()) << "n=" << n;
    for (size_t i = 0; i < a->records.size(); ++i) {
      EXPECT_EQ(a->records[i].pos, b->records[i].pos);
      EXPECT_EQ(a->records[i].rec, b->records[i].rec);
    }
  }
}

}  // namespace
}  // namespace seq
