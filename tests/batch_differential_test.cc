// Differential test for the two execution paths: every query shape the
// exec/engine suites exercise is run tuple-at-a-time and batch-at-a-time
// and must produce identical rows and identical AccessStats. The int64
// counters must match exactly; simulated_cost is a double accumulated in a
// different order between the paths, so it is compared to a tight relative
// tolerance instead of bit equality.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "exec/checkpoint.h"
#include "exec/offset_ops.h"
#include "exec/scan_ops.h"
#include "workload/generators.h"

namespace seq {
namespace {

void ExpectSameStats(const AccessStats& tuple, const AccessStats& batch,
                     const std::string& label) {
  EXPECT_EQ(tuple.stream_records, batch.stream_records) << label;
  EXPECT_EQ(tuple.stream_pages, batch.stream_pages) << label;
  EXPECT_EQ(tuple.probes, batch.probes) << label;
  EXPECT_EQ(tuple.probe_pages, batch.probe_pages) << label;
  EXPECT_EQ(tuple.cache_stores, batch.cache_stores) << label;
  EXPECT_EQ(tuple.cache_hits, batch.cache_hits) << label;
  EXPECT_EQ(tuple.predicate_evals, batch.predicate_evals) << label;
  EXPECT_EQ(tuple.agg_steps, batch.agg_steps) << label;
  EXPECT_EQ(tuple.records_output, batch.records_output) << label;
  // Same charges in a different summation order: ulp-level drift only.
  EXPECT_NEAR(tuple.simulated_cost, batch.simulated_cost,
              1e-9 * (1.0 + std::abs(tuple.simulated_cost)))
      << label;
}

void ExpectSameRows(const QueryResult& tuple, const QueryResult& batch,
                    const std::string& label) {
  ASSERT_EQ(tuple.records.size(), batch.records.size()) << label;
  for (size_t i = 0; i < tuple.records.size(); ++i) {
    EXPECT_EQ(tuple.records[i].pos, batch.records[i].pos)
        << label << " row " << i;
    ASSERT_EQ(tuple.records[i].rec.size(), batch.records[i].rec.size())
        << label << " row " << i;
    for (size_t j = 0; j < tuple.records[i].rec.size(); ++j) {
      EXPECT_EQ(tuple.records[i].rec[j], batch.records[i].rec[j])
          << label << " row " << i << " col " << j;
    }
  }
}

/// Streams `query` through PreparedQuery::Run with a RunOptions sink under
/// the requested driving mode, copying each visited row (sink-held
/// references are only valid during the callback).
QueryResult VisitRows(Engine& engine, const Query& query, bool use_batch,
                      AccessStats* stats, const std::string& label) {
  auto prepared = engine.Prepare(query);
  EXPECT_TRUE(prepared.ok()) << label;
  QueryResult out;
  if (!prepared.ok()) return out;
  RunOptions opts;
  opts.exec.use_batch = use_batch;
  opts.sink = [&out](Position p, const Record& rec) {
    out.records.push_back(PosRecord{p, rec});
  };
  opts.stats = stats;
  auto run = prepared->Run(opts);
  EXPECT_TRUE(run.ok()) << label << ": " << run.status().ToString();
  return out;
}

/// Runs `query` through every path — tuple, batch, profiled, streamed, and
/// morsel-parallel at 2 and 4 workers — and asserts identical rows and
/// stats everywhere. Every mode is expressed as a per-query RunOptions;
/// nothing mutates engine-wide state.
void RunBoth(Engine& engine, const Query& query, const std::string& label) {
  RunOptions tuple_opts;
  tuple_opts.exec.use_batch = false;
  AccessStats tuple_stats;
  tuple_opts.stats = &tuple_stats;
  auto tuple = engine.Run(query, tuple_opts);
  ASSERT_TRUE(tuple.ok()) << label << ": " << tuple.status().ToString();

  RunOptions batch_opts;
  batch_opts.exec.use_batch = true;
  AccessStats batch_stats;
  batch_opts.stats = &batch_stats;
  auto batch = engine.Run(query, batch_opts);
  ASSERT_TRUE(batch.ok()) << label << ": " << batch.status().ToString();

  ExpectSameRows(*tuple, *batch, label);
  ExpectSameStats(tuple_stats, batch_stats, label);

  // The profiled executor must batch through its wrappers too.
  RunOptions prof_opts;
  prof_opts.exec.use_batch = true;
  prof_opts.profile = true;
  AccessStats prof_stats;
  prof_opts.stats = &prof_stats;
  auto profiled = engine.Run(query, prof_opts);
  ASSERT_TRUE(profiled.ok()) << label << ": " << profiled.status().ToString();
  ASSERT_TRUE(profiled->profile.has_value()) << label;
  ExpectSameRows(*tuple, *profiled, label + " [profiled]");
  ExpectSameStats(tuple_stats, prof_stats, label + " [profiled]");

  // Streaming consumption must visit exactly the materialized rows, with
  // the same charges, in both driving modes.
  AccessStats tv_stats;
  QueryResult tv = VisitRows(engine, query, /*use_batch=*/false, &tv_stats,
                             label + " [visit t]");
  ExpectSameRows(*tuple, tv, label + " [visit tuple]");
  ExpectSameStats(tuple_stats, tv_stats, label + " [visit tuple]");

  AccessStats bv_stats;
  QueryResult bv = VisitRows(engine, query, /*use_batch=*/true, &bv_stats,
                             label + " [visit b]");
  ExpectSameRows(*tuple, bv, label + " [visit batch]");
  ExpectSameStats(tuple_stats, bv_stats, label + " [visit batch]");

  // Morsel parity sweep: the same query split into small forced morsels at
  // 2 and 4 workers must produce byte-identical rows and merged AccessStats
  // equal to the serial counters. Plans whose operators cannot partition
  // fall back to serial inside the executor — still a parity check, just a
  // trivial one.
  for (int workers : {2, 4}) {
    RunOptions par_opts;
    par_opts.exec.use_batch = true;
    par_opts.exec.parallelism = workers;
    par_opts.exec.morsel_size = 256;
    AccessStats par_stats;
    par_opts.stats = &par_stats;
    auto par = engine.Run(query, par_opts);
    const std::string plabel =
        label + " [parallel x" + std::to_string(workers) + "]";
    ASSERT_TRUE(par.ok()) << plabel << ": " << par.status().ToString();
    ExpectSameRows(*tuple, *par, plabel);
    ExpectSameStats(tuple_stats, par_stats, plabel);
  }
}

void RunBoth(Engine& engine, const QueryBuilder& builder,
             std::optional<Span> range, const std::string& label) {
  Query query;
  query.graph = builder.Build();
  query.range = range;
  RunBoth(engine, query, label);
}

class BatchDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    IntSeriesOptions dense;
    dense.span = Span::Of(1, 4000);
    dense.density = 0.9;
    dense.seed = 17;
    ASSERT_TRUE(engine_.RegisterBase("s", *MakeIntSeries(dense)).ok());

    IntSeriesOptions sparse;
    sparse.span = Span::Of(1, 4000);
    sparse.density = 0.15;
    sparse.seed = 23;
    ASSERT_TRUE(engine_.RegisterBase("sp", *MakeIntSeries(sparse)).ok());

    // Unclustered store: per-record page charges exercise the scan's page
    // accounting on the other branch.
    IntSeriesOptions uncl;
    uncl.span = Span::Of(1, 500);
    uncl.density = 0.8;
    uncl.seed = 29;
    uncl.costs.clustered = false;
    ASSERT_TRUE(engine_.RegisterBase("u", *MakeIntSeries(uncl)).ok());

    StockSeriesOptions stocks;
    stocks.span = Span::Of(1, 2000);
    stocks.density = 0.95;
    stocks.seed = 31;
    ASSERT_TRUE(engine_.RegisterBase("ibm", *MakeStockSeries(stocks)).ok());

    // String-bearing sequences: record movement must not slice or copy
    // payloads differently between the paths.
    EventSeriesOptions eq;
    eq.span = Span::Of(1, 3000);
    eq.density = 0.05;
    eq.seed = 37;
    ASSERT_TRUE(engine_.RegisterBase("quakes", *MakeEarthquakes(eq)).ok());
    EventSeriesOptions vo;
    vo.span = Span::Of(1, 3000);
    vo.density = 0.03;
    vo.seed = 41;
    ASSERT_TRUE(engine_.RegisterBase("volcanos", *MakeVolcanos(vo)).ok());
  }

  Engine engine_;
};

TEST_F(BatchDifferentialTest, ScanSelectProject) {
  RunBoth(engine_, SeqRef("s"), std::nullopt, "plain scan");
  RunBoth(engine_, SeqRef("s").Select(Gt(Col("value"), Lit(int64_t{500}))),
          std::nullopt, "select");
  RunBoth(engine_,
          SeqRef("ibm")
              .Select(Gt(Col("close"), Col("open")))
              .Project({"close", "volume"}),
          std::nullopt, "select+project");
  RunBoth(engine_,
          SeqRef("s").Select(And(Gt(Col("value"), Lit(int64_t{100})),
                                 Lt(Col("value"), Lit(int64_t{900})))),
          std::nullopt, "conjunctive select");
  RunBoth(engine_,
          SeqRef("s").Select(
              Eq(Sub(Col("value"), Mul(Div(Col("value"), Lit(int64_t{7})),
                                       Lit(int64_t{7}))),
                 Lit(int64_t{3}))),
          std::nullopt, "arithmetic select");
}

TEST_F(BatchDifferentialTest, ClippedRangesAndSparseInputs) {
  RunBoth(engine_, SeqRef("s"), Span::Of(100, 300), "clipped scan");
  RunBoth(engine_, SeqRef("sp").Select(Gt(Col("value"), Lit(int64_t{200}))),
          Span::Of(50, 3500), "sparse select");
  RunBoth(engine_, SeqRef("u").Project({"value"}), std::nullopt,
          "unclustered scan");
  RunBoth(engine_, SeqRef("s"), Span::Of(3999, 4000), "tail sliver");
}

TEST_F(BatchDifferentialTest, Offsets) {
  RunBoth(engine_, SeqRef("s").Offset(-3), std::nullopt, "pos offset back");
  RunBoth(engine_, SeqRef("s").Offset(5), Span::Of(1, 3000),
          "pos offset fwd");
  RunBoth(engine_, SeqRef("sp").Prev(), std::nullopt, "previous");
  RunBoth(engine_, SeqRef("sp").Next(), std::nullopt, "next");
  RunBoth(engine_, SeqRef("sp").ValueOffset(-3), std::nullopt,
          "third previous");
  RunBoth(engine_, SeqRef("sp").ValueOffset(2), Span::Of(10, 3900),
          "second next");
}

TEST_F(BatchDifferentialTest, Aggregates) {
  RunBoth(engine_, SeqRef("s").Agg(AggFunc::kSum, "value", 7), std::nullopt,
          "window sum");
  RunBoth(engine_, SeqRef("sp").Agg(AggFunc::kMax, "value", 20),
          std::nullopt, "sparse window max");
  RunBoth(engine_, SeqRef("s").Agg(AggFunc::kAvg, "value", 5),
          Span::Of(500, 1500), "window avg clipped");
  RunBoth(engine_, SeqRef("s").RunningAgg(AggFunc::kCount, "value"),
          std::nullopt, "running count");
  RunBoth(engine_, SeqRef("sp").RunningAgg(AggFunc::kMin, "value"),
          std::nullopt, "sparse running min");
  RunBoth(engine_, SeqRef("s").OverallAgg(AggFunc::kSum, "value"),
          Span::Of(1, 4000), "overall sum");
  // Double windows: the morsel carry-in must rebuild the serial window
  // state bit for bit, not merely to within rounding.
  RunBoth(engine_,
          SeqRef("ibm")
              .Select(Gt(Col("close"), Lit(1.0)))
              .Agg(AggFunc::kAvg, "close", 20),
          std::nullopt, "stock close avg");
  RunBoth(engine_, SeqRef("ibm").Agg(AggFunc::kSum, "close", 7),
          std::nullopt, "stock close sum");
}

TEST_F(BatchDifferentialTest, ComposeVariants) {
  RunBoth(engine_, SeqRef("volcanos").ComposeWith(SeqRef("quakes").Prev()),
          std::nullopt, "volcano join");
  RunBoth(engine_,
          SeqRef("volcanos")
              .ComposeWith(SeqRef("quakes").Prev())
              .Select(Gt(Col("strength"), Lit(7.0)))
              .Project({"name"}),
          std::nullopt, "fig1 query");
  RunBoth(engine_,
          SeqRef("s").ComposeWith(SeqRef("sp"),
                                  Gt(Col("value", 0), Col("value", 1))),
          std::nullopt, "predicated compose");
  RunBoth(engine_,
          SeqRef("quakes").ComposeWith(SeqRef("volcanos")), std::nullopt,
          "event intersect");
  RunBoth(engine_,
          SeqRef("ibm").ComposeWith(SeqRef("s")).Agg(AggFunc::kAvg, "close",
                                                     20),
          std::nullopt, "lock-step compose into a window");
  RunBoth(engine_,
          SeqRef("sp").ComposeWith(SeqRef("s").Select(
              Gt(Col("value"), Lit(int64_t{800})))),
          std::nullopt, "sparse lock-step pair");
}

TEST_F(BatchDifferentialTest, JoinStopOnAMorselEdge) {
  // A join stops pulling one input early: a lock-step merge ends with its
  // shorter input, a stream-probe compose probes no more once its driver
  // ends. The value offset or window on the other side has read one record
  // ahead by then. `short_side` keeps only records of "u" before position
  // 400 (whose values beat every later one), and the range makes the first
  // 256-position morsel end on its last record, so that read-ahead lands
  // in the next morsel.
  auto u = engine_.Run(SeqRef("u"), std::nullopt);
  ASSERT_TRUE(u.ok()) << u.status().ToString();
  int64_t tail_max = 0;
  for (const PosRecord& r : u->records) {
    if (r.pos > 400) tail_max = std::max(tail_max, r.rec[0].int64());
  }
  auto short_side = [&] {
    return SeqRef("u").Select(Gt(Col("value"), Lit(tail_max)));
  };
  auto head = engine_.Run(short_side(), std::nullopt);
  ASSERT_TRUE(head.ok()) << head.status().ToString();
  ASSERT_FALSE(head->records.empty());
  const Position last = head->records.back().pos;
  ASSERT_LT(last, 400);
  // A whole number of morsels, so they are exactly 256 positions long.
  const Span range = Span::Of(last - 255, last + 256 * 10);
  RunBoth(engine_, short_side().ComposeWith(SeqRef("quakes").Prev()), range,
          "short driver, probed previous quake");
  RunBoth(engine_, SeqRef("quakes").Prev().ComposeWith(short_side()), range,
          "previous quake, short other input");
  RunBoth(engine_,
          SeqRef("ibm").Agg(AggFunc::kAvg, "close", 5).ComposeWith(
              short_side()),
          range, "window, short lock-step input");
}

TEST_F(BatchDifferentialTest, CollapseExpandAndChains) {
  RunBoth(engine_, SeqRef("s").Collapse(7, AggFunc::kSum, "value"),
          std::nullopt, "collapse");
  RunBoth(engine_, SeqRef("s").Collapse(5, AggFunc::kAvg, "value").Expand(5),
          std::nullopt, "collapse+expand");
  RunBoth(engine_,
          SeqRef("s")
              .Agg(AggFunc::kSum, "value", 3, "sum")
              .Offset(-2)
              .Agg(AggFunc::kSum, "sum", 3, "sum")
              .Offset(-2),
          std::nullopt, "fig2 chain");
  RunBoth(engine_,
          SeqRef("s")
              .Select(Gt(Col("value"), Lit(int64_t{50})))
              .Agg(AggFunc::kAvg, "value", 10, "avg")
              .Select(Gt(Col("avg"), Lit(int64_t{400})))
              .Project({"avg"}),
          std::nullopt, "select-agg-select");
  RunBoth(engine_,
          SeqRef("ibm")
              .Agg(AggFunc::kAvg, "close", 21, "ma21")
              .ComposeWith(SeqRef("ibm").Agg(AggFunc::kAvg, "close", 5,
                                             "ma5")),
          std::nullopt, "moving-average cross");
}

TEST_F(BatchDifferentialTest, PointQueries) {
  // Point-position queries: a probed root is driven through ProbeBatch in
  // chunks of the requested positions; a stream root falls back to the
  // tuple skip-scan in both settings.
  Query query;
  query.graph = SeqRef("s").Agg(AggFunc::kSum, "value", 5).Build();
  query.positions = {10, 57, 58, 900, 3999};
  RunBoth(engine_, query, "point positions");
}

TEST_F(BatchDifferentialTest, ProbedRootPlans) {
  // Force a probed root: batch driving then goes through ProbeBatch
  // instead of NextBatch, and the probe sets — and therefore every
  // AccessStats counter — must match the tuple Probe loop exactly.
  engine_.options().force_root_mode = AccessMode::kProbed;
  RunBoth(engine_, SeqRef("s").Select(Gt(Col("value"), Lit(int64_t{500}))),
          std::nullopt, "probed select");
  RunBoth(engine_, SeqRef("sp").Prev(), std::nullopt, "probed previous");
  RunBoth(engine_, SeqRef("sp").ValueOffset(2), Span::Of(10, 3900),
          "probed second next");
  RunBoth(engine_,
          SeqRef("s")
              .ValueOffset(-2)
              .Select(Gt(Col("value"), Lit(int64_t{100})))
              .Project({"value"}),
          std::nullopt, "probed offset chain");
  RunBoth(engine_, SeqRef("s").Agg(AggFunc::kSum, "value", 7), std::nullopt,
          "probed window sum");
  RunBoth(engine_, SeqRef("s").RunningAgg(AggFunc::kCount, "value"),
          std::nullopt, "probed running count");
  RunBoth(engine_, SeqRef("s").OverallAgg(AggFunc::kSum, "value"),
          Span::Of(1, 4000), "probed overall sum");
  RunBoth(engine_, SeqRef("s").Collapse(7, AggFunc::kSum, "value"),
          std::nullopt, "probed collapse");
  RunBoth(engine_, SeqRef("s").Collapse(5, AggFunc::kAvg, "value").Expand(5),
          std::nullopt, "probed collapse+expand");
  RunBoth(engine_, SeqRef("quakes").ComposeWith(SeqRef("volcanos")),
          std::nullopt, "probed event intersect");
  RunBoth(engine_,
          SeqRef("s").ComposeWith(SeqRef("sp"),
                                  Gt(Col("value", 0), Col("value", 1))),
          std::nullopt, "probed predicated compose");
}

TEST_F(BatchDifferentialTest, ProbedPointPositions) {
  // Probed root + explicit positions: the executor chunks the position
  // list itself through ProbeBatch.
  engine_.options().force_root_mode = AccessMode::kProbed;
  Query query;
  query.graph = SeqRef("s").Agg(AggFunc::kSum, "value", 5).Build();
  query.positions = {10, 57, 58, 900, 3999};
  RunBoth(engine_, query, "probed point positions");

  Query offsets;
  offsets.graph = SeqRef("sp").Prev().Build();
  offsets.positions = {1, 2, 3, 500, 501, 502, 3000};
  RunBoth(engine_, offsets, "probed point value offset");

  Query join;
  join.graph = SeqRef("quakes").ComposeWith(SeqRef("volcanos")).Build();
  join.positions = {5, 100, 101, 2500};
  RunBoth(engine_, join, "probed point compose");
}

TEST_F(BatchDifferentialTest, EmptyAndEdgeResults) {
  RunBoth(engine_, SeqRef("s").Select(Gt(Col("value"), Lit(int64_t{100000}))),
          std::nullopt, "selects nothing");
  RunBoth(engine_, SeqRef("sp"), Span::Of(3990, 4000), "nearly empty tail");
}

/// True when the run took the morsel-parallel path: the executor records
/// that decision as a "parallel:" profile note.
bool WentParallel(const QueryProfile& profile) {
  return std::any_of(profile.notes.begin(), profile.notes.end(),
                     [](const std::string& note) {
                       return note.find("parallel:") != std::string::npos;
                     });
}

TEST_F(BatchDifferentialTest, MorselDrivingActuallyGoesParallel) {
  // Guard against the sweep above silently degenerating: partitionable
  // plans with forced morsels — a selection, the lock-step compose, the
  // Fig. 1 query and a window over double closes — must take the parallel
  // path, and the decision must be visible in the profile notes.
  const std::vector<LogicalOpPtr> graphs = {
      SeqRef("s").Select(Gt(Col("value"), Lit(int64_t{100}))).Build(),
      SeqRef("s").ComposeWith(SeqRef("sp")).Build(),
      SeqRef("volcanos")
          .ComposeWith(SeqRef("quakes").Prev())
          .Select(Gt(Col("strength"), Lit(7.0)))
          .Project({"name"})
          .Build(),
      SeqRef("ibm")
          .Agg(AggFunc::kAvg, "close", 21, "ma21")
          .ComposeWith(SeqRef("ibm").Agg(AggFunc::kAvg, "close", 5, "ma5"))
          .Build(),
  };
  for (const LogicalOpPtr& graph : graphs) {
    Query query;
    query.graph = graph;
    RunOptions opts;
    opts.exec.use_batch = true;
    opts.exec.parallelism = 4;
    opts.exec.morsel_size = 256;
    opts.profile = true;
    auto run = engine_.Run(query, opts);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ASSERT_TRUE(run->profile.has_value());
    EXPECT_TRUE(WentParallel(*run->profile))
        << graph->ToTreeString()
        << "expected a 'parallel:' execution note, notes were: "
        << ::testing::PrintToString(run->profile->notes);
  }
}

/// Walks two profile trees in lock step: same shape, and per node the same
/// rows out and operator-cache hits and stores.
void ExpectSameProfileCounts(const OperatorProfile& serial,
                             const OperatorProfile& parallel,
                             const std::string& label) {
  const std::string node = label + " @ " + serial.label;
  EXPECT_EQ(serial.label, parallel.label) << node;
  EXPECT_EQ(serial.rows_out, parallel.rows_out) << node;
  EXPECT_EQ(serial.cache_hits, parallel.cache_hits) << node;
  EXPECT_EQ(serial.cache_stores, parallel.cache_stores) << node;
  ASSERT_EQ(serial.children.size(), parallel.children.size()) << node;
  for (size_t i = 0; i < serial.children.size(); ++i) {
    ExpectSameProfileCounts(*serial.children[i], *parallel.children[i],
                            label);
  }
}

TEST_F(BatchDifferentialTest, ParallelProfileMergeMatchesSerial) {
  // Each morsel profiles into its own scratch tree, and the barrier merges
  // those trees into the plan's skeleton in morsel order. The merged
  // per-operator counts must be the serial run's, node by node.
  StockSeriesOptions hp;
  hp.span = Span::Of(1, 2400);
  hp.density = 1.0;
  hp.seed = 43;
  ASSERT_TRUE(engine_.RegisterBase("hp", *MakeStockSeries(hp)).ok());
  const std::vector<std::pair<std::string, LogicalOpPtr>> graphs = {
      {"lock-step compose into a window",
       SeqRef("ibm")
           .ComposeWith(SeqRef("hp"))
           .Agg(AggFunc::kAvg, "close", 20)
           .Build()},
      {"fig1 query", SeqRef("volcanos")
                         .ComposeWith(SeqRef("quakes").Prev())
                         .Select(Gt(Col("strength"), Lit(7.0)))
                         .Project({"name"})
                         .Build()},
      {"selected lock-step input",
       SeqRef("ibm")
           .Select(Gt(Col("volume"), Lit(int64_t{50000})))
           .ComposeWith(SeqRef("hp"))
           .Build()},
      {"filtered window", SeqRef("ibm")
                              .Agg(AggFunc::kAvg, "close", 5, "ma5")
                              .Select(Gt(Col("ma5"), Lit(100.0)))
                              .Build()},
  };
  for (const auto& [name, graph] : graphs) {
    Query query;
    query.graph = graph;
    RunOptions serial_opts;
    serial_opts.exec.use_batch = true;
    serial_opts.profile = true;
    auto serial = engine_.Run(query, serial_opts);
    ASSERT_TRUE(serial.ok()) << name << ": " << serial.status().ToString();
    ASSERT_TRUE(serial->profile.has_value()) << name;
    for (size_t morsel_size : {size_t{0}, size_t{256}}) {
      RunOptions par_opts;
      par_opts.exec.use_batch = true;
      par_opts.profile = true;
      par_opts.exec.parallelism = 4;
      par_opts.exec.morsel_size = morsel_size;
      auto par = engine_.Run(query, par_opts);
      const std::string label =
          name + " [x4, morsel " + std::to_string(morsel_size) + "]";
      ASSERT_TRUE(par.ok()) << label << ": " << par.status().ToString();
      ASSERT_TRUE(par->profile.has_value()) << label;
      ExpectSameRows(*serial, *par, label);
      if (morsel_size > 0) {
        EXPECT_TRUE(WentParallel(*par->profile))
            << label << ": " << ::testing::PrintToString(par->profile->notes);
      }
      ExpectSameProfileCounts(*serial->profile->root, *par->profile->root,
                              label);
    }
  }
}

/// The further budget-trip configurations: sink runs at 1 and 4 workers
/// (sink runs stay serial), tuple driving, and checkpointed runs at 1 and
/// 4 workers. Each run of `query` under `guards` must match the serial
/// materialized result `serial`: the same ok-ness and status string, and
/// the same rows when nothing trips.
void ExpectTripParityEverywhere(Engine& engine, const Query& query,
                                const QueryGuards& guards,
                                const Result<QueryResult>& serial,
                                const std::string& label) {
  const std::string path = ::testing::TempDir() + "batch_diff_trip.ckpt";
  struct Config {
    std::string name;
    RunOptions opts;
  };
  std::vector<Config> configs;
  for (int workers : {1, 4}) {
    RunOptions sink;
    sink.exec.use_batch = true;
    sink.exec.parallelism = workers;
    sink.exec.morsel_size = 256;
    configs.push_back({"sink x" + std::to_string(workers), sink});
  }
  RunOptions tuple;
  tuple.exec.use_batch = false;
  tuple.exec.parallelism = 1;
  configs.push_back({"tuple", tuple});
  for (int workers : {1, 4}) {
    RunOptions ck;
    ck.exec.use_batch = true;
    ck.exec.parallelism = workers;
    ck.exec.morsel_size = 256;
    ck.exec.checkpoint.enabled = true;
    ck.exec.checkpoint.chunk = 512;
    ck.exec.checkpoint.path = path;
    configs.push_back({"checkpointed x" + std::to_string(workers), ck});
  }
  for (Config& config : configs) {
    const std::string clabel = label + " [" + config.name + "]";
    config.opts.exec.guards = guards;
    QueryResult visited;
    const bool is_sink = config.name.rfind("sink", 0) == 0;
    if (is_sink) {
      config.opts.sink = [&visited](Position p, const Record& rec) {
        visited.records.push_back(PosRecord{p, rec});
      };
    }
    auto run = engine.Run(query, config.opts);
    ASSERT_EQ(serial.ok(), run.ok())
        << clabel << ": " << run.status().ToString();
    if (!serial.ok()) {
      EXPECT_EQ(serial.status().ToString(), run.status().ToString()) << clabel;
    } else {
      ExpectSameRows(*serial, is_sink ? visited : *run, clabel);
    }
  }
  std::remove(path.c_str());
}

// Budget trips must fire at the same point — same ok-ness, same status
// message — whether the query runs serial or morsel-parallel. The sweep
// walks max_rows across the interesting boundary values around the true
// answer size for a stream root and a probed root.
TEST_F(BatchDifferentialTest, RowBudgetTripParity) {
  Query query;
  query.graph =
      SeqRef("s").Select(Gt(Col("value"), Lit(int64_t{200}))).Build();

  RunOptions serial_opts;
  serial_opts.exec.use_batch = true;
  auto full = engine_.Run(query, serial_opts);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  const size_t total = full->records.size();
  ASSERT_GT(total, 100u);

  const size_t budgets[] = {1, 10, total / 2, total - 1, total, total + 1};
  for (size_t budget : budgets) {
    RunOptions serial;
    serial.exec.use_batch = true;
    serial.exec.guards.max_rows = budget;
    auto sres = engine_.Run(query, serial);
    for (int workers : {2, 4}) {
      RunOptions par;
      par.exec.use_batch = true;
      par.exec.guards.max_rows = budget;
      par.exec.parallelism = workers;
      par.exec.morsel_size = 256;
      auto pres = engine_.Run(query, par);
      const std::string label = "max_rows=" + std::to_string(budget) +
                                " x" + std::to_string(workers);
      ASSERT_EQ(sres.ok(), pres.ok()) << label;
      if (!sres.ok()) {
        EXPECT_EQ(sres.status().ToString(), pres.status().ToString()) << label;
      } else {
        ExpectSameRows(*sres, *pres, label);
      }
    }
    ExpectTripParityEverywhere(engine_, query, serial.exec.guards, sres,
                               "max_rows=" + std::to_string(budget));
  }
}

TEST_F(BatchDifferentialTest, RowBudgetTripParityProbedRoot) {
  engine_.options().force_root_mode = AccessMode::kProbed;
  Query query;
  query.graph = SeqRef("s").Agg(AggFunc::kSum, "value", 7).Build();

  RunOptions serial_opts;
  serial_opts.exec.use_batch = true;
  auto full = engine_.Run(query, serial_opts);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  const size_t total = full->records.size();
  ASSERT_GT(total, 10u);

  for (size_t budget : {size_t{1}, total / 2, total, total + 1}) {
    RunOptions serial;
    serial.exec.use_batch = true;
    serial.exec.guards.max_rows = budget;
    auto sres = engine_.Run(query, serial);
    for (int workers : {2, 4}) {
      RunOptions par;
      par.exec.use_batch = true;
      par.exec.guards.max_rows = budget;
      par.exec.parallelism = workers;
      par.exec.morsel_size = 256;
      auto pres = engine_.Run(query, par);
      const std::string label = "probed max_rows=" + std::to_string(budget) +
                                " x" + std::to_string(workers);
      ASSERT_EQ(sres.ok(), pres.ok()) << label;
      if (!sres.ok()) {
        EXPECT_EQ(sres.status().ToString(), pres.status().ToString()) << label;
      } else {
        ExpectSameRows(*sres, *pres, label);
      }
    }
    ExpectTripParityEverywhere(engine_, query, serial.exec.guards, sres,
                               "probed max_rows=" + std::to_string(budget));
  }
}

// Suspend/resume differential: a checkpointed run suspended at every k-th
// chunk boundary and resumed to completion must reproduce the
// uninterrupted checkpointed run exactly — rows and AccessStats — across
// both driving modes, both root modes, and serial vs 4-worker execution.
// Each intermediate checkpoint travels through its file, so the restored
// prefix (rows, stats, operator carries) is what the parity checks see.
TEST_F(BatchDifferentialTest, SuspendResumeParitySweep) {
  const std::string path = ::testing::TempDir() + "batch_diff_suspend.ckpt";
  struct Shape {
    std::string name;
    LogicalOpPtr graph;
  };
  const std::vector<Shape> shapes = {
      {"window sum", SeqRef("s").Agg(AggFunc::kSum, "value", 7).Build()},
      {"stock select", SeqRef("ibm")
                           .Select(Gt(Col("close"), Col("open")))
                           .Project({"close", "volume"})
                           .Build()},
  };
  // Stream first, probed second: force_root_mode stays set once flipped.
  for (bool probed_root : {false, true}) {
    if (probed_root) {
      engine_.options().force_root_mode = AccessMode::kProbed;
    }
    for (const Shape& shape : shapes) {
      Query query;
      query.graph = shape.graph;
      query.range = Span::Of(1, 4000);
      for (bool use_batch : {true, false}) {
        for (int workers : {1, 4}) {
          RunOptions opts;
          opts.exec.use_batch = use_batch;
          opts.exec.parallelism = workers;
          if (workers > 1) opts.exec.morsel_size = 256;
          opts.exec.checkpoint.enabled = true;
          opts.exec.checkpoint.chunk = 512;
          opts.exec.checkpoint.path = path;
          const std::string ctx = shape.name +
                                  (use_batch ? " [batch" : " [tuple") +
                                  (probed_root ? ",probed" : ",stream") +
                                  ",x" + std::to_string(workers) + "]";

          AccessStats base_stats;
          RunOptions base_opts = opts;
          base_opts.stats = &base_stats;
          auto base = engine_.Run(query, base_opts);
          ASSERT_TRUE(base.ok()) << ctx << ": " << base.status().ToString();

          for (int64_t k : {1, 3}) {
            AccessStats stats;
            RunOptions chain = opts;
            chain.exec.checkpoint.suspend_every_chunks = k;
            chain.stats = &stats;
            auto r = engine_.Run(query, chain);
            int suspensions = 0;
            while (!r.ok() && IsQuerySuspended(r.status())) {
              ASSERT_LT(++suspensions, 100) << ctx;
              r = engine_.Resume(path, chain);
            }
            std::remove(path.c_str());
            const std::string label = ctx + " k=" + std::to_string(k);
            ASSERT_TRUE(r.ok()) << label << ": " << r.status().ToString();
            EXPECT_GE(suspensions, 1) << label;
            ExpectSameRows(*base, *r, label);
            ExpectSameStats(base_stats, stats, label);
          }
        }
      }
    }
  }
}

TEST_F(BatchDifferentialTest, PageBudgetTripParity) {
  Query query;
  query.graph = SeqRef("s").Project({"value"}).Build();

  RunOptions count_opts;
  count_opts.exec.use_batch = true;
  AccessStats stats;
  count_opts.stats = &stats;
  ASSERT_TRUE(engine_.Run(query, count_opts).ok());
  const int64_t pages = stats.stream_pages + stats.probe_pages;
  ASSERT_GT(pages, 4);

  for (int64_t budget : {pages / 2, pages, pages * 2}) {
    RunOptions serial;
    serial.exec.use_batch = true;
    serial.exec.guards.max_pages = budget;
    auto sres = engine_.Run(query, serial);
    for (int workers : {2, 4}) {
      RunOptions par;
      par.exec.use_batch = true;
      par.exec.guards.max_pages = budget;
      par.exec.parallelism = workers;
      par.exec.morsel_size = 256;
      auto pres = engine_.Run(query, par);
      const std::string label = "max_pages=" + std::to_string(budget) + " x" +
                                std::to_string(workers);
      ASSERT_EQ(sres.ok(), pres.ok()) << label;
      if (!sres.ok()) {
        EXPECT_EQ(sres.status().ToString(), pres.status().ToString()) << label;
      }
    }
    ExpectTripParityEverywhere(engine_, query, serial.exec.guards, sres,
                               "max_pages=" + std::to_string(budget));
  }

  // A page budget counts the run's own pages, not what earlier runs left
  // in a reused stats block: two runs sharing one AccessStats under a
  // budget of 1.5x one run's pages must both succeed, materialized or
  // through a sink, serial or at 4 workers.
  auto prepared = engine_.Prepare(query);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  for (bool sink : {false, true}) {
    for (int workers : {1, 4}) {
      RunOptions opts;
      opts.exec.use_batch = true;
      opts.exec.parallelism = workers;
      opts.exec.morsel_size = 256;
      opts.exec.guards.max_pages = pages * 3 / 2;
      AccessStats shared_stats;
      opts.stats = &shared_stats;
      int64_t rows = 0;
      if (sink) opts.sink = [&rows](Position, const Record&) { ++rows; };
      for (int run = 1; run <= 2; ++run) {
        const std::string label = std::string(sink ? "sink" : "materialized") +
                                  " x" + std::to_string(workers) + " run " +
                                  std::to_string(run);
        auto prepared_run = prepared->Run(opts);
        ASSERT_TRUE(prepared_run.ok())
            << label << ": " << prepared_run.status().ToString();
        auto engine_run = engine_.Run(query, opts);
        ASSERT_TRUE(engine_run.ok())
            << label << " [engine]: " << engine_run.status().ToString();
      }
      EXPECT_EQ(shared_stats.stream_pages + shared_stats.probe_pages,
                4 * pages)
          << (sink ? "sink" : "materialized") << " x" << workers;
      if (sink) {
        EXPECT_EQ(rows, 4 * static_cast<int64_t>(stats.records_output));
      }
    }
  }
}

/// Positional-join parity matrix: tuple driving is the baseline; batch
/// driving at capacities 1, 7 and 1024, 4 workers over automatic and
/// 32-position morsels, and checkpointed runs (serial and 4 workers, both
/// drivings) must reproduce its rows and every AccessStats counter.
void RunJoinMatrix(Engine& engine, const QueryBuilder& builder,
                   std::optional<Span> range, const std::string& label) {
  Query query;
  query.graph = builder.Build();
  query.range = range;
  RunOptions tuple_opts;
  tuple_opts.exec.use_batch = false;
  tuple_opts.exec.parallelism = 1;
  AccessStats tuple_stats;
  tuple_opts.stats = &tuple_stats;
  auto tuple = engine.Run(query, tuple_opts);
  ASSERT_TRUE(tuple.ok()) << label << ": " << tuple.status().ToString();

  struct Config {
    std::string name;
    RunOptions opts;
  };
  std::vector<Config> configs;
  for (size_t capacity : {size_t{1}, size_t{7}, size_t{1024}}) {
    RunOptions opts;
    opts.exec.use_batch = true;
    opts.exec.parallelism = 1;
    opts.exec.batch_capacity = capacity;
    configs.push_back({"batch cap " + std::to_string(capacity), opts});
  }
  for (size_t morsel : {size_t{0}, size_t{32}}) {
    RunOptions opts;
    opts.exec.use_batch = true;
    opts.exec.parallelism = 4;
    opts.exec.morsel_size = morsel;
    configs.push_back({"x4 morsel " + std::to_string(morsel), opts});
  }
  const std::string path = ::testing::TempDir() + "batch_diff_join.ckpt";
  for (bool use_batch : {true, false}) {
    for (int workers : {1, 4}) {
      RunOptions opts;
      opts.exec.use_batch = use_batch;
      opts.exec.parallelism = workers;
      if (workers > 1) opts.exec.morsel_size = 32;
      opts.exec.checkpoint.enabled = true;
      opts.exec.checkpoint.chunk = 96;
      opts.exec.checkpoint.path = path;
      configs.push_back({std::string("checkpointed ") +
                             (use_batch ? "batch" : "tuple") + " x" +
                             std::to_string(workers),
                         opts});
    }
  }
  for (Config& config : configs) {
    const std::string clabel = label + " [" + config.name + "]";
    AccessStats stats;
    config.opts.stats = &stats;
    auto run = engine.Run(query, config.opts);
    ASSERT_TRUE(run.ok()) << clabel << ": " << run.status().ToString();
    ExpectSameRows(*tuple, *run, clabel);
    ExpectSameStats(tuple_stats, stats, clabel);
  }
  std::remove(path.c_str());
}

/// Registers the lock-step fixtures: "a" dense over [1, 1000]; "early"
/// ending at 600; "late" starting at 200 and ending with "a"; "gappy" with
/// gaps of 2 to 5 positions; "none", declared over [1, 1000] but empty.
void RegisterJoinInputs(Engine& engine) {
  auto series = [&](const std::string& name, const std::string& column,
                    Span span, double density, uint64_t seed) {
    IntSeriesOptions o;
    o.span = span;
    o.density = density;
    o.seed = seed;
    o.column = column;
    ASSERT_TRUE(engine.RegisterBase(name, *MakeIntSeries(o)).ok()) << name;
  };
  series("a", "value", Span::Of(1, 1000), 1.0, 51);
  series("early", "e", Span::Of(1, 600), 0.9, 52);
  series("late", "l", Span::Of(200, 1000), 1.0, 53);
  SchemaPtr schema = Schema::Make({Field{"g", TypeId::kInt64}});
  std::vector<PosRecord> gappy;
  const int64_t steps[] = {3, 2, 4, 5};
  for (Position p = 1, k = 0; p <= 990; p += steps[k++ % 4]) {
    gappy.push_back(PosRecord{p, Record{Value::Int64(p * 7 % 1000)}});
  }
  auto g = BaseSequenceStore::FromRecords(schema, std::move(gappy));
  ASSERT_TRUE(g.ok());
  ASSERT_TRUE(engine.RegisterBase("gappy", *g).ok());
  auto none = BaseSequenceStore::FromRecords(
      Schema::Make({Field{"n", TypeId::kInt64}}), {});
  ASSERT_TRUE(none.ok());
  ASSERT_TRUE((*none)->DeclareSpan(Span::Of(1, 1000)).ok());
  ASSERT_TRUE(engine.RegisterBase("none", *none).ok());
}

TEST_F(BatchDifferentialTest, LockstepMergeParityMatrix) {
  RegisterJoinInputs(engine_);
  ASSERT_TRUE(engine_
                  .RegisterConstant("k", Schema::Make({Field{"k", TypeId::kInt64}}),
                                    Record{Value::Int64(5)})
                  .ok());
  RunJoinMatrix(engine_, SeqRef("a").ComposeWith(SeqRef("early")),
                std::nullopt, "right input ends early");
  RunJoinMatrix(engine_, SeqRef("early").ComposeWith(SeqRef("a")),
                std::nullopt, "left input ends early");
  RunJoinMatrix(engine_, SeqRef("a").ComposeWith(SeqRef("late")),
                std::nullopt, "equal last positions");
  RunJoinMatrix(engine_, SeqRef("a").ComposeWith(SeqRef("none")),
                std::nullopt, "empty input");
  RunJoinMatrix(engine_, SeqRef("gappy").ComposeWith(SeqRef("early")),
                std::nullopt, "gaps of two or more");
  RunJoinMatrix(engine_, SeqRef("s").ComposeWith(SeqRef("sp")),
                std::nullopt, "unequal densities");
  RunJoinMatrix(engine_,
                SeqRef("a").ComposeWith(SeqRef("gappy"),
                                        Gt(Col("value", 0), Col("g", 1))),
                std::nullopt, "join predicate");
  RunJoinMatrix(engine_,
                SeqRef("a").ComposeWith(SeqRef("gappy"),
                                        Gt(Col("g", 1), Lit(int64_t{500}))),
                std::nullopt, "one-sided predicate");
  RunJoinMatrix(engine_,
                SeqRef("ibm").ComposeWith(SeqRef("ibm").Offset(-1)),
                std::nullopt, "ibm with its previous position");
  RunJoinMatrix(engine_,
                SeqRef("a").Offset(3).ComposeWith(SeqRef("gappy").Offset(-2)),
                Span::Of(10, 900), "offset chains, clipped range");
  RunJoinMatrix(engine_,
                SeqRef("ibm").ComposeWith(SeqRef("s")).Agg(AggFunc::kAvg,
                                                           "close", 20),
                std::nullopt, "lock-step compose into a window");
  // Inputs whose seeks skip records stay on the tuple merge.
  RunJoinMatrix(engine_,
                SeqRef("a").ComposeWith(
                    SeqRef("s").Select(Gt(Col("value"), Lit(int64_t{300})))),
                std::nullopt, "select input");
  RunJoinMatrix(engine_, SeqRef("gappy").ComposeWith(SeqRef("early").Prev()),
                std::nullopt, "previous-record input");
  RunJoinMatrix(engine_, SeqRef("early").ComposeWith(ConstRef("k")),
                std::nullopt, "constant input");
}

/// The first node of a profile tree (depth first) whose label starts with
/// `prefix`, or null.
const OperatorProfile* FindProfile(const OperatorProfile& node,
                                   const std::string& prefix) {
  if (node.label.rfind(prefix, 0) == 0) return &node;
  for (const auto& child : node.children) {
    if (const OperatorProfile* hit = FindProfile(*child, prefix)) return hit;
  }
  return nullptr;
}

TEST_F(BatchDifferentialTest, ProbedCacheBParity) {
  // Value offsets as the probed side of a stream-probe compose: the probed
  // offset pulls its child in batches under batch driving.
  const std::vector<std::pair<std::string, QueryBuilder>> shapes = {
      {"previous quake", SeqRef("volcanos").ComposeWith(SeqRef("quakes").Prev())},
      {"third previous quake",
       SeqRef("volcanos").ComposeWith(SeqRef("quakes").ValueOffset(-3))},
      {"second next quake",
       SeqRef("volcanos").ComposeWith(SeqRef("quakes").ValueOffset(2))},
      {"fig1 query", SeqRef("volcanos")
                         .ComposeWith(SeqRef("quakes").Prev())
                         .Select(Gt(Col("strength"), Lit(7.0)))
                         .Project({"name"})},
  };
  for (const auto& [name, builder] : shapes) {
    Query query;
    query.graph = builder.Build();
    RunOptions opts;
    opts.exec.use_batch = true;
    opts.profile = true;
    auto run = engine_.Run(query, opts);
    ASSERT_TRUE(run.ok()) << name << ": " << run.status().ToString();
    ASSERT_TRUE(run->profile.has_value());
    const OperatorProfile* compose =
        FindProfile(*run->profile->root, "Compose [stream, A:");
    ASSERT_NE(compose, nullptr) << name << " is not a stream-probe compose";
    RunJoinMatrix(engine_, builder, std::nullopt, name);
  }
}

TEST_F(BatchDifferentialTest, RegressingProbeRewindsTheBatchCursor) {
  // A consumer that probes backwards makes the Cache-B offset restart its
  // child: Probe and ProbeBatch driving must read and answer the same.
  auto entry = engine_.catalog().Lookup("sp");
  ASSERT_TRUE(entry.ok());
  const BaseSequenceStore* store = (*entry)->store.get();
  const Span span = store->span();
  const std::vector<std::vector<Position>> batches = {
      {5, 40, 41, 300}, {120, 121, 900}, {900, 2500}, {30, 31}, {3999}};
  for (int64_t offset : {-1, -3, 2}) {
    auto make = [&] {
      return ValueOffsetOp(std::make_unique<BaseScan>(store, span), offset,
                           span);
    };
    AccessStats tuple_stats;
    ExecContext tuple_ctx;
    tuple_ctx.stats = &tuple_stats;
    ValueOffsetOp tuple_op = make();
    ASSERT_TRUE(tuple_op.Open(&tuple_ctx).ok());
    std::vector<PosRecord> tuple_rows;
    for (const auto& batch : batches) {
      for (Position p : batch) {
        std::optional<Record> r = tuple_op.Probe(p);
        if (r.has_value()) tuple_rows.push_back(PosRecord{p, *r});
      }
    }
    for (size_t capacity : {size_t{1024}, size_t{4}}) {
      const std::string label = "offset " + std::to_string(offset) +
                                " cap " + std::to_string(capacity);
      AccessStats batch_stats;
      ExecContext batch_ctx;
      batch_ctx.stats = &batch_stats;
      ValueOffsetOp batch_op = make();
      ASSERT_TRUE(batch_op.Open(&batch_ctx).ok());
      std::vector<PosRecord> batch_rows;
      RecordBatch out(capacity);
      for (const auto& batch : batches) {
        batch_op.ProbeBatch(batch, &out);
        for (size_t i = 0; i < out.size(); ++i) {
          batch_rows.push_back(PosRecord{out.pos(i), out.rec(i)});
        }
      }
      ASSERT_EQ(tuple_rows.size(), batch_rows.size()) << label;
      for (size_t i = 0; i < tuple_rows.size(); ++i) {
        EXPECT_EQ(tuple_rows[i].pos, batch_rows[i].pos) << label;
        EXPECT_EQ(tuple_rows[i].rec, batch_rows[i].rec) << label;
      }
      ExpectSameStats(tuple_stats, batch_stats, label);
      EXPECT_GT(batch_stats.stream_records, store->num_records()) << label;
    }
  }
}

TEST_F(BatchDifferentialTest, PositionalJoinsPullInputsInBatches) {
  // Under batch driving the lock-step merge's base-scan inputs and the
  // probed Cache-B offset's input are called once per batch, not once per
  // record.
  StockSeriesOptions hp;
  hp.span = Span::Of(1, 2400);
  hp.density = 1.0;
  hp.seed = 43;
  ASSERT_TRUE(engine_.RegisterBase("hp", *MakeStockSeries(hp)).ok());
  struct Case {
    std::string name;
    LogicalOpPtr graph;
    std::string parent;  // profile label prefix of the batched consumer
  };
  const std::vector<Case> cases = {
      {"lock-step", SeqRef("ibm").ComposeWith(SeqRef("hp")).Build(),
       "Compose [stream, B:"},
      {"lock-step into a window",
       SeqRef("ibm").ComposeWith(SeqRef("hp")).Agg(AggFunc::kAvg, "close", 20)
           .Build(),
       "Compose [stream, B:"},
      {"probed previous",
       SeqRef("volcanos").ComposeWith(SeqRef("quakes").Prev()).Build(),
       "ValueOffset [probed"},
  };
  for (const Case& c : cases) {
    for (size_t capacity : {size_t{64}, size_t{1024}}) {
      Query query;
      query.graph = c.graph;
      RunOptions opts;
      opts.exec.use_batch = true;
      opts.exec.parallelism = 1;
      opts.exec.batch_capacity = capacity;
      opts.profile = true;
      auto run = engine_.Run(query, opts);
      const std::string label = c.name + " cap " + std::to_string(capacity);
      ASSERT_TRUE(run.ok()) << label << ": " << run.status().ToString();
      ASSERT_TRUE(run->profile.has_value());
      const OperatorProfile* parent = FindProfile(*run->profile->root, c.parent);
      ASSERT_NE(parent, nullptr) << label;
      ASSERT_FALSE(parent->children.empty()) << label;
      for (const auto& child : parent->children) {
        const OperatorProfile* input = FindProfile(*child, "BaseRef [stream]");
        ASSERT_NE(input, nullptr) << label << ": " << child->label;
        const int64_t batches =
            input->rows_out / static_cast<int64_t>(capacity);
        EXPECT_GT(input->rows_out, 50) << label;
        EXPECT_LE(input->calls, 2 * batches + 4)
            << label << " @ " << input->label << " rows=" << input->rows_out;
      }
    }
  }
}

}  // namespace
}  // namespace seq
