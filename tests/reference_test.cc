// Oracle tests: the optimizing engine's answers must equal the naive
// reference evaluator's position-by-position computation of the paper's
// model semantics, for randomized graphs and for targeted operator cases.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "tests/reference_eval.h"
#include "tests/test_util.h"

namespace seq {
namespace {

using seq::testing::ExpectSameRecords;
using seq::testing::FillSmallCatalog;
using seq::testing::RandomGraph;
using seq::testing::RandomGraphOptions;
using seq::testing::ReferenceEvaluator;

constexpr Span kSpan = Span::Of(0, 399);
// Horizon with slack so offsets shifted outside the span stay exact.
constexpr Span kHorizon = Span::Of(-60, 459);

// Byte-identical rows: morsel-parallel runs must reproduce serial answers
// exactly, doubles included.
void ExpectIdenticalRows(const QueryResult& a, const QueryResult& b,
                         const std::string& label) {
  ASSERT_EQ(a.records.size(), b.records.size()) << label;
  for (size_t i = 0; i < a.records.size(); ++i) {
    ASSERT_EQ(a.records[i].pos, b.records[i].pos) << label << " idx " << i;
    ASSERT_EQ(a.records[i].rec, b.records[i].rec)
        << label << " pos " << a.records[i].pos;
  }
}

void ExpectSameCounters(const AccessStats& a, const AccessStats& b,
                        const std::string& label) {
  EXPECT_EQ(a.stream_records, b.stream_records) << label;
  EXPECT_EQ(a.stream_pages, b.stream_pages) << label;
  EXPECT_EQ(a.probes, b.probes) << label;
  EXPECT_EQ(a.probe_pages, b.probe_pages) << label;
  EXPECT_EQ(a.cache_stores, b.cache_stores) << label;
  EXPECT_EQ(a.cache_hits, b.cache_hits) << label;
  EXPECT_EQ(a.predicate_evals, b.predicate_evals) << label;
  EXPECT_EQ(a.agg_steps, b.agg_steps) << label;
  EXPECT_EQ(a.records_output, b.records_output) << label;
}

class OracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OracleTest, EngineMatchesReferenceOnRandomGraphs) {
  uint64_t seed = GetParam();
  Engine engine;
  FillSmallCatalog(&engine.catalog(), seed);
  ReferenceEvaluator reference(&engine.catalog(), kHorizon);
  Rng rng(seed * 7919);
  RandomGraphOptions opts;
  opts.allow_overall_agg = false;

  for (int trial = 0; trial < 6; ++trial) {
    LogicalOpPtr graph =
        RandomGraph(engine.catalog(), &rng, 1 + trial % 3, opts);
    Span range = Span::Of(kSpan.start - 20, kSpan.end + 20);
    auto engine_result = engine.Run(graph, range);
    if (!engine_result.ok()) continue;  // degenerate random graph
    auto oracle = reference.Materialize(*graph, range);
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    const std::string label = "seed " + std::to_string(seed) + " trial " +
                              std::to_string(trial) + "\n" +
                              graph->ToTreeString();
    ExpectSameRecords(engine_result->records, *oracle, label);

    // Morsel parity: 4 workers over 32-position morsels must reproduce the
    // serial rows byte for byte and every integer counter, which puts a
    // morsel boundary between almost any two records of the random
    // compose and offset trees.
    Query query;
    query.graph = graph;
    query.range = range;
    RunOptions serial_opts;
    serial_opts.exec.parallelism = 1;
    AccessStats serial_stats;
    serial_opts.stats = &serial_stats;
    auto serial = engine.Run(query, serial_opts);
    ASSERT_TRUE(serial.ok()) << label << serial.status();
    RunOptions par_opts;
    par_opts.exec.use_batch = true;
    par_opts.exec.parallelism = 4;
    par_opts.exec.morsel_size = 32;
    AccessStats par_stats;
    par_opts.stats = &par_stats;
    auto par = engine.Run(query, par_opts);
    ASSERT_TRUE(par.ok()) << label << par.status();
    ExpectSameRecords(par->records, *oracle, label + " [parallel]");
    ExpectIdenticalRows(*serial, *par, label + " [parallel]");
    ExpectSameCounters(serial_stats, par_stats, label + " [parallel]");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleTest,
                         ::testing::Range<uint64_t>(1, 21));

// Targeted single-operator oracle checks over every aggregate function and
// several window sizes — cheap, exhaustive within the grid.
class AggOracleTest
    : public ::testing::TestWithParam<std::tuple<int, int64_t>> {};

TEST_P(AggOracleTest, WindowAggMatchesReference) {
  auto [func_idx, window] = GetParam();
  AggFunc func = static_cast<AggFunc>(func_idx);
  Engine engine;
  FillSmallCatalog(&engine.catalog(), 1234);
  ReferenceEvaluator reference(&engine.catalog(), kHorizon);

  auto graph =
      SeqRef("s1").Agg(func, "v", window).Build();  // s1: density 0.5
  auto engine_result = engine.Run(graph, kSpan);
  ASSERT_TRUE(engine_result.ok()) << engine_result.status();
  auto oracle = reference.Materialize(*graph, kSpan);
  ASSERT_TRUE(oracle.ok());
  ExpectSameRecords(engine_result->records, *oracle,
                    std::string(AggFuncName(func)) + " window " +
                        std::to_string(window));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AggOracleTest,
    ::testing::Combine(::testing::Range(0, 5),
                       ::testing::Values<int64_t>(1, 2, 5, 17)));

class OffsetOracleTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(OffsetOracleTest, ValueOffsetMatchesReference) {
  int64_t l = GetParam();
  Engine engine;
  FillSmallCatalog(&engine.catalog(), 777);
  ReferenceEvaluator reference(&engine.catalog(), kHorizon);
  auto graph = SeqRef("s2").ValueOffset(l).Build();  // s2: density 0.1
  auto engine_result = engine.Run(graph, kSpan);
  ASSERT_TRUE(engine_result.ok()) << engine_result.status();
  auto oracle = reference.Materialize(*graph, kSpan);
  ASSERT_TRUE(oracle.ok());
  ExpectSameRecords(engine_result->records, *oracle,
                    "value offset " + std::to_string(l));
}

INSTANTIATE_TEST_SUITE_P(Offsets, OffsetOracleTest,
                         ::testing::Values(-3, -2, -1, 1, 2, 3));

TEST(CollapseOracleTest, MatchesReference) {
  Engine engine;
  FillSmallCatalog(&engine.catalog(), 31);
  ReferenceEvaluator reference(&engine.catalog(), kHorizon);
  for (int64_t factor : {2, 7, 30}) {
    auto graph = SeqRef("s0").Collapse(factor, AggFunc::kSum, "v").Build();
    auto engine_result = engine.Run(graph);
    ASSERT_TRUE(engine_result.ok());
    Span collapsed = Span::Of(0, kSpan.end / factor);
    auto oracle = reference.Materialize(*graph, collapsed);
    ASSERT_TRUE(oracle.ok());
    ExpectSameRecords(engine_result->records, *oracle,
                      "collapse " + std::to_string(factor));
  }
}

TEST(ComposeOracleTest, JoinPredicateMatchesReference) {
  Engine engine;
  FillSmallCatalog(&engine.catalog(), 55);
  ReferenceEvaluator reference(&engine.catalog(), kHorizon);
  auto graph = SeqRef("s0")
                   .ComposeWith(SeqRef("s1"), Gt(Col("v", 0), Col("v", 1)))
                   .Build();
  auto engine_result = engine.Run(graph, kSpan);
  ASSERT_TRUE(engine_result.ok());
  auto oracle = reference.Materialize(*graph, kSpan);
  ASSERT_TRUE(oracle.ok());
  ExpectSameRecords(engine_result->records, *oracle, "compose-pred");
}

}  // namespace
}  // namespace seq
