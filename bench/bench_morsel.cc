// Morsel-driven parallel scaling. The acceptance chain scan -> select ->
// project -> trailing-window sum over ~108k records is driven serial and
// with 2/4/8 morsel workers through the per-query RunOptions API; rows and
// merged AccessStats must be identical at every width (checked once before
// timing), so the only thing that differs is wall time. The headline
// number is the speedup of 4 workers over serial on the materialized path.
// The paper's two join plans get the same treatment at 1/2/4 workers: a
// lock-step compose of two dense series feeding a 20-wide average, and the
// Fig. 1 query (volcanos composed with the previous earthquake).

#include <cstdint>
#include <functional>
#include <string>

#include "bench/bench_util.h"
#include "obs/query_registry.h"

namespace seq {
namespace {

constexpr Position kSpanEnd = 120000;  // ~108k records at density 0.9

void RegisterSeries(Engine* engine) {
  IntSeriesOptions options;
  options.span = Span::Of(1, kSpanEnd);
  options.density = 0.9;
  options.seed = 81;
  SEQ_CHECK(engine->RegisterBase("s", *MakeIntSeries(options)).ok());
  options.density = 1.0;
  options.seed = 82;
  SEQ_CHECK(engine->RegisterBase("s2", *MakeIntSeries(options)).ok());
  // Event densities of the engine benchmark's Fig. 1 workload.
  bench::RegisterWeatherCatalog(engine, kSpanEnd, /*dq=*/0.3, /*dv=*/0.1,
                                /*seed=*/83);
}

/// The acceptance-criteria chain: scan -> select -> project -> window agg.
Query ChainQuery() {
  Query q;
  q.graph = SeqRef("s")
                .Select(Gt(Col("value"), Lit(int64_t{50})))
                .Project({"value"})
                .Agg(AggFunc::kSum, "value", /*window=*/8, "sum")
                .Build();
  q.range = Span::Of(1, kSpanEnd);
  return q;
}

/// §3.3 Join-Strategy-B: the lock-step compose of two dense series feeding
/// a trailing average.
Query LockstepQuery() {
  Query q;
  q.graph = SeqRef("s")
                .ComposeWith(SeqRef("s2"))
                .Agg(AggFunc::kAvg, "value", /*window=*/20, "avg")
                .Build();
  q.range = Span::Of(1, kSpanEnd);
  return q;
}

/// Fig. 1: volcanos whose previous earthquake was stronger than 7.
Query Fig1Query() {
  Query q;
  q.graph = bench::VolcanoQuery();
  q.range = Span::Of(1, kSpanEnd);
  return q;
}

uint64_t FoldResult(const QueryResult& result) {
  uint64_t acc = 14695981039346656037ull;
  for (const PosRecord& pr : result.records) {
    acc = acc * 1099511628211ull + static_cast<uint64_t>(pr.pos);
    for (const Value& v : pr.rec) {
      acc = acc * 1099511628211ull + std::hash<std::string>{}(v.ToString());
    }
  }
  return acc;
}

/// One-time cross-check before timing: every worker width produces
/// byte-identical rows and merged integer counters equal to serial, and
/// the widths > 1 actually take the parallel path.
void CheckParity(Engine* engine, const Query& q) {
  RunOptions serial;
  serial.exec.use_batch = true;
  serial.exec.parallelism = 1;
  AccessStats serial_stats;
  serial.stats = &serial_stats;
  auto base = engine->Run(q, serial);
  SEQ_CHECK(base.ok());
  const uint64_t want = FoldResult(*base);

  for (int workers : {2, 4, 8}) {
    RunOptions par;
    par.exec.use_batch = true;
    par.exec.parallelism = workers;
    par.profile = true;
    AccessStats par_stats;
    par.stats = &par_stats;
    auto got = engine->Run(q, par);
    SEQ_CHECK(got.ok());
    SEQ_CHECK(FoldResult(*got) == want);
    SEQ_CHECK(par_stats.stream_records == serial_stats.stream_records);
    SEQ_CHECK(par_stats.stream_pages == serial_stats.stream_pages);
    SEQ_CHECK(par_stats.probes == serial_stats.probes);
    SEQ_CHECK(par_stats.probe_pages == serial_stats.probe_pages);
    SEQ_CHECK(par_stats.cache_stores == serial_stats.cache_stores);
    SEQ_CHECK(par_stats.cache_hits == serial_stats.cache_hits);
    SEQ_CHECK(par_stats.predicate_evals == serial_stats.predicate_evals);
    SEQ_CHECK(par_stats.agg_steps == serial_stats.agg_steps);
    SEQ_CHECK(par_stats.records_output == serial_stats.records_output);
    bool parallel = false;
    SEQ_CHECK(got->profile.has_value());
    for (const std::string& note : got->profile->notes) {
      if (note.find("parallel:") != std::string::npos) parallel = true;
    }
    SEQ_CHECK(parallel);
  }
}

void RunQuery(benchmark::State& state, const Query& q, int workers,
              bool telemetry = true) {
  // The registry kill switch turns off per-query registration and the
  // executor's live-progress publishing; comparing the TelemetryOff
  // variant against the plain 4-worker run bounds the overhead of the
  // always-on layer (docs/observability.md budgets it at a few percent).
  QueryRegistry::Global().set_enabled(telemetry);
  Engine engine;
  RegisterSeries(&engine);
  CheckParity(&engine, q);

  auto prepared = engine.Prepare(q);
  SEQ_CHECK(prepared.ok());
  RunOptions opts;
  opts.exec.use_batch = true;
  opts.exec.parallelism = workers;

  size_t rows = 0;
  for (auto _ : state) {
    auto result = prepared->Run(opts);
    SEQ_CHECK(result.ok());
    rows = result->records.size();
    benchmark::DoNotOptimize(result->records.data());
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["workers"] = static_cast<double>(workers);
  state.counters["rows_per_sec"] = benchmark::Counter(
      static_cast<double>(rows), benchmark::Counter::kIsIterationInvariantRate);
  QueryRegistry::Global().set_enabled(true);
}

// Real time is the headline (that is what parallelism buys); process CPU
// time is measured too so the worker threads' cycles are visible — without
// MeasureProcessCPUTime the CPU column would count only the coordinating
// thread, which mostly waits at the morsel barrier.
void RunChain(benchmark::State& state, int workers, bool telemetry = true) {
  RunQuery(state, ChainQuery(), workers, telemetry);
}

void BM_MorselChain_Serial(benchmark::State& state) { RunChain(state, 1); }
BENCHMARK(BM_MorselChain_Serial)->MeasureProcessCPUTime()->UseRealTime();

void BM_MorselChain_2Workers(benchmark::State& state) { RunChain(state, 2); }
BENCHMARK(BM_MorselChain_2Workers)->MeasureProcessCPUTime()->UseRealTime();

void BM_MorselChain_4Workers(benchmark::State& state) { RunChain(state, 4); }
BENCHMARK(BM_MorselChain_4Workers)->MeasureProcessCPUTime()->UseRealTime();

void BM_MorselChain_8Workers(benchmark::State& state) { RunChain(state, 8); }
BENCHMARK(BM_MorselChain_8Workers)->MeasureProcessCPUTime()->UseRealTime();

// Telemetry-overhead baseline: the same 4-worker chain with the query
// registry disabled. The delta against BM_MorselChain_4Workers is the
// per-query cost of the registry layer (registration, text normalization,
// live-progress atomics); the process-wide morsel counters stay on in
// both, as they do in production.
void BM_MorselChain_4Workers_TelemetryOff(benchmark::State& state) {
  RunChain(state, 4, /*telemetry=*/false);
}
BENCHMARK(BM_MorselChain_4Workers_TelemetryOff)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// The join plans at 1, 2 and 4 workers (the argument).
void BM_MorselLockstepWindow(benchmark::State& state) {
  RunQuery(state, LockstepQuery(), static_cast<int>(state.range(0)));
}
BENCHMARK(BM_MorselLockstepWindow)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void BM_MorselFig1(benchmark::State& state) {
  RunQuery(state, Fig1Query(), static_cast<int>(state.range(0)));
}
BENCHMARK(BM_MorselFig1)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace
}  // namespace seq

SEQ_BENCH_MAIN(morsel);
