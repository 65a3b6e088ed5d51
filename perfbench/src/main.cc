// seqbench: the engine benchmark.
//
//   seqbench --workload scan_local|compose_par4|serve_mixed --seed N
//            --seconds S --trace 0|1 [--trace-out FILE]
//
// Generates the workload's inputs from the seed, drives them through the
// Session API for S seconds, checks the answers, and prints every metric
// by name and unit; the last line is one JSON object with the verdict and
// the metrics (end-to-end with --trace 0, per-layer with --trace 1).
// perfbench/WORKLOADS.md describes the workloads and metrics.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench_util.h"
#include "runner.h"

namespace seq::perfbench {

const std::vector<MetricName> kEndToEnd = {
    {"setup_s", "s"},
    {"throughput_qps", "1/s"},
    {"rows_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},
    {"peak_rss_mb", "MiB"},
};

const std::vector<MetricName> kPerLayer = {
    {"parser.parse_us", "us"},
    {"optimizer.optimize_us", "us"},
    {"optimizer.plans_enumerated", "count"},
    {"core.prepare_us", "us"},
    {"core.plan_cache.hit_ratio", "ratio"},
    {"core.plan_cache.evictions", "count"},
    {"core.plan_cache.invalidations", "count"},
    {"core.materialize_ms", "ms"},
    {"exec.execute_us", "us"},
    {"exec.ns_per_row", "ns"},
    {"exec.morsel.parallel_ratio", "ratio"},
    {"exec.sched.tasks", "count"},
    {"exec.sched.queued_total", "count"},
    {"exec.sched.peak_active_workers", "count"},
    {"exec.sched.queue_wait_us", "us"},
    {"storage.stream_pages", "count"},
    {"storage.stream_records", "count"},
    {"storage.probes", "count"},
    {"storage.probe_pages", "count"},
    {"exec.cache_hits", "count"},
    {"exec.cache_stores", "count"},
    {"exec.predicate_evals", "count"},
    {"exec.agg_steps", "count"},
    {"net.encode_ns_per_row", "ns"},
    {"net.decode_ns_per_row", "ns"},
    {"net.roundtrip_floor_us", "us"},
    {"net.remote_overhead_us", "us"},
    {"net.remote_p50_ms", "ms"},
    {"net.remote_p90_ms", "ms"},
    {"net.bytes_per_row", "bytes"},
    {"net.frames_per_request", "count"},
    {"workload.generate_s", "s"},
    {"storage.register_s", "s"},
    {"net.server_start_s", "s"},
    {"workload.generator_lag_ms", "ms"},
    {"trace.request_us", "us"},
    {"trace.remainder_us", "us"},
    {"trace.facade_us", "us"},
    {"trace.overhead_pct", "%"},
};

void Outcome::Fail(const std::string& why) {
  ++failed;
  correct = false;
  if (failed <= 10) std::cerr << "seqbench: FAILED: " << why << "\n";
}

namespace {

int Usage(const char* msg) {
  std::cerr << "seqbench: " << msg
            << "\nusage: seqbench --workload scan_local|compose_par4|"
               "serve_mixed --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n";
  return 2;
}

std::string JsonMetrics(const std::vector<MetricName>& names,
                        const std::map<std::string, double>& values) {
  std::string json;
  for (const MetricName& m : names) {
    auto it = values.find(m.name);
    const double v = it == values.end() ? 0.0 : it->second;
    std::printf("metric %-32s %14s %s\n", m.name, Num(v).c_str(), m.unit);
    if (!json.empty()) json += ", ";
    json += "\"" + std::string(m.name) + "\": {\"value\": " + Num(v) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  return json;
}

}  // namespace

}  // namespace seq::perfbench

int main(int argc, char** argv) {
  using namespace seq::perfbench;
  Options opt;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    if (arg == "--workload") {
      opt.workload = val;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(val.c_str());
      have_seconds = opt.seconds > 0;
    } else if (arg == "--trace") {
      opt.trace = val == "1";
      have_trace = val == "0" || val == "1";
    } else if (arg == "--trace-out") {
      opt.trace_out = val;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds > 0 and --trace 0|1 are required");
  }
  Outcome out;
  WorkloadSpec spec;
  if (!LookupWorkload(opt.workload, opt.seed, &spec)) {
    return Usage(("unknown workload '" + opt.workload + "'").c_str());
  }
  RunWorkload(opt, &out);

  std::printf("workload %s seed %llu, %s run of %s s\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed),
              opt.trace ? "traced" : "untraced", Num(opt.seconds).c_str());
  for (const std::string& note : out.notes) std::printf("%s\n", note.c_str());
  // failed_ratio is 0 on a correct build, so it travels as
  // `attempted`/`failed` in the result line rather than as a metric; the
  // generator's lag describes the load generator, not the engine, and is
  // too sensitive to other tenants for a bound, so it is a per-layer
  // metric that every run also prints.
  std::printf("correctness: %lld attempted, %lld failed\n",
              static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed));
  std::printf("metric %-32s %14s %s\n", "failed_ratio",
              Num(out.attempted > 0 ? static_cast<double>(out.failed) /
                                          static_cast<double>(out.attempted)
                                    : 0.0)
                  .c_str(),
              "ratio");
  if (!opt.trace) {
    std::printf("metric %-32s %14s %s\n", "workload.generator_lag_ms",
                Num(out.layer["workload.generator_lag_ms"]).c_str(), "ms");
  }
  // Untraced runs report the end-to-end metrics, traced runs the
  // per-layer ones.
  const std::string json =
      opt.trace ? JsonMetrics(kPerLayer, out.layer) : JsonMetrics(kEndToEnd, out.e2e);
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      out.correct ? "true" : "false", static_cast<long long>(out.attempted),
      static_cast<long long>(out.failed), json.c_str());
  std::fflush(stdout);
  return 0;
}
