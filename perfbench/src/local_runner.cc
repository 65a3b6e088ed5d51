// scan_local, compose_par4 and serve_mixed: one client in a closed loop on
// an in-process LocalSession.

#include <sched.h>

#include <cstdio>
#include <memory>
#include <optional>

#include "bench_util.h"
#include "core/session.h"
#include "exec/scheduler.h"
#include "layers.h"
#include "oracle.h"
#include "runner.h"
#include "workloads.h"

namespace seq::perfbench {

namespace {

constexpr int kSetups = 5;  // set-up repetitions, one CPU after another; the median is reported
constexpr int kOracleSamples = 6;
constexpr int64_t kOracleSpan = 300;

constexpr int64_t kRotateNs = 250'000'000;

/// Moves the client thread round the CPUs it may use, one step every
/// kRotateNs. Other tenants load a shared machine's CPUs unevenly and a
/// busy thread stays on the CPU it starts on, so without this a run's speed
/// would depend on where its thread landed; rotating gives every run the
/// same mix of CPUs.
class CpuRotation {
 public:
  CpuRotation() {
    if (::sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) ::sched_setaffinity(0, sizeof(original_), &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Call between requests.
  void Tick() {
    const int64_t now = NowNs();
    if (now < next_) return;
    next_ = now + kRotateNs;
    Step();
  }

  /// Moves to the next CPU now.
  void Step() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[step_++ % cpus_.size()], &one);
    ::sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  size_t step_ = 0;
  int64_t next_ = 0;
};

struct Answer {
  int64_t rows = 0;
  uint64_t hash = 0;
};

/// The workload's engine, data and request cycle after set-up.
struct LocalSetup {
  std::unique_ptr<LocalSession> session;
  std::vector<NamedStore> data;
  std::vector<Request> cycle;
  std::vector<double> setup_s, generate_s, register_s;
  int64_t writes = 0;  ///< materialized sequences so far (fresh names)
};

/// Sets the workload up kSetups times, each time on the next CPU (a set-up
/// is one busy thread, see CpuRotation), and keeps the last.
void SetUp(const WorkloadSpec& spec, uint64_t seed, LocalSetup* s) {
  CpuRotation rotation;
  for (int k = 0; k < kSetups; ++k) {
    rotation.Step();
    s->session.reset();
    s->data.clear();
    const int64_t t0 = NowNs();
    s->data = GenerateData(spec, seed);
    s->cycle = BuildCycle(spec, seed, s->data);
    const double gen = SecondsSince(t0);
    const int64_t t1 = NowNs();
    s->session = std::make_unique<LocalSession>();
    for (const NamedStore& d : s->data) {
      Status st = s->session->engine().RegisterBase(d.name, d.store);
      SEQ_CHECK_MSG(st.ok(), st.ToString());
    }
    if (spec.serving) {
      Status st = s->session->Execute(kWriteViewDefinition).status();
      SEQ_CHECK_MSG(st.ok(), st.ToString());
    }
    const double reg = SecondsSince(t1);
    s->generate_s.push_back(gen);
    s->register_s.push_back(reg);
    s->setup_s.push_back(gen + reg);
  }
  s->session->options().exec.parallelism = spec.parallelism;
}

/// Runs a write: materializes the view `w` over the request's range under
/// a fresh name. Its answer is the reply text after the name — the new
/// sequence's description, identical on every repetition.
Status Materialize(LocalSession* session, const Request& r, int64_t* writes,
                   Answer* answer) {
  session->range() = r.range;
  Result<std::string> text = session->Command(
      {"materialize", r.target + "_" + std::to_string((*writes)++),
       kWriteViewName});
  if (!text.ok()) return text.status();
  RowHash hash;
  hash.Add(0, Record{Value::String(text->substr(text->find(':')))});
  answer->rows = 0;
  answer->hash = hash.value();
  return Status::OK();
}

/// Drives reads through Prepare -> ExecutePrepared -> CloseStatement,
/// folding the rows into a fingerprint, and writes through Materialize.
class Client {
 public:
  Client(LocalSession* session, bool sink, int64_t* writes)
      : session_(session), writes_(writes) {
    if (!sink) return;
    session_->options().sink = [this](Position pos, const Record& rec) {
      hash_.Add(pos, rec);
      ++rows_;
    };
  }

  /// `session_ns` receives the time spent in Session calls (for
  /// materialized answers, without folding the rows).
  Status Run(const Request& r, Answer* answer, int64_t* session_ns) {
    const int64_t t0 = NowNs();
    if (r.write) {
      Status st = Materialize(session_, r, writes_, answer);
      *session_ns = NowNs() - t0;
      return st;
    }
    hash_ = RowHash();
    rows_ = 0;
    session_->range() = r.range;
    Result<uint64_t> id = session_->Prepare(r.text);
    if (!id.ok()) return id.status();
    Result<ExecuteReply> reply = session_->ExecutePrepared(*id);
    Status closed = session_->CloseStatement(*id);
    *session_ns = NowNs() - t0;
    if (!reply.ok()) return reply.status();
    if (!closed.ok()) return closed;
    for (const PosRecord& row : reply->rows) {
      hash_.Add(row.pos, row.rec);
      ++rows_;
    }
    answer->rows = rows_;
    answer->hash = hash_.value();
    return Status::OK();
  }

 private:
  LocalSession* session_;
  int64_t* writes_;
  RowHash hash_;
  int64_t rows_ = 0;
};

/// Checks an answer against the first answer seen for the same request:
/// every repetition of a seeded request must return identical rows.
void CheckRepeat(std::vector<std::optional<Answer>>* refs, size_t slot,
                 const Answer& a, Outcome* out) {
  std::optional<Answer>& ref = (*refs)[slot];
  if (!ref) {
    ref = a;
  } else if (ref->rows != a.rows || ref->hash != a.hash) {
    out->Fail("request " + std::to_string(slot) +
              " answered differently on a repeat");
  }
}

/// Counts a request's outcome and checks its answer.
void Tally(const Request& r, size_t slot, const Status& status,
            const Answer& a, std::vector<std::optional<Answer>>* refs,
            Outcome* out) {
  ++out->attempted;
  if (!status.ok()) {
    out->Fail(r.kind + ": " + status.ToString());
  } else {
    CheckRepeat(refs, slot, a, out);
  }
}

struct LoopStats {
  /// Latencies of each request slot of the cycle, in milliseconds.
  std::vector<std::vector<double>> slot_ms;
  std::vector<double> lag_ms;
  int64_t requests = 0;
  int64_t rows = 0;
  double elapsed_s = 0;
};

/// Closed loop through the Session API for `seconds`, continuing the
/// request cycle at `*next`.
LoopStats ClosedLoop(Client* client, const std::vector<Request>& cycle,
                     double seconds, size_t* next,
                     std::vector<std::optional<Answer>>* refs, Outcome* out) {
  LoopStats st;
  st.slot_ms.resize(cycle.size());
  const int64_t start = NowNs();
  const int64_t stop = start + static_cast<int64_t>(seconds * 1e9);
  int64_t prev_done = -1;
  CpuRotation rotation;
  while (NowNs() < stop) {
    rotation.Tick();
    const size_t slot = (*next)++ % cycle.size();
    const int64_t sent = NowNs();
    Answer a;
    int64_t session_ns = 0;
    Status s = client->Run(cycle[slot], &a, &session_ns);
    const int64_t done = NowNs();
    Tally(cycle[slot], slot, s, a, refs, out);
    st.slot_ms[slot].push_back(static_cast<double>(done - sent) * 1e-6);
    ++st.requests;
    if (prev_done >= 0) {
      st.lag_ms.push_back(static_cast<double>(sent - prev_done) * 1e-6);
    }
    st.rows += a.rows;
    prev_done = done;
  }
  st.elapsed_s = SecondsSince(start);
  return st;
}

void OracleGate(LocalSetup* s, uint64_t seed, Outcome* out) {
  Rand rand(seed * 3 + 1);
  bool selftest_done = false;
  const int64_t last = static_cast<int64_t>(s->cycle.size()) - 1;
  for (int checked = 0; checked < kOracleSamples;) {
    const Request& r = s->cycle[static_cast<size_t>(rand.Int(0, last))];
    if (r.write) continue;
    ++checked;
    const Span small = Span::Of(
        r.range.start, std::min(r.range.end, r.range.start + kOracleSpan - 1));
    std::vector<PosRecord> rows;
    std::string why;
    ++out->attempted;
    if (!OracleCheck(s->session.get(), r, small, &rows, &why)) {
      out->Fail("oracle (" + r.kind + "): " + why);
    }
    if (!selftest_done && !rows.empty()) {
      selftest_done = true;
      if (!SelfTestRejectsCorruption(rows)) {
        out->Fail("self-test: a corrupted answer passed the oracle check");
      }
    }
  }
  if (!selftest_done) out->Fail("self-test: no non-empty oracle answer");
  out->notes.push_back("oracle: " + std::to_string(kOracleSamples) +
                       " sampled requests over " + std::to_string(kOracleSpan) +
                       " positions checked against ReferenceEvaluator; "
                       "corrupted-answer self-test rejected");
}

/// The untraced run: the closed loop's end-to-end metrics.
void TimedLoop(const WorkloadSpec& spec, double seconds, LocalSetup* s,
               Client* client, size_t* next,
               std::vector<std::optional<Answer>>* refs, Outcome* out) {
  const LoopStats st = ClosedLoop(client, s->cycle, seconds, next, refs, out);
  // A request's latency is the median of its repetitions in the run, and
  // the percentiles are taken over the cycle's requests, each counted once.
  std::vector<double> request_ms;
  for (const std::vector<double>& v : st.slot_ms) {
    if (!v.empty()) request_ms.push_back(Median(v));
  }
  auto& E = out->e2e;
  E["throughput_qps"] = static_cast<double>(st.requests) / st.elapsed_s;
  E["rows_per_s"] = static_cast<double>(st.rows) / st.elapsed_s;
  E["latency_p50_ms"] = Quantile(request_ms, 0.5);
  E["latency_p90_ms"] = Quantile(request_ms, 0.9);
  out->layer["workload.generator_lag_ms"] = Median(st.lag_ms);
  out->notes.push_back(
      "requests: " + std::to_string(st.requests) + " completed in " +
      Num(st.elapsed_s) + " s in a closed loop over a cycle of " +
      std::to_string(s->cycle.size()) +
      " seeded requests; latency percentiles over the cycle's requests of "
      "each request's median latency; generator lag = median time from one "
      "completion to the next send");
  out->notes.push_back(
      "load: 1 client thread (moved to the next CPU every " +
      Num(static_cast<double>(kRotateNs) * 1e-6) + " ms), 0 connections, "
      "parallelism " +
      std::to_string(spec.parallelism) + ", answers " +
      (spec.sink ? "streamed to the session sink" : "materialized") +
      ", scheduler pool " +
      std::to_string(QueryScheduler::Global().workers()) + " workers");
}

/// How the traced pass runs a request.
enum Variant {
  kSession,  ///< through the Session facade, untraced
  kDirect,   ///< through each layer's public call (RunThroughLayers), untraced
  kTraced,   ///< the same layer calls, each wrapped in a span
  kVariants
};

/// The traced run's local part. Every request runs three times: through
/// the Session, through the layer calls without a tracer, and through the
/// layer calls with spans. The three take turns — request by request, or
/// for the serving mix cycle by cycle, so that each variant meets the same
/// plan-cache state — and the first variant rotates, so drifts in machine
/// speed fall on all three alike. Self times come from the spans; the
/// untraced Session time is the request time they must account for.
void TracedPass(const WorkloadSpec& spec, const Options& opt, double seconds,
                LocalSetup* s, Client* client, size_t* next,
                std::vector<std::optional<Answer>>* refs, Outcome* out) {
  LocalSession& session = *s->session;
  Engine& engine = session.engine();
  const std::vector<Request>& cycle = s->cycle;
  SEQ_CHECK(session.Command({"plancache", "clear"}).ok());
  LayerConfig direct;
  direct.exec = session.options().exec;
  direct.consume = spec.sink ? Consume::kSink : Consume::kMaterialize;
  LayerConfig traced = direct;
  traced.shadow = true;
  Tracer tracer;

  // Exact counts: the first two cycles of traced requests.
  const size_t block = spec.serving ? cycle.size() : 1;
  const size_t window = 2 * cycle.size();
  const std::vector<std::string> counted_names = {
      "engine.plan_cache.hits", "engine.plan_cache.misses",
      "engine.plan_cache.evictions", "engine.plan_cache.invalidations",
      "sched.tasks"};
  std::map<std::string, double> counted;
  AccessStats totals;
  int64_t parallel = 0;
  int64_t plans = 0;
  int64_t exec_ns = 0;
  int64_t exec_rows = 0;
  int64_t materialize_ns = 0;
  int64_t writes = 0;
  int64_t variant_ns[kVariants] = {0, 0, 0};
  int64_t per_variant = 0;
  std::vector<double> lag_ms;

  const TelemetryCounts t0 = ParseTelemetryJson(*session.Telemetry("json"));
  const std::string sched0 = *session.Telemetry("sched");
  const int64_t stop = NowNs() + static_cast<int64_t>(seconds * 1e9);
  size_t traced_done = 0;
  *next -= *next % cycle.size();  // start at a cycle boundary
  CpuRotation rotation;
  int64_t prev_done = -1;
  for (size_t k = 0; traced_done < window || NowNs() < stop; ++k) {
    const size_t base = *next;
    *next += block;
    per_variant += static_cast<int64_t>(block);
    for (size_t v = 0; v < kVariants; ++v) {
      const auto variant = static_cast<Variant>((k + v) % kVariants);
      const bool counting = variant == kTraced && traced_done < window;
      TelemetryCounts before;
      if (counting) {
        before = ParseTelemetryJson(*session.Telemetry("json"));
        if (prev_done >= 0) prev_done = NowNs();
      }
      for (size_t i = 0; i < block; ++i) {
        rotation.Tick();
        const size_t slot = (base + i) % cycle.size();
        const Request& r = cycle[slot];
        const auto id = static_cast<int64_t>(base + i);
        const int64_t sent = NowNs();
        if (prev_done >= 0) {
          lag_ms.push_back(static_cast<double>(sent - prev_done) * 1e-6);
        }
        Answer a;
        Status st = Status::OK();
        int64_t ns = 0;
        if (variant == kSession) {
          st = client->Run(r, &a, &ns);
        } else if (r.write) {
          ScopedSpan root(variant == kTraced ? &tracer : nullptr, "request", -1, id);
          ScopedSpan m(variant == kTraced ? &tracer : nullptr,
                       "core.materialize", root.index(), id);
          st = Materialize(&session, r, &s->writes, &a);
          ns = NowNs() - sent;
          if (variant == kTraced) {
            materialize_ns += ns;
            ++writes;
          }
        } else {
          const LayerResult lr =
              RunThroughLayers(engine, engine.options(), r,
                               variant == kTraced ? traced : direct,
                               variant == kTraced ? &tracer : nullptr, id);
          st = lr.status;
          a = Answer{lr.rows, lr.hash};
          ns = lr.request_ns;
          if (variant == kTraced) {
            exec_ns += lr.execute_ns;
            exec_rows += lr.rows;
            if (counting) {
              totals += lr.stats;
              parallel += lr.parallel ? 1 : 0;
              plans += lr.plans_enumerated;
            }
          }
        }
        prev_done = NowNs();
        Tally(r, slot, st, a, refs, out);
        variant_ns[variant] += ns;
        if (variant == kTraced) ++traced_done;
      }
      if (counting) {
        const TelemetryCounts after =
            ParseTelemetryJson(*session.Telemetry("json"));
        for (const std::string& name : counted_names) {
          counted[name] += after.Delta(before, name);
        }
        prev_done = NowNs();
      }
    }
  }
  const std::string sched1 = *session.Telemetry("sched");
  const TelemetryCounts t1 = ParseTelemetryJson(*session.Telemetry("json"));
  if (!opt.trace_out.empty() && !tracer.Write(opt.trace_out)) {
    out->Fail("cannot write spans to " + opt.trace_out);
  }

  int64_t roots = 0;
  const std::map<std::string, int64_t> self = tracer.SelfByName("request", &roots);
  int64_t shadow_roots = 0;
  const std::map<std::string, int64_t> shadow =
      tracer.SelfByName("shadow", &shadow_roots);
  auto per_req_us = [&](const std::map<std::string, int64_t>& m,
                        const std::string& name, int64_t n) {
    auto it = m.find(name);
    return it == m.end() || n == 0 ? 0.0
                                   : static_cast<double>(it->second) * 1e-3 /
                                         static_cast<double>(n);
  };
  const double w = static_cast<double>(window);
  auto& L = out->layer;
  L["parser.parse_us"] = per_req_us(self, "parser.parse", roots);
  L["core.prepare_us"] = per_req_us(self, "core.prepare", roots);
  L["exec.execute_us"] = per_req_us(self, "exec.execute", roots);
  L["optimizer.optimize_us"] =
      per_req_us(shadow, "optimizer.optimize", shadow_roots);
  L["core.materialize_ms"] =
      writes == 0 ? 0.0
                  : static_cast<double>(materialize_ns) * 1e-6 /
                        static_cast<double>(writes);
  L["optimizer.plans_enumerated"] = static_cast<double>(plans) / w;
  L["exec.ns_per_row"] =
      exec_rows == 0 ? 0.0 : static_cast<double>(exec_ns) / static_cast<double>(exec_rows);
  const double hits = counted["engine.plan_cache.hits"];
  const double misses = counted["engine.plan_cache.misses"];
  L["core.plan_cache.hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  L["core.plan_cache.evictions"] = counted["engine.plan_cache.evictions"];
  L["core.plan_cache.invalidations"] = counted["engine.plan_cache.invalidations"];
  L["exec.morsel.parallel_ratio"] = static_cast<double>(parallel) / w;
  L["exec.sched.tasks"] = counted["sched.tasks"] / w;
  L["exec.sched.queued_total"] = static_cast<double>(
      IntAfter(sched1, "(waited ") - IntAfter(sched0, "(waited "));
  L["exec.sched.peak_active_workers"] =
      static_cast<double>(IntAfter(sched1, "active, peak "));
  L["exec.sched.queue_wait_us"] = t1.HistMeanSince(t0, "sched.queue_wait_us");
  L["storage.stream_pages"] = static_cast<double>(totals.stream_pages) / w;
  L["storage.stream_records"] = static_cast<double>(totals.stream_records) / w;
  L["storage.probes"] = static_cast<double>(totals.probes) / w;
  L["storage.probe_pages"] = static_cast<double>(totals.probe_pages) / w;
  L["exec.cache_hits"] = static_cast<double>(totals.cache_hits) / w;
  L["exec.cache_stores"] = static_cast<double>(totals.cache_stores) / w;
  L["exec.predicate_evals"] = static_cast<double>(totals.predicate_evals) / w;
  L["exec.agg_steps"] = static_cast<double>(totals.agg_steps) / w;
  L["workload.generator_lag_ms"] = Median(lag_ms);

  // The request time is the untraced Session request; the layers' self
  // times (from the spans) account for it up to the remainder, which holds
  // the Session facade's own work (gate, statement table, view resolution,
  // reply) and whatever no span covers.
  auto mean_us = [&](Variant v) {
    return static_cast<double>(variant_ns[v]) * 1e-3 /
           static_cast<double>(per_variant);
  };
  const double session_us = mean_us(kSession);
  const double direct_us = mean_us(kDirect);
  const double traced_us = mean_us(kTraced);
  const double materialize_us = per_req_us(self, "core.materialize", roots);
  const double layers_us = L["parser.parse_us"] + L["core.prepare_us"] +
                           L["exec.execute_us"] + materialize_us;
  L["trace.request_us"] = session_us;
  L["trace.remainder_us"] = session_us - layers_us;
  L["trace.facade_us"] = session_us - direct_us;
  L["trace.overhead_pct"] = (traced_us / direct_us - 1.0) * 100.0;

  char line[768];
  std::snprintf(
      line, sizeof(line),
      "trace: %lld requests under each of Session (untraced), direct layer "
      "calls (untraced) and direct layer calls (traced), interleaved %s; "
      "Session request %.1f us = parse %.1f + prepare %.1f + execute %.1f + "
      "materialize %.1f (traced self times) + remainder %.1f (%.2f%%); "
      "Session facade %.1f us (Session minus direct untraced); direct "
      "untraced %.1f us, traced %.1f us (%.1f us inside the request span "
      "but in no layer span): tracing overhead %+.2f%%",
      static_cast<long long>(per_variant),
      spec.serving ? "cycle by cycle" : "request by request", session_us,
      L["parser.parse_us"], L["core.prepare_us"], L["exec.execute_us"],
      materialize_us, L["trace.remainder_us"],
      100.0 * L["trace.remainder_us"] / session_us, L["trace.facade_us"],
      direct_us, traced_us, per_req_us(self, "request", roots),
      L["trace.overhead_pct"]);
  out->notes.push_back(line);
  out->notes.push_back(
      "fingerprint " + spec.name + " seed " + std::to_string(opt.seed) +
      " over the first " + std::to_string(window) +
      " traced requests (2 cycles; plan cache cleared at the start of the "
      "pass): stream_pages=" + std::to_string(totals.stream_pages) +
      " stream_records=" + std::to_string(totals.stream_records) +
      " probes=" + std::to_string(totals.probes) +
      " probe_pages=" + std::to_string(totals.probe_pages) +
      " cache_hits=" + std::to_string(totals.cache_hits) +
      " cache_stores=" + std::to_string(totals.cache_stores) +
      " predicate_evals=" + std::to_string(totals.predicate_evals) +
      " agg_steps=" + std::to_string(totals.agg_steps) +
      " records_output=" + std::to_string(totals.records_output) +
      " plan_cache.hits=" + Num(hits) + " plan_cache.misses=" + Num(misses) +
      " plan_cache.evictions=" + Num(L["core.plan_cache.evictions"]) +
      " plan_cache.invalidations=" + Num(L["core.plan_cache.invalidations"]) +
      " morsel.parallel=" + std::to_string(parallel) + "/" +
      std::to_string(window) + " sched.tasks=" + Num(counted["sched.tasks"]));
  out->notes.push_back(
      "load: 1 client thread (moved to the next CPU every " +
      Num(static_cast<double>(kRotateNs) * 1e-6) + " ms), 0 connections, "
      "parallelism " +
      std::to_string(spec.parallelism) + ", scheduler pool " +
      std::to_string(QueryScheduler::Global().workers()) + " workers");
}

}  // namespace

void RunWorkload(const Options& opt, Outcome* out) {
  WorkloadSpec spec;
  SEQ_CHECK(LookupWorkload(opt.workload, opt.seed, &spec));
  LocalSetup s;
  SetUp(spec, opt.seed, &s);
  out->e2e["setup_s"] = Median(s.setup_s);
  out->layer["workload.generate_s"] = Median(s.generate_s);
  out->layer["storage.register_s"] = Median(s.register_s);

  // Warm-up: one whole cycle, untimed. Peak RSS is read after it, at a
  // point that does not depend on the engine's speed: every write
  // materializes a new sequence that stays in the catalog, so a faster
  // timed loop would end with more of them.
  Client client(s.session.get(), spec.sink, &s.writes);
  std::vector<std::optional<Answer>> refs(s.cycle.size());
  size_t next = 0;
  for (size_t slot = 0; slot < s.cycle.size(); ++slot, ++next) {
    Answer a;
    int64_t session_ns = 0;
    Status st = client.Run(s.cycle[slot], &a, &session_ns);
    Tally(s.cycle[slot], slot, st, a, &refs, out);
  }
  out->e2e["peak_rss_mb"] = PeakRssMb();
  const int64_t warm_writes = s.writes;

  // A traced run of the serving mix spends its last third on the same
  // traffic over the network.
  const double local_s =
      opt.trace && spec.serving ? opt.seconds * 2 / 3 : opt.seconds;
  if (opt.trace) {
    TracedPass(spec, opt, local_s, &s, &client, &next, &refs, out);
  } else {
    TimedLoop(spec, local_s, &s, &client, &next, &refs, out);
  }
  OracleGate(&s, opt.seed, out);
  out->notes.push_back(
      "memory: peak RSS " + Num(out->e2e["peak_rss_mb"]) +
      " MiB after set-up and the warm-up cycle (" +
      std::to_string(warm_writes) + " writes; reported), " +
      Num(PeakRssMb()) + " MiB at the end of the run (" +
      std::to_string(s.writes) + " writes)");
  if (opt.trace && spec.serving) {
    MeasureRemote(opt, spec, opt.seconds - local_s, out);
  }
}

}  // namespace seq::perfbench
