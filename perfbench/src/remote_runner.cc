// The serving traffic over the network: an open-loop generator at a fixed
// offered rate over two RemoteSession connections to a seqserved child
// process. Every reply is checked against the same request replayed
// in-process on an engine built from the same seed, and the replay is taken
// apart by layer so the remote time can be attributed.

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <climits>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>

#include "bench_util.h"
#include "core/session.h"
#include "layers.h"
#include "net/remote_session.h"
#include "oracle.h"
#include "runner.h"
#include "workloads.h"

namespace seq::perfbench {

namespace {

constexpr int kConnections = 2;
constexpr int kWarmupPerConnection = 50;
constexpr int kOracleSamples = 20;
constexpr int kFloorCalls = 200;
constexpr int64_t kSliceNs = 1'000'000'000;
/// Offered rate in requests/s: about half the closed-loop capacity of two
/// connections measured on the commit that introduced this benchmark (see
/// perfbench/WORKLOADS.md).
constexpr double kRate = 600.0;

/// A seqserved child on an ephemeral loopback port. The child dies with
/// this process (PR_SET_PDEATHSIG); Stop() terminates and reaps it.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  Status Start(const std::string& binary) {
    int fds[2];
    if (::pipe(fds) != 0) return Status::Internal("pipe failed");
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      return Status::Internal("fork failed");
    }
    if (pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(126);
      ::dup2(fds[1], STDOUT_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      ::execl(binary.c_str(), "seqserved", "--port", "0",
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(fds[1]);
    pid_ = pid;
    out_fd_ = fds[0];
    // Scrape "seqserved listening on 127.0.0.1:<port>".
    std::string text;
    const int64_t deadline = NowNs() + 20'000'000'000LL;
    while (text.find('\n') == std::string::npos && NowNs() < deadline) {
      pollfd p{out_fd_, POLLIN, 0};
      if (::poll(&p, 1, 100) <= 0) continue;
      char buf[256];
      const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
      if (n <= 0) break;
      text.append(buf, static_cast<size_t>(n));
    }
    const size_t at = text.find("listening on ");
    const size_t colon = text.rfind(':', text.find('\n'));
    if (at == std::string::npos || colon == std::string::npos) {
      Stop();
      return Status::Unavailable("seqserved did not start: " + text);
    }
    port_ = std::atoi(text.c_str() + colon + 1);
    return Status::OK();
  }

  void Stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    const int64_t deadline = NowNs() + 10'000'000'000LL;
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (NowNs() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      char buf[256];
      pollfd p{out_fd_, POLLIN, 0};
      if (::poll(&p, 1, 20) > 0 && ::read(out_fd_, buf, sizeof(buf)) <= 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    ::close(out_fd_);
    pid_ = -1;
    out_fd_ = -1;
  }

  int port() const { return port_; }
  double PeakRss() const { return pid_ > 0 ? PeakRssMb(pid_) : 0.0; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
};

std::string ServerBinary() {
  char path[PATH_MAX];
  const ssize_t n = ::readlink("/proc/self/exe", path, sizeof(path) - 1);
  if (n <= 0) return "seqserved";
  std::string self(path, static_cast<size_t>(n));
  return self.substr(0, self.rfind('/')) + "/seq/net/seqserved";
}

/// One connection of the generator: its session, the rows its sink folds,
/// and the last range it sent (the server applies it to `materialize`).
struct Connection {
  std::unique_ptr<RemoteSession> session;
  RowHash hash;
  int64_t rows = 0;
  Span last_range = Span::Of(1, 1);
  Tracer tracer;
};

/// What one remote request returned, for the post-run check.
struct Done {
  int64_t index = 0;
  int64_t due = 0;
  int64_t sent = 0;
  int64_t done = 0;
  Status status = Status::OK();
  int64_t rows = 0;
  uint64_t hash = 0;
  std::string shape;  ///< schema (reads) or reply text (writes)
  Span range = Span::Of(1, 1);  ///< effective range on the server
};

struct RemoteSetup {
  ServerProcess server;
  std::vector<std::unique_ptr<Connection>> conns;
  std::unique_ptr<LocalSession> replay;
  std::vector<NamedStore> data;
  double server_start_s = 0;
};

void Check(const Status& s, const std::string& what) {
  SEQ_CHECK_MSG(s.ok(), what + ": " + s.ToString());
}

void SetUp(const WorkloadSpec& spec, uint64_t seed, RemoteSetup* s) {
  const std::string binary = ServerBinary();
  {
    const int64_t t_net = NowNs();
    Check(s->server.Start(binary), "start " + binary);
    for (int c = 0; c < kConnections; ++c) {
      auto conn = std::make_unique<Connection>();
      Result<std::unique_ptr<RemoteSession>> session =
          RemoteSession::Connect("127.0.0.1", s->server.port());
      Check(session.status(), "connect");
      conn->session = std::move(*session);
      Connection* raw = conn.get();
      conn->session->options().sink = [raw](Position pos, const Record& rec) {
        raw->hash.Add(pos, rec);
        ++raw->rows;
      };
      conn->session->options().exec.parallelism = spec.parallelism;
      s->conns.push_back(std::move(conn));
    }
    const double net = SecondsSince(t_net);

    // The replay engine gets the data directly, the server through its
    // `gen` command (which generates and registers there).
    s->data = GenerateData(spec, seed);
    s->replay = std::make_unique<LocalSession>();
    s->replay->options().exec.parallelism = spec.parallelism;
    for (const NamedStore& d : s->data) {
      Check(s->replay->engine().RegisterBase(d.name, d.store), "register");
    }
    for (const StockSpec& st : spec.stocks) {
      char density[32];
      std::snprintf(density, sizeof(density), "%.17g", st.density);
      Check(s->conns[0]
                ->session
                ->Command({"gen", st.name, "1", std::to_string(st.end),
                           density, std::to_string(st.seed)})
                .status(),
            "remote gen");
    }

    Check(s->replay->Execute(kWriteViewDefinition).status(), "replay view");
    for (auto& c : s->conns) {
      Check(c->session->Execute(kWriteViewDefinition).status(), "remote view");
    }
    s->server_start_s = net;
  }
}

/// Sends one request on `c`; `root` >= 0 records rpc spans under it.
void Send(Connection* c, const Request& r, int root, int64_t id, Done* d) {
  Tracer* t = root >= 0 ? &c->tracer : nullptr;
  if (r.write) {
    d->range = c->last_range;
    ScopedSpan rpc(t, "net.rpc.command", root, id);
    Result<std::string> text =
        c->session->Command({"materialize", r.target, kWriteViewName});
    d->status = text.status();
    if (text.ok()) d->shape = *text;
    return;
  }
  c->hash = RowHash();
  c->rows = 0;
  c->session->range() = r.range;
  c->last_range = r.range;
  d->range = r.range;
  Result<uint64_t> stmt = [&] {
    ScopedSpan rpc(t, "net.rpc.prepare", root, id);
    return c->session->Prepare(r.text);
  }();
  if (!stmt.ok()) {
    d->status = stmt.status();
    return;
  }
  Result<ExecuteReply> reply = [&] {
    ScopedSpan rpc(t, "net.rpc.execute", root, id);
    return c->session->ExecutePrepared(*stmt);
  }();
  Status closed = [&] {
    ScopedSpan rpc(t, "net.rpc.close", root, id);
    return c->session->CloseStatement(*stmt);
  }();
  d->status = reply.ok() ? closed : reply.status();
  if (reply.ok() && reply->schema != nullptr) d->shape = reply->schema->ToString();
  d->rows = c->rows;
  d->hash = c->hash.value();
}

/// Runs schedule[*next...] for `seconds` as an open loop at kRate: request
/// i is due at start + i/kRate and is sent by whichever connection is free.
std::vector<Done> Drive(RemoteSetup* s, const std::vector<Request>& schedule,
                        int64_t* next, double seconds) {
  const int64_t first = *next;
  const int64_t start = NowNs() + 5'000'000;
  const int64_t stop = start + static_cast<int64_t>(seconds * 1e9);
  const double interval_ns = 1e9 / kRate;
  std::atomic<int64_t> cursor{first};
  std::vector<std::vector<Done>> per_conn(s->conns.size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < s->conns.size(); ++c) {
    threads.emplace_back([&, c] {
      Connection* conn = s->conns[c].get();
      for (;;) {
        const int64_t i = cursor.fetch_add(1);
        if (i >= static_cast<int64_t>(schedule.size())) break;
        const int64_t due = start + static_cast<int64_t>(
                                        static_cast<double>(i - first) * interval_ns);
        if (due >= stop) break;
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(due)));
        Done d;
        d.index = i;
        d.due = due;
        d.sent = NowNs();
        const int root = conn->tracer.Begin("request", -1, i);
        Send(conn, schedule[static_cast<size_t>(i)], root, i, &d);
        conn->tracer.End(root);
        d.done = NowNs();
        per_conn[c].push_back(std::move(d));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<Done> all;
  for (auto& v : per_conn) {
    for (Done& d : v) all.push_back(std::move(d));
  }
  std::sort(all.begin(), all.end(),
            [](const Done& a, const Done& b) { return a.index < b.index; });
  *next = all.empty() ? first : all.back().index + 1;
  return all;
}

/// Per-replay sums for the net metrics.
struct ReplayTotals {
  int64_t reads = 0;
  int64_t rows = 0;
  int64_t encode_ns = 0;
  int64_t decode_ns = 0;
};

/// Replays `done` in-process in request order and checks each remote reply
/// is identical to its replay.
void Replay(RemoteSetup* s, const std::vector<Request>& schedule,
            const std::vector<Done>& done, Tracer* tracer, ReplayTotals* tot,
            Outcome* out) {
  LocalSession& local = *s->replay;
  Engine& engine = local.engine();
  LayerConfig config;
  config.exec = local.options().exec;
  config.consume = Consume::kWire;
  config.root = "replay";
  for (const Done& d : done) {
    const Request& r = schedule[static_cast<size_t>(d.index)];
    ++out->attempted;
    if (!d.status.ok()) {
      out->Fail("remote " + r.kind + " #" + std::to_string(d.index) + ": " +
                d.status.ToString());
      continue;
    }
    if (r.write) {
      local.range() = d.range;
      ScopedSpan root(tracer, "replay", -1, d.index);
      Result<std::string> text = [&] {
        ScopedSpan m(tracer, "core.materialize", root.index(), d.index);
        return local.Command({"materialize", r.target, kWriteViewName});
      }();
      if (!text.ok() || *text != d.shape) {
        out->Fail("write #" + std::to_string(d.index) +
                  " differs from its in-process replay");
      }
      continue;
    }
    LayerResult lr = RunThroughLayers(engine, engine.options(), r, config,
                                      tracer, d.index);
    ++tot->reads;
    tot->rows += lr.rows;
    tot->encode_ns += lr.encode_ns;
    tot->decode_ns += lr.decode_ns;
    if (!lr.status.ok() || lr.rows != d.rows || lr.hash != d.hash ||
        lr.schema != d.shape) {
      out->Fail("read #" + std::to_string(d.index) + " (" + r.kind +
                ") differs from its in-process replay");
    }
  }
}

void OracleGate(RemoteSetup* s, const std::vector<Request>& schedule,
                const std::vector<Done>& done, uint64_t seed, Outcome* out) {
  Rand rand(seed * 5 + 3);
  int checked = 0;
  bool selftest_done = false;
  for (int attempt = 0; checked < kOracleSamples && attempt < 10 * kOracleSamples;
       ++attempt) {
    const Done& d = done[static_cast<size_t>(
        rand.Int(0, static_cast<int64_t>(done.size()) - 1))];
    const Request& r = schedule[static_cast<size_t>(d.index)];
    if (r.write) continue;
    ++checked;
    ++out->attempted;
    std::vector<PosRecord> rows;
    std::string why;
    if (!OracleCheck(s->replay.get(), r, r.range, &rows, &why)) {
      out->Fail("oracle (" + r.kind + "): " + why);
    }
    if (!selftest_done && !rows.empty()) {
      selftest_done = true;
      // A corrupted row must fail both the oracle comparison and the
      // byte-identity fingerprint used for every remote reply.
      std::vector<PosRecord> bad = rows;
      bad[bad.size() / 2].pos += 1;
      RowHash a, b;
      for (const PosRecord& p : rows) a.Add(p.pos, p.rec);
      for (const PosRecord& p : bad) b.Add(p.pos, p.rec);
      if (!SelfTestRejectsCorruption(rows) || a.value() == b.value()) {
        out->Fail("self-test: a corrupted answer passed the checks");
      }
    }
  }
  if (!selftest_done) out->Fail("self-test: no non-empty oracle answer");
  out->notes.push_back(
      "oracle: " + std::to_string(checked) +
      " sampled replies checked against ReferenceEvaluator; every reply "
      "checked identical to its in-process replay; corrupted-answer "
      "self-test rejected");
}

struct LoopSummary {
  std::vector<TimedSample> latency_ms, lag_ms;
  double elapsed_s = 0;
};

LoopSummary Summarize(const std::vector<Done>& done) {
  LoopSummary s;
  int64_t first_due = done.front().due;
  int64_t last_done = first_due;
  for (const Done& d : done) {
    s.latency_ms.push_back({d.due, static_cast<double>(d.done - d.due) * 1e-6});
    s.lag_ms.push_back({d.due, static_cast<double>(d.sent - d.due) * 1e-6});
    first_due = std::min(first_due, d.due);
    last_done = std::max(last_done, d.done);
  }
  s.elapsed_s = static_cast<double>(last_done - first_due) * 1e-9;
  return s;
}

double MedianCallUs(Session* session) {
  std::vector<double> us;
  for (int i = 0; i < kFloorCalls; ++i) {
    const int64_t t0 = NowNs();
    SEQ_CHECK(session->Telemetry("plancache").ok());
    us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
  }
  return Median(us);
}

}  // namespace

void MeasureRemote(const Options& opt, const WorkloadSpec& spec,
                   double seconds, Outcome* out) {
  RemoteSetup s;
  SetUp(spec, opt.seed, &s);
  auto& L = out->layer;
  L["net.server_start_s"] = s.server_start_s;

  // Warm-up: each connection sends its own seeded reads (not part of the
  // timed schedule), which also gives every connection a current range.
  const std::vector<Request> warm = BuildServingSchedule(
      opt.seed + 1, kConnections * kWarmupPerConnection * 2, s.data);
  int64_t w = 0;
  for (auto& c : s.conns) {
    for (int i = 0; i < kWarmupPerConnection; ++w) {
      if (warm[static_cast<size_t>(w)].write) continue;
      Done d;
      Send(c.get(), warm[static_cast<size_t>(w)], -1, w, &d);
      Check(d.status, "warm-up");
      ++i;
    }
  }

  const int64_t count = static_cast<int64_t>(kRate * seconds * 1.2) + 200;
  const std::vector<Request> schedule =
      BuildServingSchedule(opt.seed, count, s.data);
  int64_t next = 0;
  Session& server = *s.conns[0]->session;
  const TelemetryCounts t0 = ParseTelemetryJson(*server.Telemetry("json"));
  std::vector<Done> done = Drive(&s, schedule, &next, seconds);
  const TelemetryCounts t1 = ParseTelemetryJson(*server.Telemetry("json"));
  const std::string sched = *server.Telemetry("sched");
  const double server_rss = s.server.PeakRss();
  if (done.empty()) {
    out->Fail("no remote request completed");
    return;
  }

  const LoopSummary sum = Summarize(done);
  L["net.remote_p50_ms"] = SliceMedianQuantile(sum.latency_ms, kSliceNs, 0.5);
  L["net.remote_p90_ms"] = SliceMedianQuantile(sum.latency_ms, kSliceNs, 0.9);
  {
    std::map<std::string, std::vector<double>> by_kind;
    for (const Done& d : done) {
      by_kind[schedule[static_cast<size_t>(d.index)].kind].push_back(
          static_cast<double>(d.done - d.sent) * 1e-3);
    }
    std::vector<double> lag;
    for (const TimedSample& t : sum.lag_ms) lag.push_back(t.value);
    std::string line =
        "remote: " + std::to_string(done.size()) + " requests over " +
        std::to_string(kConnections) + " connections to seqserved, offered " +
        Num(kRate) + " req/s open loop" +
        ", " + Num(static_cast<double>(done.size()) / sum.elapsed_s) +
        " req/s done; latency from due p50 " +
        Num(L["net.remote_p50_ms"]) + " ms, p90 " + Num(L["net.remote_p90_ms"]) +
        " ms (per 1 s slice, median over slices); generator lag p50 " +
        Num(Quantile(lag, 0.5)) + " ms, p90 " + Num(Quantile(lag, 0.9)) +
        " ms; server peak RSS " + Num(server_rss) + " MiB, scheduler pool " +
        std::to_string(IntAfter(sched, "scheduler: ")) +
        " workers; service time (sent to done) by kind:";
    for (const auto& [kind, us] : by_kind) {
      line += " " + kind + " n=" + std::to_string(us.size()) + " p50 " +
              Num(Quantile(us, 0.5)) + " us p90 " + Num(Quantile(us, 0.9)) +
              " us;";
    }
    out->notes.push_back(line);
  }

  Tracer replay_tracer;
  ReplayTotals tr;
  Replay(&s, schedule, done, &replay_tracer, &tr, out);
  int64_t replay_roots = 0;
  const auto rs = replay_tracer.SelfByName("replay", &replay_roots);
  auto total = [](const std::map<std::string, int64_t>& m, const std::string& k) {
    auto it = m.find(k);
    return it == m.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double reads = static_cast<double>(std::max<int64_t>(tr.reads, 1));
  const double rows = static_cast<double>(std::max<int64_t>(tr.rows, 1));
  L["net.encode_ns_per_row"] = static_cast<double>(tr.encode_ns) / rows;
  L["net.decode_ns_per_row"] = static_cast<double>(tr.decode_ns) / rows;
  const double streamed = t1.Delta(t0, "net.rows_streamed");
  L["net.bytes_per_row"] =
      streamed > 0 ? t1.Delta(t0, "net.bytes_out") / streamed : 0.0;
  L["net.frames_per_request"] =
      t1.Delta(t0, "net.frames_in") / static_cast<double>(done.size());

  // A remote read against its in-process replay.
  std::map<std::string, int64_t> req;
  int64_t req_roots = 0;
  for (auto& c : s.conns) {
    int64_t n = 0;
    for (const auto& [k, v] : c->tracer.SelfByName("request", &n)) req[k] += v;
    req_roots += n;
  }
  double remote_read_us = 0;
  int64_t remote_reads = 0;
  for (const Done& d : done) {
    if (schedule[static_cast<size_t>(d.index)].write) continue;
    remote_read_us += static_cast<double>(d.done - d.sent) * 1e-3;
    ++remote_reads;
  }
  remote_read_us /= static_cast<double>(std::max<int64_t>(remote_reads, 1));
  const double replay_read_us =
      (total(rs, "replay") + total(rs, "parser.parse") +
       total(rs, "core.prepare") + total(rs, "exec.execute") +
       total(rs, "net.encode") + total(rs, "net.decode")) *
      1e-3 / reads;
  L["net.remote_overhead_us"] = remote_read_us - replay_read_us;
  L["net.roundtrip_floor_us"] =
      MedianCallUs(&server) - MedianCallUs(s.replay.get());
  const double roots = static_cast<double>(std::max<int64_t>(req_roots, 1));
  char line[768];
  std::snprintf(
      line, sizeof(line),
      "remote trace: a request spends rpc prepare %.1f + execute %.1f + "
      "close %.1f + command %.1f + client remainder %.1f us; a read costs "
      "%.1f us remote vs %.1f us replayed in-process (parse %.1f + prepare "
      "%.1f + execute %.1f + encode %.1f + decode %.1f + replay remainder "
      "%.1f), net overhead %.1f us",
      total(req, "net.rpc.prepare") * 1e-3 / roots,
      total(req, "net.rpc.execute") * 1e-3 / roots,
      total(req, "net.rpc.close") * 1e-3 / roots,
      total(req, "net.rpc.command") * 1e-3 / roots,
      total(req, "request") * 1e-3 / roots, remote_read_us, replay_read_us,
      total(rs, "parser.parse") * 1e-3 / reads,
      total(rs, "core.prepare") * 1e-3 / reads,
      total(rs, "exec.execute") * 1e-3 / reads,
      total(rs, "net.encode") * 1e-3 / reads,
      total(rs, "net.decode") * 1e-3 / reads, total(rs, "replay") * 1e-3 / reads,
      L["net.remote_overhead_us"]);
  out->notes.push_back(line);

  if (!opt.trace_out.empty()) {
    bool ok = replay_tracer.Write(opt.trace_out + ".replay");
    for (size_t c = 0; c < s.conns.size(); ++c) {
      ok = s.conns[c]->tracer.Write(opt.trace_out + ".conn" + std::to_string(c)) &&
           ok;
    }
    if (!ok) out->Fail("cannot write spans to " + opt.trace_out);
  }
  OracleGate(&s, schedule, done, opt.seed, out);
  for (auto& c : s.conns) c->session->Close();
  s.conns.clear();
  s.server.Stop();
}

}  // namespace seq::perfbench
