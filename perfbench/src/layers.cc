#include "layers.h"

#include "bench_util.h"
#include "core/views.h"
#include "net/wire.h"
#include "optimizer/optimizer.h"
#include "parser/parser.h"

namespace seq::perfbench {

namespace {

/// A span that also reports its duration when no tracer is attached.
class Step {
 public:
  Step(Tracer* tracer, const char* name, int parent, int64_t request)
      : tracer_(tracer),
        span_(tracer == nullptr ? -1 : tracer->Begin(name, parent, request)),
        start_(NowNs()) {}
  int64_t Finish() {
    if (tracer_ != nullptr) tracer_->End(span_);
    return NowNs() - start_;
  }
  int span() const { return span_; }

 private:
  Tracer* tracer_;
  int span_;
  int64_t start_;
};

}  // namespace

LayerResult RunThroughLayers(const Engine& engine,
                             const OptimizerOptions& optimizer_options,
                             const Request& request, const LayerConfig& config,
                             Tracer* tracer, int64_t request_id) {
  LayerResult out;
  Step root(tracer, config.root.c_str(), -1, request_id);
  Query query;
  query.range = request.range;
  {
    Step parse(tracer, "parser.parse", root.span(), request_id);
    Result<ParsedProgram> program = ParseSequin(request.text);
    if (program.ok()) {
      Result<LogicalOpPtr> graph =
          InlineViews(program->main, program->definitions);
      if (graph.ok()) {
        query.graph = *graph;
      } else {
        out.status = graph.status();
      }
    } else {
      out.status = program.status();
    }
    parse.Finish();
  }
  if (!out.status.ok()) {
    out.request_ns = root.Finish();
    return out;
  }
  Step prepare(tracer, "core.prepare", root.span(), request_id);
  Result<Engine::PreparedQuery> prepared = engine.Prepare(query);
  prepare.Finish();
  if (!prepared.ok()) {
    out.status = prepared.status();
    out.request_ns = root.Finish();
    return out;
  }

  RowHash hash;
  RunOptions run;
  run.exec = config.exec;
  run.stats = &out.stats;
  if (config.consume == Consume::kSink) {
    run.sink = [&hash, &out](Position pos, const Record& rec) {
      hash.Add(pos, rec);
      ++out.rows;
    };
  }
  Step execute(tracer, "exec.execute", root.span(), request_id);
  Result<QueryResult> result = prepared->Run(run);
  out.execute_ns = execute.Finish();
  if (!result.ok()) {
    out.status = result.status();
    out.request_ns = root.Finish();
    return out;
  }
  out.schema = result->schema != nullptr ? result->schema->ToString() : "";

  std::vector<PosRecord> decoded;
  if (config.consume == Consume::kWire) {
    Step encode(tracer, "net.encode", root.span(), request_id);
    WireWriter writer;
    EncodeSchema(*result->schema, &writer);
    for (const PosRecord& row : result->records) {
      EncodeRow(row.pos, row.rec, &writer);
    }
    out.encode_ns = encode.Finish();
    const std::string bytes = writer.Take();

    Step decode(tracer, "net.decode", root.span(), request_id);
    WireCursor cursor(bytes);
    Result<SchemaPtr> schema = DecodeSchema(&cursor);
    decoded.resize(result->records.size());
    Status status = schema.status();
    for (size_t i = 0; status.ok() && i < decoded.size(); ++i) {
      status = DecodeRow(&cursor, &decoded[i]);
    }
    out.decode_ns = decode.Finish();
    if (!status.ok()) out.status = status;
  }
  out.request_ns = root.Finish();

  // Bookkeeping outside the request's spans.
  const std::vector<PosRecord>& answer =
      config.consume == Consume::kWire ? decoded : result->records;
  for (const PosRecord& row : answer) {
    hash.Add(row.pos, row.rec);
    ++out.rows;
  }
  out.hash = hash.value();

  if (config.shadow) {
    Step shadow(tracer, "shadow", -1, request_id);
    {
      Step optimize(tracer, "optimizer.optimize", shadow.span(), request_id);
      Optimizer optimizer(engine.catalog(), optimizer_options);
      Result<PhysicalPlan> plan = optimizer.Optimize(query);
      optimize.Finish();
      if (plan.ok()) {
        out.plans_enumerated = optimizer.planner_stats().plans_considered;
      }
    }
    {
      Step morsels(tracer, "exec.plan_morsels", shadow.span(), request_id);
      Executor executor(engine.catalog(), optimizer_options.cost_params,
                        config.exec);
      out.parallel = executor.PlanMorsels(prepared->plan()).parallel;
      morsels.Finish();
    }
    shadow.Finish();
  }
  return out;
}

}  // namespace seq::perfbench
