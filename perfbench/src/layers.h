#ifndef SEQ_PERFBENCH_LAYERS_H_
#define SEQ_PERFBENCH_LAYERS_H_

// One read request taken apart into the public calls of each layer —
// ParseSequin, Engine::Prepare, PreparedQuery::Run and, for the serving
// path, the wire row encoding — so the traced pass can time each call
// from outside. The same decomposition replays remote requests in-process.

#include <cstdint>
#include <string>

#include "core/engine.h"
#include "tracer.h"
#include "workloads.h"

namespace seq::perfbench {

/// How the answer rows are consumed.
enum class Consume {
  kSink,         ///< streamed to a sink (ExecuteVisit; always serial)
  kMaterialize,  ///< materialized result (the path that runs morsels)
  /// Materialized, then passed through EncodeSchema/EncodeRow and
  /// DecodeSchema/DecodeRow, as the server and client do to every reply.
  kWire,
};

struct LayerConfig {
  ExecOptions exec;
  Consume consume = Consume::kSink;
  /// After the request, time a standalone Optimizer::Optimize of the same
  /// query and record the morsel decision, under a separate "shadow" root
  /// span that does not count toward the request.
  bool shadow = false;
  /// Name of the root span of the request.
  std::string root = "request";
};

struct LayerResult {
  Status status = Status::OK();
  int64_t rows = 0;
  uint64_t hash = 0;  ///< RowHash of the (decoded, under kWire) answer
  std::string schema;
  AccessStats stats;
  int64_t request_ns = 0;  ///< the root span: every layer call of the request
  int64_t execute_ns = 0;
  int64_t encode_ns = 0;
  int64_t decode_ns = 0;
  // Shadow measurements.
  bool parallel = false;
  int64_t plans_enumerated = 0;
};

LayerResult RunThroughLayers(const Engine& engine,
                             const OptimizerOptions& optimizer_options,
                             const Request& request, const LayerConfig& config,
                             Tracer* tracer, int64_t request_id);

}  // namespace seq::perfbench

#endif  // SEQ_PERFBENCH_LAYERS_H_
