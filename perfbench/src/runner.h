#ifndef SEQ_PERFBENCH_RUNNER_H_
#define SEQ_PERFBENCH_RUNNER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workloads.h"

namespace seq::perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced pass writes its spans (JSON lines); empty = nowhere.
  std::string trace_out;
};

/// What one run measured. `e2e` holds the untraced end-to-end metrics,
/// `layer` the traced per-layer ones; names absent from `layer` print 0
/// (the layer does no work on that workload).
struct Outcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  /// Counts with no unit or bound, printed as text (fingerprint, thread
  /// and connection counts, the correctness tally).
  std::vector<std::string> notes;

  /// Records one failed or wrong answer.
  void Fail(const std::string& why);
};

struct MetricName {
  const char* name;
  const char* unit;
};

/// Every end-to-end metric (untraced runs) and per-layer metric (traced
/// runs), in output order, with units; BENCHMARK.json lists the same.
extern const std::vector<MetricName> kEndToEnd;
extern const std::vector<MetricName> kPerLayer;

/// Runs one workload, one client, in-process: a timed closed loop, or for
/// traced runs the traced pass (and, for serve_mixed, MeasureRemote).
void RunWorkload(const Options& options, Outcome* out);
/// The serving mix over the network (traced serve_mixed runs): open loop
/// for `seconds` over two connections to a seqserved child; fills the
/// net.* per-layer metrics.
void MeasureRemote(const Options& options, const WorkloadSpec& spec,
                   double seconds, Outcome* out);

}  // namespace seq::perfbench

#endif  // SEQ_PERFBENCH_RUNNER_H_
