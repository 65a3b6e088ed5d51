#ifndef SEQ_PERFBENCH_WORKLOADS_H_
#define SEQ_PERFBENCH_WORKLOADS_H_

// The three benchmark workloads: their seeded data sets and request lists.
// Everything here is a pure function of the seed (and, for literals that
// must hit a chosen selectivity, of the generated data), so two runs with
// one seed send the engine byte-identical inputs.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "storage/base_sequence.h"
#include "types/span.h"

namespace seq::perfbench {

/// One client request. Reads are Sequin statements run through
/// Prepare -> ExecutePrepared -> CloseStatement under `range`; writes are
/// `materialize <target> <view>` commands.
struct Request {
  bool write = false;
  std::string kind;  ///< mix label, e.g. "adhoc", "dashboard", "fig1"
  std::string text;  ///< Sequin statement (reads)
  Span range = Span::Of(1, 1);
  std::string target;  ///< fresh sequence name (writes)
};

/// A generated base sequence, ready to register.
struct NamedStore {
  std::string name;
  BaseSequencePtr store;
};

/// How a stock series is generated; the remote workload replays the same
/// parameters through the server's `gen` command.
struct StockSpec {
  std::string name;
  int64_t end = 0;  ///< span is [1, end]
  double density = 1.0;
  uint64_t seed = 0;
};

struct WorkloadSpec {
  std::string name;
  int parallelism = 1;              ///< per-query share cap
  /// Stream answers to the session sink. The sink path executes serially,
  /// so workloads that exercise morsel parallelism take materialized
  /// replies instead.
  bool sink = true;
  /// The serving mix: its traced run also drives the traffic over the
  /// network to a seqserved child.
  bool serving = false;
  std::vector<StockSpec> stocks;
  int64_t event_end = 0;            ///< quakes/volcanos span [1, event_end]
  double quake_density = 0.0;
  double volcano_density = 0.0;
};

/// Returns false for an unknown workload name.
bool LookupWorkload(const std::string& name, uint64_t seed,
                    WorkloadSpec* spec);

/// Generates every base sequence of the workload.
std::vector<NamedStore> GenerateData(const WorkloadSpec& spec, uint64_t seed);

/// The closed-loop request cycle; literals are placed at seeded quantiles
/// of the generated columns.
std::vector<Request> BuildCycle(const WorkloadSpec& spec, uint64_t seed,
                                const std::vector<NamedStore>& data);

/// serve_mixed: the first `count` requests of the serving traffic.
std::vector<Request> BuildServingSchedule(uint64_t seed, int64_t count,
                                          const std::vector<NamedStore>& data);

/// The session view every serve_mixed write materializes.
extern const char* const kWriteViewName;
extern const char* const kWriteViewDefinition;

}  // namespace seq::perfbench

#endif  // SEQ_PERFBENCH_WORKLOADS_H_
