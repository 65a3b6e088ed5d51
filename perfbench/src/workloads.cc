#include "workloads.h"

#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "common/logging.h"
#include "workload/generators.h"

namespace seq::perfbench {

const char* const kWriteViewName = "w";
const char* const kWriteViewDefinition =
    "w = avg(select(ibm, volume > 50000), close, over 8, as a);";

namespace {

constexpr int64_t kMinVolume = 1000;  // the stock generator's volume domain
constexpr int64_t kMaxVolume = 100000;
/// serve_mixed cycle length: five blocks of 100. Each block's write
/// invalidates the cached plans, so an ad-hoc request's plan is gone by the
/// time the cycle repeats it.
constexpr int64_t kServingCycle = 500;

std::string Dbl(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

const BaseSequenceStore& Store(const std::vector<NamedStore>& data,
                               const std::string& name) {
  for (const NamedStore& d : data) {
    if (d.name == name) return *d.store;
  }
  SEQ_CHECK_MSG(false, "workload data lacks " + name);
  return *data.front().store;
}

/// The q-quantile of column `col` over the records inside `range`,
/// estimated from 101 seeded draws: places a selection literal at a chosen
/// selectivity for that range without sorting the whole range.
double RangeQuantile(const BaseSequenceStore& store, size_t col, Span range,
                     double q, Rand* rand) {
  const std::vector<PosRecord>& recs = store.records();
  auto lo = std::lower_bound(
      recs.begin(), recs.end(), range.start,
      [](const PosRecord& r, Position p) { return r.pos < p; });
  auto hi = std::upper_bound(
      recs.begin(), recs.end(), range.end,
      [](Position p, const PosRecord& r) { return p < r.pos; });
  const int64_t n = hi - lo;
  SEQ_CHECK(n > 0);
  std::vector<double> draws;
  for (int i = 0; i < 101; ++i) {
    draws.push_back((lo + rand->Int(0, n - 1))->rec[col].AsDouble());
  }
  return Quantile(std::move(draws), q);
}

/// A range of `len` positions placed uniformly inside [1, end].
Span PlaceRange(int64_t end, int64_t len, Rand* rand) {
  const int64_t start = rand->Int(1, end - len + 1);
  return Span::Of(start, start + len - 1);
}

/// Stratified draw: the j-th of n strata of [lo, hi].
double Stratum(double lo, double hi, int j, int n, Rand* rand) {
  return lo + (hi - lo) * (static_cast<double>(j) + rand->Unit()) /
                  static_cast<double>(n);
}

/// `cycle` in a seeded order.
std::vector<Request> Shuffled(const std::vector<Request>& cycle, Rand* rand) {
  std::vector<Request> out;
  for (int i : rand->Permutation(static_cast<int>(cycle.size()))) {
    out.push_back(cycle[static_cast<size_t>(i)]);
  }
  return out;
}

Request Read(std::string kind, std::string text, Span range) {
  Request r;
  r.kind = std::move(kind);
  r.text = std::move(text);
  r.range = range;
  return r;
}

std::vector<Request> ScanLocalCycle(uint64_t seed,
                                    const std::vector<NamedStore>& data) {
  const BaseSequenceStore& ibm = Store(data, "ibm");
  const int64_t end = ibm.span().end;
  constexpr int kPerShape = 16;
  Rand rand(seed * 7 + 11);
  std::vector<Request> cycle;
  for (int j = 0; j < kPerShape; ++j) {
    {  // (a) filtered trailing-window average
      const int64_t len =
          static_cast<int64_t>(Stratum(200000, 1000000, j, kPerShape, &rand));
      const Span range = PlaceRange(end, len, &rand);
      const double lit = RangeQuantile(
          ibm, 1, range, Stratum(0.1, 0.9, (j * 5) % kPerShape, kPerShape, &rand),
          &rand);
      const int window = 10 + 10 * (j % 4);
      cycle.push_back(Read("filtered_avg",
                           "q = avg(select(ibm, close > " + Dbl(lit) +
                               "), close, over " + std::to_string(window) +
                               ", as a);",
                           range));
    }
    {  // (b) prev over a selection
      const int64_t len =
          static_cast<int64_t>(Stratum(200000, 1000000, j, kPerShape, &rand));
      const Span range = PlaceRange(end, len, &rand);
      const int64_t vol = static_cast<int64_t>(Stratum(
          kMinVolume, kMaxVolume, (j * 7) % kPerShape, kPerShape, &rand));
      cycle.push_back(Read("prev_select",
                           "q = prev(select(hp, volume > " +
                               std::to_string(vol) + "));",
                           range));
    }
    {  // (c) windowed max over a projection
      const int64_t len =
          static_cast<int64_t>(Stratum(200000, 1000000, j, kPerShape, &rand));
      const Span range = PlaceRange(end, len, &rand);
      const int window = 8 << (j % 4);
      cycle.push_back(Read("project_max",
                           "q = max(project(ibm, high as h, low as l), h, "
                           "over " + std::to_string(window) + ", as m);",
                           range));
    }
  }
  return Shuffled(cycle, &rand);
}

std::vector<Request> ComposePar4Cycle(uint64_t seed,
                                      const std::vector<NamedStore>& data) {
  const int64_t stock_end = Store(data, "ibm").span().end;
  const int64_t event_end = Store(data, "quakes").span().end;
  constexpr int kPerShape = 16;
  Rand rand(seed * 13 + 5);
  std::vector<Request> cycle;
  for (int j = 0; j < kPerShape; ++j) {
    {  // (a) lock-step compose of two dense series feeding a window
      const int64_t len = static_cast<int64_t>(
          Stratum(100000, 400000, j, kPerShape, &rand));
      cycle.push_back(Read("lockstep_avg",
                           "q = avg(compose(ibm, hp), close, over 20, "
                           "as ma20);",
                           PlaceRange(stock_end, len, &rand)));
    }
    {  // (b) Fig. 1: volcanos composed with the previous earthquake
      const int64_t len = static_cast<int64_t>(
          Stratum(500000, 2000000, j, kPerShape, &rand));
      const double strength =
          Stratum(6.5, 8.0, (j * 3) % kPerShape, kPerShape, &rand);
      cycle.push_back(Read("fig1",
                           "q = project(select(compose(volcanos, "
                           "prev(quakes)), strength > " +
                               Dbl(strength) + "), name);",
                           PlaceRange(event_end, len, &rand)));
    }
    {  // (c) sparse-left compose the morsel planner already parallelizes
      const int64_t len = static_cast<int64_t>(
          Stratum(200000, 400000, j, kPerShape, &rand));
      const int64_t vol = static_cast<int64_t>(
          Stratum(98800, 99600, (j * 5) % kPerShape, kPerShape, &rand));
      cycle.push_back(Read("probe_compose",
                           "q = compose(select(ibm, volume > " +
                               std::to_string(vol) + "), hp);",
                           PlaceRange(stock_end, len, &rand)));
    }
  }
  return Shuffled(cycle, &rand);
}

/// Additive-recurrence (golden ratio) sequence in [0, 1): any run of n
/// consecutive draws covers [0, 1) with gaps of about 1/n, so every cycle
/// of the serving mix gets the same spread of literals and positions.
class Weyl {
 public:
  explicit Weyl(double start) : x_(start) {}
  double Next() {
    x_ += 0.6180339887498949;
    x_ -= static_cast<double>(static_cast<int64_t>(x_));
    return x_;
  }

 private:
  double x_;
};

/// serve_mixed read shapes; `w` is the window width where the shape has
/// one (structural, so part of the plan key), `f` in [0, 1) places the
/// literal.
std::string ServingShape(int shape, int w, Span range, double f,
                         const std::vector<NamedStore>& data, Rand* rand) {
  const int64_t volume = kMinVolume + static_cast<int64_t>(
                                          f * static_cast<double>(kMaxVolume - kMinVolume));
  switch (shape) {
    case 0:
      return "q = select(ibm, close > " +
             Dbl(RangeQuantile(Store(data, "ibm"), 1, range, 0.05 + 0.9 * f,
                               rand)) +
             ");";
    case 1:
      return "q = avg(select(hp, volume > " + std::to_string(volume) +
             "), close, over " + std::to_string(w) + ", as a);";
    case 2:
      return "q = prev(select(ibm, volume > " + std::to_string(volume) + "));";
    default:  // day-over-day move: close against the previous position's
      return "q = project(select(compose(ibm, offset(ibm, -1)), "
             "close - close_r > " +
             Dbl(-1.5 + 3.0 * f) + "), close, close_r);";
  }
}

}  // namespace

bool LookupWorkload(const std::string& name, uint64_t seed,
                    WorkloadSpec* spec) {
  *spec = WorkloadSpec{};
  spec->name = name;
  int64_t stock_end = 0;
  if (name == "scan_local") {
    stock_end = 1000000;
  } else if (name == "compose_par4") {
    stock_end = 500000;
    spec->parallelism = 4;
    spec->sink = false;
    spec->event_end = 2000000;
    spec->quake_density = 0.3;
    spec->volcano_density = 0.1;
  } else if (name == "serve_mixed") {
    stock_end = 200000;
    spec->serving = true;
  } else {
    return false;
  }
  spec->stocks = {{"ibm", stock_end, 0.95, seed * 16 + 1},
                  {"hp", stock_end, 1.0, seed * 16 + 2}};
  return true;
}

std::vector<NamedStore> GenerateData(const WorkloadSpec& spec, uint64_t seed) {
  std::vector<NamedStore> out;
  for (const StockSpec& s : spec.stocks) {
    StockSeriesOptions o;
    o.span = Span::Of(1, s.end);
    o.density = s.density;
    o.seed = s.seed;
    Result<BaseSequencePtr> store = MakeStockSeries(o);
    SEQ_CHECK(store.ok());
    out.push_back({s.name, *store});
  }
  if (spec.event_end > 0) {
    EventSeriesOptions q;
    q.span = Span::Of(1, spec.event_end);
    q.density = spec.quake_density;
    q.seed = seed * 16 + 3;
    EventSeriesOptions v = q;
    v.density = spec.volcano_density;
    v.seed = seed * 16 + 4;
    Result<BaseSequencePtr> quakes = MakeEarthquakes(q);
    Result<BaseSequencePtr> volcanos = MakeVolcanos(v);
    SEQ_CHECK(quakes.ok() && volcanos.ok());
    out.push_back({"quakes", *quakes});
    out.push_back({"volcanos", *volcanos});
  }
  return out;
}

std::vector<Request> BuildCycle(const WorkloadSpec& spec, uint64_t seed,
                                const std::vector<NamedStore>& data) {
  if (spec.name == "scan_local") return ScanLocalCycle(seed, data);
  if (spec.name == "compose_par4") return ComposePar4Cycle(seed, data);
  return BuildServingSchedule(seed, kServingCycle, data);
}

std::vector<Request> BuildServingSchedule(uint64_t seed, int64_t count,
                                          const std::vector<NamedStore>& data) {
  const int64_t end = Store(data, "ibm").span().end;
  constexpr int kBlock = 100;  // per block: 70 ad hoc, 29 dashboard, 1 write
  constexpr int kAdHoc = 70;
  constexpr int kShapes = 4;
  constexpr int kDashboardPairs = 16;
  static const int kWindows[] = {5, 10, 20};
  // One literal sequence per ad-hoc shape and per dashboard pair. An
  // ad-hoc range starts half a turn from its literal: the sparse
  // `prev` selections, whose cost grows with the start position, then land
  // at the same depth for every seed.
  Rand offsets(seed * 131 + 7);
  std::vector<Weyl> adhoc_literal, pair_literal;
  for (int k = 0; k < kShapes; ++k) adhoc_literal.emplace_back(offsets.Unit());
  for (int k = 0; k < kDashboardPairs; ++k) {
    pair_literal.emplace_back(offsets.Unit());
  }
  int64_t adhoc = 0;
  int64_t dashboard = 0;
  std::vector<Request> out;
  std::vector<int> perm;
  for (int64_t i = 0; i < count; ++i) {
    if (i % kBlock == 0) {
      perm = Rand(seed * 1000003 + static_cast<uint64_t>(i / kBlock))
                 .Permutation(kBlock);
    }
    const int slot = perm[static_cast<size_t>(i % kBlock)];
    Rand rand(seed * 7919 + static_cast<uint64_t>(i) * 104729 + 17);
    if (slot == kBlock - 1) {
      Request r;
      r.write = true;
      r.kind = "write";
      r.target = "mat" + std::to_string(i);
      out.push_back(std::move(r));
      continue;
    }
    if (slot < kAdHoc) {
      // Ad hoc: the shapes in turn, each over a new range, so the plan key
      // (shape + range) rarely repeats.
      const int shape = static_cast<int>(adhoc++ % kShapes);
      const int64_t len = rand.Int(64, 512);
      const double f = adhoc_literal[static_cast<size_t>(shape)].Next();
      double where = f + 0.5;
      where -= static_cast<double>(static_cast<int64_t>(where));
      const int64_t start =
          1 + static_cast<int64_t>(where * static_cast<double>(end - len));
      const Span range = Span::Of(start, start + len - 1);
      out.push_back(Read("adhoc",
                         ServingShape(shape, kWindows[rand.Int(0, 2)], range,
                                      f, data, &rand),
                         range));
      continue;
    }
    // Dashboard refresh: the 16 fixed (shape, range) pairs in turn, with
    // fresh literals; the pairs' range lengths and starts are stratified.
    const int pair = static_cast<int>(dashboard++ % kDashboardPairs);
    Rand fixed(seed * 31 + static_cast<uint64_t>(pair));
    const int64_t len = static_cast<int64_t>(
        Stratum(64, 512, (pair * 5) % kDashboardPairs, kDashboardPairs, &fixed));
    const int64_t start = static_cast<int64_t>(Stratum(
        1, static_cast<double>(end - len), (pair * 7) % kDashboardPairs,
        kDashboardPairs, &fixed));
    const Span range = Span::Of(start, start + len - 1);
    const int shape = pair % kShapes;
    out.push_back(Read(
        "dashboard",
        ServingShape(shape, kWindows[pair % 3], range,
                     pair_literal[static_cast<size_t>(pair)].Next(), data, &rand),
        range));
  }
  return out;
}

}  // namespace seq::perfbench
