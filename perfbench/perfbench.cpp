// The post-OPC flow benchmark: one workload per process.
//
//   poc_perfbench --characterize <lib>
//       characterizes the cell library into <lib> (an untimed step;
//       perfbench/run.py runs it once per build, so no run loads a library
//       that a different build wrote).
//   poc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --lib <lib> --work-dir <dir> [--scale full|smoke]
//       runs one workload and prints its metrics; the last stdout line is
//       one JSON object {correct, attempted, failed, metrics}.
//
// Every workload is one designer session on a generated design:
//
//   set-up   library load, netlist generation, place and route, the clock
//            probe and PostOpcFlow construction (sta_query adds the warm-up
//            rule-based OPC, extraction and annotation load) — repeated
//            several times, the median reported;
//   flow     tag, OPC, extract, annotate and STA up to compare_timing
//            (chip_sharded: run_sharded_flow with fork/exec workers) —
//            repeated on freshly set-up flows, the median reported;
//   scan     scan_hotspots over a fixed corner set — repeated, each repeat
//            with cold window caches, the median reported;
//   stream   a seeded closed-loop stream of timing queries (slack, paths,
//            retime, whatif) against a warm TimingService, sent in chunks
//            between the scans.
//
// An untraced run repeats each step a fixed number of times, in proportion
// to --seconds: the medians keep one burst of host load from setting a
// result.
//
// The seed only shapes the inputs: the netlist (random logic), the ACLV
// stream and the query stream.  The flow itself receives nothing else.
//
// With --trace 0 the run reports the end-to-end metrics, timed with plain
// stopwatches.  With --trace 1 it records spans around its own calls into
// each module's public functions (trace.h) and reports per-layer metrics
// instead; nothing inside src/ is instrumented.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "perfbench/trace.h"
#include "src/common/log.h"
#include "src/common/rng.h"
#include "src/core/flow.h"
#include "src/core/flow_shard.h"
#include "src/netlist/generators.h"
#include "src/par/thread_pool.h"
#include "src/stdcell/library.h"
#include "src/stdcell/library_io.h"

namespace perfbench {
namespace {

using namespace poc;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Single-threaded timings depend on which processor runs them: on a
/// shared host one processor can run ~1.5x slower than the others for
/// seconds at a time, as its neighbours' load comes and goes.  The client
/// thread is therefore moved round-robin over every processor the process
/// may use, so a single-threaded timing samples all of them instead of
/// whichever one it happened to start on.  The flow's thread pool is
/// created before any move, so its workers keep the full mask.
class Rotation {
 public:
  Rotation() {
    CPU_ZERO(&all_);
    sched_getaffinity(0, sizeof all_, &all_);
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
    }
  }
  /// Moves the calling thread to the next processor.
  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[turn_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }
  /// Lets the calling thread run anywhere again.
  void release() { sched_setaffinity(0, sizeof all_, &all_); }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
  std::size_t turn_ = 0;
};

// --------------------------------------------------------------- workloads

enum class Kind { kChip, kQuery, kSharded };

struct Workload {
  std::string name;
  Kind kind = Kind::kChip;
  bool tiled = false;       ///< make_tiled(size) instead of random logic
  std::size_t size = 0;     ///< gates (random logic) or tiles (tiled)
  std::size_t inputs = 0;   ///< primary inputs (random logic)
  std::size_t threads = 1;  ///< flow threads (per worker when sharded)
  std::size_t workers = 1;
  /// Whatifs at a fresh process point each, just off their grid point (see
  /// Stream), so that none is served from the latent cache.
  bool fresh_whatifs = false;
  // An untraced run of kRunSeconds takes this many samples (a run of
  // --seconds s takes them in proportion, at least kStreamChunks scans).
  std::size_t setups = 3;   ///< set-ups, besides those of further flows
  std::size_t flows = 1;
  std::size_t scans = 1;
  std::size_t queries = 0;  ///< query-stream length
};

/// The three workloads.  Sizes and sample counts are chosen so an untraced
/// run of kRunSeconds (run_seconds in BENCHMARK.json) takes a little less
/// than that on a 4-vCPU host.  The counts are fixed, not read off a clock,
/// so every run does the same work: scans within a run get faster as the
/// process warms up, so a median over a varying number of them would move
/// with the count.  Only on a host so loaded that a run would overrun its
/// time are samples beyond the first flow and kStreamChunks scans dropped.
/// "smoke" is the smallest input of each, used by the benchmark's own
/// smoke test.
std::optional<Workload> find_workload(const std::string& name, bool smoke) {
  Workload w;
  w.name = name;
  if (name == "chip_unique" || name == "chip_sharded") {
    // Seeded random logic: OPC windows do not repeat, so OPC and litho
    // compute dominate.  chip_sharded runs the same design and seed.
    // Some extraction windows do repeat, though, and how many of the
    // critical gates share one varies from seed to seed (a whatif stream
    // at the grid points hit the latent cache 38-53 % of the time, which
    // moved queries_per_s from 232 to 334 with the design): so its whatifs
    // never reuse an exposure, and every seed's stream does the same work.
    w.kind = name == "chip_unique" ? Kind::kChip : Kind::kSharded;
    w.fresh_whatifs = true;
    w.size = smoke ? 12 : 100;
    w.inputs = smoke ? 4 : 12;
    w.threads = w.kind == Kind::kSharded ? 2 : 4;
    w.workers = w.kind == Kind::kSharded ? 2 : 1;
    w.setups = 200;
    w.flows = 2;
    w.scans = w.kind == Kind::kSharded ? 2 : 4;
    w.queries = 1000;
  } else if (name == "sta_query") {
    // A warm timing service over a ~10.7k-gate chip.  Its stream is long
    // enough (>= 16 whatifs per grid point) that every grid point walks all
    // 64 critical ranks: which windows miss the latent cache is then set by
    // the design, not by the seed's picks, and query_p99_us (15 samples
    // beyond it) falls among those misses.
    w.kind = Kind::kQuery;
    w.tiled = true;
    w.size = smoke ? 6 : 2000;
    w.threads = 4;
    w.setups = 3;
    w.flows = 2;
    w.scans = 2;
    w.queries = 1500;
  } else {
    return std::nullopt;
  }
  if (smoke) w.queries = 40;
  // workers x threads never exceeds the host's processors.
  const std::size_t nproc =
      std::max<long>(1, sysconf(_SC_NPROCESSORS_ONLN));
  w.threads = std::max<std::size_t>(
      1, std::min(w.threads, nproc / std::max<std::size_t>(1, w.workers)));
  return w;
}

Netlist make_design(const Workload& w, std::uint64_t seed) {
  return w.tiled ? make_tiled(w.size)
                 : make_random_logic(w.size, w.inputs, seed);
}

FlowOptions base_options(const Workload& w, std::uint64_t seed) {
  FlowOptions o;
  o.threads = w.threads;
  o.seed = seed;
  return o;
}

/// The hotspot scan's fixed corner set: nominal and the worst two-axis
/// corner of standard_corners().  Repeat k of a run shifts both corners'
/// focus by k x 0.25 nm (at most a few nm, against a process window of
/// about +-150 nm), so that the flow's window caches, which key on the
/// exact exposure, cannot serve a repeat from the scans before it: every
/// repeat does the full work of the first.
std::vector<ProcessCorner> scan_corners(std::size_t repeat) {
  const double df = 0.25 * static_cast<double>(repeat);
  return {{"nominal", {df, 1.00}}, {"foc+dose-", {120.0 + df, 0.94}}};
}

/// The whatif exposure grid: 3 focus x 3 dose points.
Exposure grid_exposure(std::size_t point) {
  static const double focus[3] = {-60.0, 0.0, 60.0};
  static const double dose[3] = {0.98, 1.00, 1.02};
  return {focus[point % 3], dose[(point / 3) % 3]};
}

constexpr double kClockMargin = 1.12;    // clock = drawn worst arrival x 1.12
constexpr double kTagWindow = 0.05;      // tag slack window, share of clock
constexpr std::size_t kCritical = 64;    // whatif candidates: top-64 gates
constexpr std::size_t kRotateEvery = 20; // queries between processor moves
constexpr std::size_t kStreamChunks = 2; // an untraced run's stream chunks
constexpr double kRunSeconds = 36.0;     // run_seconds in BENCHMARK.json

// ------------------------------------------------------------------ report

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool exact = false;  ///< a count that repeats exactly run to run
};

struct Report {
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void add(const std::string& name, double value, const std::string& unit,
           bool exact = false) {
    metrics.push_back({name, value, unit, exact});
  }

  /// One check: counts as attempted, and as failed when it does not hold.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::printf("CHECK FAILED: %s\n", what.c_str());
    }
  }

  void print() const {
    for (const Metric& m : metrics) {
      std::printf("metric %-34s %.17g %s%s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.exact ? " [exact]" : "");
    }
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                failed == 0 ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const Metric& m = metrics[i];
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("}}\n");
  }
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of an unsorted sample.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double peak_rss_mb(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string fmt9(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9f", v);
  return buf;
}

// ------------------------------------------------------------------- setup

/// A flow ready for work: everything set-up produced, at stable addresses
/// (PostOpcFlow keeps pointers to the design and the library).
struct Ready {
  StdCellLibrary lib;
  PlacedDesign design;
  FlowOptions options;
  std::unique_ptr<PostOpcFlow> flow;
  std::unique_ptr<TimingService> service;  ///< loaded in set-up: sta_query
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
  std::string lib;
  std::string work_dir;
};

/// Loads a flow's nominal extraction into a fresh timing service: the
/// query stream's starting state (sta_query pays it in set-up).
std::unique_ptr<TimingService> prepare_service(PostOpcFlow& flow, Trace& tr) {
  std::vector<GateExtraction> ext;
  {
    const auto s = tr.span("cdx.warm_extract");
    ext = flow.extract({});
  }
  std::vector<DelayAnnotation> ann;
  {
    const auto s = tr.span("device.warm_annotate");
    ann = flow.annotate(ext);
  }
  std::unique_ptr<TimingService> service;
  {
    const auto s = tr.span("sta.make_service");
    service = std::make_unique<TimingService>(flow.make_timing_service());
  }
  const auto s = tr.span("sta.load_annotations");
  service->load_annotations(ann);
  return service;
}

/// The set-up a user pays on every run.  Each step is one span.
std::unique_ptr<Ready> set_up(const Workload& w, const Args& a, Trace& tr,
                              std::uint64_t rep) {
  auto ready = std::make_unique<Ready>();
  const auto root = tr.span("setup", rep);
  {
    const auto s = tr.span("stdcell.load", rep);
    std::optional<StdCellLibrary> lib = try_load_library(a.lib, CharParams{});
    if (!lib) throw std::runtime_error("cannot load cell library " + a.lib);
    ready->lib = std::move(*lib);
  }
  Netlist nl("empty");
  {
    const auto s = tr.span("netlist.generate", rep);
    nl = make_design(w, a.seed);
  }
  {
    const auto s = tr.span("pnr.place_route", rep);
    ready->design = place_and_route(nl, ready->lib);
  }
  ready->options = base_options(w, a.seed);
  {
    const auto s = tr.span("sta.clock_probe", rep);
    PostOpcFlow probe(ready->design, ready->lib, LithoSimulator{},
                      ready->options);
    ready->options.sta.clock_period =
        probe.run_sta(nullptr).worst_arrival * kClockMargin;
  }
  {
    const auto s = tr.span("core.flow_init", rep);
    ready->flow = std::make_unique<PostOpcFlow>(
        ready->design, ready->lib, LithoSimulator{}, ready->options);
  }
  if (w.kind == Kind::kQuery) {
    // Time-to-ready of the persistent timer: OPC, extract and load once.
    {
      const auto s = tr.span("core.warm_opc", rep);
      ready->flow->run_opc(OpcMode::kRuleBased);
    }
    ready->service = prepare_service(*ready->flow, tr);
  }
  return ready;
}

// ------------------------------------------------------------------ stream

/// Counter-based generator for the query stream (splitmix64), independent
/// of any standard-library distribution.
class StreamRng {
 public:
  explicit StreamRng(std::uint64_t seed) : state_(splitmix64(seed ^ 0x51ab)) {}
  std::uint64_t next() { return splitmix64(state_ += 0x9e3779b97f4a7c15ULL); }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t state_;
};

enum class QueryKind { kSlack, kPaths, kRetime, kWhatif };
constexpr const char* kQueryNames[] = {"query.slack", "query.paths",
                                       "query.retime", "query.whatif"};

struct Query {
  QueryKind kind = QueryKind::kSlack;
  std::size_t net = 0;             ///< slack: net index
  std::size_t k = 1;               ///< paths: K
  std::size_t grid = 0;            ///< whatif: exposure grid point
  std::size_t visit = 0;           ///< whatif: earlier whatifs at `grid`
  std::vector<std::size_t> picks;  ///< retime: gates; whatif: critical ranks
  std::vector<double> scales;      ///< retime: delay scale per gate
};

std::vector<std::size_t> distinct(StreamRng& rng, std::size_t count,
                                  std::size_t range) {
  std::vector<std::size_t> out;
  count = std::min(count, range);
  while (out.size() < count) {
    const std::size_t v = rng.below(range);
    if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
  }
  return out;
}

/// The seeded query mix, generated in blocks of 100 with exact shares so
/// that no seed and no stream length gets more of the expensive kinds than
/// another: 30 % slack reads of random nets, 20 % top-K path reads
/// (K = 1-8), 40 % retime commits of 1-8 random gates (delay x 0.97-1.03)
/// and 10 % whatifs re-extracting 4 of the top-64 critical gates at one
/// point of the 3x3 focus/dose grid, in a seeded order.  The shares put
/// both reported percentiles inside one dense population: the median among
/// retimes and re-timing slack reads, the 99th among whatifs that miss the
/// latent cache.  Whatifs cycle through the grid points and walk a shuffled
/// order of the 64 ranks at each, so a (gate, exposure) pair recurs only
/// once all 64 ranks at that point have been asked: whether a whatif misses
/// depends on the design's repeated windows, not on how often a seed
/// happens to repeat a pair.
class QueryGen {
 public:
  static constexpr std::size_t kBlock = 100;

  QueryGen(std::uint64_t seed, std::size_t nets, std::size_t gates)
      : rng_(seed), nets_(nets), gates_(gates) {}

  /// The next kBlock queries.
  std::vector<Query> block() {
    std::vector<Query> out(kBlock);
    static constexpr QueryKind kSlots[10] = {
        QueryKind::kSlack,  QueryKind::kSlack,  QueryKind::kSlack,
        QueryKind::kPaths,  QueryKind::kPaths,  QueryKind::kRetime,
        QueryKind::kRetime, QueryKind::kRetime, QueryKind::kRetime,
        QueryKind::kWhatif};
    for (std::size_t i = 0; i < kBlock; ++i) out[i].kind = kSlots[i % 10];
    shuffle(out);
    for (Query& q : out) {
      switch (q.kind) {
        case QueryKind::kSlack:
          q.net = rng_.below(nets_);
          break;
        case QueryKind::kPaths:
          q.k = 1 + rng_.below(8);
          break;
        case QueryKind::kRetime:
          q.picks = distinct(rng_, 1 + rng_.below(8), gates_);
          for (std::size_t j = 0; j < q.picks.size(); ++j) {
            q.scales.push_back(0.97 + 0.06 * rng_.unit());
          }
          break;
        case QueryKind::kWhatif:
          q.visit = whatifs_ / 9;
          q.grid = whatifs_++ % 9;
          for (int j = 0; j < 4; ++j) {
            std::vector<std::size_t>& r = ranks_[q.grid];
            if (used_[q.grid] % kCritical == 0) {
              r.resize(kCritical);
              for (std::size_t k = 0; k < kCritical; ++k) r[k] = k;
              shuffle(r);
            }
            q.picks.push_back(r[used_[q.grid]++ % kCritical]);
          }
          break;
      }
    }
    return out;
  }

 private:
  template <typename V>
  void shuffle(V& v) {  // Fisher-Yates
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[rng_.below(i)]);
    }
  }

  StreamRng rng_;
  std::size_t nets_, gates_;
  std::vector<std::size_t> ranks_[9];
  std::size_t used_[9] = {};
  std::size_t whatifs_ = 0;
};

struct StreamResult {
  std::vector<double> latency_us;
  std::vector<double> kind_us[4];
  double busy_s = 0.0;
  std::uint64_t arrival_evals = 0;
  CacheCounters latent_before, latent_after;
};

/// The seeded closed-loop query stream against a warm timing service (one
/// client: the next query is sent when the previous one returns), sent in
/// chunks.  Checks every whatif and, at the end, the final state.  With
/// fresh whatifs, visit v of a grid point moves its focus by
/// -(v + 1) x 0.25 nm: off every grid point and every scan corner (those
/// move by +k x 0.25 nm), so no whatif reuses an exposure.
class Stream {
 public:
  Stream(const Workload& w, const Args& a, PostOpcFlow& flow,
         std::unique_ptr<TimingService> service, Trace& tr)
      : flow_(flow),
        service_(std::move(service)),
        fresh_whatifs_(w.fresh_whatifs),
        gen_(a.seed, flow.design().netlist.num_nets(),
             flow.design().netlist.num_gates()) {
    // Critical-gate ranking the whatif picks index into: gates by slack
    // under the loaded annotations, worst first, ties by index.
    const Netlist& nl = flow.design().netlist;
    const auto s = tr.span("sta.rank_critical");
    const StaReport r = flow.run_sta(&service_->graph().annotations());
    critical_.resize(nl.num_gates());
    for (GateIdx g = 0; g < nl.num_gates(); ++g) critical_[g] = g;
    std::stable_sort(critical_.begin(), critical_.end(),
                     [&](GateIdx x, GateIdx y) {
                       return r.gate_slack[x] < r.gate_slack[y];
                     });
    critical_.resize(std::min(critical_.size(), kCritical));
    res_.latent_before = flow.cache_counters().latent;
  }

  std::size_t sent() const { return res_.latency_us.size(); }
  const StreamResult& result() const { return res_; }

  /// Sends the next `count` queries.
  void run(std::size_t count, Trace& tr, Rotation& rotation) {
    const auto root = tr.span("stream");
    for (std::size_t n = 0; n < count; ++n) {
      if (next_ == pending_.size()) {
        pending_ = gen_.block();
        next_ = 0;
      }
      const std::size_t i = sent();
      if (i % kRotateEvery == 0 || n == 0) rotation.next();
      send(pending_[next_++], i + 1, tr);
    }
    rotation.release();
  }

  /// Counts the stream's queries and checks into `rep`; the final warm
  /// state must equal a from-scratch STA over its annotations.
  void finish(Report& rep) {
    res_.latent_after = flow_.cache_counters().latent;
    rep.attempted += sent() + whatifs_;
    rep.failed += whatif_failures_;
    if (whatif_failures_ > 0) {
      std::printf("CHECK FAILED: %zu whatifs moved worst_slack\n",
                  whatif_failures_);
    }
    const StaReport fresh = flow_.run_sta(&service_->graph().annotations());
    rep.check(fresh.worst_slack == service_->worst_slack(),
              "stream final worst slack != run_sta over final annotations");
  }

 private:
  void send(const Query& q, std::uint64_t request, Trace& tr) {
    const auto kind = static_cast<std::size_t>(q.kind);
    Ps before_ws = 0.0;
    bool whatif = false;
    const auto t0 = Clock::now();
    {
      const auto s = tr.span(kQueryNames[kind], request);
      switch (q.kind) {
        case QueryKind::kSlack:
          service_->slack(static_cast<NetIdx>(q.net));
          break;
        case QueryKind::kPaths:
          service_->paths(q.k);
          break;
        case QueryKind::kRetime: {
          std::vector<GateRetime> changes;
          for (std::size_t j = 0; j < q.picks.size(); ++j) {
            const auto g = static_cast<GateIdx>(q.picks[j]);
            DelayAnnotation ann = service_->graph().annotations()[g];
            ann.fall_scale *= q.scales[j];
            ann.rise_scale *= q.scales[j];
            changes.push_back({g, ann});
          }
          res_.arrival_evals += service_->retime(changes).arrival_evals;
          break;
        }
        case QueryKind::kWhatif: {
          std::vector<GateIdx> subset;
          for (std::size_t p : q.picks) {
            const GateIdx g = critical_[p % critical_.size()];
            if (std::find(subset.begin(), subset.end(), g) == subset.end()) {
              subset.push_back(g);
            }
          }
          std::sort(subset.begin(), subset.end());
          std::vector<GateExtraction> ext;
          {
            const auto s2 = tr.span("cdx.whatif_extract", request);
            Exposure e = grid_exposure(q.grid);
            if (fresh_whatifs_) {
              e.focus_nm -= 0.25 * static_cast<double>(q.visit + 1);
            }
            ext = flow_.extract(e, subset);
          }
          std::vector<DelayAnnotation> ann;
          {
            const auto s2 = tr.span("device.whatif_annotate", request);
            ann = flow_.annotate(ext);
          }
          std::vector<GateRetime> candidate;
          for (GateIdx g : subset) candidate.push_back({g, ann[g]});
          const auto s2 = tr.span("sta.whatif", request);
          before_ws = service_->whatif(candidate).worst_slack_before;
          whatif = true;
          break;
        }
      }
    }
    const double us = since(t0) * 1e6;
    res_.latency_us.push_back(us);
    res_.kind_us[kind].push_back(us);
    res_.busy_s += us * 1e-6;
    if (whatif) {
      // A whatif must leave the graph exactly as it found it.
      ++whatifs_;
      if (service_->worst_slack() != before_ws) ++whatif_failures_;
    }
  }

  PostOpcFlow& flow_;
  std::unique_ptr<TimingService> service_;
  bool fresh_whatifs_;
  std::vector<GateIdx> critical_;
  QueryGen gen_;
  std::vector<Query> pending_;
  std::size_t next_ = 0;
  StreamResult res_;
  std::size_t whatifs_ = 0, whatif_failures_ = 0;
};

// -------------------------------------------------------------------- pass

/// One flow sample: its time and what the flow produced.
struct FlowSample {
  double flow_s = 0.0;
  Ps worst_slack = 0.0;
  // chip_sharded only
  ShardFlowResult shard;
  std::size_t failed_workers = 0;
  std::uint64_t disk_entries = 0;
};

/// Steps 1-5 on a ready flow, timed as flow_s.  Untraced, the flow ends
/// in compare_timing and its decomposition is replayed afterwards as the
/// check; traced, the decomposition is the timed path (one span per call)
/// and compare_timing is the check.  Either way the two must agree to the
/// bit, with clean health.
Ps run_flow(const Workload& w, PostOpcFlow& flow, Trace& tr, Report& rep,
            double* flow_s) {
  const auto decomposed = [&]() {
    {
      const auto s = tr.span("sta.retime");
      flow.run_sta_incremental(nullptr);
    }
    std::vector<GateExtraction> ext;
    {
      const auto s = tr.span("cdx.extract");
      ext = flow.extract({});
    }
    std::vector<DelayAnnotation> ann;
    {
      const auto s = tr.span("device.annotate");
      Rng rng(flow.options().seed);
      ann = flow.annotate_with_aclv(
          ext,
          flow.options().silicon.enabled ? flow.options().silicon.aclv_sigma_nm
                                         : 0.0,
          rng);
    }
    const auto s = tr.span("sta.retime");
    return flow.run_sta_incremental(&ann).worst_slack;
  };

  Ps timed_ws = 0.0, check_ws = 0.0;
  const auto t0 = Clock::now();
  {
    const auto root = tr.span("flow");
    {
      const auto s = tr.span("sta.tag");
      flow.tag_critical_gates(flow.options().sta.clock_period * kTagWindow);
    }
    if (w.kind != Kind::kQuery) {
      const auto s = tr.span("opc.run");
      flow.run_opc(OpcMode::kModelBased);
    }
    timed_ws = tr.enabled() ? decomposed() : flow.compare_timing().annotated.worst_slack;
  }
  *flow_s = since(t0);
  {
    const auto s = tr.span("check.flow_identity");
    check_ws = tr.enabled() ? flow.compare_timing().annotated.worst_slack
                            : decomposed();
  }
  rep.check(timed_ws == check_ws && flow.health().clean(),
            "decomposed flow != compare_timing (" + fmt9(timed_ws) + " vs " +
                fmt9(check_ws) + ") or unclean health");
  return timed_ws;
}

/// Scan repeat `repeat` of the run (see scan_corners).
double scan(PostOpcFlow& flow, Trace& tr, Report& rep, std::size_t repeat,
            std::size_t* windows) {
  const auto t0 = Clock::now();
  PostOpcFlow::HotspotReport r;
  {
    const auto s = tr.span("opc.scan");
    r = flow.scan_hotspots(scan_corners(repeat));
  }
  const double dt = since(t0);
  *windows = r.windows_checked;
  rep.attempted += r.windows_checked;
  rep.check(r.windows_checked == flow.design().layout.num_instances(),
            "scan skipped windows");
  return dt;
}

std::vector<std::string> worker_argv(const Workload& w, const Args& a,
                                     const std::string& dir, double clock,
                                     const ShardSpec& spec) {
  char clock_hex[64];
  std::snprintf(clock_hex, sizeof clock_hex, "%a", clock);
  std::vector<std::string> argv = {
      "/proc/self/exe", "--shard-worker",
      "--workload", w.name,
      "--scale", a.smoke ? "smoke" : "full",
      "--seed", std::to_string(a.seed),
      "--lib", a.lib,
      "--work-dir", dir,
      "--clock", clock_hex,
      "--worker-id", std::to_string(spec.worker),
      "--workers", std::to_string(spec.workers),
      "--policy", shard_policy_name(spec.policy),
      "--lo", std::to_string(spec.lo),
      "--hi", std::to_string(spec.hi),
      "--residue", std::to_string(spec.residue),
  };
  return argv;
}

std::uint64_t count_entries(const std::string& dir) {
  std::uint64_t n = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file() && it->path().extension() == ".entry") ++n;
  }
  return n;
}

/// One flow sample on a ready flow.  chip_sharded runs run_sharded_flow
/// with fork/exec workers in a fresh work directory instead.
FlowSample run_flow_sample(const Workload& w, const Args& a, Ready& ready,
                           Trace& tr, Report& rep, std::size_t index) {
  FlowSample f;
  if (w.kind != Kind::kSharded) {
    f.worst_slack = run_flow(w, *ready.flow, tr, rep, &f.flow_s);
    rep.attempted += ready.flow->opc_stats().windows;
    return f;
  }
  const std::string dir = a.work_dir + "/pass" + std::to_string(index);
  fs::remove_all(dir);
  ShardFlowOptions so;
  so.workers = w.workers;
  so.work_dir = dir;
  so.opc_mode = OpcMode::kModelBased;
  const double clock = ready.options.sta.clock_period;
  so.worker_command = [w, a, dir, clock](const ShardSpec& spec) {
    return worker_argv(w, a, dir, clock, spec);
  };
  const auto t0 = Clock::now();
  {
    const auto root = tr.span("flow");
    const auto s = tr.span("run.sharded_flow");
    f.shard = run_sharded_flow(ready.design, ready.lib, LithoSimulator{},
                               ready.options, so);
  }
  f.flow_s = since(t0);
  f.worst_slack = f.shard.comparison.annotated.worst_slack;
  for (const WorkerExit& ex : f.shard.exits) {
    if (!ex.ok()) ++f.failed_workers;
  }
  rep.attempted += f.shard.exits.size();
  rep.failed += f.failed_workers + f.shard.comparison.health.degraded_windows;
  rep.check(f.shard.shard_health.clean() && f.shard.comparison.health.clean(),
            "sharded run reported faults");
  f.disk_entries = count_entries(dir + "/cache");
  fs::remove_all(dir);
  return f;
}

/// chip_sharded's reference: the single-process chip_unique flow on the
/// same design and seed, with the workers' threads (results are identical
/// at any thread count), taken to compare_timing.  Untimed.  Its worst
/// slack is what every sharded run must reproduce, and the scans and the
/// query stream run on it: without a journal or disk tier, as on
/// chip_unique, so no file-system latency enters scan_s or the query
/// latencies.
std::unique_ptr<PostOpcFlow> reference_flow(const Workload& w,
                                            const Ready& ready, Trace& tr,
                                            Ps* worst_slack) {
  const auto s = tr.span("check.shard_identity");
  FlowOptions o = ready.options;
  o.threads = w.threads * w.workers;
  auto flow = std::make_unique<PostOpcFlow>(ready.design, ready.lib,
                                            LithoSimulator{}, o);
  flow->run_opc(OpcMode::kModelBased);
  *worst_slack = flow->compare_timing().annotated.worst_slack;
  return flow;
}

/// What the per-layer metrics read, besides the trace: the first flow
/// sample and the state of the flow the scans and the stream ran on.
struct Measured {
  FlowSample flow;
  OpcStats opc;
  PostOpcFlow::FlowCacheCounters cache;  ///< after the flow and one scan
  FlowHealth health;
  std::size_t scan_windows = 0;
  StreamResult stream;
};

// ------------------------------------------------------------------ metrics

void end_to_end_metrics(const std::vector<double>& setup,
                        const std::vector<double>& flow,
                        const std::vector<double>& scans,
                        const StreamResult& stream, double rss,
                        Report& rep) {
  const std::vector<double>& lat = stream.latency_us;
  rep.add("setup_s", median(setup), "s");
  rep.add("flow_s", median(flow), "s");
  rep.add("scan_s", median(scans), "s");
  rep.add("peak_rss_mb", rss, "MB");
  rep.add("queries_per_s", static_cast<double>(lat.size()) / stream.busy_s,
          "1/s");
  rep.add("query_p50_us", percentile(lat, 50.0), "us");
  rep.add("query_p99_us", percentile(lat, 99.0), "us");
}

/// Median over set-up repetitions of one step's span.
double setup_median(const Trace& tr, const std::string& name) {
  std::vector<double> v;
  for (const Trace::Span& s : tr.spans()) {
    if (s.name == name) v.push_back(s.seconds());
  }
  return median(v);
}

void add_ratio(Report& rep, const std::string& prefix,
               const CacheCounters& c) {
  const std::uint64_t lookups = c.hits + c.disk_hits + c.misses;
  rep.add(prefix + ".hit_ratio", c.hit_rate(), "ratio");
  rep.add(prefix + ".lookups", static_cast<double>(lookups), "count", true);
}

void per_layer_metrics(const Workload& w, const Trace& tr,
                       const Measured& p, double span_cost_s,
                       std::size_t setup_reps, Report& rep) {
  // Set-up, median over repetitions.
  for (const char* name :
       {"stdcell.load", "netlist.generate", "pnr.place_route",
        "sta.clock_probe", "core.flow_init"}) {
    rep.add(std::string(name) + "_s", setup_median(tr, name), "s");
  }
  rep.add("trace.setup_unattributed_s", median(tr.self_each("setup")), "s");
  // sta_query's warm-up is set-up; on chip workloads the same calls
  // prepare the stream after the flow.
  const bool q = w.kind == Kind::kQuery;
  const auto warm = [&](const char* name) {
    return q ? setup_median(tr, name) : tr.total_s(name);
  };
  rep.add("core.warm_opc_s", warm("core.warm_opc"), "s");
  rep.add("cdx.warm_extract_s", warm("cdx.warm_extract"), "s");
  rep.add("device.warm_annotate_s", warm("device.warm_annotate"), "s");
  rep.add("sta.make_service_s", warm("sta.make_service"), "s");
  rep.add("sta.load_annotations_s", warm("sta.load_annotations"), "s");

  // Flow.  On sta_query OPC ran in set-up (rule-based), so opc.run_s there
  // is core.warm_opc_s; on chip_sharded OPC runs in the workers (run.*), so
  // opc.run_s there is 0.
  const double opc_s = q ? setup_median(tr, "core.warm_opc")
                         : tr.total_s("opc.run");
  rep.add("sta.tag_s", tr.total_s("sta.tag"), "s");
  rep.add("opc.run_s", opc_s, "s");
  rep.add("opc.windows", static_cast<double>(p.opc.windows), "count", true);
  rep.add("opc.iterations", static_cast<double>(p.opc.iterations), "count",
          true);
  rep.add("opc.windows_per_s",
          opc_s > 0.0 ? static_cast<double>(p.opc.windows) / opc_s : 0.0,
          "1/s");
  rep.add("cdx.extract_s", tr.total_s("cdx.extract"), "s");
  rep.add("device.annotate_s", tr.total_s("device.annotate"), "s");
  rep.add("sta.retime_s", tr.total_s("sta.retime"), "s");
  rep.add("trace.flow_s", tr.total_s("flow"), "s");
  rep.add("trace.flow_unattributed_s", tr.self_s("flow"), "s");

  // Scan.
  rep.add("opc.scan_s", tr.total_s("opc.scan"), "s");
  rep.add("opc.scan_windows", static_cast<double>(p.scan_windows), "count",
          true);

  // Window caches of the flow the benchmark drove (flow + scan).
  add_ratio(rep, "cache.opc", p.cache.opc);
  add_ratio(rep, "cache.latent", p.cache.latent);
  add_ratio(rep, "cache.orc", p.cache.orc);
  const CacheCounters total = p.cache.total();
  rep.add("cache.evictions", static_cast<double>(total.evictions), "count");
  rep.add("cache.bytes", static_cast<double>(total.bytes), "bytes");

  // Stream.
  const StreamResult& s = p.stream;
  static const char* kinds[] = {"sta.slack_p50_us", "sta.paths_p50_us",
                                "sta.retime_p50_us", "sta.whatif_p50_us"};
  for (std::size_t k = 0; k < 4; ++k) {
    rep.add(kinds[k], percentile(s.kind_us[k], 50.0), "us");
  }
  rep.add("sta.queries", static_cast<double>(s.latency_us.size()), "count",
          true);
  rep.add("sta.arrival_evals", static_cast<double>(s.arrival_evals), "count",
          true);
  rep.add("sta.rank_critical_s", tr.total_s("sta.rank_critical"), "s");
  rep.add("cdx.whatif_extract_s", tr.total_s("cdx.whatif_extract"), "s");
  rep.add("device.whatif_annotate_s", tr.total_s("device.whatif_annotate"),
          "s");
  rep.add("sta.whatif_s", tr.total_s("sta.whatif"), "s");
  CacheCounters delta;
  delta.hits = s.latent_after.hits - s.latent_before.hits;
  delta.disk_hits = s.latent_after.disk_hits - s.latent_before.disk_hits;
  delta.misses = s.latent_after.misses - s.latent_before.misses;
  add_ratio(rep, "cache.latent.stream", delta);
  rep.add("trace.stream_s", tr.total_s("stream"), "s");
  rep.add("trace.stream_unattributed_s", tr.self_s("stream"), "s");

  // Sharded run (zero elsewhere: no workers).
  double wmax = 0.0, wmin = 0.0, wrss = 0.0;
  std::uint64_t disk_hits = 0;
  bool first = true;
  for (const ShardWorkerStats& st : p.flow.shard.worker_stats) {
    const double ws = st.wall_ms * 1e-3;
    wmax = std::max(wmax, ws);
    wmin = first ? ws : std::min(wmin, ws);
    first = false;
    wrss = std::max(wrss, static_cast<double>(st.maxrss_kb) / 1024.0);
    disk_hits += st.disk_hits;
  }
  const bool sharded = w.kind == Kind::kSharded;
  rep.add("run.worker_max_s", wmax, "s");
  rep.add("run.worker_min_s", wmin, "s");
  rep.add("run.coordinator_tail_s",
          sharded ? tr.total_s("run.sharded_flow") - wmax : 0.0, "s");
  rep.add("run.residual_windows",
          static_cast<double>(p.flow.shard.residual_windows), "count", true);
  rep.add("run.failed_workers", static_cast<double>(p.flow.failed_workers), "count",
          true);
  rep.add("run.worker_peak_rss_mb", wrss, "MB");
  rep.add("cache.disk.publishes", static_cast<double>(p.flow.disk_entries),
          "count");
  rep.add("cache.disk.hits", static_cast<double>(disk_hits), "count");

  // Failures and configuration.
  rep.add("core.retries", static_cast<double>(p.health.retries), "count",
          true);
  rep.add("core.degraded_windows",
          static_cast<double>(p.health.degraded_windows), "count", true);
  rep.add("core.fail_ratio",
          rep.attempted == 0 ? 0.0
                             : static_cast<double>(rep.failed) /
                                   static_cast<double>(rep.attempted),
          "ratio");
  rep.add("run.nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)),
          "count", true);
  rep.add("run.threads", static_cast<double>(w.threads), "count", true);
  rep.add("run.workers", static_cast<double>(w.workers), "count", true);
  rep.add("run.setup_reps", static_cast<double>(setup_reps), "count");

  // Tracing cost: spans recorded x the measured cost of one span, over the
  // traced wall time.
  double wall = 0.0;
  for (const Trace::Span& sp : tr.spans()) {
    if (sp.parent < 0) wall += sp.seconds();
  }
  const double spans = static_cast<double>(tr.spans().size());
  rep.add("trace.spans", spans, "count");
  rep.add("trace.span_cost_ns", span_cost_s * 1e9, "ns");
  rep.add("trace.overhead_pct",
          wall > 0.0 ? 100.0 * spans * span_cost_s / wall : 0.0, "%");
}

/// Cost of recording one span (open + close), measured on a throwaway trace.
double span_cost_s() {
  Trace probe(true);
  constexpr int kSpans = 20000;
  const auto t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    const auto s = probe.span("calibrate", static_cast<std::uint64_t>(i));
  }
  return since(t0) / kSpans;
}

// -------------------------------------------------------------------- main

int run_workload(const Workload& w, const Args& a) {
  std::printf("config workload=%s scale=%s seed=%llu nproc=%ld threads=%zu "
              "workers=%zu trace=%d\n",
              w.name.c_str(), a.smoke ? "smoke" : "full",
              static_cast<unsigned long long>(a.seed),
              sysconf(_SC_NPROCESSORS_ONLN), w.threads, w.workers,
              a.trace ? 1 : 0);
  const auto start = Clock::now();
  const auto elapsed = [&start] { return since(start); };
  const double span_cost = a.trace ? span_cost_s() : 0.0;
  Trace tr(a.trace);
  Report rep;
  fs::create_directories(a.work_dir);
  global_pool();  // workers start with the full processor mask
  Rotation rotation;

  // Sample counts of this run (the traced run takes one flow and one scan).
  const double share = a.seconds / kRunSeconds;
  const auto count = [share](std::size_t n, std::size_t least) {
    return std::max(least, static_cast<std::size_t>(std::lround(n * share)));
  };
  const std::size_t setups = count(w.setups, 3);
  const std::size_t flows = a.trace ? 1 : count(w.flows, 1);
  const std::size_t scans_wanted = a.trace ? 1 : count(w.scans, kStreamChunks);
  // A sample beyond the minimum is taken while one like the last still
  // ends within --seconds.
  const auto fits = [&](double last) { return elapsed() + last <= a.seconds; };

  // Set-up, repeated.  Each further flow sample starts from a fresh set-up
  // as well (its cold caches are part of what is measured), and those
  // set-ups count too.
  std::vector<double> setup;
  std::unique_ptr<Ready> ready;
  const auto set_up_fresh = [&] {
    ready.reset();  // one design in memory at a time
    rotation.next();
    const auto t0 = Clock::now();
    ready = set_up(w, a, tr, setup.size() + 1);
    setup.push_back(since(t0));
    rotation.release();
  };
  while (setup.size() < setups) set_up_fresh();

  Measured m;
  std::vector<double> flow_s;
  std::vector<Ps> worst_slacks;
  double last = 0.0;
  while (flow_s.size() < flows && (flow_s.empty() || fits(last))) {
    const auto t0 = Clock::now();
    if (!flow_s.empty()) set_up_fresh();
    FlowSample f = run_flow_sample(w, a, *ready, tr, rep, flow_s.size());
    flow_s.push_back(f.flow_s);
    worst_slacks.push_back(f.worst_slack);
    if (flow_s.size() == 1) {
      m.flow = std::move(f);
    } else {
      rep.check(f.worst_slack == m.flow.worst_slack,
                "worst slack differs between flow samples");
    }
    last = since(t0);
  }

  PostOpcFlow* flow = ready->flow.get();
  std::unique_ptr<PostOpcFlow> reference;
  if (w.kind == Kind::kSharded) {
    Ps ref_ws = 0.0;
    reference = reference_flow(w, *ready, tr, &ref_ws);
    flow = reference.get();
    rep.attempted += flow->opc_stats().windows;
    for (Ps ws : worst_slacks) {
      rep.check(fmt9(ws) == fmt9(ref_ws), "sharded worst slack " + fmt9(ws) +
                                              " != single-process " +
                                              fmt9(ref_ws));
    }
  }
  m.opc = flow->opc_stats();

  // The scans.  The query stream, of a fixed length, is sent in
  // kStreamChunks chunks after the first scans: spread over the run, so
  // that one burst of host load does not set its percentiles.  The traced
  // run sends it in one go.
  std::vector<double> scans;
  std::optional<Stream> stream;
  while (scans.size() < scans_wanted &&
         (scans.size() < kStreamChunks || fits(scans.back()))) {
    scans.push_back(scan(*flow, tr, rep, scans.size(), &m.scan_windows));
    if (!stream) {
      m.cache = flow->cache_counters();
      std::unique_ptr<TimingService> service = std::move(ready->service);
      if (!service) {
        const auto s = tr.span("stream_prep");
        service = prepare_service(*flow, tr);
      }
      stream.emplace(w, a, *flow, std::move(service), tr);
    }
    const std::size_t chunks = a.trace ? 1 : kStreamChunks;
    if (scans.size() <= chunks) {
      stream->run(w.queries * scans.size() / chunks - stream->sent(), tr,
                  rotation);
    }
  }
  stream->finish(rep);
  m.stream = stream->result();

  m.health = flow->health();
  rep.failed += m.health.degraded_windows;
  for (const auto& f : m.flow.shard.comparison.health.faults) {
    m.health.faults.push_back(f);
  }
  m.health.retries += m.flow.shard.comparison.health.retries;
  m.health.degraded_windows += m.flow.shard.comparison.health.degraded_windows;
  const double rss = std::max(peak_rss_mb(RUSAGE_SELF),
                              peak_rss_mb(RUSAGE_CHILDREN));
  std::printf("flows=%zu scans=%zu queries=%zu setup_reps=%zu "
              "annotated_ws=%s seconds=%.3f\n",
              flow_s.size(), scans.size(), stream->sent(), setup.size(),
              fmt9(m.flow.worst_slack).c_str(), elapsed());
  for (const auto& [name, v] : {std::pair{"flow_s", &flow_s},
                                std::pair{"scan_s", &scans}}) {
    std::printf("samples %s", name);
    for (double x : *v) std::printf(" %.4f", x);
    std::printf("\n");
  }

  if (a.trace) {
    per_layer_metrics(w, tr, m, span_cost, setup.size(), rep);
    tr.write_chrome(a.work_dir + "/trace.json");
  } else {
    end_to_end_metrics(setup, flow_s, scans, m.stream, rss, rep);
  }
  rep.print();
  return 0;
}

int run_worker(const Workload& w, const Args& a, double clock,
               const ShardSpec& spec) {
  std::optional<StdCellLibrary> lib = try_load_library(a.lib, CharParams{});
  if (!lib) return 2;
  const PlacedDesign design = place_and_route(make_design(w, a.seed), *lib);
  FlowOptions o = base_options(w, a.seed);
  o.sta.clock_period = clock;
  o.cache.disk_path = a.work_dir + "/cache";
  ShardWorkerOptions wo;
  wo.spec = spec;
  wo.work_dir = a.work_dir;
  wo.opc_mode = OpcMode::kModelBased;
  return run_shard_worker(design, *lib, LithoSimulator{}, o, wo) ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: poc_perfbench --characterize <lib>\n"
               "       poc_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --lib <lib> --work-dir <dir> "
               "[--scale full|smoke]\n");
  return 2;
}

int main_impl(int argc, char** argv) {
  set_log_level(LogLevel::kWarn);
  Args a;
  std::string characterize;
  bool worker = false;
  double clock = 0.0;
  ShardSpec spec;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--shard-worker") {
      worker = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (arg == "--characterize") characterize = v;
    else if (arg == "--workload") a.workload = v;
    else if (arg == "--seed") a.seed = std::stoull(v);
    else if (arg == "--seconds") a.seconds = std::stod(v);
    else if (arg == "--trace") a.trace = v == "1";
    else if (arg == "--scale") a.smoke = v == "smoke";
    else if (arg == "--lib") a.lib = v;
    else if (arg == "--work-dir") a.work_dir = v;
    else if (arg == "--clock") clock = std::strtod(v.c_str(), nullptr);
    else if (arg == "--worker-id") spec.worker = static_cast<std::uint32_t>(std::stoul(v));
    else if (arg == "--workers") spec.workers = static_cast<std::uint32_t>(std::stoul(v));
    else if (arg == "--policy") spec.policy = v == "interleaved" ? ShardPolicy::kInterleaved : ShardPolicy::kContiguous;
    else if (arg == "--lo") spec.lo = std::stoull(v);
    else if (arg == "--hi") spec.hi = std::stoull(v);
    else if (arg == "--residue") spec.residue = static_cast<std::uint32_t>(std::stoul(v));
    else return usage();
  }
  if (!characterize.empty()) {
    save_library(StdCellLibrary::characterize_all(), characterize);
    return 0;
  }
  const std::optional<Workload> w = find_workload(a.workload, a.smoke);
  if (!w || a.lib.empty() || a.work_dir.empty()) return usage();
  return worker ? run_worker(*w, a, clock, spec) : run_workload(*w, a);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "poc_perfbench: %s\n", e.what());
    return 1;
  }
}
