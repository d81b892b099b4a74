#include "src/core/flow.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <memory>
#include <unordered_map>

#include "src/cache/disk_store.h"
#include "src/cache/fingerprint.h"
#include "src/common/check.h"
#include "src/common/fault.h"
#include "src/common/log.h"
#include "src/common/serialize.h"
#include "src/core/window_codec.h"
#include "src/core/window_loop.h"
#include "src/geom/polygon_ops.h"
#include "src/litho/batch.h"
#include "src/opc/rule_opc.h"
#include "src/par/thread_pool.h"

namespace poc {
namespace {

/// Drive ratios below this are treated as broken devices (pinched gates)
/// rather than fed to the delay scaler as near-zero divisors.
constexpr double kMinDriveRatio = 0.05;

double safe_ratio(double r) { return std::max(r, kMinDriveRatio); }

/// Deterministic OpcStats merge; addition order is fixed by the caller
/// (instance order), which keeps the double sums bit-identical across
/// thread counts.
OpcStats merge_stats(OpcStats acc, const OpcStats& w) {
  acc.windows += w.windows;
  acc.model_based_windows += w.model_based_windows;
  acc.fragments += w.fragments;
  acc.iterations += w.iterations;
  acc.max_abs_epe_nm = std::max(acc.max_abs_epe_nm, w.max_abs_epe_nm);
  acc.rms_epe_sum += w.rms_epe_sum;
  return acc;
}

// Fingerprint feeders for every parameter block that can change a window
// result.  Field order is fixed — it is part of the key.

void hash_optics(FpHasher& h, const OpticalSettings& o) {
  h.f64(o.wavelength_nm)
      .f64(o.na)
      .f64(o.sigma_inner)
      .f64(o.sigma_outer)
      .u64(o.source_rings)
      .u64(o.source_spokes)
      .f64(o.z9_spherical_waves)
      .f64(o.z7_coma_x_waves);
}

void hash_imaging(FpHasher& h, const ImagingOptions& im) {
  h.u64(static_cast<std::uint64_t>(im.mode))
      .u64(im.socs.max_kernels)
      .f64(im.socs.energy_fraction);
}

void hash_sim(FpHasher& h, const LithoSimulator& sim) {
  hash_optics(h, sim.optics());
  hash_imaging(h, sim.imaging());
  h.f64(sim.resist().diffusion_nm).f64(sim.resist().threshold);
}

void hash_exposure(FpHasher& h, const Exposure& e) {
  h.f64(e.focus_nm).f64(e.dose);
}

void hash_opc_options(FpHasher& h, const OpcOptions& o) {
  const FragmentationOptions& f = o.fragmentation;
  h.i64(f.max_fragment_len)
      .i64(f.corner_len)
      .i64(f.min_edge_for_corners)
      .i64(f.line_end_max_len);
  h.u64(o.max_iterations)
      .f64(o.damping)
      .f64(o.epe_tolerance_nm)
      .i64(o.max_bias)
      .i64(o.min_bias)
      .f64(o.probe_inside_nm)
      .f64(o.probe_outside_nm)
      .u64(static_cast<std::uint64_t>(o.sim_quality))
      .u64(static_cast<std::uint64_t>(o.final_quality))
      .f64(o.handoff_epe_nm)
      .u64(o.final_iterations)
      .u64(static_cast<std::uint64_t>(o.sim_imaging))
      .u64(static_cast<std::uint64_t>(o.final_imaging))
      .u64(o.insert_srafs ? 1 : 0)
      .f64(o.abort_epe_nm);
}

void hash_orc_options(FpHasher& h, const OrcOptions& o) {
  h.f64(o.pinch_fraction)
      .f64(o.epe_limit_nm)
      .i64(o.bridge_check_space)
      .u64(o.exclude_corner_fragments ? 1 : 0)
      .u64(static_cast<std::uint64_t>(o.quality));
}

void log_cache(const char* what, const CacheCounters& c) {
  log_info(what, " cache: ", c.hits, " hits / ", c.misses, " misses (",
           c.hit_rate() * 100.0, "% hit rate), ", c.entries, " entries, ",
           c.evictions, " evictions");
}

// Retry escalation (see RecoveryOptions): sign-off quality instead of the
// nominal setting, and the Abbe reference engine instead of SOCS.

// Escalated retries always jump to the sign-off quality tier.
constexpr LithoQuality kEscalatedQuality = LithoQuality::kFine;

/// The retry simulator: `sim` switched to Abbe when it runs SOCS and the
/// policy asks for the reference fallback.
LithoSimulator retry_simulator(const LithoSimulator& sim,
                               const RecoveryOptions& rec) {
  LithoSimulator out = sim;
  if (rec.fallback_to_abbe && sim.imaging().mode == ImagingMode::kSocs) {
    ImagingOptions im = sim.imaging();
    im.mode = ImagingMode::kAbbe;
    out.set_imaging(im);
  }
  return out;
}

// ---- Window loops (see "Batched window execution", DESIGN.md) --------------
//
// The three hot loops run through run_window_loop (window_loop.h) in chunks
// of loop_chunk windows.  Each chunk's journal and cache misses are computed
// in one batched call, every window contained as its own fault lane.

/// Batching engages only for the SOCS engine; the Abbe reference images
/// every window alone.
bool batching_enabled(const LithoSimulator& sim) {
  return sim.imaging().batch_windows != 0 &&
         sim.imaging().mode == ImagingMode::kSocs;
}

/// Hot-loop chunk size for `n` windows on `threads` (>= 1) threads: the
/// batch width when batching, else 1.  kBatchWindowsAuto sizes the batch to
/// the job — one lane tile (kTileLanes) at most, since wider batches buy
/// almost nothing per window, and never so wide that a small job (a what-if
/// re-extracting a handful of gates) lands in one chunk on one thread.
std::size_t loop_chunk(const LithoSimulator& sim, std::size_t n,
                       std::size_t threads) {
  if (!batching_enabled(sim)) return 1;
  const std::size_t batch = sim.imaging().batch_windows;
  if (batch != kBatchWindowsAuto) return batch;
  return std::clamp<std::size_t>((n + threads - 1) / threads, 1, kTileLanes);
}

/// Instance `i`'s litho window: its placed cell boundary plus the ambit.
Rect instance_window(const PlacedDesign& d, std::size_t i, DbUnit ambit) {
  const Instance& inst = d.layout.instance(i);
  return inst.transform.apply(d.layout.cell(inst.cell).boundary)
      .inflated(ambit);
}

/// Polygons as a disjoint rectangle mask (the drawn, uncorrected mask).
std::vector<Rect> drawn_rects(const std::vector<Polygon>& polys) {
  std::vector<Rect> rects;
  for (const Polygon& p : polys) {
    for (const Rect& r : decompose(p)) rects.push_back(r);
  }
  return disjoint_union(rects);
}

/// `img` with its origin moved by `by`.  Image origins are window corners
/// minus a half-integer centering offset, so rebasing a latent between the
/// window and the cache's local frame is exact in doubles: a cached latent
/// equals a recompute bit for bit.
Image2D rebased(const Image2D& img, Point by) {
  Image2D out(img.nx(), img.ny(), img.pixel(),
              img.origin_x() + static_cast<double>(by.x),
              img.origin_y() + static_cast<double>(by.y));
  out.data() = img.data();
  return out;
}

/// Calls f(group) for each group of same-shape rasters among `ws`, groups
/// in first-appearance order and members ascending: one SoA batch each.
template <typename Window, typename F>
void for_each_shape(const std::vector<Window*>& ws, F&& f) {
  std::vector<char> grouped(ws.size(), 0);
  for (std::size_t a = 0; a < ws.size(); ++a) {
    if (grouped[a]) continue;
    std::vector<Window*> group;
    for (std::size_t b = a; b < ws.size(); ++b) {
      if (!grouped[b] && ws[b]->raster.nx() == ws[a]->raster.nx() &&
          ws[b]->raster.ny() == ws[a]->raster.ny()) {
        group.push_back(ws[b]);
        grouped[b] = 1;
      }
    }
    f(group);
  }
}

/// Latent-image cache key: optics, resist diffusion (the threshold only
/// applies downstream, at contour extraction), exposure, quality and the
/// mask in the window's local frame.
Fingerprint latent_window_fp(const LithoSimulator& sim,
                             const std::vector<Rect>& mask,
                             const Rect& window, const Exposure& exposure,
                             LithoQuality quality) {
  const Point anchor{window.xlo, window.ylo};
  FpHasher h;
  h.str("latent");
  hash_optics(h, sim.optics());
  hash_imaging(h, sim.imaging());
  h.f64(sim.resist().diffusion_nm);
  hash_exposure(h, exposure);
  h.u64(static_cast<std::uint64_t>(quality));
  h.i64(window.width()).i64(window.height());
  h.rects(mask, anchor);
  return h.digest();
}

void hash_mosfet(FpHasher& h, const MosfetParams& p) {
  h.u64(p.is_nmos ? 1 : 0)
      .f64(p.vdd)
      .f64(p.vth_long)
      .f64(p.dvt_rolloff)
      .f64(p.rolloff_lc_nm)
      .f64(p.alpha)
      .f64(p.k_ua_per_um)
      .f64(p.l_ref_nm)
      .f64(p.kv_sat)
      .f64(p.subthreshold_n)
      .f64(p.i0_leak_ua_per_um)
      .f64(p.temp_vt);
}

}  // namespace

/// Containment bookkeeping.  Worker threads only ever touch the sorted
/// degraded-gate set (order-independent); fault entries are appended by the
/// calling thread in window-index order via record_outcomes, so health() is
/// bit-identical at any thread count.
struct PostOpcFlow::HealthState {
  std::mutex mutex;
  std::vector<FlowHealth::WindowFault> faults;
  std::vector<GateIdx> degraded_gates;  ///< sorted, unique
};

struct PostOpcFlow::TimingState {
  std::mutex mutex;
  std::unique_ptr<TimingGraph> graph;  ///< null until first warm re-time
};

/// The three flow-level result caches.  Values are stored in the window's
/// local frame (anchor = window origin subtracted from all coordinates) and
/// translated back on a hit, so one entry serves every placement of the
/// same cell context.  Translation of integer geometry and of half-integer
/// image origins is exact, which keeps hits bit-identical to recomputes.
struct PostOpcFlow::WindowCaches {
  ShardedCache<OpcWindow> opc;
  ShardedCache<Image2D> latent;
  ShardedCache<OrcReport> orc;  ///< one per (window, corner)

  WindowCaches(std::size_t bytes_each, std::size_t shards)
      : opc(bytes_each, shards),
        latent(bytes_each, shards),
        orc(bytes_each, shards) {}
};

namespace {

/// Attaches a disk store under `dir` to `cache`, coded by its value codec.
template <typename T>
void attach_disk(ShardedCache<T>& cache, const std::string& dir,
                 const DiskCacheStore::Options& options) {
  cache.attach_disk(
      std::make_shared<DiskCacheStore>(dir, options),
      [](const T& value) { return to_bytes(value); },
      [](const std::vector<std::uint8_t>& bytes) {
        auto value = std::make_shared<T>();
        return from_bytes(bytes, *value) ? value : nullptr;
      });
}

/// An OPC window's mask and stats from its model-based correction.
OpcWindow model_window(const OpcResult& result) {
  OpcWindow out;
  out.mask = result.mask_rects();
  out.stats.windows = 1;
  out.stats.model_based_windows = 1;
  out.stats.fragments = result.fragments.size();
  out.stats.iterations = result.iterations;
  out.stats.max_abs_epe_nm = result.max_abs_epe_body_nm;
  out.stats.rms_epe_sum = result.rms_epe_body_nm;
  return out;
}

/// `e` with its mask moved by `by` (window frame <-> cache local frame).
OpcWindow translated(const OpcWindow& e, Point by) {
  OpcWindow out;
  out.mask.reserve(e.mask.size());
  for (const Rect& r : e.mask) out.mask.push_back(r.translated(by));
  out.stats = e.stats;
  return out;
}

}  // namespace

PostOpcFlow::PostOpcFlow(const PlacedDesign& design, const StdCellLibrary& lib,
                         LithoSimulator sim, FlowOptions options)
    : design_(&design), lib_(&lib), sim_(sim), options_(options) {
  POC_EXPECTS(design.layout.frozen());
  timing_ = std::make_shared<TimingState>();
  // The silicon reference is the OPC model perturbed by the calibration
  // mismatch; with the mismatch disabled they are identical.
  ResistModel silicon_resist = sim.resist();
  if (options_.silicon.enabled) {
    silicon_resist.diffusion_nm += options_.silicon.diffusion_delta_nm;
    silicon_resist.threshold += options_.silicon.threshold_delta;
  }
  // One imaging engine for the whole flow: the OPC model and the silicon
  // reference both honour FlowOptions::imaging (per-phase OpcImaging knobs
  // may still override inside the OPC loop).
  sim_.set_imaging(options_.imaging);
  silicon_sim_ = LithoSimulator(sim.optics(), silicon_resist, options_.imaging);
  if (options_.cache.enabled) {
    caches_ = std::make_shared<WindowCaches>(
        options_.cache.capacity_mb << 20, options_.cache.shards);
    if (!options_.cache.disk_path.empty()) {
      // One store per cache kind, shared across worker processes.  Spill is
      // a pure performance layer: entries round-trip bit-exactly, so a
      // cross-worker hit is indistinguishable from an in-process recompute.
      const std::string& root = options_.cache.disk_path;
      const DiskCacheStore::Options store{options_.cache.disk_max_bytes};
      attach_disk(caches_->opc, root + "/opc", store);
      attach_disk(caches_->latent, root + "/latent", store);
      attach_disk(caches_->orc, root + "/orc", store);
    }
  }
  health_state_ = std::make_shared<HealthState>();
  if (options_.journal.enabled) {
    try {
      journal_ =
          std::make_shared<RunJournal>(options_.journal, config_fingerprint());
    } catch (...) {
      // A run that cannot journal still runs — undurable, but reported.
      const FlowError err = capture_flow_error(kNoWindowId, "journal.open");
      log_warn("run journal disabled: ", err.to_string());
      // Same rule health() applies to append-time issues: losing the
      // journal means losing durability — a degraded mode.
      health_state_->faults.push_back(
          {.phase = "journal", .index = kNoWindowId, .code = err.code,
           .origin = err.origin, .attempts = 1,
           .degraded = err.code == FaultCode::kJournalIo});
    }
    if (journal_) {
      const RunJournal::Stats js = journal_->stats();
      if (js.loaded_records > 0 || !journal_->issues().empty()) {
        log_info("run journal: replayed ", js.loaded_records,
                 " records from ", options_.journal.path, ", rejected ",
                 js.rejected_records);
      }
      // Replay and append-time issues are surfaced by health(), which reads
      // journal_->issues() live — so an append failure mid-run (ENOSPC)
      // shows up without a second mirroring pass here.
    }
  }
}

const CancelToken* PostOpcFlow::cancel_token() const {
  return options_.cancel != nullptr ? options_.cancel : &global_cancel_token();
}

Fingerprint PostOpcFlow::config_fingerprint() const {
  FpHasher h;
  h.str("poc-run-config-v1");
  hash_sim(h, sim_);
  hash_sim(h, silicon_sim_);
  hash_opc_options(h, options_.opc);
  h.f64(options_.cdx.edge_trim_fraction)
      .u64(options_.cdx.num_slices)
      .f64(options_.cdx.reach_factor);
  h.u64(static_cast<std::uint64_t>(options_.extract_quality));
  h.i64(options_.ambit_nm);
  h.u64(options_.seed);
  h.u64(options_.silicon.enabled ? 1 : 0)
      .f64(options_.silicon.diffusion_delta_nm)
      .f64(options_.silicon.threshold_delta)
      .f64(options_.silicon.focus_bias_nm)
      .f64(options_.silicon.dose_scale)
      .f64(options_.silicon.aclv_sigma_nm);
  // Recovery shapes outcomes (retry counts, degradations), so records from
  // a differently-contained run must not replay.  threads and cache/journal
  // knobs are deliberately absent: results are bit-identical across them.
  h.u64(options_.recovery.enabled ? 1 : 0)
      .u64(options_.recovery.max_retries)
      .u64(options_.recovery.escalate_quality ? 1 : 0)
      .u64(options_.recovery.fallback_to_abbe ? 1 : 0);
  // Design identity: placement (cell + transform per instance) and the
  // gate map.  Window geometry itself is hashed per record; this coarse
  // gate catches a swapped design wholesale.
  const LayoutDb& layout = design_->layout;
  h.u64(layout.num_instances());
  for (std::size_t i = 0; i < layout.num_instances(); ++i) {
    const Instance& inst = layout.instance(i);
    h.u64(inst.cell);
    h.u64(static_cast<std::uint64_t>(inst.transform.orient));
    h.i64(inst.transform.offset.x).i64(inst.transform.offset.y);
  }
  h.u64(design_->netlist.num_gates());
  for (const std::size_t inst : design_->gate_to_instance) h.u64(inst);
  // Library characterization feeds the equivalent-gate records.
  const CharParams& cp = lib_->char_params();
  hash_mosfet(h, cp.nmos);
  hash_mosfet(h, cp.pmos);
  h.f64(cp.cgate_ff_per_um).f64(cp.cdiff_ff_per_um);
  return h.digest();
}

RunJournal::Stats PostOpcFlow::journal_stats() const {
  return journal_ ? journal_->stats() : RunJournal::Stats{};
}

std::vector<ReplayIssue> PostOpcFlow::journal_issues() const {
  return journal_ ? journal_->issues() : std::vector<ReplayIssue>{};
}

FlowHealth PostOpcFlow::health() const {
  FlowHealth h;
  {
    std::lock_guard<std::mutex> lock(health_state_->mutex);
    h.faults = health_state_->faults;
    h.degraded_gates = health_state_->degraded_gates;
  }
  // Journal issues are read live, so an append-time failure (ENOSPC mid-
  // run parking the journal inert) surfaces the same way a replay reject
  // does: one phase-"journal" fault per issue.  kJournalIo means the run
  // lost durability — a degraded mode; kJournalMismatch records were
  // recomputed, which is containment working as designed.
  if (journal_) {
    for (const ReplayIssue& issue : journal_->issues()) {
      h.faults.push_back({.phase = "journal", .index = issue.offset,
                          .code = issue.code, .origin = issue.segment,
                          .attempts = 1,
                          .degraded = issue.code == FaultCode::kJournalIo});
    }
  }
  // A disk-cache tier that went down after a publish I/O error keeps the
  // run bit-identical (the memory tier serves alone) but is a degraded
  // mode worth one phase-"cache" entry per store, in fixed order.
  if (caches_) {
    const DiskCacheStore* stores[] = {caches_->opc.disk_store(),
                                      caches_->latent.disk_store(),
                                      caches_->orc.disk_store()};
    for (const DiskCacheStore* store : stores) {
      if (store == nullptr || !store->degraded()) continue;
      h.faults.push_back({.phase = "cache", .index = kNoWindowId,
                          .code = FaultCode::kCacheIo, .origin = store->dir(),
                          .attempts = 1, .degraded = true});
    }
  }
  for (const FlowHealth::WindowFault& f : h.faults) {
    if (f.attempts > 1) h.retries += f.attempts - 1;
    if (f.recovered) ++h.recovered_windows;
    if (f.degraded) ++h.degraded_windows;
  }
  return h;
}

void PostOpcFlow::reset_health() const {
  std::lock_guard<std::mutex> lock(health_state_->mutex);
  health_state_->faults.clear();
  health_state_->degraded_gates.clear();
}

void PostOpcFlow::record_outcomes(
    const char* phase, const std::vector<WindowOutcome>& outcomes) const {
  std::lock_guard<std::mutex> lock(health_state_->mutex);
  for (const WindowOutcome& oc : outcomes) {
    if (!oc.faulted) continue;
    log_warn("flow ", phase, " window ", oc.index, " fault ",
             oc.first_error.to_string(),
             oc.degraded ? " -> degraded"
                         : (oc.recovered ? " -> recovered" : ""));
    health_state_->faults.push_back(
        {phase, oc.index, oc.first_error.code, oc.first_error.origin,
         oc.attempts, oc.recovered, oc.degraded});
  }
}

void PostOpcFlow::record_degraded_gate(GateIdx gate) const {
  std::lock_guard<std::mutex> lock(health_state_->mutex);
  std::vector<GateIdx>& v = health_state_->degraded_gates;
  const auto it = std::lower_bound(v.begin(), v.end(), gate);
  if (it == v.end() || *it != gate) v.insert(it, gate);
}

PostOpcFlow::FlowCacheCounters PostOpcFlow::cache_counters() const {
  FlowCacheCounters c;
  if (caches_) {
    c.opc = caches_->opc.counters();
    c.latent = caches_->latent.counters();
    c.orc = caches_->orc.counters();
  }
  return c;
}

Exposure PostOpcFlow::silicon_exposure(const Exposure& e) const {
  if (!options_.silicon.enabled) return e;
  return {e.focus_nm + options_.silicon.focus_bias_nm,
          e.dose * options_.silicon.dose_scale};
}

StaEngine PostOpcFlow::make_sta() const {
  StaEngine engine(design_->netlist, *lib_);
  if (options_.use_parasitics && !design_->routes.empty()) {
    Extractor ex(design_->tech);
    engine.set_parasitics(ex.extract_design(*design_));
  }
  return engine;
}

StaReport PostOpcFlow::run_sta(
    const std::vector<DelayAnnotation>* annotations) const {
  StaEngine engine = make_sta();
  if (annotations != nullptr) engine.set_annotations(*annotations);
  return engine.run(options_.sta);
}

StaReport PostOpcFlow::run_sta_incremental(
    const std::vector<DelayAnnotation>* annotations) const {
  std::lock_guard<std::mutex> lock(timing_->mutex);
  if (timing_->graph == nullptr) {
    timing_->graph = std::make_unique<TimingGraph>(
        design_->netlist, *lib_, options_.sta, /*threads=*/threads());
    if (options_.use_parasitics && !design_->routes.empty()) {
      Extractor ex(design_->tech);
      timing_->graph->set_parasitics(ex.extract_design(*design_));
    }
  }
  // set_annotations diffs against the graph's current state, so only the
  // gates this re-time actually moved re-propagate.
  if (annotations != nullptr) {
    timing_->graph->set_annotations(*annotations);
  } else {
    timing_->graph->clear_annotations();
  }
  return timing_->graph->report();
}

TimingService PostOpcFlow::make_timing_service() const {
  TimingService service(design_->netlist, *lib_, options_.sta, threads());
  if (options_.use_parasitics && !design_->routes.empty()) {
    Extractor ex(design_->tech);
    service.set_parasitics(ex.extract_design(*design_));
  }
  return service;
}

std::vector<GateIdx> PostOpcFlow::tag_critical_gates(Ps slack_window) const {
  // Warm-graph re-time with drawn CDs; bit-identical to the old
  // StaEngine::critical_gates since both share TimingGraph's propagation.
  const StaReport report = run_sta_incremental(nullptr);
  std::vector<GateIdx> out;
  for (GateIdx g = 0; g < design_->netlist.num_gates(); ++g) {
    if (report.gate_slack[g] <= report.worst_slack + slack_window) {
      out.push_back(g);
    }
  }
  return out;
}

std::size_t PostOpcFlow::threads() const {
  return resolve_threads(options_.threads);
}

template <typename Phase>
void PostOpcFlow::run_windows(Phase& phase, std::size_t chunk) const {
  const RecoveryOptions& rec = options_.recovery;
  const std::vector<WindowOutcome> outcomes = run_window_loop(
      phase, {threads(), chunk, cancel_token(), journal_.get(), rec.enabled,
              rec.enabled ? rec.max_retries : 0});
  if (rec.enabled) record_outcomes(phase.name, outcomes);
}

OpcWindow PostOpcFlow::opc_window(
    OpcMode mode, const std::vector<Polygon>& targets, const Rect& window,
    const LithoSimulator& sim, const OpcOptions& opc_options) const {
  OpcWindow out;
  if (targets.empty()) return out;
  switch (mode) {
    case OpcMode::kNone:
      out.mask = drawn_rects(targets);
      break;
    case OpcMode::kRuleBased: {
      std::vector<Fragment> frags =
          fragment_polygons(targets, opc_options.fragmentation);
      out.mask = drawn_rects(rule_based_opc(targets, frags, RuleOpcTable{}));
      out.stats.fragments = frags.size();
      break;
    }
    case OpcMode::kModelBased:
      return model_window(OpcEngine(sim, opc_options).correct(targets, window));
  }
  out.stats.windows = 1;
  return out;
}

/// Per-instance OPC.  Results land in design-sized slots indexed by
/// instance, so a shard's subset runs the same code.  The cache holds the
/// mask in the window's local frame plus the window's stats, keyed by the
/// mode, the model and the local-frame targets.
struct PostOpcFlow::OpcPhase {
  struct Window : WindowState {
    OpcMode mode = OpcMode::kNone;
    Rect window;
    std::vector<Polygon> targets;
    bool hit = false;  ///< result served by the cache
    OpcWindow result;
  };
  static constexpr const char* name = "opc";
  static constexpr fault::Domain domain = fault::Domain::kOpc;
  static constexpr JournalPhase journal_phase = JournalPhase::kOpc;

  PostOpcFlow& flow;
  const std::function<OpcMode(std::size_t)>& mode_for_instance;
  const std::vector<std::size_t>* subset;
  std::vector<OpcStats>& per_window;
  /// Escalated settings shared by every retry: sign-off quality for the
  /// draft iterations and the Abbe reference when the nominal path runs
  /// SOCS.
  LithoSimulator retry_sim;
  OpcOptions retry_opts;

  std::size_t size() const {
    return subset != nullptr ? subset->size() : flow.masks_.size();
  }
  std::uint64_t index(std::size_t k) const {
    return subset != nullptr ? (*subset)[k] : k;
  }
  bool skip(Window&) const { return false; }
  Point anchor(const Window& w) const { return {w.window.xlo, w.window.ylo}; }

  void open(Window& w) const {
    w.mode = mode_for_instance(w.index);
    w.window = instance_window(*flow.design_, w.index, flow.options_.ambit_nm);
    w.targets = flow.design_->layout.flatten_layer_polys(w.window, Layer::kPoly);
    if (flow.caches_ == nullptr || w.targets.empty()) return;
    FpHasher h;
    h.str("opc").u64(static_cast<std::uint64_t>(w.mode));
    h.i64(w.window.width()).i64(w.window.height());
    hash_sim(h, flow.sim_);
    hash_opc_options(h, flow.options_.opc);
    h.polys(w.targets, anchor(w));
    w.keyed = true;
    w.key = h.digest();
  }
  Fingerprint record_fp(const Window& w) const {
    FpHasher h;
    h.str("jopc").u64(w.index).u64(static_cast<std::uint64_t>(w.mode));
    h.rect(w.window, Point{0, 0});
    hash_sim(h, flow.sim_);
    hash_opc_options(h, flow.options_.opc);
    h.polys(w.targets, Point{0, 0});
    return h.digest();
  }
  bool replay(Window& w, const JournalRecord& rec) {
    bool degraded = false;
    if (!from_bytes(rec.payload, flow.masks_[w.index], per_window[w.index],
                    degraded)) {
      return false;
    }
    flow.opc_degraded_[w.index] = degraded ? 1 : 0;
    return true;
  }
  std::vector<std::uint8_t> payload(const Window& w) const {
    return to_bytes(flow.masks_[w.index], per_window[w.index],
                    flow.opc_degraded_[w.index] != 0);
  }

  bool probe(Window& w) const {
    if (w.targets.empty()) return true;  // nothing to correct
    if (!w.keyed) return false;
    const auto hit = flow.caches_->opc.find(w.key);
    if (hit == nullptr) return false;
    w.result = translated(*hit, anchor(w));
    w.hit = true;
    return true;
  }
  /// Model-based windows correct in lockstep through correct_batch; the
  /// cheap rule-based and uncorrected modes run one by one.
  void compute(Window* const* ws, std::size_t n) const {
    std::vector<OpcBatchJob> jobs;
    std::vector<Window*> model;
    for (std::size_t j = 0; j < n; ++j) {
      Window& w = *ws[j];
      if (w.mode == OpcMode::kModelBased) {
        jobs.push_back({&w.targets, w.window, w.lane()});
        model.push_back(&w);
      } else {
        fault::run_lane(w.lane(), [&] {
          w.result = flow.opc_window(w.mode, w.targets, w.window, flow.sim_,
                                     flow.options_.opc);
        });
      }
    }
    if (jobs.empty()) return;
    const std::vector<OpcResult> results =
        OpcEngine(flow.sim_, flow.options_.opc)
            .correct_batch(jobs.data(), jobs.size(), Exposure{},
                           tls_scratch_arena());
    for (std::size_t j = 0; j < model.size(); ++j) {
      if (!model[j]->error) model[j]->result = model_window(results[j]);
    }
  }
  void store(Window& w) {
    if (w.keyed && !w.hit) {
      const Point to_local{-w.window.xlo, -w.window.ylo};
      auto entry = std::make_shared<OpcWindow>(
          translated(w.result, to_local));
      const std::size_t cost =
          w.result.mask.size() * sizeof(Rect) + sizeof(OpcWindow);
      flow.caches_->opc.insert(w.key, std::move(entry), cost);
    }
    flow.masks_[w.index] = std::move(w.result.mask);
    per_window[w.index] = w.result.stats;
  }
  void retry(Window& w) {
    w.result =
        flow.opc_window(w.mode, w.targets, w.window, retry_sim, retry_opts);
    flow.masks_[w.index] = std::move(w.result.mask);
    per_window[w.index] = w.result.stats;
  }
  /// Keeps the run alive on the drawn (uncorrected) mask and flags the
  /// instance, so its gates fall back to drawn-CD timing instead of
  /// extracting CDs from a silently-uncorrected mask.
  void degrade(Window& w) {
    try {
      flow.masks_[w.index] = drawn_rects(w.targets);
    } catch (...) {
      flow.masks_[w.index].clear();
    }
    per_window[w.index] = {};
    per_window[w.index].windows = 1;
    flow.opc_degraded_[w.index] = 1;
  }
};

void PostOpcFlow::run_opc_windows(
    const std::function<OpcMode(std::size_t)>& mode_for_instance,
    const std::vector<std::size_t>* subset) {
  const std::size_t n = design_->layout.num_instances();
  masks_.assign(n, {});
  opc_degraded_.assign(n, 0);
  // The per-window stats merge on the calling thread in instance order, so
  // the aggregate is bit-identical whatever the thread count.
  std::vector<OpcStats> per_window(n);
  OpcOptions retry_opts = options_.opc;
  if (options_.recovery.escalate_quality) {
    retry_opts.sim_quality = retry_opts.final_quality;
  }
  const LithoSimulator retry_sim = retry_simulator(sim_, options_.recovery);
  if (retry_sim.imaging().mode != sim_.imaging().mode) {
    retry_opts.sim_imaging = OpcImaging::kAbbe;
    retry_opts.final_imaging = OpcImaging::kAbbe;
  }
  OpcPhase phase{*this, mode_for_instance, subset, per_window, retry_sim,
                 retry_opts};
  run_windows(phase, loop_chunk(sim_, phase.size(), threads()));
  opc_stats_ = {};
  for (const OpcStats& w : per_window) opc_stats_ = merge_stats(opc_stats_, w);
  if (caches_) log_cache("OPC window", caches_->opc.counters());
}

void PostOpcFlow::run_opc(OpcMode mode) {
  run_opc_windows([mode](std::size_t) { return mode; });
  log_info("OPC done: ", opc_stats_.windows, " windows, ",
           opc_stats_.fragments, " fragments, max EPE ",
           opc_stats_.max_abs_epe_nm, " nm");
}

void PostOpcFlow::run_opc_subset(OpcMode mode,
                                 const std::vector<std::size_t>& instances) {
  run_opc_windows([mode](std::size_t) { return mode; }, &instances);
  log_info("OPC shard done: ", instances.size(), "/",
           design_->layout.num_instances(), " windows, ",
           opc_stats_.fragments, " fragments, max EPE ",
           opc_stats_.max_abs_epe_nm, " nm");
}

void PostOpcFlow::run_opc_selective(
    const std::vector<GateIdx>& critical_gates) {
  std::vector<bool> is_critical_instance(design_->layout.num_instances(),
                                         false);
  for (GateIdx g : critical_gates) {
    is_critical_instance[design_->gate_to_instance[g]] = true;
  }
  run_opc_windows([&is_critical_instance](std::size_t i) {
    return is_critical_instance[i] ? OpcMode::kModelBased
                                   : OpcMode::kRuleBased;
  });
  log_info("selective OPC done: ", opc_stats_.model_based_windows, "/",
           opc_stats_.windows, " windows model-based");
}

const std::vector<Rect>& PostOpcFlow::mask_for_instance(
    std::size_t instance) const {
  POC_EXPECTS(instance < masks_.size());
  return masks_[instance];
}

GateExtraction PostOpcFlow::extract_gate(GateIdx gate, const Image2D& latent,
                                         double threshold) const {
  GateExtraction ext;
  ext.gate = gate;
  const CharParams& cp = lib_->char_params();
  for (const PlacedGate* pg : design_->gates_of(gate)) {
    const Instance& inst = design_->layout.instance(pg->instance);
    const GateInfo& info =
        design_->layout.cell(inst.cell).gates[pg->gate_in_cell];
    DeviceCd dev;
    dev.device = info.device;
    dev.is_nmos = info.is_nmos;
    dev.drawn_l_nm = static_cast<double>(info.drawn_l);
    dev.drawn_w_nm = static_cast<double>(info.drawn_w);
    dev.profile = extract_gate_cd(latent, threshold, pg->region,
                                  pg->vertical_poly, options_.cdx);
    dev.eq = equivalent_gate(dev.profile, dev.drawn_w_nm,
                             dev.is_nmos ? cp.nmos : cp.pmos);
    ext.devices.push_back(std::move(dev));
  }
  return ext;
}

namespace {

std::vector<GateIdx> all_or_subset(
    const Netlist& nl, const std::optional<std::vector<GateIdx>>& subset) {
  if (subset) return *subset;
  std::vector<GateIdx> gates(nl.num_gates());
  for (GateIdx g = 0; g < gates.size(); ++g) gates[g] = g;
  return gates;
}

}  // namespace

/// Per-gate litho simulation + CD extraction, the flow's dominant cost.
/// The cache holds each window's latent image in its local frame, keyed by
/// the simulator, exposure, quality and the post-OPC mask.
struct PostOpcFlow::ExtractPhase {
  struct Window : WindowState {
    std::size_t instance = 0;
    Rect window;
    Image2D raster;
    Image2D latent;
    bool hit = false;  ///< latent served by the cache
  };
  static constexpr const char* name = "extract";
  static constexpr fault::Domain domain = fault::Domain::kExtract;
  static constexpr JournalPhase journal_phase = JournalPhase::kExtract;

  const PostOpcFlow& flow;
  const LithoSimulator& sim;
  const Exposure& exposure;
  const std::vector<GateIdx>& gates;
  std::vector<GateExtraction>& out;
  LithoSimulator retry_sim;
  LithoQuality retry_quality;

  std::size_t size() const { return gates.size(); }
  std::uint64_t index(std::size_t k) const { return gates[k]; }
  const std::vector<Rect>& mask(const Window& w) const {
    return flow.mask_for_instance(w.instance);
  }
  LithoQuality quality() const { return flow.options_.extract_quality; }

  bool skip(Window& w) const {
    // The slot keeps its gate id whatever happens: an empty-device record
    // is exactly the "gate without extraction" path in annotate (drawn-CD
    // timing), and it still consumes its ACLV noise draw so every other
    // gate's offset is unchanged.
    out[w.k].gate = w.index;
    w.instance = flow.design_->gate_to_instance[w.index];
    if (!flow.opc_degraded_[w.instance]) return false;
    // The instance's OPC window degraded; its drawn-mask fallback must not
    // feed CDs into STA.  Cheap enough to recompute on resume rather than
    // journal.
    flow.record_degraded_gate(w.index);
    return true;
  }
  void open(Window& w) const {
    w.window = flow.design_->litho_window(w.index, flow.options_.ambit_nm);
    if (flow.caches_ == nullptr) return;
    w.keyed = true;
    w.key = latent_window_fp(sim, mask(w), w.window, exposure, quality());
  }
  Fingerprint record_fp(const Window& w) const {
    FpHasher h;
    h.str("jext").u64(w.index).u64(w.instance);
    h.rect(w.window, Point{0, 0});
    hash_sim(h, sim);
    hash_exposure(h, exposure);
    h.u64(static_cast<std::uint64_t>(quality()));
    const CdExtractOptions& cdx = flow.options_.cdx;
    h.f64(cdx.edge_trim_fraction).u64(cdx.num_slices).f64(cdx.reach_factor);
    // The extraction reads the post-OPC mask, so the record dies with it: a
    // resumed run whose OPC degraded differently never replays a stale CD.
    h.rects(mask(w), Point{0, 0});
    for (const PlacedGate* pg : flow.design_->gates_of(w.index)) {
      h.rect(pg->region, Point{0, 0});
      h.u64(pg->vertical_poly ? 1 : 0);
    }
    return h.digest();
  }
  bool replay(Window& w, const JournalRecord& rec) const {
    if (!from_bytes(rec.payload, out[w.k])) return false;
    if (rec.outcome.degraded) flow.record_degraded_gate(w.index);
    return true;
  }
  std::vector<std::uint8_t> payload(const Window& w) const {
    return to_bytes(out[w.k]);
  }

  bool probe(Window& w) const {
    if (!w.keyed) return false;
    const auto hit = flow.caches_->latent.find(w.key);
    if (hit == nullptr) return false;
    w.latent = rebased(*hit, Point{w.window.xlo, w.window.ylo});
    w.hit = true;
    return true;
  }
  /// Rasterizes every window, then images each same-shape group (in
  /// first-appearance order) as one SoA batch.
  void compute(Window* const* ws, std::size_t n) const {
    std::vector<Window*> live;
    for (std::size_t j = 0; j < n; ++j) {
      Window& w = *ws[j];
      if (fault::run_lane(w.lane(), [&] {
            w.raster = sim.rasterize(mask(w), w.window, quality());
          })) {
        live.push_back(&w);
      }
    }
    for_each_shape(live, [&](const std::vector<Window*>& group) {
      std::vector<const Image2D*> rasters;
      std::vector<fault::Lane> lanes;
      for (Window* w : group) {
        rasters.push_back(&w->raster);
        lanes.push_back(w->lane());
      }
      std::vector<Image2D> latents =
          sim.latent_batch(rasters.data(), rasters.size(), exposure, quality(),
                           tls_scratch_arena(), std::nullopt, lanes.data());
      for (std::size_t j = 0; j < group.size(); ++j) {
        group[j]->latent = std::move(latents[j]);
        group[j]->raster = {};
      }
    });
  }
  void store(Window& w) const {
    if (w.keyed && !w.hit) {
      auto entry = std::make_shared<Image2D>(
          rebased(w.latent, Point{-w.window.xlo, -w.window.ylo}));
      const std::size_t cost =
          w.latent.nx() * w.latent.ny() * sizeof(double) + sizeof(Image2D);
      flow.caches_->latent.insert(w.key, std::move(entry), cost);
    }
    out[w.k] = flow.extract_gate(w.index, w.latent, sim.print_threshold());
  }
  void retry(Window& w) const {
    const Image2D latent =
        retry_sim.latent(mask(w), w.window, exposure, retry_quality);
    out[w.k] = flow.extract_gate(w.index, latent, retry_sim.print_threshold());
  }
  void degrade(Window& w) const {
    out[w.k].devices.clear();
    flow.record_degraded_gate(w.index);
  }
};

std::vector<GateExtraction> PostOpcFlow::extract_impl(
    const LithoSimulator& sim, const Exposure& exposure,
    const std::optional<std::vector<GateIdx>>& subset) const {
  POC_EXPECTS(!masks_.empty());  // run_opc first
  const std::vector<GateIdx> gates = all_or_subset(design_->netlist, subset);
  std::vector<GateExtraction> out(gates.size());
  const RecoveryOptions& rec = options_.recovery;
  ExtractPhase phase{
      *this, sim, exposure, gates, out, retry_simulator(sim, rec),
      rec.escalate_quality ? kEscalatedQuality : options_.extract_quality};
  run_windows(phase, loop_chunk(sim, gates.size(), threads()));
  if (caches_) {
    const CacheCounters c = caches_->latent.counters();
    log_debug("latent cache: ", c.hits, " hits / ", c.misses, " misses (",
              c.hit_rate() * 100.0, "% hit rate)");
  }
  return out;
}

std::vector<GateExtraction> PostOpcFlow::extract(
    const Exposure& exposure,
    const std::optional<std::vector<GateIdx>>& subset) const {
  return extract_impl(silicon_sim_, silicon_exposure(exposure), subset);
}

std::vector<GateExtraction> PostOpcFlow::extract_with_model(
    const Exposure& exposure,
    const std::optional<std::vector<GateIdx>>& subset) const {
  return extract_impl(sim_, exposure, subset);
}

namespace {

/// Recomputes the equivalent gate with a uniform CD offset (ACLV noise).
EquivalentGate eq_with_offset(const DeviceCd& dev, double offset_nm,
                              const MosfetParams& params) {
  GateCdProfile shifted = dev.profile;
  for (double& cd : shifted.slice_cd_nm) {
    if (cd > 0.0) cd = std::max(1.0, cd + offset_nm);
  }
  return equivalent_gate(shifted, dev.drawn_w_nm, params);
}

}  // namespace

std::vector<DelayAnnotation> PostOpcFlow::annotate(
    const std::vector<GateExtraction>& extractions) const {
  Rng no_noise(0);
  return annotate_with_aclv(extractions, 0.0, no_noise);
}

std::vector<DelayAnnotation> PostOpcFlow::annotate_with_aclv(
    const std::vector<GateExtraction>& extractions, double aclv_sigma_nm,
    Rng& rng) const {
  const Netlist& nl = design_->netlist;
  const CharParams& cp = lib_->char_params();
  std::vector<DelayAnnotation> ann(nl.num_gates());
  for (const GateExtraction& ext : extractions) {
    POC_EXPECTS(ext.gate < ann.size());
    const double offset =
        aclv_sigma_nm > 0.0 ? rng.normal(0.0, aclv_sigma_nm) : 0.0;
    double n_drive = 0.0, p_drive = 0.0, leak_num = 0.0, leak_den = 0.0;
    std::size_t n_count = 0, p_count = 0;
    for (const DeviceCd& dev : ext.devices) {
      const MosfetParams& mp = dev.is_nmos ? cp.nmos : cp.pmos;
      const EquivalentGate eq =
          offset == 0.0 ? dev.eq : eq_with_offset(dev, offset, mp);
      const double drive = eq.drive_ratio_vs(dev.drawn_l_nm, mp);
      const double leak = eq.leak_ratio_vs(dev.drawn_l_nm, mp);
      if (dev.is_nmos) {
        n_drive += drive;
        ++n_count;
      } else {
        p_drive += drive;
        ++p_count;
      }
      // Weight leakage ratios by the device's drawn leakage contribution.
      const double base = mp.ioff_per_um(dev.drawn_l_nm) * eq.width_um;
      leak_num += leak * base;
      leak_den += base;
    }
    DelayAnnotation& a = ann[ext.gate];
    if (n_count > 0) {
      a.fall_scale = 1.0 / safe_ratio(n_drive / static_cast<double>(n_count));
    }
    if (p_count > 0) {
      a.rise_scale = 1.0 / safe_ratio(p_drive / static_cast<double>(p_count));
    }
    if (leak_den > 0.0) a.leak_scale = leak_num / leak_den;
  }
  return ann;
}

TimingComparison PostOpcFlow::compare_timing(const Exposure& exposure) {
  TimingComparison cmp;
  // Both re-times go through the warm graph: the drawn run marks whatever
  // the previous state left dirty, the annotated run re-propagates only the
  // gates whose extracted CDs moved off drawn.  Reports stay bit-identical
  // to stateless run_sta (GoldenT2 pins this).
  cmp.drawn = run_sta_incremental(nullptr);
  const std::vector<GateExtraction> ext = extract(exposure);
  // Silicon CDs carry the across-chip random component on top of the
  // systematic residual; deterministic in the flow seed.
  Rng rng(options_.seed);
  const std::vector<DelayAnnotation> ann = annotate_with_aclv(
      ext, options_.silicon.enabled ? options_.silicon.aclv_sigma_nm : 0.0,
      rng);
  cmp.annotated = run_sta_incremental(&ann);
  cmp.ranks =
      compare_path_ranks(design_->netlist, cmp.drawn.paths,
                         cmp.annotated.paths);
  if (cmp.drawn.worst_slack != 0.0) {
    cmp.worst_slack_change_pct =
        (cmp.annotated.worst_slack - cmp.drawn.worst_slack) /
        std::abs(cmp.drawn.worst_slack) * 100.0;
  }
  if (cmp.drawn.total_leakage_ua > 0.0) {
    cmp.leakage_change_pct = (cmp.annotated.total_leakage_ua -
                              cmp.drawn.total_leakage_ua) /
                             cmp.drawn.total_leakage_ua * 100.0;
  }
  cmp.health = health();
  if (!cmp.health.clean()) {
    log_warn("flow health: ", cmp.health.faults.size(), " faulted windows, ",
             cmp.health.recovered_windows, " recovered, ",
             cmp.health.degraded_windows, " degraded (",
             cmp.health.degraded_gates.size(), " gates on drawn-CD timing)");
  }
  return cmp;
}

/// Per-window ORC across every corner.  The cache holds one ORC report per
/// (window, corner) with violations in the local frame; its key covers
/// both simulators, since run_orc probes pinch/bridge on the silicon latent
/// and measures EPE through the model.  Everything but the exposure is
/// corner-invariant, so the window's key prefix is hashed once and forked
/// per corner.
struct PostOpcFlow::ScanPhase {
  struct Window : WindowState {
    Rect window;
    std::vector<Polygon> targets;
    FpHasher base;  ///< corner-invariant cache key prefix
    Image2D raster;
    std::vector<OrcReport> reports;  ///< per corner
    std::vector<char> hit;           ///< per corner: served by the cache
  };
  static constexpr const char* name = "scan";
  static constexpr fault::Domain domain = fault::Domain::kScan;
  static constexpr JournalPhase journal_phase = JournalPhase::kScan;

  const PostOpcFlow& flow;
  const std::vector<ProcessCorner>& conditions;
  const OrcOptions& orc;
  const OpcEngine engine;  ///< the OPC model, for EPE probes
  /// Hotspots are judged against the silicon reference, not the model.
  std::vector<Exposure> exposures;
  std::vector<HotspotReport>& slots;

  std::size_t size() const { return slots.size(); }
  std::uint64_t index(std::size_t k) const { return k; }
  bool skip(Window&) const { return false; }
  const std::vector<Rect>& mask(const Window& w) const {
    return flow.mask_for_instance(w.index);
  }
  Point anchor(const Window& w) const { return {w.window.xlo, w.window.ylo}; }
  Fingerprint corner_key(const Window& w, std::size_t c) const {
    FpHasher h = w.base;
    hash_exposure(h, exposures[c]);
    return h.digest();
  }

  void open(Window& w) const {
    w.window = instance_window(*flow.design_, w.index, flow.options_.ambit_nm);
    w.targets = flow.design_->layout.flatten_layer_polys(w.window, Layer::kPoly);
    w.reports.assign(conditions.size(), {});
    w.hit.assign(conditions.size(), 0);
    if (flow.caches_ == nullptr || w.targets.empty()) return;
    w.base.str("orc");
    hash_sim(w.base, flow.silicon_sim_);
    hash_sim(w.base, flow.sim_);
    hash_opc_options(w.base, flow.options_.opc);
    hash_orc_options(w.base, orc);
    w.base.i64(w.window.width()).i64(w.window.height());
    w.base.polys(w.targets, anchor(w));
    w.base.rects(mask(w), anchor(w));
    w.keyed = true;
    w.key = w.base.digest();
  }
  Fingerprint record_fp(const Window& w) const {
    FpHasher h;
    h.str("jscan2").u64(w.index);
    h.rect(w.window, Point{0, 0});
    hash_sim(h, flow.silicon_sim_);
    hash_sim(h, flow.sim_);
    hash_opc_options(h, flow.options_.opc);
    hash_orc_options(h, orc);
    h.polys(w.targets, Point{0, 0});
    h.rects(mask(w), Point{0, 0});
    h.u64(conditions.size());
    for (const ProcessCorner& c : conditions) {
      h.str(c.name);
      hash_exposure(h, c.exposure);
    }
    return h.digest();
  }
  bool replay(Window& w, const JournalRecord& rec) const {
    if (!from_bytes(rec.payload, w.reports) ||
        w.reports.size() != conditions.size()) {
      return false;
    }
    if (rec.outcome.degraded) {
      degrade(w);
    } else {
      commit(w);
    }
    return true;
  }
  std::vector<std::uint8_t> payload(const Window& w) const {
    return to_bytes(w.reports);
  }

  bool probe(Window& w) const {
    bool all = true;
    for (std::size_t c = 0; c < conditions.size() && !w.targets.empty(); ++c) {
      const auto hit =
          w.keyed ? flow.caches_->orc.find(corner_key(w, c)) : nullptr;
      if (hit == nullptr) {
        all = false;
        continue;
      }
      w.reports[c] = *hit;
      for (OrcViolation& v : w.reports[c].violations) {
        v.where = v.where + anchor(w);
      }
      w.hit[c] = 1;
    }
    return all;
  }
  /// One raster per window feeds both the silicon and the model batch.
  /// Corners cannot share a batch (defocus changes the TCC kernels), so
  /// batching runs across the windows within each corner, and each pair of
  /// latents is reduced to its report as soon as its batch returns.
  void compute(Window* const* ws, std::size_t n) const {
    std::vector<Window*> live;
    for (std::size_t j = 0; j < n; ++j) {
      Window& w = *ws[j];
      if (fault::run_lane(w.lane(), [&] {
            w.raster = flow.silicon_sim_.rasterize(mask(w), w.window,
                                                   orc.quality);
          })) {
        live.push_back(&w);
      }
    }
    for (std::size_t c = 0; c < conditions.size(); ++c) {
      std::vector<Window*> members;
      for (Window* w : live) {
        if (!w->error && !w->hit[c]) members.push_back(w);
      }
      for_each_shape(members, [&](const std::vector<Window*>& group) {
        std::vector<const Image2D*> rasters;
        std::vector<fault::Lane> lanes;
        for (Window* w : group) {
          rasters.push_back(&w->raster);
          lanes.push_back(w->lane());
        }
        std::vector<Image2D> silicon = flow.silicon_sim_.latent_batch(
            rasters.data(), rasters.size(), exposures[c], orc.quality,
            tls_scratch_arena(), std::nullopt, lanes.data());
        std::vector<Image2D> model = flow.sim_.latent_batch(
            rasters.data(), rasters.size(), exposures[c], orc.quality,
            tls_scratch_arena(), std::nullopt, lanes.data());
        for (std::size_t j = 0; j < group.size(); ++j) {
          Window& w = *group[j];
          fault::run_lane(w.lane(), [&] {
            const OrcLatents latents{std::move(silicon[j]),
                                     std::move(model[j])};
            w.reports[c] = run_orc_staged(flow.silicon_sim_, engine,
                                          w.targets, w.window, latents, orc);
          });
        }
      });
    }
  }
  void store(Window& w) const {
    for (std::size_t c = 0; c < conditions.size() && w.keyed; ++c) {
      if (w.hit[c]) continue;
      auto entry = std::make_shared<OrcReport>(w.reports[c]);
      for (OrcViolation& v : entry->violations) {
        v.where = v.where + Point{-w.window.xlo, -w.window.ylo};
      }
      const std::size_t cost =
          w.reports[c].violations.size() * sizeof(OrcViolation) +
          sizeof(OrcReport);
      flow.caches_->orc.insert(corner_key(w, c), std::move(entry), cost);
    }
    commit(w);
  }
  void retry(Window& w) const {
    for (std::size_t c = 0; c < conditions.size() && !w.targets.empty(); ++c) {
      w.reports[c] = run_orc(flow.silicon_sim_, engine, w.targets, mask(w),
                             w.window, exposures[c], orc);
    }
    commit(w);
  }
  /// The window's violations are dropped (conservative for timing, not for
  /// ORC — the fault record is the signal).
  void degrade(Window& w) const { slots[w.k] = {}; }

  /// Fills the window's slot from its per-corner reports, in corner order.
  void commit(const Window& w) const {
    HotspotReport& partial = slots[w.k];
    partial = {};
    if (w.targets.empty()) return;
    partial.windows_checked = 1;
    for (std::size_t c = 0; c < conditions.size(); ++c) {
      for (const OrcViolation& v : w.reports[c].violations) {
        switch (v.kind) {
          case OrcViolation::Kind::kPinch: ++partial.pinches; break;
          case OrcViolation::Kind::kBridge: ++partial.bridges; break;
          case OrcViolation::Kind::kEpe: ++partial.epe_violations; break;
        }
        partial.hotspots.push_back({w.index, conditions[c].name, v});
      }
    }
  }
};

PostOpcFlow::HotspotReport PostOpcFlow::scan_hotspots(
    const std::vector<ProcessCorner>& conditions,
    const OrcOptions& orc_options) const {
  POC_EXPECTS(!masks_.empty());  // run_opc first
  // Partial reports land in per-window slots and merge in instance order,
  // so violation order and counts match a serial scan exactly.
  std::vector<HotspotReport> slots(design_->layout.num_instances());
  ScanPhase phase{*this, conditions, orc_options,
                  OpcEngine(sim_, options_.opc), {}, slots};
  for (const ProcessCorner& c : conditions) {
    phase.exposures.push_back(silicon_exposure(c.exposure));
  }
  run_windows(phase, loop_chunk(silicon_sim_, slots.size(), threads()));

  HotspotReport report;
  for (HotspotReport& w : slots) {
    report.windows_checked += w.windows_checked;
    report.pinches += w.pinches;
    report.bridges += w.bridges;
    report.epe_violations += w.epe_violations;
    report.hotspots.insert(report.hotspots.end(),
                           std::make_move_iterator(w.hotspots.begin()),
                           std::make_move_iterator(w.hotspots.end()));
  }
  log_info("hotspot scan: ", report.hotspots.size(), " violations over ",
           report.windows_checked, " windows x ", conditions.size(),
           " conditions");
  if (caches_) log_cache("ORC", caches_->orc.counters());
  return report;
}

std::vector<PostOpcFlow::DeviceResponse> PostOpcFlow::fit_responses(
    const std::optional<std::vector<GateIdx>>& subset) const {
  const std::vector<Exposure> grid = response_fit_grid();
  POC_EXPECTS(!grid.empty());
  // Extraction per grid point; the grid point closest to nominal (focus 0,
  // dose 1) provides the slice shape.  Nearest-point selection (distances
  // normalized by typical process-window half-widths: 150 nm focus, 10 %
  // dose) keeps this correct for grids that do not sample nominal exactly
  // — the old exact-match scan silently fell back to grid[0], the extreme
  // negative-focus/low-dose corner.
  std::vector<std::vector<GateExtraction>> per_exposure;
  per_exposure.reserve(grid.size());
  for (const Exposure& e : grid) {
    per_exposure.push_back(extract(e, subset));
  }
  std::size_t nominal_idx = 0;
  double nominal_dist = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const double df = grid[i].focus_nm / 150.0;
    const double dd = (grid[i].dose - 1.0) / 0.10;
    const double dist = df * df + dd * dd;
    if (dist < nominal_dist) {
      nominal_dist = dist;
      nominal_idx = i;
    }
  }
  std::vector<DeviceResponse> out;
  const std::size_t num_gates = per_exposure.front().size();
  for (std::size_t gi = 0; gi < num_gates; ++gi) {
    const GateExtraction& nominal = per_exposure[nominal_idx][gi];
    for (std::size_t di = 0; di < nominal.devices.size(); ++di) {
      DeviceResponse resp;
      resp.gate = nominal.gate;
      resp.device = nominal.devices[di].device;
      resp.is_nmos = nominal.devices[di].is_nmos;
      resp.drawn_l_nm = nominal.devices[di].drawn_l_nm;
      resp.drawn_w_nm = nominal.devices[di].drawn_w_nm;
      std::vector<std::pair<Exposure, double>> samples;
      for (std::size_t e = 0; e < grid.size(); ++e) {
        samples.emplace_back(grid[e],
                             per_exposure[e][gi].devices[di].profile.mean_cd());
      }
      resp.mean_cd = fit_cd_response(samples);
      const GateCdProfile& prof = nominal.devices[di].profile;
      const double mean = prof.mean_cd();
      for (double cd : prof.slice_cd_nm) {
        resp.slice_offsets_nm.push_back(cd > 0.0 ? cd - mean : 0.0);
      }
      resp.slice_width_nm = prof.slice_width_nm;
      out.push_back(std::move(resp));
    }
  }
  return out;
}

std::vector<GateExtraction> PostOpcFlow::mc_extraction(
    const std::vector<DeviceResponse>& responses, const Exposure& exposure,
    double aclv_sigma_nm, Rng& rng) const {
  const CharParams& cp = lib_->char_params();
  std::vector<GateExtraction> out;
  std::unordered_map<std::size_t, std::size_t> gate_slot;
  std::unordered_map<std::size_t, double> gate_aclv;
  for (const DeviceResponse& r : responses) {
    if (!gate_slot.contains(r.gate)) {
      gate_slot[r.gate] = out.size();
      gate_aclv[r.gate] =
          aclv_sigma_nm > 0.0 ? rng.normal(0.0, aclv_sigma_nm) : 0.0;
      GateExtraction ext;
      ext.gate = r.gate;
      out.push_back(std::move(ext));
    }
    DeviceCd dev;
    dev.device = r.device;
    dev.is_nmos = r.is_nmos;
    dev.drawn_l_nm = r.drawn_l_nm;
    dev.drawn_w_nm = r.drawn_w_nm;
    const double mean = r.mean_cd.eval(exposure) + gate_aclv[r.gate];
    dev.profile.drawn_cd_nm = r.drawn_l_nm;
    dev.profile.slice_width_nm = r.slice_width_nm;
    for (double off : r.slice_offsets_nm) {
      dev.profile.slice_cd_nm.push_back(std::max(1.0, mean + off));
    }
    dev.eq = equivalent_gate(dev.profile, dev.drawn_w_nm,
                             dev.is_nmos ? cp.nmos : cp.pmos);
    out[gate_slot[r.gate]].devices.push_back(std::move(dev));
  }
  return out;
}

}  // namespace poc
