// Model-based OPC: iterative per-fragment edge-placement-error feedback.
// Each iteration simulates the current mask (draft litho quality), measures
// the printed contour position against the original target at every fragment
// control point, and moves the fragment by -damping * EPE.  Residual EPE
// after convergence is exactly the "residual OPC error" the paper extracts
// and propagates into timing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/fault.h"
#include "src/geom/polygon.h"
#include "src/geom/rect.h"
#include "src/litho/simulator.h"
#include "src/opc/fragment.h"

namespace poc {

/// Imaging engine selection for one OPC phase.  kFollowSimulator defers to
/// the simulator's own ImagingOptions (the flow-level default); kAbbe/kSocs
/// force that engine for the phase regardless of the simulator setting —
/// the intended production schedule runs SOCS drafts with Abbe sign-off.
enum class OpcImaging : std::uint8_t { kFollowSimulator, kAbbe, kSocs };

struct OpcOptions {
  FragmentationOptions fragmentation;
  std::size_t max_iterations = 10;
  double damping = 0.5;          ///< feedback gain on measured EPE (the F3
                                 ///< ablation shows >0.6 oscillates near
                                 ///< landing-pad corners)
  double epe_tolerance_nm = 0.75;  ///< stop when max |EPE| falls below this
  DbUnit max_bias = 45;          ///< outward clamp (nm)
  DbUnit min_bias = -35;         ///< inward clamp (nm)
  double probe_inside_nm = 30.0;   ///< EPE probe start, inside the target
  double probe_outside_nm = 60.0;  ///< EPE probe reach outside the target
  /// Coarse-to-fine schedule: iterate at `sim_quality` until the EPE falls
  /// below `handoff_epe_nm` (or the iteration budget nears exhaustion),
  /// then finish at `final_quality` — the quality sign-off extraction uses.
  LithoQuality sim_quality = LithoQuality::kDraft;
  LithoQuality final_quality = LithoQuality::kStandard;
  double handoff_epe_nm = 2.5;
  std::size_t final_iterations = 3;  ///< budget reserved for fine iterations
  /// Imaging engine per phase of the coarse-to-fine schedule: draft
  /// iterations may run the SOCS fast path while sign-off iterations stay
  /// on the Abbe reference (or follow the simulator's flow-level setting).
  OpcImaging sim_imaging = OpcImaging::kFollowSimulator;
  OpcImaging final_imaging = OpcImaging::kFollowSimulator;
  bool insert_srafs = false;     ///< rule-based scattering bars (see sraf.h)
  /// Non-convergence abort threshold (0 = off, the default): when the body
  /// EPE still exceeds this after the full iteration budget, correct()
  /// raises a structured kNonConvergence fault instead of returning a
  /// silently-bad mask.  The flow's containment retries or degrades the
  /// window; without containment the failure is at least explicit.
  double abort_epe_nm = 0.0;
};

struct OpcResult {
  std::vector<Polygon> corrected;   ///< post-OPC mask polygons
  std::vector<Rect> srafs;          ///< non-printing assist features
  std::vector<Fragment> fragments;  ///< final biases and EPEs
  std::size_t iterations = 0;
  double max_abs_epe_nm = 0.0;      ///< residual after the last iteration
  double rms_epe_nm = 0.0;
  /// Same, excluding corner fragments: convex corners round no matter how
  /// large the serif, so convergence is judged — as in production ORC — on
  /// the edge bodies that set printed linewidth.
  double max_abs_epe_body_nm = 0.0;
  double rms_epe_body_nm = 0.0;
  std::vector<double> max_epe_history;  ///< per-iteration trace (body)
  std::vector<double> rms_epe_history;  ///< per-iteration trace (body)

  /// Mask rectangles (corrected polygons + SRAFs) ready for simulation.
  std::vector<Rect> mask_rects() const;
};

class ScratchArena;  // src/litho/batch.h

/// One window's inputs for OpcEngine::correct_batch.  `targets` must
/// outlive the call and be non-empty.  `lane` names the window for the
/// fault harness and, when managed, contains its failures (fault::Lane).
struct OpcBatchJob {
  const std::vector<Polygon>* targets = nullptr;
  Rect window;
  fault::Lane lane;
};

class OpcEngine {
 public:
  OpcEngine(const LithoSimulator& sim, OpcOptions options = {})
      : sim_(&sim), options_(options) {}

  /// Corrects `targets` so their printed contours match the drawn shapes at
  /// the nominal exposure.  `window` must enclose the targets plus optical
  /// ambit; everything inside it is simulated together, so neighbouring
  /// shapes influence each other's correction (context-dependent OPC).
  /// correct_batch with one job, on the calling thread's scratch arena.
  OpcResult correct(const std::vector<Polygon>& targets, const Rect& window,
                    const Exposure& nominal = {}) const;

  /// correct() over a batch of windows, advanced in lockstep so each
  /// iteration's latent images run through the batched SoA engine (grouped
  /// by quality/imaging phase and raster shape; Abbe-phase windows fall back
  /// to scalar latents).  A window's correction trajectory depends only on
  /// its own latents, and each batched latent is bit-identical to the
  /// scalar one, so results[j] equals the one-job batch of jobs[j] bit for
  /// bit — windows that converge early simply drop out of later batches.
  /// Each job's work runs as its fault::Lane: a managed lane that throws
  /// (non-convergence abort, fault injection) drops out with the exception
  /// stored and its results[j] unspecified; an unmanaged lane throws
  /// through.
  std::vector<OpcResult> correct_batch(const OpcBatchJob* jobs,
                                       std::size_t count,
                                       const Exposure& nominal,
                                       ScratchArena& arena) const;

  /// Measures EPE at each fragment of `fragments` for an arbitrary mask
  /// (used by ORC and by the convergence bench to score uncorrected masks).
  /// `mode` overrides the simulator's imaging engine for this measurement.
  void measure_epe(std::vector<Fragment>& fragments,
                   const std::vector<Rect>& mask_rects, const Rect& window,
                   const Exposure& exposure, LithoQuality quality,
                   std::optional<ImagingMode> mode = std::nullopt) const;

  /// The probe half of measure_epe over an already-computed latent image —
  /// the batched paths (correct_batch, staged ORC) reuse the scalar probe
  /// code verbatim against their batch-produced latents.
  void probe_epe_on(const Image2D& latent,
                    std::vector<Fragment>& fragments) const;

  const OpcOptions& options() const { return options_; }

 private:
  /// Initializes one window's OpcResult (fragmentation, boundary freeze,
  /// SRAFs) — the pre-iteration head of correct_batch.
  OpcResult init_correction(const std::vector<Polygon>& targets,
                            const Rect& window) const;
  /// Post-measurement half of one correction iteration: EPE statistics,
  /// convergence / handoff bookkeeping (quality is advanced in place) and
  /// the fragment moves.  Returns true when the window is done iterating.
  bool update_after_measure(OpcResult& result, LithoQuality& quality,
                            std::size_t iter) const;
  /// Non-convergence abort check + completion log (tail of a correction).
  void finish_correction(const OpcResult& result) const;

  const LithoSimulator* sim_;
  OpcOptions options_;
};

}  // namespace poc
