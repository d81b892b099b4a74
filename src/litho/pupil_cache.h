// Pupil tables over the cropped spectral grid.  The Abbe imaging loop
// (per-source-point filters) reads them through the process-wide memo; the
// SOCS kernel build in src/litho/tcc.h (which assembles the Hopkins
// operator from the same tables) builds them transiently, since only its
// kernels are reused.  Every window of the same pixel size and padded
// dimensions shares one spectral layout, so across a full-chip run the
// (optics, source, defocus) combinations collapse to a handful of tables.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "src/common/fft.h"
#include "src/litho/optics.h"

namespace poc {

/// Spectral layout of a cropped imaging grid: frequency steps and the
/// signed band half-widths retained by the pupil cutoff.  Tables indexed by
/// `index` are row-major over ky in [-ky_max, ky_max], kx in [-kx_max,
/// kx_max].
struct SpectralGrid {
  double dfx = 0.0;
  double dfy = 0.0;
  long long kx_max = 0;
  long long ky_max = 0;

  std::size_t row() const { return static_cast<std::size_t>(2 * kx_max + 1); }
  std::size_t rows() const { return static_cast<std::size_t>(2 * ky_max + 1); }
  std::size_t size() const { return row() * rows(); }
  std::size_t index(long long kx, long long ky) const {
    return static_cast<std::size_t>(ky + ky_max) * row() +
           static_cast<std::size_t>(kx + kx_max);
  }
};

/// Per-source-point pupil values over the cropped spectral grid.
/// tables[s][grid.index(kx, ky)] holds pupil_value(opt, kx*dfx + fsx,
/// ky*dfy + fsy, defocus) for source point s.  Values are the verbatim
/// pupil_value results, so cached and uncached imaging are bit-identical.
struct PupilTables {
  std::vector<std::vector<Cplx>> tables;
};

/// Unmemoized builder: the tables for one (optics, source, defocus, grid),
/// owned by the caller.  The SOCS kernel build uses it directly — its
/// kernels are memoized in their own cache, so parking the tables in the
/// pupil memo as well would store every defocus twice.
PupilTables build_pupil_tables(const OpticalSettings& opt,
                               const std::vector<SourcePoint>& source,
                               double defocus_nm, const SpectralGrid& grid);

/// Memoized builder.  Keyed on the optics fields the pupil reads, defocus,
/// the spectral layout, and the full source discretization including
/// per-point weights (two sources with equal positions but different
/// weights must not collide: the weight is part of every downstream
/// intensity sum and of the TCC assembled from these tables).
std::shared_ptr<const PupilTables> pupil_tables(
    const OpticalSettings& opt, const std::vector<SourcePoint>& source,
    double defocus_nm, const SpectralGrid& grid);

}  // namespace poc
