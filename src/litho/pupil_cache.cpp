#include "src/litho/pupil_cache.h"

#include <utility>

#include "src/cache/fingerprint.h"
#include "src/cache/result_cache.h"

namespace poc {

PupilTables build_pupil_tables(const OpticalSettings& opt,
                               const std::vector<SourcePoint>& source,
                               double defocus_nm, const SpectralGrid& grid) {
  const double tilt_scale = opt.na / opt.wavelength_nm;
  PupilTables built;
  built.tables.reserve(source.size());
  for (const SourcePoint& sp : source) {
    const double fsx = sp.sx * tilt_scale;
    const double fsy = sp.sy * tilt_scale;
    std::vector<Cplx> table(grid.size());
    std::size_t idx = 0;
    for (long long ky = -grid.ky_max; ky <= grid.ky_max; ++ky) {
      const double fy = static_cast<double>(ky) * grid.dfy;
      for (long long kx = -grid.kx_max; kx <= grid.kx_max; ++kx) {
        const double fx = static_cast<double>(kx) * grid.dfx;
        table[idx++] = pupil_value(opt, fx + fsx, fy + fsy, defocus_nm);
      }
    }
    built.tables.push_back(std::move(table));
  }
  return built;
}

std::shared_ptr<const PupilTables> pupil_tables(
    const OpticalSettings& opt, const std::vector<SourcePoint>& source,
    double defocus_nm, const SpectralGrid& grid) {
  // ~100 windows' worth of fine-quality tables; enough that a full flow
  // never thrashes, bounded in case a sweep walks through many defocus
  // values.
  static ShardedCache<PupilTables> cache(128ull << 20, /*shards=*/8);

  FpHasher h;
  h.str("pupil")
      .f64(opt.wavelength_nm)
      .f64(opt.na)
      .f64(opt.z9_spherical_waves)
      .f64(opt.z7_coma_x_waves)
      .f64(defocus_nm)
      .f64(grid.dfx)
      .f64(grid.dfy)
      .i64(grid.kx_max)
      .i64(grid.ky_max)
      .u64(source.size());
  for (const SourcePoint& sp : source) h.f64(sp.sx).f64(sp.sy).f64(sp.weight);
  const Fingerprint fp = h.digest();

  if (auto hit = cache.find(fp)) return hit;

  auto built = std::make_shared<PupilTables>(
      build_pupil_tables(opt, source, defocus_nm, grid));
  cache.insert(fp, built,
               source.size() * grid.size() * sizeof(Cplx) +
                   sizeof(PupilTables));
  return built;
}

}  // namespace poc
