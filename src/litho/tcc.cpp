#include "src/litho/tcc.h"

#include <cmath>
#include <utility>

#include "src/cache/fingerprint.h"
#include "src/cache/result_cache.h"
#include "src/common/check.h"
#include "src/common/linalg.h"

namespace poc {
namespace {

constexpr std::size_t kNoPair = static_cast<std::size_t>(-1);

/// sigma[s] = index of the source point at (-sx, -sy) with matching weight,
/// as an involution over the whole source, or empty when the source lacks
/// 180-degree symmetry.  The tolerance absorbs the cos/sin rounding of
/// sampled ring sources.
std::vector<std::size_t> parity_pairing(
    const std::vector<SourcePoint>& source) {
  const double tol = 1e-9;
  const std::size_t ns = source.size();
  std::vector<std::size_t> sigma(ns, kNoPair);
  for (std::size_t s = 0; s < ns; ++s) {
    for (std::size_t t = 0; t < ns; ++t) {
      if (std::abs(source[t].sx + source[s].sx) <= tol &&
          std::abs(source[t].sy + source[s].sy) <= tol &&
          std::abs(source[t].weight - source[s].weight) <=
              tol * std::abs(source[s].weight)) {
        sigma[s] = t;
        break;
      }
    }
    if (sigma[s] == kNoPair) return {};
  }
  for (std::size_t s = 0; s < ns; ++s) {
    if (sigma[sigma[s]] != s) return {};
  }
  return sigma;
}

/// True when the pupil tables are exactly real and exactly parity-matched:
/// P_sigma(s)[-f] == P_s[f] bit-for-bit.  Holds at zero defocus with no
/// aberrations (pupil_value returns {1,0}/{0,0}); any phase term breaks it.
/// The bit-exact check is what lets the imaging loop treat the lifted
/// kernels' filtered spectra as Hermitian without an error budget.
bool tables_parity_exact(const PupilTables& pupils, const SpectralGrid& grid,
                         const std::vector<std::size_t>& sigma) {
  const long long kxm = grid.kx_max;
  const long long kym = grid.ky_max;
  for (std::size_t s = 0; s < pupils.tables.size(); ++s) {
    const std::vector<Cplx>& ps = pupils.tables[s];
    const std::vector<Cplx>& pm = pupils.tables[sigma[s]];
    for (long long ky = -kym; ky <= kym; ++ky) {
      for (long long kx = -kxm; kx <= kxm; ++kx) {
        const Cplx a = ps[grid.index(kx, ky)];
        if (a.imag() != 0.0) return false;
        if (a.real() != pm[grid.index(-kx, -ky)].real()) return false;
      }
    }
  }
  return true;
}

/// One symmetric/antisymmetric source combination: coefficient ca on point
/// a plus cb on point b (b == a with cb == 0 for on-axis fixed points).
struct ParityCombo {
  std::size_t a = 0;
  std::size_t b = 0;
  double ca = 1.0;
  double cb = 0.0;
};

}  // namespace

std::vector<Cplx> tcc_matrix(const OpticalSettings& opt,
                             const std::vector<SourcePoint>& source,
                             double defocus_nm, const SpectralGrid& grid) {
  const std::size_t n = grid.size();
  const std::shared_ptr<const PupilTables> pupils =
      pupil_tables(opt, source, defocus_nm, grid);
  std::vector<Cplx> t(n * n, Cplx(0.0, 0.0));
  for (std::size_t s = 0; s < source.size(); ++s) {
    const std::vector<Cplx>& p = pupils->tables[s];
    const double w = source[s].weight;
    for (std::size_t i = 0; i < n; ++i) {
      if (p[i] == Cplx(0.0, 0.0)) continue;
      const Cplx wi = w * p[i];
      for (std::size_t j = 0; j < n; ++j) {
        t[i * n + j] += wi * std::conj(p[j]);
      }
    }
  }
  return t;
}

std::shared_ptr<const SocsKernels> socs_kernels(
    const OpticalSettings& opt, const std::vector<SourcePoint>& source,
    double defocus_nm, const SpectralGrid& grid, const SocsOptions& socs) {
  POC_EXPECTS(!source.empty());
  POC_EXPECTS(socs.max_kernels > 0);
  // A few dozen (layout, defocus) combinations of K kernels each.
  static ShardedCache<SocsKernels> cache(64ull << 20, /*shards=*/8);

  FpHasher h;
  h.str("socs")
      .f64(opt.wavelength_nm)
      .f64(opt.na)
      .f64(opt.z9_spherical_waves)
      .f64(opt.z7_coma_x_waves)
      .f64(defocus_nm)
      .f64(grid.dfx)
      .f64(grid.dfy)
      .i64(grid.kx_max)
      .i64(grid.ky_max)
      .u64(socs.max_kernels)
      .f64(socs.energy_fraction)
      .u64(source.size());
  for (const SourcePoint& sp : source) h.f64(sp.sx).f64(sp.sy).f64(sp.weight);
  const Fingerprint fp = h.digest();

  if (auto hit = cache.find(fp)) return hit;

  // Transient tables: under SOCS the kernel build is their only user, and
  // the kernels below are memoized, so the tables die with this call
  // instead of doubling every defocus in the process-wide pupil memo.
  const PupilTables pupils = build_pupil_tables(opt, source, defocus_nm, grid);
  const std::size_t n = grid.size();
  const std::size_t ns = source.size();

  // Gram matrix of the weighted pupil snapshots b_s = sqrt(w_s) P_s:
  // G[s][t] = b_s^H b_t.  Its eigenpairs give the TCC's nonzero spectrum
  // without ever forming the N x N operator (method of snapshots; the TCC
  // has rank <= S by construction).
  std::vector<double> sqw(ns);
  for (std::size_t s = 0; s < ns; ++s) sqw[s] = std::sqrt(source[s].weight);
  std::vector<Cplx> gram(ns * ns, Cplx(0.0, 0.0));
  for (std::size_t s = 0; s < ns; ++s) {
    const std::vector<Cplx>& ps = pupils.tables[s];
    for (std::size_t t = s; t < ns; ++t) {
      const std::vector<Cplx>& pt = pupils.tables[t];
      Cplx acc(0.0, 0.0);
      for (std::size_t i = 0; i < n; ++i) acc += std::conj(ps[i]) * pt[i];
      acc *= sqw[s] * sqw[t];
      gram[s * ns + t] = acc;
      gram[t * ns + s] = std::conj(acc);
    }
  }
  double trace = 0.0;
  for (std::size_t s = 0; s < ns; ++s) trace += gram[s * ns + s].real();

  // Full-rank eigen data before truncation: eigenvalue, per-source lift
  // coefficients (the Gram eigenvector, possibly expressed through parity
  // combinations), and the parity tag — in descending-eigenvalue order.
  std::vector<double> lambdas;
  std::vector<std::vector<Cplx>> lift_coefs;
  std::vector<std::uint8_t> parities;
  lambdas.reserve(ns);
  lift_coefs.reserve(ns);
  parities.reserve(ns);

  const std::vector<std::size_t> sigma = parity_pairing(source);
  const bool parity_ok =
      !sigma.empty() && tables_parity_exact(pupils, grid, sigma);

  if (parity_ok) {
    // The TCC commutes with parity (real pupils over a symmetric source),
    // so the Gram problem block-diagonalizes over the symmetric (+) and
    // antisymmetric (-) source combinations.  Eigenvectors of each block
    // lift to kernels that are exactly real with pure parity — which is
    // what lets the imaging loop run them two per inverse transform.
    std::vector<ParityCombo> even;
    std::vector<ParityCombo> odd;
    const double r = 1.0 / std::sqrt(2.0);
    for (std::size_t s = 0; s < ns; ++s) {
      if (sigma[s] == s) {
        even.push_back({s, s, 1.0, 0.0});
      } else if (s < sigma[s]) {
        even.push_back({s, sigma[s], r, r});
        odd.push_back({s, sigma[s], r, -r});
      }
    }
    auto eigen_block = [&](const std::vector<ParityCombo>& combos) {
      const std::size_t m = combos.size();
      std::vector<Cplx> g(m * m);
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < m; ++j) {
          const ParityCombo& x = combos[i];
          const ParityCombo& y = combos[j];
          g[i * m + j] = x.ca * y.ca * gram[x.a * ns + y.a].real() +
                         x.ca * y.cb * gram[x.a * ns + y.b].real() +
                         x.cb * y.ca * gram[x.b * ns + y.a].real() +
                         x.cb * y.cb * gram[x.b * ns + y.b].real();
        }
      }
      return jacobi_hermitian(std::move(g), m);
    };
    const HermitianEigen ee = eigen_block(even);
    const HermitianEigen eo =
        odd.empty() ? HermitianEigen{} : eigen_block(odd);
    // Merge the two descending eigenvalue lists; even wins ties so the
    // order is deterministic.
    std::size_t ie = 0;
    std::size_t io = 0;
    while (ie < even.size() || io < odd.size()) {
      const bool take_even =
          io >= odd.size() ||
          (ie < even.size() && ee.values[ie] >= eo.values[io]);
      const std::vector<ParityCombo>& combos = take_even ? even : odd;
      const HermitianEigen& e = take_even ? ee : eo;
      const std::size_t k = take_even ? ie++ : io++;
      std::vector<Cplx> lift(ns, Cplx(0.0, 0.0));
      for (std::size_t i = 0; i < combos.size(); ++i) {
        const double u = e.vectors[k * combos.size() + i].real();
        lift[combos[i].a] += u * combos[i].ca;
        lift[combos[i].b] += u * combos[i].cb;
      }
      lambdas.push_back(e.values[k]);
      lift_coefs.push_back(std::move(lift));
      parities.push_back(take_even ? std::uint8_t{1} : std::uint8_t{2});
    }
  } else {
    const HermitianEigen eig = jacobi_hermitian(std::move(gram), ns);
    for (std::size_t k = 0; k < ns; ++k) {
      lambdas.push_back(eig.values[k]);
      lift_coefs.push_back(std::vector<Cplx>(
          eig.vectors.begin() + static_cast<std::ptrdiff_t>(k * ns),
          eig.vectors.begin() + static_cast<std::ptrdiff_t>((k + 1) * ns)));
      parities.push_back(0);
    }
  }

  auto built = std::make_shared<SocsKernels>();
  built->grid = grid;
  built->trace = trace;
  built->source_points = ns;
  const double target = socs.energy_fraction * trace;
  const double floor = 1e-12 * (trace > 0.0 ? trace : 1.0);
  for (std::size_t k = 0; k < lambdas.size(); ++k) {
    if (k >= socs.max_kernels) break;
    const double lambda = lambdas[k];
    if (lambda <= floor && k > 0) break;
    if (built->captured >= target && k > 0) break;
    // phi_k = B u_k / sqrt(lambda_k): the eigenvector of G lifted back to
    // the spectral grid, normalized so ||phi_k|| = 1.
    const double inv_sq = 1.0 / std::sqrt(lambda > 0.0 ? lambda : 1.0);
    std::vector<Cplx> phi(n, Cplx(0.0, 0.0));
    for (std::size_t s = 0; s < ns; ++s) {
      const Cplx coef = lift_coefs[k][s] * (sqw[s] * inv_sq);
      if (coef == Cplx(0.0, 0.0)) continue;
      const std::vector<Cplx>& ps = pupils.tables[s];
      for (std::size_t i = 0; i < n; ++i) phi[i] += coef * ps[i];
    }
    built->weights.push_back(lambda);
    built->kernels.push_back(std::move(phi));
    built->parity.push_back(parities[k]);
    built->captured += lambda;
  }
  POC_ENSURES(!built->kernels.empty());

  cache.insert(fp, built,
               built->kernels.size() * n * sizeof(Cplx) + sizeof(SocsKernels));
  return built;
}

}  // namespace poc
