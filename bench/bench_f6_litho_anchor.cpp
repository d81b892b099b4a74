// Experiment F6 — lithography simulator anchors (enables T1..T5) and the
// Abbe-vs-Gaussian model ablation (DESIGN.md ablation 1).
//
// Aerial-image cross-sections, iso-dense bias, line-end pullback with and
// without correction, and a comparison against a single-Gaussian-kernel
// "litho" model showing what partial coherence buys.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/cdx/contour.h"
#include "src/litho/imaging.h"
#include "src/litho/mask.h"
#include "src/litho/resist.h"
#include "src/opc/opc_engine.h"

using namespace poc;

namespace {

/// The ablation strawman: mask convolved with one Gaussian (no coherence).
Image2D gaussian_model(const std::vector<Rect>& features, const Rect& window,
                       double sigma_nm) {
  Image2D img = rasterize_mask(features, window, 8.0);
  gaussian_blur(img, sigma_nm);
  return img;
}

double cd_of(const Image2D& img, double th, double x, double reach = 300.0) {
  return printed_width(img, th, {x, 0.0}, true, reach).value_or(0.0);
}

}  // namespace

int main() {
  // The litho anchors are taken on the Abbe reference engine.
  const LithoSimulator sim(
      OpticalSettings{}, ResistModel{},
      ImagingOptions{ImagingMode::kAbbe, SocsOptions{}, 0});
  const double th = sim.print_threshold();
  const Rect window{-900, -700, 990, 700};

  bench::section("F6: aerial-image cross-section, 250 nm pitch 90 nm lines");
  {
    std::vector<Rect> lines;
    for (int k = -3; k <= 3; ++k) lines.push_back({k * 250, -600, k * 250 + 90, 600});
    const Image2D aerial = sim.aerial(lines, window, 0.0);
    std::printf("x(nm)  I(x)\n");
    for (double x = -250.0; x <= 350.0; x += 25.0) {
      const double v = aerial.sample(x, 0.0);
      std::printf("%6.0f %6.3f %s\n", x, v,
                  std::string(static_cast<std::size_t>(v * 40), '*').c_str());
    }
    std::printf("image contrast (min %.3f / max %.3f)\n", aerial.min_value(),
                aerial.max_value());
  }

  bench::section("F6: iso-dense bias through pitch (drawn 90 nm)");
  {
    Table table({"pitch (nm)", "printed CD (nm)", "bias vs dense (nm)"});
    double dense_cd = 0.0;
    for (DbUnit pitch : {250, 300, 400, 550, 800, 0}) {
      std::vector<Rect> lines;
      if (pitch == 0) {
        lines.push_back({0, -600, 90, 600});
      } else {
        for (int k = -3; k <= 3; ++k) {
          lines.push_back({k * pitch, -600, k * pitch + 90, 600});
        }
      }
      const Image2D latent =
          sim.latent(lines, window, {}, LithoQuality::kFine);
      const double cd = cd_of(latent, th, 45.0);
      if (pitch == 250) dense_cd = cd;
      table.add_row({pitch == 0 ? "iso" : std::to_string(pitch),
                     Table::num(cd, 2), Table::num(cd - dense_cd, 2)});
    }
    std::printf("%s", table.render().c_str());
  }

  bench::section("F6: line-end pullback, uncorrected vs OPC");
  {
    const Polygon line = Polygon::from_rect({0, -800, 90, 0});
    const Rect le_window{-700, -1400, 790, 600};
    const auto end_of = [&](const std::vector<Rect>& mask) {
      const Image2D latent =
          sim.latent(mask, le_window, {}, LithoQuality::kStandard);
      const auto hit =
          first_crossing(latent, th, {45.0, -400.0}, {45.0, 400.0}, 4.0);
      return hit ? -400.0 + *hit : -400.0;
    };
    const double raw_end = end_of(decompose(line));
    OpcEngine engine(sim, OpcOptions{});
    const OpcResult r = engine.correct({line}, le_window);
    const double opc_end = end_of(r.mask_rects());
    std::printf("drawn line end:      y = 0\n");
    std::printf("printed, no OPC:     y = %.2f  (pullback %.2f nm)\n",
                raw_end, -raw_end);
    std::printf("printed, model OPC:  y = %.2f  (pullback %.2f nm)\n",
                opc_end, -opc_end);
  }

  bench::section("F6 ablation: Abbe partial coherence vs single-Gaussian");
  {
    Table table({"pitch", "Abbe CD (nm)", "Gaussian CD (nm)"});
    // Calibrate the Gaussian model to match the dense CD, then watch it
    // miss everywhere else.
    std::vector<Rect> dense;
    for (int k = -3; k <= 3; ++k) dense.push_back({k * 250, -600, k * 250 + 90, 600});
    double best_sigma = 30.0, best_err = 1e9;
    const Image2D abbe_dense = sim.latent(dense, window, {}, LithoQuality::kFine);
    const double abbe_dense_cd = cd_of(abbe_dense, th, 45.0);
    for (double sigma = 20.0; sigma <= 60.0; sigma += 2.0) {
      const double cd = cd_of(gaussian_model(dense, window, sigma), th, 45.0);
      if (std::abs(cd - abbe_dense_cd) < best_err) {
        best_err = std::abs(cd - abbe_dense_cd);
        best_sigma = sigma;
      }
    }
    std::printf("Gaussian kernel calibrated on dense pitch: sigma = %.0f nm\n",
                best_sigma);
    for (DbUnit pitch : {250, 400, 800, 0}) {
      std::vector<Rect> lines;
      if (pitch == 0) {
        lines.push_back({0, -600, 90, 600});
      } else {
        for (int k = -3; k <= 3; ++k) {
          lines.push_back({k * pitch, -600, k * pitch + 90, 600});
        }
      }
      const double abbe_cd =
          cd_of(sim.latent(lines, window, {}, LithoQuality::kFine), th, 45.0);
      const double gauss_cd =
          cd_of(gaussian_model(lines, window, best_sigma), th, 45.0);
      table.add_row({pitch == 0 ? "iso" : std::to_string(pitch),
                     Table::num(abbe_cd, 2), Table::num(gauss_cd, 2)});
    }
    std::printf("%s", table.render().c_str());
    std::printf(
        "\nShape check: the Gaussian model, once calibrated at one pitch,\n"
        "cannot reproduce the through-pitch bias curve (no interference),\n"
        "and it has no focus axis at all — the systematic context effects\n"
        "the paper extracts require the partially coherent imaging model.\n");
  }
  return 0;
}
