#include "src/core/window_codec.h"

namespace poc {

void encode(ByteWriter& w, bool b) { w.u8(b ? 1 : 0); }

bool decode(ByteReader& r, bool& b) {
  b = r.u8() != 0;
  return r.ok();
}

void encode(ByteWriter& w, const std::vector<Rect>& rects) {
  w.u32(static_cast<std::uint32_t>(rects.size()));
  for (const Rect& r : rects) {
    w.i64(r.xlo);
    w.i64(r.ylo);
    w.i64(r.xhi);
    w.i64(r.yhi);
  }
}

bool decode(ByteReader& r, std::vector<Rect>& rects) {
  rects.resize(r.count(4 * sizeof(std::int64_t)));
  for (Rect& rect : rects) {
    rect.xlo = r.i64();
    rect.ylo = r.i64();
    rect.xhi = r.i64();
    rect.yhi = r.i64();
  }
  return r.ok();
}

void encode(ByteWriter& w, const OpcStats& s) {
  w.u64(s.windows);
  w.u64(s.model_based_windows);
  w.u64(s.fragments);
  w.u64(s.iterations);
  w.f64(s.max_abs_epe_nm);
  w.f64(s.rms_epe_sum);
}

bool decode(ByteReader& r, OpcStats& s) {
  s.windows = r.u64();
  s.model_based_windows = r.u64();
  s.fragments = r.u64();
  s.iterations = r.u64();
  s.max_abs_epe_nm = r.f64();
  s.rms_epe_sum = r.f64();
  return r.ok();
}

void encode(ByteWriter& w, const OpcWindow& e) {
  encode(w, e.mask);
  encode(w, e.stats);
}

bool decode(ByteReader& r, OpcWindow& e) {
  return decode(r, e.mask) && decode(r, e.stats);
}

void encode(ByteWriter& w, const Image2D& img) {
  w.u64(img.nx());
  w.u64(img.ny());
  w.f64(img.pixel());
  w.f64(img.origin_x());
  w.f64(img.origin_y());
  for (double v : img.data()) w.f64(v);
}

bool decode(ByteReader& r, Image2D& img) {
  const std::uint64_t nx = r.u64();
  const std::uint64_t ny = r.u64();
  const double pixel = r.f64();
  const double ox = r.f64();
  const double oy = r.f64();
  // Bound the pixel count by the bytes left before multiplying: nx * ny
  // can wrap, and a wrapped product must not pass for a valid size.
  const std::size_t pixels_left = r.remaining() / sizeof(double);
  if (!r.ok() || nx == 0 || ny == 0 || ny > pixels_left / nx) return false;
  img = Image2D(nx, ny, pixel, ox, oy);
  for (double& v : img.data()) v = r.f64();
  return r.ok();
}

void encode(ByteWriter& w, const OrcReport& rep) {
  w.f64(rep.max_abs_epe_nm);
  w.f64(rep.rms_epe_nm);
  w.u32(static_cast<std::uint32_t>(rep.violations.size()));
  for (const OrcViolation& v : rep.violations) {
    w.u8(static_cast<std::uint8_t>(v.kind));
    w.i64(v.where.x);
    w.i64(v.where.y);
    w.f64(v.value_nm);
  }
}

bool decode(ByteReader& r, OrcReport& rep) {
  rep.max_abs_epe_nm = r.f64();
  rep.rms_epe_nm = r.f64();
  rep.violations.resize(r.count(1 + 3 * 8));
  for (OrcViolation& v : rep.violations) {
    v.kind = static_cast<OrcViolation::Kind>(r.u8());
    v.where.x = r.i64();
    v.where.y = r.i64();
    v.value_nm = r.f64();
  }
  return r.ok();
}

void encode(ByteWriter& w, const std::vector<OrcReport>& reports) {
  w.u32(static_cast<std::uint32_t>(reports.size()));
  for (const OrcReport& rep : reports) encode(w, rep);
}

bool decode(ByteReader& r, std::vector<OrcReport>& reports) {
  reports.resize(r.count(2 * 8 + 4));
  for (OrcReport& rep : reports) {
    if (!decode(r, rep)) return false;
  }
  return r.ok();
}

void encode(ByteWriter& w, const GateExtraction& ext) {
  w.u64(ext.gate);
  w.u32(static_cast<std::uint32_t>(ext.devices.size()));
  for (const DeviceCd& d : ext.devices) {
    w.str(d.device);
    w.u8(d.is_nmos ? 1 : 0);
    w.f64(d.drawn_l_nm);
    w.f64(d.drawn_w_nm);
    w.u32(static_cast<std::uint32_t>(d.profile.slice_cd_nm.size()));
    for (double cd : d.profile.slice_cd_nm) w.f64(cd);
    w.f64(d.profile.slice_width_nm);
    w.f64(d.profile.drawn_cd_nm);
    w.f64(d.eq.width_um);
    w.f64(d.eq.ion_ua);
    w.f64(d.eq.ioff_ua);
    w.f64(d.eq.l_eff_drive_nm);
    w.f64(d.eq.l_eff_leak_nm);
    w.f64(d.eq.l_mean_nm);
    w.u8(d.eq.functional ? 1 : 0);
  }
}

bool decode(ByteReader& r, GateExtraction& ext) {
  // A device's fixed-size fields: name and slice counts, two flags and ten
  // doubles.
  constexpr std::size_t kDeviceBytes = 2 * 4 + 2 * 1 + 10 * 8;
  ext.gate = r.u64();
  ext.devices.assign(r.count(kDeviceBytes), DeviceCd{});
  for (DeviceCd& d : ext.devices) {
    d.device = r.str();
    d.is_nmos = r.u8() != 0;
    d.drawn_l_nm = r.f64();
    d.drawn_w_nm = r.f64();
    d.profile.slice_cd_nm.resize(r.count(sizeof(double)));
    for (double& cd : d.profile.slice_cd_nm) cd = r.f64();
    d.profile.slice_width_nm = r.f64();
    d.profile.drawn_cd_nm = r.f64();
    d.eq.width_um = r.f64();
    d.eq.ion_ua = r.f64();
    d.eq.ioff_ua = r.f64();
    d.eq.l_eff_drive_nm = r.f64();
    d.eq.l_eff_leak_nm = r.f64();
    d.eq.l_mean_nm = r.f64();
    d.eq.functional = r.u8() != 0;
  }
  return r.ok();
}

}  // namespace poc
