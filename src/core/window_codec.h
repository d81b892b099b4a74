// One codec per window result of the flow's hot loops, shared by the run
// journal (payloads) and the disk cache tier (entries).  Values are stored
// as exactly the bits the hot loops would recompute (integers verbatim,
// doubles as IEEE-754 bit patterns), so a replay or a disk hit is
// indistinguishable from a recompute downstream.
//
// Decoders read untrusted bytes: they fail on any structural mismatch,
// including a count larger than the bytes left could hold, and never
// size an allocation from an unchecked count.  The caller then treats the
// record or entry as a miss and recomputes the window.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/serialize.h"
#include "src/core/flow.h"
#include "src/litho/image.h"
#include "src/opc/orc.h"

namespace poc {

void encode(ByteWriter& w, bool flag);
bool decode(ByteReader& r, bool& flag);
void encode(ByteWriter& w, const std::vector<Rect>& rects);
bool decode(ByteReader& r, std::vector<Rect>& rects);
void encode(ByteWriter& w, const OpcStats& stats);
bool decode(ByteReader& r, OpcStats& stats);
void encode(ByteWriter& w, const OpcWindow& window);
bool decode(ByteReader& r, OpcWindow& window);
void encode(ByteWriter& w, const Image2D& img);
bool decode(ByteReader& r, Image2D& img);
void encode(ByteWriter& w, const OrcReport& report);
bool decode(ByteReader& r, OrcReport& report);
/// A scanned window's reports, one per corner.
void encode(ByteWriter& w, const std::vector<OrcReport>& reports);
bool decode(ByteReader& r, std::vector<OrcReport>& reports);
void encode(ByteWriter& w, const GateExtraction& ext);
bool decode(ByteReader& r, GateExtraction& ext);

/// `values` encoded back to back: a journal payload or a disk-cache entry.
template <typename... T>
std::vector<std::uint8_t> to_bytes(const T&... values) {
  ByteWriter w;
  (encode(w, values), ...);
  return w.take();
}

/// Decodes `values` from `bytes`, which they must consume exactly.
template <typename... T>
bool from_bytes(const std::vector<std::uint8_t>& bytes, T&... values) {
  ByteReader r(bytes);
  return (decode(r, values) && ...) && r.done();
}

}  // namespace poc
