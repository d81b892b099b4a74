// Content-addressed window cache tests (src/cache + the flow wiring).  The
// cache contract extends the determinism contract: turning the cache on or
// off — or shrinking it until it evicts or rejects everything — may only
// change wall time, never a single output bit, at any thread count.
// EXPECT_EQ on doubles below is deliberate, as in determinism_test.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/cache/disk_store.h"
#include "src/cache/fingerprint.h"
#include "src/cache/result_cache.h"
#include "src/common/fault.h"
#include "src/core/flow.h"
#include "src/core/window_codec.h"
#include "src/netlist/generators.h"

namespace poc {
namespace {

// ---------------------------------------------------------------------------
// Fingerprint unit tests

TEST(Fingerprint, TranslatedGeometryHashesAlike) {
  const std::vector<Rect> rects{{10, 20, 110, 70}, {200, 20, 260, 300}};
  const Point shift{5000, -3000};
  std::vector<Rect> moved;
  for (const Rect& r : rects) moved.push_back(r.translated(shift));

  FpHasher a;
  a.rects(rects, Point{0, 0});
  FpHasher b;
  b.rects(moved, shift);
  EXPECT_EQ(a.digest(), b.digest());

  // Same rects, different local position -> different key.
  FpHasher c;
  c.rects(moved, Point{0, 0});
  EXPECT_FALSE(a.digest() == c.digest());
}

TEST(Fingerprint, SensitiveToValuesAndOrder) {
  FpHasher a;
  a.f64(1.0).f64(2.0);
  FpHasher b;
  b.f64(2.0).f64(1.0);
  EXPECT_FALSE(a.digest() == b.digest());

  FpHasher c;
  c.f64(0.0);
  FpHasher d;
  d.f64(-0.0);  // distinct IEEE bit patterns must key separately
  EXPECT_FALSE(c.digest() == d.digest());

  FpHasher e;
  e.str("opc");
  FpHasher f;
  f.str("orc");
  EXPECT_FALSE(e.digest() == f.digest());
}

// ---------------------------------------------------------------------------
// ShardedCache unit tests

Fingerprint key(std::uint64_t i) {
  FpHasher h;
  h.u64(i);
  return h.digest();
}

TEST(ShardedCache, InsertFindAndCounters) {
  ShardedCache<int> cache(/*capacity_bytes=*/1024, /*shards=*/4);
  EXPECT_EQ(cache.find(key(1)), nullptr);
  cache.insert(key(1), std::make_shared<int>(42), 8);
  const auto hit = cache.find(key(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 42);

  const CacheCounters c = cache.counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.insertions, 1u);
  EXPECT_EQ(c.entries, 1u);
  EXPECT_EQ(c.bytes, 8u);
  EXPECT_DOUBLE_EQ(c.hit_rate(), 0.5);
}

TEST(ShardedCache, FirstInsertWins) {
  ShardedCache<int> cache(1024, 1);
  cache.insert(key(7), std::make_shared<int>(1), 8);
  cache.insert(key(7), std::make_shared<int>(2), 8);
  EXPECT_EQ(*cache.find(key(7)), 1);
  EXPECT_EQ(cache.counters().entries, 1u);
}

TEST(ShardedCache, EvictsLeastRecentlyUsed) {
  // One shard, room for three unit-cost entries.
  ShardedCache<int> cache(/*capacity_bytes=*/3, /*shards=*/1);
  cache.insert(key(1), std::make_shared<int>(1), 1);
  cache.insert(key(2), std::make_shared<int>(2), 1);
  cache.insert(key(3), std::make_shared<int>(3), 1);
  // Touch 1 so 2 becomes the LRU victim.
  EXPECT_NE(cache.find(key(1)), nullptr);
  cache.insert(key(4), std::make_shared<int>(4), 1);

  EXPECT_NE(cache.find(key(1)), nullptr);
  EXPECT_EQ(cache.find(key(2)), nullptr);
  EXPECT_NE(cache.find(key(3)), nullptr);
  EXPECT_NE(cache.find(key(4)), nullptr);
  EXPECT_EQ(cache.counters().evictions, 1u);
  EXPECT_EQ(cache.counters().entries, 3u);
}

TEST(ShardedCache, HitKeepsValueAliveAcrossEviction) {
  ShardedCache<std::vector<int>> cache(2, 1);
  cache.insert(key(1), std::make_shared<std::vector<int>>(3, 11), 1);
  const auto held = cache.find(key(1));
  ASSERT_NE(held, nullptr);
  cache.insert(key(2), std::make_shared<std::vector<int>>(3, 22), 1);
  cache.insert(key(3), std::make_shared<std::vector<int>>(3, 33), 1);
  EXPECT_EQ(cache.find(key(1)), nullptr);  // evicted...
  EXPECT_EQ((*held)[0], 11);               // ...but the hit's copy survives
}

TEST(ShardedCache, CapacityZeroRejectsEverything) {
  ShardedCache<int> cache(0, 4);
  cache.insert(key(1), std::make_shared<int>(1), 1);
  EXPECT_EQ(cache.find(key(1)), nullptr);
  const CacheCounters c = cache.counters();
  EXPECT_EQ(c.rejected, 1u);
  EXPECT_EQ(c.insertions, 0u);
  EXPECT_EQ(c.entries, 0u);
}

TEST(ShardedCache, ConcurrentMixedAccessIsSafe) {
  // Contended find/insert over a small key space; run under TSan via
  // scripts/check.sh.  Values carry a payload so a use-after-free would
  // surface as a data race or garbage read.
  ShardedCache<std::vector<int>> cache(/*capacity_bytes=*/256, /*shards=*/4);
  constexpr int kThreads = 8;
  constexpr int kOps = 4000;
  constexpr std::uint64_t kKeys = 64;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, t] {
      for (int op = 0; op < kOps; ++op) {
        const std::uint64_t k =
            (static_cast<std::uint64_t>(t) * 2654435761u + op) % kKeys;
        if (const auto hit = cache.find(key(k))) {
          ASSERT_EQ(hit->size(), 4u);
          EXPECT_EQ((*hit)[0], static_cast<int>(k));
        } else {
          cache.insert(key(k),
                       std::make_shared<std::vector<int>>(4, static_cast<int>(k)),
                       /*cost_bytes=*/8);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const CacheCounters c = cache.counters();
  EXPECT_EQ(c.hits + c.misses, static_cast<std::uint64_t>(kThreads) * kOps);
  EXPECT_LE(c.bytes, 256u);
}

// ---------------------------------------------------------------------------
// Disk tier: the spill-to-disk store shared across worker processes

struct CacheTempDir {
  std::filesystem::path path;
  explicit CacheTempDir(const std::string& name)
      : path(std::filesystem::temp_directory_path() / name) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~CacheTempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

std::vector<std::uint8_t> encode_int(const int& v) {
  std::vector<std::uint8_t> bytes(sizeof v);
  std::memcpy(bytes.data(), &v, sizeof v);
  return bytes;
}

std::shared_ptr<int> decode_int(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() != sizeof(int)) return nullptr;  // structural mismatch
  int v;
  std::memcpy(&v, bytes.data(), sizeof v);
  return std::make_shared<int>(v);
}

TEST(ShardedCacheDisk, SpillsOnInsertAndServesAFreshInstance) {
  CacheTempDir dir("poc_cache_disk_roundtrip");
  const auto store = std::make_shared<DiskCacheStore>(dir.path.string());
  ASSERT_TRUE(store->ok());

  // Instance A (worker 0) computes and inserts: write-through spill.
  ShardedCache<int> a(1 << 12, 4);
  a.attach_disk(store, encode_int, decode_int);
  a.insert(key(1), std::make_shared<int>(41), 8);
  EXPECT_TRUE(store->contains(key(1)));

  // Instance B (worker 1, fresh memory) finds it on disk: a disk hit that
  // promotes into memory, so the second find is a plain memory hit.
  ShardedCache<int> b(1 << 12, 4);
  b.attach_disk(std::make_shared<DiskCacheStore>(dir.path.string()),
                encode_int, decode_int);
  const auto first = b.find(key(1));
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(*first, 41);
  ASSERT_NE(b.find(key(1)), nullptr);
  const CacheCounters c = b.counters();
  EXPECT_EQ(c.disk_hits, 1u);
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 0u);
  EXPECT_DOUBLE_EQ(c.hit_rate(), 1.0);  // disk hits count as hits

  // Structurally invalid published bytes (wrong size for the codec) must
  // read as a miss — the caller recomputes, never consumes garbage.
  const std::uint8_t junk[3] = {1, 2, 3};
  store->put(key(2), junk, sizeof junk);
  EXPECT_EQ(b.find(key(2)), nullptr);
  EXPECT_EQ(b.counters().misses, 1u);
}

TEST(ShardedCacheDisk, CounterIdentityIsExactUnderConcurrentLookups) {
  // The satellite contract: with the disk tier attached, every find()
  // increments exactly one of hits / disk_hits / misses, so under any
  // interleaving the three sum to the exact number of lookups.
  CacheTempDir dir("poc_cache_disk_identity");
  const auto store = std::make_shared<DiskCacheStore>(dir.path.string());
  constexpr std::uint64_t kOnDisk = 32;  // keys [0, 32) pre-published
  constexpr std::uint64_t kKeys = 64;    // keys [32, 64) exist nowhere
  for (std::uint64_t k = 0; k < kOnDisk; ++k) {
    const std::vector<std::uint8_t> bytes = encode_int(static_cast<int>(k));
    store->put(key(k), bytes.data(), bytes.size());
  }

  ShardedCache<int> cache(1 << 16, 4);
  cache.attach_disk(store, encode_int, decode_int);
  constexpr int kThreads = 8;
  constexpr int kOps = 2000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, t] {
      for (int op = 0; op < kOps; ++op) {
        const std::uint64_t k =
            (static_cast<std::uint64_t>(t) * 2654435761u + op) % kKeys;
        const auto hit = cache.find(key(k));
        if (k < kOnDisk) {
          ASSERT_NE(hit, nullptr);
          EXPECT_EQ(*hit, static_cast<int>(k));
        } else {
          EXPECT_EQ(hit, nullptr);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();

  const CacheCounters c = cache.counters();
  EXPECT_EQ(c.hits + c.disk_hits + c.misses,
            static_cast<std::uint64_t>(kThreads) * kOps);
  EXPECT_GT(c.disk_hits, 0u) << "first touch of each disk key";
  EXPECT_GT(c.hits, 0u) << "promoted entries serve from memory";
  // Exactly the lookups of absent keys miss; lookups of published keys
  // never do (they land as disk hits or, once promoted, memory hits).
  std::uint64_t absent_lookups = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int op = 0; op < kOps; ++op) {
      const std::uint64_t k =
          (static_cast<std::uint64_t>(t) * 2654435761u + op) % kKeys;
      if (k >= kOnDisk) ++absent_lookups;
    }
  }
  EXPECT_EQ(c.misses, absent_lookups);
}

// ---------------------------------------------------------------------------
// Flow-level: cache on vs off must be bit-identical

const StdCellLibrary& lib() {
  static const StdCellLibrary l = StdCellLibrary::load_or_characterize(
      (std::filesystem::temp_directory_path() / "poc_cells_test.lib")
          .string());
  return l;
}

FlowOptions flow_options(std::size_t threads, bool cache_enabled,
                         std::size_t capacity_mb = 256) {
  FlowOptions opts;
  opts.sta.clock_period = 90.0;
  opts.threads = threads;
  opts.cache.enabled = cache_enabled;
  opts.cache.capacity_mb = capacity_mb;
  return opts;
}

void expect_same_extraction(const std::vector<GateExtraction>& a,
                            const std::vector<GateExtraction>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t g = 0; g < a.size(); ++g) {
    EXPECT_EQ(a[g].gate, b[g].gate);
    ASSERT_EQ(a[g].devices.size(), b[g].devices.size());
    for (std::size_t d = 0; d < a[g].devices.size(); ++d) {
      const DeviceCd& da = a[g].devices[d];
      const DeviceCd& db = b[g].devices[d];
      ASSERT_EQ(da.profile.slice_cd_nm.size(), db.profile.slice_cd_nm.size());
      for (std::size_t s = 0; s < da.profile.slice_cd_nm.size(); ++s) {
        EXPECT_EQ(da.profile.slice_cd_nm[s], db.profile.slice_cd_nm[s])
            << "gate " << g << " dev " << d << " slice " << s;
      }
      EXPECT_EQ(da.eq.ion_ua, db.eq.ion_ua);
      EXPECT_EQ(da.eq.ioff_ua, db.eq.ioff_ua);
      EXPECT_EQ(da.eq.l_eff_drive_nm, db.eq.l_eff_drive_nm);
      EXPECT_EQ(da.eq.functional, db.eq.functional);
    }
  }
}

void expect_same_masks(const PostOpcFlow& a, const PostOpcFlow& b,
                       std::size_t instances) {
  EXPECT_EQ(a.opc_stats().fragments, b.opc_stats().fragments);
  EXPECT_EQ(a.opc_stats().iterations, b.opc_stats().iterations);
  EXPECT_EQ(a.opc_stats().max_abs_epe_nm, b.opc_stats().max_abs_epe_nm);
  EXPECT_EQ(a.opc_stats().rms_epe_sum, b.opc_stats().rms_epe_sum);
  for (std::size_t i = 0; i < instances; ++i) {
    const std::vector<Rect>& ma = a.mask_for_instance(i);
    const std::vector<Rect>& mb = b.mask_for_instance(i);
    ASSERT_EQ(ma.size(), mb.size()) << "instance " << i;
    for (std::size_t r = 0; r < ma.size(); ++r) {
      EXPECT_EQ(ma[r], mb[r]) << "instance " << i << " rect " << r;
    }
  }
}

/// Flows over the same design with the cache on and off, serial and
/// 4-thread, OPC already run: every product must match bit for bit.
class CacheFlowFixture : public ::testing::Test {
 protected:
  static const PlacedDesign& design() {
    static PlacedDesign d = place_and_route(make_c17(), lib());
    return d;
  }
  static PostOpcFlow& cached() { return *flows()[0]; }
  static PostOpcFlow& uncached() { return *flows()[1]; }
  static PostOpcFlow& cached_par() { return *flows()[2]; }

 private:
  static std::vector<std::unique_ptr<PostOpcFlow>>& flows() {
    static auto built = [] {
      std::vector<std::unique_ptr<PostOpcFlow>> f;
      f.push_back(std::make_unique<PostOpcFlow>(
          design(), lib(), LithoSimulator{}, flow_options(1, /*cache=*/true)));
      f.push_back(std::make_unique<PostOpcFlow>(
          design(), lib(), LithoSimulator{}, flow_options(1, /*cache=*/false)));
      f.push_back(std::make_unique<PostOpcFlow>(
          design(), lib(), LithoSimulator{}, flow_options(4, /*cache=*/true)));
      for (auto& flow : f) flow->run_opc(OpcMode::kModelBased);
      return f;
    }();
    return built;
  }
};

TEST_F(CacheFlowFixture, OpcMasksBitIdenticalCacheOnOff) {
  expect_same_masks(cached(), uncached(), design().layout.num_instances());
  expect_same_masks(cached_par(), uncached(), design().layout.num_instances());
}

TEST_F(CacheFlowFixture, ExtractionBitIdenticalCacheOnOff) {
  expect_same_extraction(cached().extract({}), uncached().extract({}));
  expect_same_extraction(cached().extract({120.0, 1.04}),
                         uncached().extract({120.0, 1.04}));
  expect_same_extraction(cached_par().extract({120.0, 1.04}),
                         uncached().extract({120.0, 1.04}));
}

TEST_F(CacheFlowFixture, TimingBitIdenticalCacheOnOff) {
  const TimingComparison a = cached().compare_timing();
  const TimingComparison b = uncached().compare_timing();
  EXPECT_EQ(a.drawn.worst_slack, b.drawn.worst_slack);
  EXPECT_EQ(a.annotated.worst_slack, b.annotated.worst_slack);
  EXPECT_EQ(a.annotated.total_leakage_ua, b.annotated.total_leakage_ua);
  EXPECT_EQ(a.worst_slack_change_pct, b.worst_slack_change_pct);
}

TEST_F(CacheFlowFixture, HotspotScanBitIdenticalCacheOnOff) {
  OrcOptions orc;
  orc.epe_limit_nm = 6.0;
  const std::vector<ProcessCorner> corners{{"nominal", {0.0, 1.0}},
                                           {"stress", {150.0, 1.08}}};
  const auto a = cached().scan_hotspots(corners, orc);
  const auto b = uncached().scan_hotspots(corners, orc);
  // Scan twice with the cache: the second pass replays entirely from it.
  const auto a2 = cached().scan_hotspots(corners, orc);
  for (const auto* r : {&a, &a2}) {
    EXPECT_EQ(r->windows_checked, b.windows_checked);
    EXPECT_EQ(r->pinches, b.pinches);
    EXPECT_EQ(r->bridges, b.bridges);
    EXPECT_EQ(r->epe_violations, b.epe_violations);
    ASSERT_EQ(r->hotspots.size(), b.hotspots.size());
    for (std::size_t h = 0; h < r->hotspots.size(); ++h) {
      EXPECT_EQ(r->hotspots[h].instance, b.hotspots[h].instance);
      EXPECT_EQ(r->hotspots[h].violation.where, b.hotspots[h].violation.where);
      EXPECT_EQ(r->hotspots[h].violation.value_nm,
                b.hotspots[h].violation.value_nm);
    }
  }
  EXPECT_GT(cached().cache_counters().orc.hits, 0u);
}

TEST_F(CacheFlowFixture, RepeatedExtractionHitsLatentCache) {
  const CacheCounters before = cached().cache_counters().latent;
  const auto first = cached().extract({30.0, 0.98});
  const auto again = cached().extract({30.0, 0.98});
  expect_same_extraction(first, again);
  const CacheCounters after = cached().cache_counters().latent;
  // The second pass must hit for every gate's window.
  EXPECT_GE(after.hits - before.hits, design().netlist.num_gates());
  EXPECT_GT(after.entries, 0u);
}

TEST_F(CacheFlowFixture, UncachedFlowReportsZeroCounters) {
  const auto c = uncached().cache_counters();
  EXPECT_EQ(c.total().hits + c.total().misses, 0u);
  EXPECT_EQ(c.total().entries, 0u);
}

TEST(CacheFlowCapacityZero, DegradedCacheStaysBitIdentical) {
  // capacity 0: every lookup misses, every insert is rejected — the flow
  // must behave exactly like cache-off.
  PlacedDesign design = place_and_route(make_c17(), lib());
  PostOpcFlow degraded(design, lib(), LithoSimulator{},
                       flow_options(4, /*cache=*/true, /*capacity_mb=*/0));
  PostOpcFlow off(design, lib(), LithoSimulator{},
                  flow_options(4, /*cache=*/false));
  degraded.run_opc(OpcMode::kRuleBased);
  off.run_opc(OpcMode::kRuleBased);
  expect_same_masks(degraded, off, design.layout.num_instances());
  expect_same_extraction(degraded.extract({}), off.extract({}));

  const auto c = degraded.cache_counters();
  EXPECT_EQ(c.total().hits, 0u);
  EXPECT_GT(c.total().misses, 0u);
  EXPECT_GT(c.total().rejected, 0u);
  EXPECT_EQ(c.total().entries, 0u);
}

TEST(CacheFlowFaults, EscalatedRetryNeverPoisonsNominalFingerprints) {
  // Containment hygiene: a retry attempt runs with escalated settings
  // (sign-off quality) and must bypass the cache entirely — if it stored
  // its result under the nominal fingerprint, every later nominal lookup
  // would replay escalated bits.  Inject a transient cache-insert fault on
  // one gate's extraction, let the retry recover, then extract again
  // fault-free: the cached flow must match a cache-off fault-free flow bit
  // for bit.
  PlacedDesign design = place_and_route(make_c17(), lib());
  PostOpcFlow cached(design, lib(), LithoSimulator{},
                     flow_options(1, /*cache=*/true));
  PostOpcFlow reference(design, lib(), LithoSimulator{},
                        flow_options(1, /*cache=*/false));
  cached.run_opc(OpcMode::kModelBased);
  reference.run_opc(OpcMode::kModelBased);

  // Target gate 0: with one thread it extracts first, so its latent-image
  // lookup always misses and reaches the insert (later gates may hit
  // entries shared with an identical window and never insert at all).
  fault::Config cfg;
  cfg.enabled = true;
  cfg.transient = true;
  cfg.targets.push_back({fault::Kind::kCacheInsert, fault::Domain::kExtract, 0});
  fault::configure(cfg);
  const auto faulted = cached.extract({});
  fault::reset();

  const FlowHealth h = cached.health();
  ASSERT_EQ(h.faults.size(), 1u);
  EXPECT_EQ(h.faults[0].code, FaultCode::kAllocFailure);
  EXPECT_TRUE(h.faults[0].recovered);
  EXPECT_TRUE(h.degraded_gates.empty());
  EXPECT_FALSE(faulted[0].devices.empty());  // escalated retry delivered

  // Fault-free re-extraction through the (possibly poisoned) cache must
  // equal the cache-off fault-free reference on every gate — including
  // gate 2, whose recovered-run result came from the escalated settings.
  expect_same_extraction(cached.extract({}), reference.extract({}));
}

// ---------------------------------------------------------------------------
// Window-result codecs on untrusted bytes

/// `bytes` with the little-endian u64 at `at` replaced by `v`.
void patch_u64(std::vector<std::uint8_t>& bytes, std::size_t at,
               std::uint64_t v) {
  std::memcpy(bytes.data() + at, &v, sizeof v);
}

/// nx * ny wraps to exactly `pixels` (any even count): the product an
/// unguarded size check would accept.
constexpr std::uint64_t kWrappingNx = (std::uint64_t{1} << 63) + 1;

TEST(WindowCodec, RoundTripsAndRejectsCountsTheBytesCannotHold) {
  const std::vector<Rect> rects{{0, 0, 40, 90}, {-5, 7, 12, 300}};
  std::vector<std::uint8_t> bytes = to_bytes(rects);
  std::vector<Rect> rects_back;
  ASSERT_TRUE(from_bytes(bytes, rects_back));
  EXPECT_EQ(rects_back, rects);
  std::fill_n(bytes.begin(), 4, std::uint8_t{0xFF});
  EXPECT_FALSE(from_bytes(bytes, rects_back));
  EXPECT_TRUE(rects_back.empty()) << "no element may be sized from the count";

  Image2D img(4, 8, 5.0, -2.5, 7.5);
  for (std::size_t i = 0; i < img.data().size(); ++i) img.data()[i] = 0.5 * i;
  bytes = to_bytes(img);
  Image2D img_back;
  ASSERT_TRUE(from_bytes(bytes, img_back));
  EXPECT_EQ(img_back.data(), img.data());
  EXPECT_EQ(img_back.origin_x(), img.origin_x());
  patch_u64(bytes, 0, kWrappingNx);
  patch_u64(bytes, 8, 32);  // (2^63 + 1) * 32 == 32 mod 2^64
  EXPECT_FALSE(from_bytes(bytes, img_back));
  patch_u64(bytes, 0, 0);
  patch_u64(bytes, 8, 32);
  EXPECT_FALSE(from_bytes(bytes, img_back));

  OrcReport orc;
  orc.violations.push_back({OrcViolation::Kind::kPinch, {3, 4}, 21.5});
  bytes = to_bytes(orc);
  std::fill_n(bytes.begin() + 16, 4, std::uint8_t{0xFF});  // after 2 doubles
  EXPECT_FALSE(from_bytes(bytes, orc));

  GateExtraction ext;
  ext.gate = 3;
  ext.devices.resize(1);
  ext.devices[0].device = "MN1";
  ext.devices[0].profile.slice_cd_nm = {90.0, 91.0};
  bytes = to_bytes(ext);
  GateExtraction ext_back;
  ASSERT_TRUE(from_bytes(bytes, ext_back));
  EXPECT_EQ(ext_back.devices[0].profile.slice_cd_nm,
            ext.devices[0].profile.slice_cd_nm);
  std::fill_n(bytes.begin() + 8, 4, std::uint8_t{0xFF});  // device count
  EXPECT_FALSE(from_bytes(bytes, ext_back));
}

TEST(CacheDiskDecode, HugeCountEntriesReadAsMissesAndRecompute) {
  // Disk entries with valid framing whose count fields no payload could
  // hold (an OPC mask claiming 0xFFFFFFFF rects, a latent image whose
  // nx * ny wraps around to its real pixel count) must read as misses:
  // the windows recompute to the cache-off reference's exact bits.
  PlacedDesign design = place_and_route(make_c17(), lib());
  CacheTempDir good("poc_cache_decode_good");
  CacheTempDir bad("poc_cache_decode_bad");
  FlowOptions opts = flow_options(1, /*cache=*/true);
  opts.cache.disk_path = good.path.string();
  {
    PostOpcFlow flow(design, lib(), LithoSimulator{}, opts);
    flow.run_opc(OpcMode::kModelBased);
    flow.extract({});
  }
  std::size_t republished = 0;
  for (const std::string kind : {"opc", "latent"}) {
    const DiskCacheStore from((good.path / kind).string());
    DiskCacheStore to((bad.path / kind).string());
    for (const auto& e :
         std::filesystem::directory_iterator(good.path / kind)) {
      const std::string hex = e.path().stem().string();
      if (e.path().extension() != ".entry" || hex.size() != 32) continue;
      const Fingerprint fp{std::stoull(hex.substr(0, 16), nullptr, 16),
                           std::stoull(hex.substr(16), nullptr, 16)};
      std::vector<std::uint8_t> bytes;
      ASSERT_TRUE(from.get(fp, &bytes));
      if (kind == "opc") {
        std::fill_n(bytes.begin(), 4, std::uint8_t{0xFF});
      } else {
        std::uint64_t nx = 0, ny = 0;
        std::memcpy(&nx, bytes.data(), sizeof nx);
        std::memcpy(&ny, bytes.data() + 8, sizeof ny);
        patch_u64(bytes, 0, kWrappingNx);
        patch_u64(bytes, 8, nx * ny);
      }
      ASSERT_TRUE(to.put(fp, bytes.data(), bytes.size()));
      ++republished;
    }
  }
  ASSERT_GT(republished, 0u);

  opts.cache.disk_path = bad.path.string();
  PostOpcFlow flow(design, lib(), LithoSimulator{}, opts);
  flow.run_opc(OpcMode::kModelBased);
  PostOpcFlow reference(design, lib(), LithoSimulator{},
                        flow_options(1, /*cache=*/false));
  reference.run_opc(OpcMode::kModelBased);
  expect_same_masks(flow, reference, design.layout.num_instances());
  expect_same_extraction(flow.extract({}), reference.extract({}));
  EXPECT_TRUE(flow.health().clean());
  EXPECT_EQ(flow.cache_counters().opc.disk_hits, 0u);
  EXPECT_EQ(flow.cache_counters().latent.disk_hits, 0u);
}

TEST(CacheFlowBatch, BatchOfMissesKeepsCacheObservablesIdentical) {
  // The window loop probes a chunk with find in index order, batch-
  // computes the misses and inserts in index order; a window whose key
  // repeats an earlier miss of its chunk waits a round and then hits.  So
  // a chunk of identical cold windows must behave exactly like width 1:
  // the first index inserts, the rest hit, and every counter the cache
  // exposes matches the width-1 run at one thread.
  PlacedDesign design = place_and_route(make_c17(), lib());
  const auto run = [&](std::size_t batch) {
    FlowOptions opts = flow_options(1, /*cache=*/true);
    opts.imaging.mode = ImagingMode::kSocs;
    opts.imaging.batch_windows = batch;
    auto flow =
        std::make_unique<PostOpcFlow>(design, lib(), LithoSimulator{}, opts);
    flow->run_opc(OpcMode::kModelBased);
    return flow;
  };
  const auto scalar = run(0);
  const auto batched = run(kBatchWindowsAuto);
  expect_same_masks(*scalar, *batched, design.layout.num_instances());
  expect_same_extraction(scalar->extract({}), batched->extract({}));
  const auto expect_same_counters = [](const CacheCounters& a,
                                       const CacheCounters& b,
                                       const char* which) {
    EXPECT_EQ(a.hits, b.hits) << which;
    EXPECT_EQ(a.misses, b.misses) << which;
    EXPECT_EQ(a.insertions, b.insertions) << which;
    EXPECT_EQ(a.rejected, b.rejected) << which;
    EXPECT_EQ(a.entries, b.entries) << which;
    EXPECT_EQ(a.bytes, b.bytes) << which;
  };
  expect_same_counters(scalar->cache_counters().opc,
                       batched->cache_counters().opc, "opc");
  expect_same_counters(scalar->cache_counters().latent,
                       batched->cache_counters().latent, "latent");
}

TEST(CacheFlowBatch, StagedScanReportsKeepOrcCacheObservablesIdentical) {
  // The scan's counterpart: the loop finds each (window, corner) in the
  // ORC cache, batch-images the missing pairs and inserts their reports
  // in index order.  A cold scan and a warm rescan must leave every ORC
  // counter exactly where the width-1 loop leaves it, at one thread and
  // at the default auto width.
  PlacedDesign design = place_and_route(make_c17(), lib());
  OrcOptions orc;
  orc.epe_limit_nm = 6.0;
  const std::vector<ProcessCorner> corners{{"nominal", {0.0, 1.0}},
                                           {"stress", {150.0, 1.08}}};
  const auto run = [&](std::size_t batch) {
    FlowOptions opts = flow_options(1, /*cache=*/true);
    opts.imaging.batch_windows = batch;
    auto flow =
        std::make_unique<PostOpcFlow>(design, lib(), LithoSimulator{}, opts);
    flow->run_opc(OpcMode::kModelBased);
    return flow;
  };
  const auto scalar = run(0);
  const auto staged = run(kBatchWindowsAuto);
  for (int pass = 0; pass < 2; ++pass) {
    const auto a = scalar->scan_hotspots(corners, orc);
    const auto b = staged->scan_hotspots(corners, orc);
    EXPECT_EQ(a.windows_checked, b.windows_checked);
    ASSERT_EQ(a.hotspots.size(), b.hotspots.size());
    for (std::size_t h = 0; h < a.hotspots.size(); ++h) {
      EXPECT_EQ(a.hotspots[h].instance, b.hotspots[h].instance);
      EXPECT_EQ(a.hotspots[h].violation.where, b.hotspots[h].violation.where);
      EXPECT_EQ(a.hotspots[h].violation.value_nm,
                b.hotspots[h].violation.value_nm);
    }
    const CacheCounters ca = scalar->cache_counters().orc;
    const CacheCounters cb = staged->cache_counters().orc;
    EXPECT_EQ(ca.hits, cb.hits) << "pass " << pass;
    EXPECT_EQ(ca.misses, cb.misses) << "pass " << pass;
    EXPECT_EQ(ca.insertions, cb.insertions) << "pass " << pass;
    EXPECT_EQ(ca.rejected, cb.rejected) << "pass " << pass;
    EXPECT_EQ(ca.entries, cb.entries) << "pass " << pass;
    EXPECT_EQ(ca.bytes, cb.bytes) << "pass " << pass;
  }
  EXPECT_GT(staged->cache_counters().orc.hits, 0u);
}

TEST(CacheFlowSocs, SocsFlowBitIdenticalCacheOnOffAndThreaded) {
  // SOCS-mode window results are memoized under fingerprints that include
  // the imaging mode and truncation knobs; a cached SOCS flow must replay
  // exactly what an uncached one computes, serial or threaded.
  PlacedDesign design = place_and_route(make_c17(), lib());
  FlowOptions on = flow_options(1, /*cache=*/true);
  on.imaging.mode = ImagingMode::kSocs;
  FlowOptions off_opts = flow_options(1, /*cache=*/false);
  off_opts.imaging.mode = ImagingMode::kSocs;
  FlowOptions on_par = flow_options(4, /*cache=*/true);
  on_par.imaging.mode = ImagingMode::kSocs;

  PostOpcFlow cached(design, lib(), LithoSimulator{}, on);
  PostOpcFlow uncached(design, lib(), LithoSimulator{}, off_opts);
  PostOpcFlow cached_par(design, lib(), LithoSimulator{}, on_par);
  for (PostOpcFlow* f : {&cached, &uncached, &cached_par}) {
    f->run_opc(OpcMode::kModelBased);
  }
  expect_same_masks(cached, uncached, design.layout.num_instances());
  expect_same_masks(cached_par, uncached, design.layout.num_instances());
  expect_same_extraction(cached.extract({}), uncached.extract({}));
  expect_same_extraction(cached_par.extract({60.0, 1.02}),
                         uncached.extract({60.0, 1.02}));
  // Repeat extraction replays from the latent cache.
  const CacheCounters before = cached.cache_counters().latent;
  expect_same_extraction(cached.extract({}), uncached.extract({}));
  EXPECT_GT(cached.cache_counters().latent.hits, before.hits);
}

// ---------------------------------------------------------------------------
// Disk-store robustness: size quota and publish-I/O tier-down (PR 10)

std::size_t fs_dir_entry_count(const std::filesystem::path& dir) {
  std::size_t n = 0;
  std::error_code ec;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator(dir, ec)) {
    ++n;
  }
  return n;
}

TEST(DiskCacheQuota, PrunesOldestEntriesPastTheQuota) {
  CacheTempDir dir("poc_cache_quota");
  DiskCacheStore::Options opts;
  // Each framed entry is 24 bytes of envelope + 100 bytes of payload = 124
  // bytes, so the third publish pushes past the quota by exactly one entry.
  opts.max_bytes = 300;
  DiskCacheStore store(dir.path.string(), opts);
  ASSERT_TRUE(store.ok());

  const std::vector<std::uint8_t> payload(100, 0xAB);
  const Fingerprint oldest = key(1);
  const Fingerprint middle = key(2);
  const Fingerprint newest = key(3);
  const auto backdate = [&](const Fingerprint& fp, int hours) {
    std::filesystem::last_write_time(
        store.entry_path(fp),
        std::filesystem::file_time_type::clock::now() -
            std::chrono::hours(hours));
  };
  ASSERT_TRUE(store.put(oldest, payload.data(), payload.size()));
  backdate(oldest, 2);
  ASSERT_TRUE(store.put(middle, payload.data(), payload.size()));
  backdate(middle, 1);
  ASSERT_TRUE(store.put(newest, payload.data(), payload.size()));

  const DiskCacheStore::Counters c = store.counters();
  EXPECT_EQ(c.publishes, 3u);
  EXPECT_EQ(c.pruned_entries, 1u);
  EXPECT_EQ(c.pruned_bytes, 124u);
  EXPECT_FALSE(store.degraded()) << "pruning is policy, not failure";
  EXPECT_FALSE(store.contains(oldest)) << "oldest entry must be evicted";
  EXPECT_TRUE(store.contains(middle));
  EXPECT_TRUE(store.contains(newest))
      << "the entry that triggered the prune is never its victim";

  // A pruned entry is just a future recompute-and-republish.
  EXPECT_TRUE(store.put(oldest, payload.data(), payload.size()));
  EXPECT_TRUE(store.contains(oldest));
}

TEST(DiskCacheFaults, PublishEioTakesTheTierDownWithCountersFrozen) {
  CacheTempDir dir("poc_cache_eio");
  DiskCacheStore store(dir.path.string());
  ASSERT_TRUE(store.ok());

  const std::vector<std::uint8_t> payload(64, 0x5C);
  ASSERT_TRUE(store.put(key(1), payload.data(), payload.size()));

  fault::Config cfg;
  cfg.enabled = true;
  cfg.targets.push_back(
      {fault::Kind::kIoEio, fault::Domain::kDiskCacheIo, fault::kAnyIndex});
  fault::configure(cfg);
  EXPECT_FALSE(store.put(key(2), payload.data(), payload.size()));
  fault::reset();

  EXPECT_TRUE(store.degraded());
  const DiskCacheStore::Counters after = store.counters();
  EXPECT_EQ(after.io_errors, 1u);
  EXPECT_EQ(after.publishes, 1u);

  // Tier down: every subsequent probe and publish short-circuits and the
  // counters freeze, so a degraded run's cache accounting is identical to a
  // run that never had a disk tier.
  EXPECT_FALSE(store.contains(key(1)));
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(store.get(key(1), &out));
  EXPECT_FALSE(store.put(key(3), payload.data(), payload.size()));
  const DiskCacheStore::Counters frozen = store.counters();
  EXPECT_EQ(frozen.probes, after.probes);
  EXPECT_EQ(frozen.loads, after.loads);
  EXPECT_EQ(frozen.io_errors, 1u);
  EXPECT_EQ(frozen.publishes, 1u);
  EXPECT_EQ(fs_dir_entry_count(dir.path), 1u)
      << "no partial entry may survive a failed publish";
}

}  // namespace
}  // namespace poc
