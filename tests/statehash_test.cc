// Tests for the schedule-space pruning layer (PR: state-hash dedup + POR):
//   * platform/hash primitives: SHA-256 vectors, Mix64/HashBytes64 behaviour;
//   * StateHasher: deterministic canonical encodings, dirty-page cache equivalence
//     with a cold hasher, sensitivity to every encoded component;
//   * DedupTable: verified membership under forced probe-bucket collisions — two
//     states sharing a 64-bit probe but differing in bytes stay distinct;
//   * GapClasses / MakePrunePolicy: the idempotent-region equivalence rule and the
//     per-cell prune gate;
//   * end-to-end: pruned exploration is byte-identical to unpruned, and dedup
//     actually fires on a prunable cell (which requires the runtime metadata mask —
//     unmasked timestamp words would make every trial's image unique).

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "apps/registry.h"
#include "apps/runtime_factory.h"
#include "chk/explorer.h"
#include "chk/invariants.h"
#include "chk/por.h"
#include "chk/statehash.h"
#include "platform/hash.h"
#include "sim/memory.h"
#include "sim/probe.h"

namespace easeio {
namespace {

// --- platform/hash ----------------------------------------------------------------------

TEST(PlatformHash, Sha256KnownVectors) {
  // FIPS 180-2 test vectors.
  EXPECT_EQ(platform::Sha256Hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(platform::Sha256Hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(PlatformHash, Sha256DigestMatchesHex) {
  const std::array<uint8_t, 32> digest = platform::Sha256Digest("abc");
  std::string hex;
  for (uint8_t b : digest) {
    char buf[3];
    std::snprintf(buf, sizeof buf, "%02x", b);
    hex += buf;
  }
  EXPECT_EQ(hex, platform::Sha256Hex("abc"));
}

TEST(PlatformHash, Mix64AndHashBytes64Behave) {
  // Deterministic, and a one-bit input change diffuses.
  EXPECT_EQ(platform::Mix64(42), platform::Mix64(42));
  EXPECT_NE(platform::Mix64(42), platform::Mix64(43));

  const char a[] = "the quick brown fox";
  const char b[] = "the quick brown fix";
  EXPECT_EQ(platform::HashBytes64(a, sizeof a), platform::HashBytes64(a, sizeof a));
  EXPECT_NE(platform::HashBytes64(a, sizeof a), platform::HashBytes64(b, sizeof b));
  EXPECT_NE(platform::HashBytes64(a, sizeof a), platform::HashBytes64(a, sizeof a - 1));
  EXPECT_NE(platform::HashBytes64(a, sizeof a, 0), platform::HashBytes64(a, sizeof a, 1));
}

// --- StateHasher ------------------------------------------------------------------------

struct FingerprintRig {
  sim::Memory mem{1024, 4096};
  std::unique_ptr<kernel::Runtime> rt = apps::MakeRuntime(apps::RuntimeKind::kEaseio);
  chk::EventScanState scan;

  chk::StateKey Key(chk::StateHasher& hasher, kernel::TaskId paused = 3) {
    chk::StateKey key;
    hasher.BeginTrial(*rt);
    EXPECT_TRUE(hasher.Fingerprint(mem, *rt, paused, scan, &key));
    EXPECT_TRUE(key.valid);
    return key;
  }
};

TEST(StateHasher, FingerprintIsDeterministic) {
  FingerprintRig rig;
  const uint32_t a = rig.mem.AllocFram("a", 300);
  for (uint32_t i = 0; i < 300; ++i) {
    rig.mem.Write8(a + i, static_cast<uint8_t>(i * 13 + 5));
  }
  chk::StateHasher h1, h2;
  const chk::StateKey k1 = rig.Key(h1);
  const chk::StateKey k2 = rig.Key(h2);
  EXPECT_EQ(k1.probe, k2.probe);
  EXPECT_EQ(k1.canonical, k2.canonical);
}

TEST(StateHasher, DirtyPageCacheMatchesColdHasher) {
  FingerprintRig rig;
  // Span several snapshot pages so the cache has something to skip.
  const uint32_t a = rig.mem.AllocFram("a", 4 * sim::Memory::kSnapshotPageSize);
  rig.mem.Fill(a, 4 * sim::Memory::kSnapshotPageSize, 0x3C);

  chk::StateHasher warm;
  const chk::StateKey before = rig.Key(warm);

  // Dirty exactly one page; the warm hasher rehashes only that page, a cold hasher
  // rehashes everything — the canonical encodings must still agree byte for byte.
  rig.mem.Write8(a + 2 * sim::Memory::kSnapshotPageSize + 7, 0xA1);
  const chk::StateKey warm_after = rig.Key(warm);
  chk::StateHasher cold;
  const chk::StateKey cold_after = rig.Key(cold);

  EXPECT_NE(before.canonical, warm_after.canonical);
  EXPECT_EQ(warm_after.canonical, cold_after.canonical);
  EXPECT_EQ(warm_after.probe, cold_after.probe);
}

TEST(StateHasher, EncodesEveryObservableComponent) {
  FingerprintRig rig;
  const uint32_t a = rig.mem.AllocFram("a", 64);
  rig.mem.Fill(a, 64, 0x11);
  chk::StateHasher h;
  const chk::StateKey base = rig.Key(h);

  // Paused task identity.
  EXPECT_NE(rig.Key(h, 4).canonical, base.canonical);

  // Durable memory content.
  rig.mem.Write8(a + 9, 0x12);
  const chk::StateKey mem_changed = rig.Key(h);
  EXPECT_NE(mem_changed.canonical, base.canonical);
  rig.mem.Write8(a + 9, 0x11);
  EXPECT_EQ(rig.Key(h).canonical, base.canonical);

  // Event-scan fold state: locks and prefix violations distinguish states.
  rig.scan.io_lane_stride = 2;
  rig.scan.io_locked = {0, 1};
  const chk::StateKey locked = rig.Key(h);
  EXPECT_NE(locked.canonical, base.canonical);

  chk::Violation v;
  v.invariant = chk::Invariant::kSingleReexec;
  v.subject = "site";
  v.detail = "detail";
  rig.scan.violations.push_back(v);
  EXPECT_NE(rig.Key(h).canonical, locked.canonical);
}

// --- DedupTable -------------------------------------------------------------------------

chk::StateKey MakeKey(uint64_t probe, const std::string& canonical) {
  chk::StateKey key;
  key.valid = true;
  key.probe = probe;
  key.canonical = canonical;
  return key;
}

TEST(DedupTable, LookupVerifiesAndCounts) {
  chk::DedupTable table;
  const chk::StateKey k = MakeKey(platform::HashBytes64("s1", 2), "s1");
  EXPECT_FALSE(table.Lookup(k));
  table.Insert(k);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_TRUE(table.Lookup(k));
  EXPECT_EQ(table.hits(), 1u);

  // Re-inserting an identical state is a no-op, not a duplicate entry.
  table.Insert(k);
  EXPECT_EQ(table.size(), 1u);
}

TEST(DedupTable, ProbeCollisionNeverForgesEquality) {
  // The seeded pair: identical 64-bit probes, different canonical bytes. With
  // probe_bits = 0 every state shares one bucket, so this exercises the
  // canonical byte-compare verification deterministically.
  chk::DedupTable table(/*probe_bits=*/0);
  const chk::StateKey k1 = MakeKey(0xDEADBEEF, "state-one");
  const chk::StateKey k2 = MakeKey(0xDEADBEEF, "state-two");

  table.Insert(k1);
  EXPECT_FALSE(table.Lookup(k2)) << "colliding probe must not alias different bytes";
  // Exact counts: each lookup counts one collision per bucket entry it compares and
  // rejects; inserts count none.
  EXPECT_EQ(table.probe_collisions(), 1u);
  table.Insert(k2);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.probe_collisions(), 1u);

  // Both remain independently retrievable; k2's lookup first rejects k1.
  EXPECT_TRUE(table.Lookup(k1));
  EXPECT_TRUE(table.Lookup(k2));
  EXPECT_EQ(table.hits(), 2u);
  EXPECT_EQ(table.probe_collisions(), 2u);
}

TEST(DedupTable, InvalidKeysOptOut) {
  chk::DedupTable table;
  chk::StateKey k = MakeKey(7, "bytes");
  k.valid = false;
  table.Insert(k);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_FALSE(table.Lookup(k));
  EXPECT_EQ(table.hits(), 0u);
}

// --- GapClasses / PrunePolicy -----------------------------------------------------------

std::vector<sim::ProbeEvent> EventsAt(std::initializer_list<uint64_t> instants) {
  std::vector<sim::ProbeEvent> events;
  for (uint64_t t : instants) {
    sim::ProbeEvent ev{};
    ev.kind = sim::ProbeKind::kNvWrite;
    ev.on_us = t;
    events.push_back(ev);
  }
  return events;
}

TEST(GapClasses, GapInteriorCollapsesEventAdjacentStaysSingleton) {
  chk::GapClasses gc;
  gc.Build(EventsAt({100, 200}), /*floor=*/0);
  EXPECT_EQ(gc.barrier_count(), 2u);

  // Interior of the (100, 200) gap: one shared, collapsible class.
  const uint64_t t150 = gc.TokenFor(150);
  EXPECT_TRUE(chk::GapClasses::Collapsible(t150));
  EXPECT_EQ(gc.TokenFor(120), t150);
  EXPECT_EQ(gc.TokenFor(198), t150);

  // At an event, or one tick before one (the trace's pre-event probe of mid-op
  // state): unique singletons.
  EXPECT_FALSE(chk::GapClasses::Collapsible(gc.TokenFor(100)));
  EXPECT_FALSE(chk::GapClasses::Collapsible(gc.TokenFor(199)));
  EXPECT_FALSE(chk::GapClasses::Collapsible(gc.TokenFor(200)));
  EXPECT_NE(gc.TokenFor(100), gc.TokenFor(200));

  // Different gaps are different classes.
  EXPECT_NE(gc.TokenFor(50), t150);
  EXPECT_NE(gc.TokenFor(250), t150);
}

TEST(GapClasses, DuplicateEventInstantsAndFloor) {
  std::vector<sim::ProbeEvent> events = EventsAt({100, 100, 300});
  chk::GapClasses gc;
  gc.Build(events, /*floor=*/200);
  // The 100s fall below the floor; only 300 remains a barrier.
  EXPECT_EQ(gc.barrier_count(), 1u);
  EXPECT_TRUE(chk::GapClasses::Collapsible(gc.TokenFor(250)));
  EXPECT_EQ(gc.TokenFor(210), gc.TokenFor(250));
  EXPECT_FALSE(chk::GapClasses::Collapsible(gc.TokenFor(300)));
}

TEST(PrunePolicy, RepresentativeMatchesTraceContract) {
  // The shared chk <-> lint invariant: the canonical representative of the window
  // after an event is the first instant past it.
  EXPECT_EQ(chk::RepresentativeAfter(100), 101u);
}

TEST(PrunePolicy, CollapsibleRegionRequiresAllFourAbsent) {
  chk::RegionConditions c;
  EXPECT_TRUE(chk::CollapsibleRegion(c));
  for (bool chk::RegionConditions::*field :
       {&chk::RegionConditions::war_hazard, &chk::RegionConditions::io_taint_crossing,
        &chk::RegionConditions::value_steered, &chk::RegionConditions::timely_window}) {
    chk::RegionConditions one;
    one.*field = true;
    EXPECT_FALSE(chk::CollapsibleRegion(one));
  }
}

// --- End-to-end pruning -----------------------------------------------------------------

chk::ExploreConfig SmallConfig(apps::AppKind app, apps::RuntimeKind rt) {
  chk::ExploreConfig cfg;
  cfg.app = app;
  cfg.runtime = rt;
  cfg.depth = 2;
  cfg.budget = 400;
  cfg.jobs = 2;
  return cfg;
}

TEST(Pruning, ExplorationIsByteIdenticalWithPruningOff) {
  for (const auto& [app, rt] :
       {std::pair{apps::AppKind::kDma, apps::RuntimeKind::kEaseio},
        std::pair{apps::AppKind::kWeather, apps::RuntimeKind::kSamoyed},
        // A cell the policy disables (Timely window), as a control.
        std::pair{apps::AppKind::kTemp, apps::RuntimeKind::kEaseio}}) {
    chk::ExploreConfig pruned = SmallConfig(app, rt);
    chk::ExploreConfig unpruned = pruned;
    unpruned.use_pruning = false;
    const std::string a = chk::ToJson(chk::Explore(pruned), /*include_timing=*/false);
    const std::string b = chk::ToJson(chk::Explore(unpruned), /*include_timing=*/false);
    EXPECT_EQ(a, b) << "app=" << static_cast<int>(app) << " rt=" << static_cast<int>(rt);
  }
}

TEST(Pruning, DedupFiresOnPrunableCell) {
  // Requires the EaseIO timestamp-word mask: without it every trial's durable image
  // embeds its unique failure time and no two states could ever alias.
  chk::ExploreConfig cfg = SmallConfig(apps::AppKind::kDma, apps::RuntimeKind::kEaseio);
  const chk::ExploreResult res = chk::Explore(cfg);
  EXPECT_GT(res.trials_pruned, 0u);
  EXPECT_GT(res.dedup_hits, 0u);
}

TEST(Pruning, PolicyDisablesOnTimelyAndValueSteeredCells) {
  for (const auto& [app, rt] :
       {std::pair{apps::AppKind::kTemp, apps::RuntimeKind::kEaseio},
        std::pair{apps::AppKind::kBranch, apps::RuntimeKind::kEaseio}}) {
    chk::ExploreConfig cfg = SmallConfig(app, rt);
    const chk::ExploreResult res = chk::Explore(cfg);
    EXPECT_EQ(res.trials_pruned, 0u) << "app=" << static_cast<int>(app);
    EXPECT_EQ(res.dedup_hits, 0u) << "app=" << static_cast<int>(app);
  }
}

TEST(Exhaust, CertificateAccountingIsConsistent) {
  chk::ExploreConfig cfg;
  cfg.app = apps::AppKind::kLea;
  cfg.runtime = apps::RuntimeKind::kEaseio;
  cfg.exhaust = 1;
  cfg.jobs = 2;
  const chk::ExploreResult res = chk::Explore(cfg);
  ASSERT_TRUE(res.has_certificate);
  const auto& c = res.certificate;
  EXPECT_EQ(c.exhaust, 1u);
  EXPECT_EQ(c.schedules_covered, res.schedules);
  EXPECT_EQ(res.schedules_skipped, 0u);
  EXPECT_EQ(c.schedules_covered, c.d1_classes + c.d1_members_collapsed);
  EXPECT_EQ(c.trials_executed, c.d1_classes + c.pair_classes - c.states_deduped);
  EXPECT_GT(c.reduction_ratio, 1.0);  // lea is prunable; some reduction must happen
}

TEST(Exhaust, DeterministicAcrossJobsAndVersusUnpruned) {
  chk::ExploreConfig cfg;
  cfg.app = apps::AppKind::kDma;
  cfg.runtime = apps::RuntimeKind::kEaseio;
  cfg.exhaust = 1;
  cfg.jobs = 1;
  const std::string j1 = chk::ToJson(chk::Explore(cfg), /*include_timing=*/false);
  cfg.jobs = 4;
  const std::string j4 = chk::ToJson(chk::Explore(cfg), /*include_timing=*/false);
  EXPECT_EQ(j1, j4);

  // The certificate (a deterministic function of the spec) survives pruning-off runs
  // too: with use_pruning = false the classes degenerate to singletons but the
  // verdict fields stay identical.
  cfg.use_pruning = false;
  const chk::ExploreResult unpruned = chk::Explore(cfg);
  ASSERT_TRUE(unpruned.has_certificate);
  EXPECT_EQ(unpruned.certificate.d1_members_collapsed, 0u);
  EXPECT_EQ(unpruned.certificate.states_deduped, 0u);
}

}  // namespace
}  // namespace easeio
