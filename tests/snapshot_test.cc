// Tests for the snapshot engine (PR: snapshot-at-reboot trial resumption):
//   * Memory::Snapshot/Restore round-trips FRAM bit-exactly and rolls the allocation
//     cursor back past post-snapshot allocations;
//   * Memory::OnReboot/Reset volatility and fresh-state semantics;
//   * Device::Reset-based per-worker stack reuse is indistinguishable from fresh
//     construction across consecutive trials;
//   * snapshot-resumed depth-2 exploration produces byte-identical non-timing results
//     to full replay, for semantic and baseline runtimes (including Samoyed, whose
//     undo-log/shadow state rides the RuntimeSnapshot extra payload).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "apps/registry.h"
#include "apps/runtime_factory.h"
#include "chk/explorer.h"
#include "kernel/engine.h"
#include "kernel/nv.h"
#include "sim/device.h"
#include "sim/failure.h"
#include "sim/memory.h"

namespace easeio {
namespace {

// --- Memory snapshot / restore / reset --------------------------------------------------

TEST(MemorySnapshot, FramRoundTripIsBitExact) {
  sim::Memory mem(1024, 4096);
  const uint32_t a = mem.AllocFram("a", 100);
  const uint32_t b = mem.AllocFram("b", 64);
  for (uint32_t i = 0; i < 100; ++i) {
    mem.Write8(a + i, static_cast<uint8_t>(i * 7 + 1));
  }
  mem.Fill(b, 64, 0x5A);

  const sim::MemorySnapshot snap = mem.Snapshot();

  // Mutate everything the snapshot covers: contents, cursor, allocation table.
  mem.Fill(a, 100, 0xEE);
  mem.Fill(b, 64, 0x01);
  const uint32_t late = mem.AllocFram("late", 32);
  mem.Fill(late, 32, 0x77);

  mem.Restore(snap);
  for (uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(mem.Read8(a + i), static_cast<uint8_t>(i * 7 + 1)) << "offset " << i;
  }
  for (uint32_t i = 0; i < 64; ++i) {
    EXPECT_EQ(mem.Read8(b + i), 0x5A) << "offset " << i;
  }
  EXPECT_EQ(mem.allocations().size(), 2u);
  // The cursor rolled back: the next allocation re-hands the same address, and the
  // bytes the dead allocation dirtied read as zero again.
  const uint32_t again = mem.AllocFram("late2", 32);
  EXPECT_EQ(again, late);
  for (uint32_t i = 0; i < 32; ++i) {
    EXPECT_EQ(mem.Read8(again + i), 0) << "offset " << i;
  }
}

TEST(MemorySnapshot, OnRebootClearsSramKeepsFram) {
  sim::Memory mem(1024, 4096);
  const uint32_t s = mem.AllocSram("s", 16);
  const uint32_t f = mem.AllocFram("f", 16);
  mem.Fill(s, 16, 0xAB);
  mem.Fill(f, 16, 0xCD);
  EXPECT_EQ(mem.reboot_epoch(), 0u);

  mem.OnReboot();
  for (uint32_t i = 0; i < 16; ++i) {
    EXPECT_EQ(mem.Read8(s + i), 0) << "sram offset " << i;
    EXPECT_EQ(mem.Read8(f + i), 0xCD) << "fram offset " << i;
  }
  EXPECT_EQ(mem.reboot_epoch(), 1u);
}

TEST(MemorySnapshot, ResetReturnsToFreshState) {
  sim::Memory mem(1024, 4096);
  const uint32_t s = mem.AllocSram("s", 16);
  const uint32_t f = mem.AllocFram("f", 16);
  mem.Fill(s, 16, 0xAB);
  mem.Fill(f, 16, 0xCD);
  mem.OnReboot();

  mem.Reset();
  EXPECT_TRUE(mem.allocations().empty());
  EXPECT_EQ(mem.reboot_epoch(), 0u);
  EXPECT_EQ(mem.sram_free(), mem.sram_size());
  EXPECT_EQ(mem.fram_free(), mem.fram_size());
  // Re-allocation hands out the same base addresses, and the arena reads zero.
  EXPECT_EQ(mem.AllocSram("s2", 16), s);
  EXPECT_EQ(mem.AllocFram("f2", 16), f);
  for (uint32_t i = 0; i < 16; ++i) {
    EXPECT_EQ(mem.Read8(s + i), 0) << "sram offset " << i;
    EXPECT_EQ(mem.Read8(f + i), 0) << "fram offset " << i;
  }
}

// Regression: Restore used to skip the allocation table when the sizes matched,
// leaving a stale table whose entries could differ in address, kind, and size. A
// pooled snapshot restored onto a stack that re-registered a same-*count* layout must
// replace the table unconditionally.
TEST(MemorySnapshot, RestoreReplacesSameSizeAllocationTable) {
  sim::Memory mem(1024, 4096);
  const uint32_t a = mem.AllocFram("a", 64);
  mem.Fill(a, 64, 0x42);
  const sim::MemorySnapshot snap = mem.Snapshot();

  // Rebuild a different world with the same allocation *count*: one SRAM entry.
  mem.Reset();
  mem.AllocSram("b", 32);
  ASSERT_EQ(mem.allocations().size(), snap.allocations.size());

  mem.Restore(snap);
  ASSERT_EQ(mem.allocations().size(), 1u);
  EXPECT_EQ(mem.allocations()[0].name, "a");
  EXPECT_EQ(mem.allocations()[0].addr, a);
  EXPECT_EQ(mem.allocations()[0].size, 64u);
  EXPECT_EQ(mem.allocations()[0].kind, sim::MemKind::kFram);
  for (uint32_t i = 0; i < 64; ++i) {
    ASSERT_EQ(mem.Read8(a + i), 0x42) << "offset " << i;
  }
}

// Satellite check: a snapshot whose fram buffer was truncated or padded relative to
// its own fram_used (torn by a buggy consumer mutating the buffer by hand) must abort
// loudly instead of restoring a silently corrupt arena.
TEST(MemorySnapshotDeathTest, TornSnapshotRestoreAborts) {
  sim::Memory mem(1024, 4096);
  const uint32_t a = mem.AllocFram("a", 64);
  mem.Fill(a, 64, 0x42);
  sim::MemorySnapshot snap = mem.Snapshot();
  snap.fram.pop_back();
  EXPECT_DEATH(mem.Restore(snap), "torn snapshot");
}

// Property test: a snapshot buffer recycled through SnapshotInto (dirty-page skip
// logic engaged) must stay byte-equal to a from-scratch full copy, and restoring it
// must reproduce the whole FRAM arena byte-for-byte — across interleaved writes,
// restores, allocation-cursor movement, and fram_used growth between fills.
TEST(MemorySnapshot, SnapshotIntoDirtyPageReuseMatchesFullCopy) {
  sim::Memory mem(1024, 16 * 1024);
  const uint32_t base = mem.AllocFram("arena", 4096);
  sim::MemorySnapshot pooled;  // recycled across every fill below

  uint64_t rng = 0x9E3779B97F4A7C15ull;
  auto next = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };

  for (int round = 0; round < 20; ++round) {
    // Sparse scattered writes: a few pages dirty, most clean.
    for (int w = 0; w < 8; ++w) {
      mem.Write8(base + static_cast<uint32_t>(next() % 4096),
                 static_cast<uint8_t>(next()));
    }
    if (round == 10) {
      // Move the fram_used boundary between fills: stale sync stamps near and past
      // the old boundary must not survive.
      mem.AllocFram("grow", 512);
    }

    mem.SnapshotInto(pooled);
    const sim::MemorySnapshot full = mem.Snapshot();
    ASSERT_EQ(pooled.fram_used, full.fram_used) << "round " << round;
    ASSERT_EQ(pooled.fram, full.fram) << "round " << round;
    ASSERT_EQ(pooled.allocations.size(), full.allocations.size());

    // More writes after the fill, then roll back through the pooled snapshot and
    // compare the *entire* arena (allocated or not) against the full-copy ground
    // truth restored on the same state.
    for (int w = 0; w < 8; ++w) {
      mem.Write8(base + static_cast<uint32_t>(next() % 4096),
                 static_cast<uint8_t>(next()));
    }
    mem.Restore(pooled);
    const uint8_t* arena = mem.PeekBlock(sim::Memory::kFramBase, mem.fram_size());
    for (uint32_t i = 0; i < full.fram_used; ++i) {
      ASSERT_EQ(arena[i], full.fram[i]) << "round " << round << " byte " << i;
    }
    for (uint32_t i = full.fram_used; i < mem.fram_size(); ++i) {
      ASSERT_EQ(arena[i], 0) << "round " << round << " beyond-cursor byte " << i;
    }
  }
  // The skip logic must have actually engaged, or this test proves nothing.
  EXPECT_GT(mem.pages_skipped(), 0u);
}

// A pooled buffer refilled from a *different* Memory (foreign mem_uid) must take the
// full-copy path and restore correctly on the new owner.
TEST(MemorySnapshot, PooledBufferRefilledAcrossMemoriesFullCopies) {
  sim::MemorySnapshot pooled;

  sim::Memory first(1024, 4096);
  const uint32_t fa = first.AllocFram("fa", 128);
  first.Fill(fa, 128, 0xA1);
  first.SnapshotInto(pooled);

  sim::Memory second(1024, 4096);
  const uint32_t sa = second.AllocFram("sa", 64);
  const uint32_t sb = second.AllocFram("sb", 64);
  second.Fill(sa, 64, 0xB2);
  second.Fill(sb, 64, 0xC3);
  second.SnapshotInto(pooled);  // foreign buffer: stamps from `first` must not apply

  EXPECT_EQ(pooled.fram_used, second.fram_size() - second.fram_free());
  second.Fill(sa, 64, 0x00);
  second.Fill(sb, 64, 0xFF);
  second.Restore(pooled);
  for (uint32_t i = 0; i < 64; ++i) {
    ASSERT_EQ(second.Read8(sa + i), 0xB2) << "offset " << i;
    ASSERT_EQ(second.Read8(sb + i), 0xC3) << "offset " << i;
  }
}

// --- Device reset reuse -----------------------------------------------------------------

struct TrialResult {
  kernel::RunResult run;
  std::vector<uint8_t> output;
};

// Builds the runtime/app layer over `dev` (already fresh or Reset) and runs the DMA
// app under EaseIO with the given scripted schedule.
TrialResult DriveDmaTrial(sim::Device& dev) {
  kernel::NvManager nv(dev.mem());
  auto runtime = apps::MakeRuntime(apps::RuntimeKind::kEaseio);
  runtime->Bind(dev, nv);
  apps::AppHandle app = apps::BuildApp(apps::AppKind::kDma, dev, *runtime, nv);
  kernel::Engine engine;
  TrialResult r;
  r.run = engine.Run(dev, *runtime, nv, app.graph, app.entry);
  r.output = app.collect_output(dev);
  return r;
}

TEST(DeviceReset, ReusedStackMatchesFreshConstruction) {
  const std::vector<std::vector<uint64_t>> schedules = {{}, {900}, {900, 2100}};
  sim::DeviceConfig dev_config;

  // Reused path: one device, Reset between trials.
  sim::ScriptedScheduler reused_sched({}, 700);
  sim::Device reused(dev_config, reused_sched);
  for (const std::vector<uint64_t>& schedule : schedules) {
    reused_sched.Rescript(schedule, 700);
    reused.Reset(dev_config, reused_sched);
    const TrialResult got = DriveDmaTrial(reused);

    // Fresh path: everything constructed from scratch.
    sim::ScriptedScheduler fresh_sched(schedule, 700);
    sim::Device fresh(dev_config, fresh_sched);
    const TrialResult want = DriveDmaTrial(fresh);

    EXPECT_EQ(got.run.completed, want.run.completed);
    EXPECT_EQ(got.run.on_us, want.run.on_us);
    EXPECT_EQ(got.run.off_us, want.run.off_us);
    EXPECT_EQ(got.run.wall_us, want.run.wall_us);
    EXPECT_EQ(got.run.energy_j, want.run.energy_j);
    EXPECT_EQ(got.run.stats.power_failures, want.run.stats.power_failures);
    EXPECT_EQ(got.run.stats.tasks_committed, want.run.stats.tasks_committed);
    EXPECT_EQ(got.output, want.output);
  }
}

// --- Snapshot-resumed exploration equals full replay ------------------------------------

// The snapshot engine at jobs=4 must serialize the same non-timing bytes as full replay
// (--no-snapshot) at jobs=4 and as itself at jobs=1. Returns the snapshot result so a
// caller can also check what it found.
chk::ExploreResult ExpectModeEquivalence(apps::AppKind app, apps::RuntimeKind rt, int depth,
                                         uint32_t budget, bool expect_resumes,
                                         bool regional = true) {
  chk::ExploreConfig cfg;
  cfg.app = app;
  cfg.runtime = rt;
  cfg.depth = depth;
  cfg.budget = budget;
  cfg.jobs = 4;
  cfg.easeio_regional_privatization = regional;
  chk::ExploreConfig serial = cfg;
  serial.jobs = 1;
  chk::ExploreConfig full = cfg;
  full.use_snapshot = false;

  const chk::ExploreResult snap_result = chk::Explore(cfg);
  const chk::ExploreResult serial_result = chk::Explore(serial);
  const chk::ExploreResult full_result = chk::Explore(full);
  const std::string cell = std::string(apps::ToString(app)) + "/" + apps::ToString(rt) +
                           " depth " + std::to_string(depth);
  const std::string snap_json = chk::ToJson(snap_result, /*include_timing=*/false);
  EXPECT_EQ(snap_json, chk::ToJson(full_result, /*include_timing=*/false))
      << cell << ": snapshot engine vs full replay";
  EXPECT_EQ(snap_json, chk::ToJson(serial_result, /*include_timing=*/false))
      << cell << ": snapshot engine at jobs=4 vs jobs=1";
  if (expect_resumes) {
    EXPECT_GT(snap_result.snapshot_resumes, 0u) << "snapshot fast path never taken";
    EXPECT_GT(snap_result.prefix_us_saved, 0u);
  }
  EXPECT_EQ(full_result.snapshot_resumes, 0u);
  EXPECT_EQ(full_result.prefix_us_saved, 0u);
  return snap_result;
}

TEST(SnapshotEngine, ResumedDepth2EqualsFullReplayEaseio) {
  ExpectModeEquivalence(apps::AppKind::kDma, apps::RuntimeKind::kEaseio, 2, 160,
                        /*expect_resumes=*/true);
}

TEST(SnapshotEngine, ResumedDepth2EqualsFullReplayAlpaca) {
  ExpectModeEquivalence(apps::AppKind::kDma, apps::RuntimeKind::kAlpaca, 2, 160,
                        /*expect_resumes=*/true);
}

TEST(SnapshotEngine, ResumedDepth2EqualsFullReplayInk) {
  ExpectModeEquivalence(apps::AppKind::kDma, apps::RuntimeKind::kInk, 2, 160,
                        /*expect_resumes=*/true);
}

TEST(SnapshotEngine, ResumedDepth2EqualsFullReplaySamoyedWeather) {
  // Weather is the only app exercising I/O blocks, i.e. Samoyed's undo log and lazily
  // allocated FRAM shadows — the state that rides the RuntimeSnapshot extra payload.
  ExpectModeEquivalence(apps::AppKind::kWeather, apps::RuntimeKind::kSamoyed, 2, 60,
                        /*expect_resumes=*/false);
}

TEST(SnapshotEngine, ResumedDepth1EqualsFullReplay) {
  // Depth-1 chunks run through the same group runner as pair groups; a depth-1-only
  // exploration spends its whole budget on them.
  ExpectModeEquivalence(apps::AppKind::kDma, apps::RuntimeKind::kEaseio, 1, 160,
                        /*expect_resumes=*/true);
  ExpectModeEquivalence(apps::AppKind::kWeather, apps::RuntimeKind::kSamoyed, 1, 60,
                        /*expect_resumes=*/true);
}

TEST(SnapshotEngine, ViolatingCellEqualsFullReplay) {
  // The regional-privatization ablation double-increments the DMA job counter, so the
  // violation path (recording, minimal-schedule de-duplication) is compared too.
  for (int depth : {1, 2}) {
    const chk::ExploreResult r =
        ExpectModeEquivalence(apps::AppKind::kDma, apps::RuntimeKind::kEaseio, depth, 160,
                              /*expect_resumes=*/true, /*regional=*/false);
    EXPECT_FALSE(r.violations.empty()) << "the ablation must violate at depth " << depth;
  }
}

}  // namespace
}  // namespace easeio
