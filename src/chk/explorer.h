// The failure-schedule explorer: bounded model checking over power-failure placements.
//
// A continuous-power golden run records the trace of candidate failure instants (see
// trace.h). The explorer then re-executes the application once per enumerated
// schedule — every depth-1 placement, then depth-2 pairs seeded from each depth-1
// trial's own post-failure trace — injecting failures with a ScriptedScheduler and
// judging every run with the invariant engine. Trials run through the deterministic
// parallel-map utility in platform/parallel.h (index-addressed slots, in-order merge),
// so the outcome (including the JSON serialization) is bit-identical for any --jobs
// value.

#ifndef EASEIO_CHK_EXPLORER_H_
#define EASEIO_CHK_EXPLORER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "apps/registry.h"
#include "apps/runtime_factory.h"
#include "chk/invariants.h"
#include "kernel/engine.h"
#include "kernel/io.h"
#include "sim/probe.h"

namespace easeio::obs {
class Registry;
}  // namespace easeio::obs

namespace easeio::chk {

// One (application, runtime) exploration.
struct ExploreConfig {
  apps::AppKind app = apps::AppKind::kDma;
  apps::RuntimeKind runtime = apps::RuntimeKind::kEaseio;
  uint64_t seed = 1;
  int depth = 2;           // 1: single failures; 2: also pairs
  // Hard cap on schedules; excess is subsampled deterministically. At depth 2 one
  // quarter goes to depth-1 placements and the rest to pairs, kept as first-instant
  // groups so the snapshot engine can amortise each shared prefix.
  uint32_t budget = 1500;
  uint32_t jobs = 0;       // worker threads; 0 = hardware concurrency
  uint64_t off_us = 700;   // dark time after each injected failure
  uint64_t max_on_us = 60'000'000;  // per-trial non-termination guard
  apps::AppOptions app_options;
  uint32_t easeio_priv_buffer_bytes = 4096;
  bool easeio_regional_privatization = true;
  uint64_t timekeeper_tick_us = 100;

  // Snapshot-at-reboot trial resumption. Schedules are run in groups that differ only
  // in their last failure instant: a depth-1 chunk of consecutive instants, or the
  // depth-2 pairs sharing a first instant. Each group runs its shared prefix once as a
  // trunk, snapshots at every last-failure instant, and executes each schedule as a
  // resumed suffix. Off = no trunk: every schedule is a full replay on the worker's
  // reused stack, with no state dedup (the cross-check reference; produces identical
  // non-timing results).
  bool use_snapshot = true;

  // Schedule-space pruning: idempotent-region partial-order reduction (por.h) plus
  // canonical state-hash deduplication (statehash.h). Only engages where the prune
  // policy allows (prune-safe workload, no live Timely window); verdicts and every
  // non-timing output byte are identical with pruning off — the prunings only decide
  // which equivalent trial pays for each verdict.
  bool use_pruning = true;

  // Exhaustive coverage mode: enumerate EVERY schedule of at most `exhaust` failures
  // (1 or 2) under the prunings — no budget subsampling anywhere — and emit a
  // deterministic coverage certificate in the result. Overrides `depth` and ignores
  // `budget`; requires the snapshot engine (checked). 0 = off.
  uint32_t exhaust = 0;

  // Optional metrics registry (obs/metrics.h). The exploration always folds its
  // counters (snapshot_resumes, pool_hits, pages_copied, dedup_hits, trials_pruned)
  // through a registry — a local throwaway one when this is null — and re-emits the
  // legacy timing block from it, byte-compatibly. Attaching an external registry
  // additionally enables the phase timers (enumerate / snapshot-capture / resume /
  // replay / judge) and the per-trial latency histogram, which cost clock reads the
  // detached mode never pays. Metrics are timing-class data: nothing in the
  // non-timing result may depend on them.
  obs::Registry* metrics = nullptr;
};

struct ExploreResult {
  std::string app;
  std::string runtime;
  uint64_t seed = 0;
  int depth = 1;
  uint64_t golden_on_us = 0;       // continuous-power on-time
  uint32_t trace_events = 0;       // probe events in the golden trace
  uint32_t candidate_instants = 0; // distinct depth-1 failure placements found
  uint32_t schedules = 0;          // trials executed
  uint32_t completed = 0;          // trials that ran to completion
  uint32_t schedules_skipped = 0;  // enumerated placements dropped by the budget
  std::vector<Violation> violations;  // deduplicated; minimal schedules first

  // Coverage certificate, present only in exhaust mode. Every field is a
  // deterministic function of the spec (jobs-count and machine independent), so it
  // serializes *outside* the timing block and participates in byte-identity.
  struct Certificate {
    uint32_t exhaust = 0;               // the N of --exhaust N
    uint64_t schedules_covered = 0;     // enumerated schedules the certificate vouches for
    uint64_t d1_classes = 0;            // depth-1 equivalence-class representatives
    uint64_t d1_members_collapsed = 0;  // depth-1 instants covered by a representative
    uint64_t pair_classes = 0;          // pair representatives across all groups
    uint64_t pair_members_collapsed = 0;
    uint64_t states_deduped = 0;        // trials retired by a verified state-table hit
    uint64_t trials_executed = 0;       // engine executions actually paid for
    double reduction_ratio = 0;         // schedules_covered / trials_executed
  };
  bool has_certificate = false;
  Certificate certificate;

  // Timing / engine diagnostics. Serialized in a separate "timing" JSON object that
  // ToJson can exclude, because wall-clock varies run to run and the snapshot
  // counters legitimately differ between engine modes — everything above must stay
  // byte-identical across jobs counts *and* between snapshot/full-replay modes.
  double wall_seconds = 0;       // wall-clock time of the whole exploration
  double trials_per_sec = 0;     // schedules / wall_seconds
  uint64_t snapshot_resumes = 0; // trials executed as resumed suffixes
  uint64_t prefix_us_saved = 0;  // simulated prefix on-time not re-executed
  uint64_t pages_copied = 0;     // FRAM pages actually copied by SnapshotInto/Restore
  uint64_t pool_hits = 0;        // snapshot buffers served from a worker pool free list
  // Pruning counters. In standard (budgeted) mode the dedup table is shared across
  // workers, so hit totals can shift with scheduling — which is why these live in the
  // timing block there; the *results* they prune are substitution-exact either way.
  // In exhaust mode the deterministic equivalents are in the certificate.
  uint64_t trials_pruned = 0;    // trials not executed: POR members + dedup hits
  uint64_t dedup_hits = 0;       // trials retired by a verified state-table hit
};

// Runs the exploration. Deterministic: identical results for any `jobs` value.
ExploreResult Explore(const ExploreConfig& config);

// One schedule replayed end-to-end on a fresh stack with the probe installed,
// packaged with the name tables a downstream consumer (the obs timeline writer)
// needs to label the events. `easechk --trace-failures` uses this to turn a
// violating schedule back into a complete, inspectable event stream — the
// exploration itself may have executed the trial as a resumed suffix whose
// recorded trace starts at the snapshot instant.
struct ReplayOutput {
  kernel::RunResult run;
  std::vector<uint64_t> schedule;
  std::vector<sim::ProbeEvent> events;
  std::vector<std::string> task_names;          // indexed by TaskId
  std::vector<kernel::IoSiteDesc> io_sites;     // indexed by IoSiteId
  std::vector<kernel::IoBlockDesc> io_blocks;   // indexed by IoBlockId
  std::vector<kernel::DmaSiteDesc> dma_sites;   // indexed by DmaSiteId
  std::vector<std::string> nv_slot_names;       // indexed by NvSlotId
};
ReplayOutput ReplaySchedule(const ExploreConfig& config,
                            const std::vector<uint64_t>& schedule);

// Stable JSON serialization (fixed field order; byte-identical across jobs counts).
// With include_timing = false the "timing" object is omitted entirely, making the
// output also byte-identical across engine modes and run-to-run.
std::string ToJson(const ExploreResult& result, bool include_timing = true);
std::string ToJson(const std::vector<ExploreResult>& results, bool include_timing = true);

}  // namespace easeio::chk

#endif  // EASEIO_CHK_EXPLORER_H_
