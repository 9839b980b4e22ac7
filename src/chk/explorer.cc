#include "chk/explorer.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

#include "chk/por.h"
#include "chk/statehash.h"
#include "chk/trace.h"
#include "kernel/engine.h"
#include "obs/metrics.h"
#include "platform/check.h"
#include "platform/parallel.h"
#include "sim/failure.h"
#include "sim/snapshot_pool.h"

namespace easeio::chk {
namespace {

struct TrialOutput {
  TrialFacts facts;
  std::vector<sim::ProbeEvent> events;
  kernel::RunResult run;
  std::vector<Violation> violations;
  size_t failures_fired = 0;
};

sim::DeviceConfig MakeDeviceConfig(const ExploreConfig& cfg) {
  sim::DeviceConfig dev_config;
  dev_config.seed = cfg.seed;
  dev_config.timekeeper_tick_us = cfg.timekeeper_tick_us;
  return dev_config;
}

rt::EaseioConfig MakeEaseioConfig(const ExploreConfig& cfg) {
  rt::EaseioConfig easeio_config;
  easeio_config.dma_priv_buffer_bytes = cfg.easeio_priv_buffer_bytes;
  easeio_config.enable_regional_privatization = cfg.easeio_regional_privatization;
  return easeio_config;
}

apps::AppOptions MakeAppOptions(const ExploreConfig& cfg) {
  apps::AppOptions options = cfg.app_options;
  if (apps::IsEaseioOp(cfg.runtime)) {
    options.exclude_const_dma = true;
  }
  return options;
}

bool IsSemanticRuntime(const ExploreConfig& cfg) {
  return cfg.runtime == apps::RuntimeKind::kEaseio ||
         cfg.runtime == apps::RuntimeKind::kEaseioOp;
}

// Metric handles for one exploration, registered up front — before any worker
// shard exists, honouring the registry's register-before-concurrent-use contract.
// Counters ALWAYS flow through a registry (a local throwaway when the caller
// attached none): shard folds and per-group adds are exactly as cheap as the
// ad-hoc atomics they replaced, so the registry is the single source of truth
// and the legacy timing block is re-emitted from it. The clock-fed series —
// per-phase nanosecond counters and the per-trial latency histogram — engage
// only when an external registry is attached (`timed`), so the detached
// explorer pays zero clock reads; bench_metrics_overhead measures this on/off
// delta. Result fields read back as deltas from registration-time baselines,
// so a long-lived external registry (sequential sweep cells, a CLI process)
// never leaks earlier explorations into this result's timing block.
struct ExploreMetrics {
  enum Phase { kEnumerate = 0, kCapture, kResume, kReplay, kJudge, kNumPhases };

  ExploreMetrics(obs::Registry* external, obs::Registry* local,
                 const std::string& app, const std::string& runtime)
      : reg(external != nullptr ? external : local), timed(external != nullptr) {
    const obs::Labels labels = {{"app", app}, {"runtime", runtime}};
    explorations = reg->Counter("easechk_explorations", labels);
    snapshot_resumes = reg->Counter("easechk_snapshot_resumes", labels);
    prefix_us_saved = reg->Counter("easechk_prefix_us_saved", labels);
    pages_copied = reg->Counter("easechk_pages_copied", labels);
    pool_hits = reg->Counter("easechk_pool_hits", labels);
    trials_pruned = reg->Counter("easechk_trials_pruned", labels);
    dedup_hits = reg->Counter("easechk_dedup_hits", labels);
    static const char* const kPhaseNames[kNumPhases] = {
        "enumerate", "snapshot-capture", "resume", "replay", "judge"};
    for (int p = 0; p < kNumPhases; ++p) {
      obs::Labels phase_labels = labels;
      phase_labels.push_back({"phase", kPhaseNames[p]});
      phase_ns[p] = reg->Counter("easechk_phase_ns", phase_labels);
    }
    trial_us = reg->Histogram(
        "easechk_trial_us",
        {100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000}, labels);
    base_snapshot_resumes = reg->Value(snapshot_resumes);
    base_prefix_us_saved = reg->Value(prefix_us_saved);
    base_pages_copied = reg->Value(pages_copied);
    base_pool_hits = reg->Value(pool_hits);
    base_trials_pruned = reg->Value(trials_pruned);
    base_dedup_hits = reg->Value(dedup_hits);
  }

  obs::Registry* reg;
  bool timed;
  obs::MetricId explorations = 0;
  obs::MetricId snapshot_resumes = 0;
  obs::MetricId prefix_us_saved = 0;
  obs::MetricId pages_copied = 0;
  obs::MetricId pool_hits = 0;
  obs::MetricId trials_pruned = 0;
  obs::MetricId dedup_hits = 0;
  obs::MetricId phase_ns[kNumPhases] = {};
  obs::MetricId trial_us = 0;
  uint64_t base_snapshot_resumes = 0;
  uint64_t base_prefix_us_saved = 0;
  uint64_t base_pages_copied = 0;
  uint64_t base_pool_hits = 0;
  uint64_t base_trials_pruned = 0;
  uint64_t base_dedup_hits = 0;
};

// Gathers the post-run facts and (when a golden reference is supplied) the invariant
// verdicts. Shared by the fresh-stack, reused-stack, and resumed-suffix paths so the
// judgement is identical no matter how the trial was executed. For a resumed suffix,
// `prefix_scan` is the group's pre-folded event-scan state and `events` holds only the
// suffix events; folding the suffix on top reproduces the full-stream verdict without
// re-scanning (or even copying) the shared prefix per pair.
TrialOutput CollectOutput(const ExploreConfig& cfg, const kernel::RunResult& run,
                          std::vector<sim::ProbeEvent> events, size_t failures_fired,
                          std::vector<uint64_t> schedule, apps::AppHandle& app,
                          kernel::Runtime& runtime, kernel::NvManager& nv, sim::Device& dev,
                          const GoldenFacts* golden, GoldenFacts* golden_out,
                          EventScanState* prefix_scan = nullptr) {
  const apps::AppTraits traits = apps::TraitsFor(cfg.app);
  TrialOutput out;
  out.run = run;
  out.events = std::move(events);
  out.failures_fired = failures_fired;
  out.facts.completed = run.completed;
  out.facts.consistent = run.completed && app.check_consistent(dev);
  out.facts.deterministic = traits.deterministic;
  out.facts.dma_mirror = traits.dma_mirror;
  out.facts.semantic_runtime = IsSemanticRuntime(cfg);
  out.facts.output = app.collect_output(dev);
  out.facts.schedule = std::move(schedule);

  if (golden_out != nullptr) {
    golden_out->output = out.facts.output;
    golden_out->war_state = CollectWarState(runtime, nv, dev);
  }
  if (golden != nullptr) {
    EventScanState scan;
    if (prefix_scan != nullptr) {
      // The capture's scan state is consumed by exactly one resumed pair; moving it
      // avoids reallocating its flat tables per trial.
      scan = std::move(*prefix_scan);
    }
    ScanEvents(scan, out.events, runtime, dev, out.facts.semantic_runtime,
               out.facts.dma_mirror);
    out.violations = FinalizeInvariants(out.facts, *golden, scan, runtime, nv, dev);
  }
  return out;
}

// Executes one schedule end-to-end on a freshly constructed stack: device + runtime +
// app, scripted failures, probe recording. The golden run uses this; every enumerated
// trial runs on a TrialStack below. Every trial uses the *same* device seed — sensor
// streams and golden outputs must line up across trials; determinism across shards
// comes from trial indexing, not per-worker state.
TrialOutput RunTrial(const ExploreConfig& cfg, const std::vector<uint64_t>& schedule,
                     const GoldenFacts* golden, GoldenFacts* golden_out,
                     PrunePolicy* policy_out = nullptr) {
  sim::ScriptedScheduler sched(schedule, cfg.off_us);
  sim::Device dev(MakeDeviceConfig(cfg), sched);
  TraceRecorder trace;
  trace.Install(dev);

  kernel::NvManager nv(dev.mem());
  auto runtime = apps::MakeRuntime(cfg.runtime, MakeEaseioConfig(cfg));
  runtime->Bind(dev, nv);
  apps::AppHandle app = apps::BuildApp(cfg.app, dev, *runtime, nv, MakeAppOptions(cfg));
  if (policy_out != nullptr) {
    // Registration is complete once the app is built — the policy reads the site
    // tables (live Timely windows) plus the workload traits.
    *policy_out =
        MakePrunePolicy(apps::TraitsFor(cfg.app), IsSemanticRuntime(cfg), *runtime);
  }

  kernel::Engine engine(kernel::RunConfig{cfg.max_on_us});
  const kernel::RunResult run = engine.Run(dev, *runtime, nv, app.graph, app.entry);
  return CollectOutput(cfg, run, trace.TakeEvents(), sched.next_index(), schedule, app,
                       *runtime, nv, dev, golden, golden_out);
}

// A reusable per-worker execution stack. The device (and its two arenas) is
// constructed once per worker and Reset between trials — re-zeroing only the used
// prefixes instead of allocating and touching ~264 KiB of fresh arena per trial —
// while the runtime/app layer is rebuilt per trial: registration is cheap and
// rebuilding reproduces the host-side tables deterministically, which is exactly what
// a resumed suffix needs before the snapshot is laid back over FRAM.
class TrialStack {
 public:
  TrialStack(const ExploreConfig& cfg, ExploreMetrics* em)
      : cfg_(cfg), em_(em), shard_(em->reg), sched_({}, cfg.off_us),
        dev_(MakeDeviceConfig(cfg), sched_) {}

  // Full replay of one schedule, equivalent to RunTrial on a fresh stack.
  TrialOutput RunFull(const std::vector<uint64_t>& schedule, const GoldenFacts& golden) {
    const uint64_t t0 = NowIfTimed();
    Prepare(schedule);
    kernel::Engine engine(kernel::RunConfig{cfg_.max_on_us});
    const kernel::RunResult run = engine.Run(dev_, *runtime_, *nv_, app_.graph, app_.entry);
    const uint64_t t1 = NowIfTimed();
    AddPhase(ExploreMetrics::kReplay, t1 - t0);
    TrialOutput out = CollectOutput(cfg_, run, trace_.TakeEvents(), sched_.next_index(),
                                    schedule, app_, *runtime_, *nv_, dev_, &golden, nullptr);
    FinishTrial(t0, t1);
    return out;
  }

  // One captured would-be-failure point of a trunk run: everything a resumed trial
  // needs to continue as if a scripted failure had struck at that instant. The trunk's
  // probe events up to the instant are carried pre-folded as an EventScanState, so the
  // resumed trial folds only its own (post-capture) events. The device snapshot is a
  // pooled handle: released back to the worker's pool the moment the resume has laid
  // it over the stack, so one group's captures recycle a handful of buffers.
  struct Capture {
    sim::SnapshotPool::Handle dev;
    kernel::RuntimeSnapshot rt;
    EventScanState scan;
    kernel::TaskId paused_task = 0;
    // Canonical state fingerprint of this capture, filled when hashing is on (see
    // set_hash_captures). The dedup layer consults it before paying for the resume;
    // key.valid == false opts the trial out.
    StateKey key;
  };

  // Enables per-capture state fingerprinting for the dedup table. Off by default:
  // the explorer turns it on only when the prune policy allows.
  void set_hash_captures(bool on) { hash_captures_ = on; }

  // Runs one *trunk* execution that snapshots at every instant in `capture_at`
  // (sorted, ascending, all > t1 when has_t1). The trunk fails at t1 (when given) and
  // reboots through it like any trial would, then keeps executing *unfailed* past each
  // capture instant — a scripted failure mutates nothing before it fires, so the state
  // at instant t2_k inside the trunk is bit-identical to the pre-reboot state of a
  // real {.., t2_k} trial. The device's capture plan invokes the hook at exactly the
  // point the failure check would fire; the hook snapshots device + runtime, folds the
  // probe-event delta into a running scan state, and tracks the interrupted task (the
  // last kTaskBegin — during reboot recovery no new kTaskBegin is noted, so this is
  // the trampoline's current task in every case). A scripted failure at the *last*
  // capture instant ends the trunk there (pause_at_failure); if that failure lands
  // inside reboot recovery it will not pause and the trunk simply runs on to
  // completion — wasteful but correct, the captures were already taken. Returns how
  // many captures were taken; callers fall back to full replay for the rest.
  size_t RunTrunk(bool has_t1, uint64_t t1, const std::vector<uint64_t>& capture_at,
                  std::vector<Capture>* out) {
    const uint64_t trunk_t0 = NowIfTimed();
    std::vector<uint64_t> schedule;
    if (has_t1) {
      schedule.push_back(t1);
    }
    schedule.push_back(capture_at.back());
    Prepare(schedule);
    if (hash_captures_) {
      hasher_.BeginTrial(*runtime_);
    }
    // resize without clear: surviving Capture objects keep their snapshot/scan buffer
    // capacity for this trunk's refill.
    out->resize(capture_at.size());

    size_t taken = 0;
    size_t folded = 0;
    EventScanState scan;
    kernel::TaskId last_begin = app_.entry;
    const bool semantic = IsSemanticRuntime(cfg_);
    const bool dma_mirror = apps::TraitsFor(cfg_.app).dma_mirror;
    dev_.SetCapturePlan(capture_at, [&](size_t i) {
      const std::vector<sim::ProbeEvent>& ev = trace_.events();
      ScanEvents(scan, ev.data() + folded, ev.data() + ev.size(), *runtime_, dev_, semantic,
                 dma_mirror);
      for (size_t j = folded; j < ev.size(); ++j) {
        if (ev[j].kind == sim::ProbeKind::kTaskBegin) {
          last_begin = static_cast<kernel::TaskId>(ev[j].id);
        }
      }
      folded = ev.size();
      Capture& c = (*out)[i];
      c.dev = pool_.Acquire();
      dev_.SnapshotAtRebootInto(*c.dev);
      runtime_->SnapshotStateInto(c.rt);
      c.scan = scan;
      c.paused_task = last_begin;
      c.key.valid = false;
      // Fingerprint the at-failure state (the reboot is a deterministic function of
      // it, so equal keys imply equal post-reboot worlds). The guard keeps dedup's
      // "this state completes" substitution sound against the max_on_us cutoff: a
      // deep capture could complete from an early twin's budget but not its own, so
      // instants past a quarter of the cap never participate (registry suffixes are
      // orders of magnitude shorter than the remaining three quarters).
      if (hash_captures_ && capture_at[i] * 4 <= cfg_.max_on_us) {
        hasher_.Fingerprint(dev_.mem(), *runtime_, last_begin, scan, &c.key);
      }
      ++taken;
    });
    kernel::RunConfig run_config;
    run_config.max_on_us = cfg_.max_on_us;
    run_config.pause_at_failure = static_cast<uint32_t>(schedule.size());
    kernel::Engine engine(run_config);
    engine.Run(dev_, *runtime_, *nv_, app_.graph, app_.entry);
    dev_.ClearCapturePlan();
    AddPhase(ExploreMetrics::kCapture, NowIfTimed() - trunk_t0);
    return taken;
  }

  // Executes a schedule whose failures have all already "fired" inside a trunk run:
  // lay the capture back over the stack and let the engine perform the deferred
  // reboot and drive to completion with no further scripted failures. Facts come out
  // as if the whole schedule had been replayed from the start; the trace holds only
  // the post-capture events, which CollectOutput folds on top of the capture's scan
  // state.
  //
  // The runtime/app/NV layer is NOT rebuilt on resume. Registration state (site
  // tables, FRAM layout, task closures) is immutable once built, every run-mutable
  // host field is covered by RuntimeSnapshot, and the volatile remainder is cleared
  // by the deferred reboot (Memory::Restore wipes SRAM, Runtime::OnReboot drops
  // per-attempt stacks) — the same clearing a mid-run reboot performs. Rebuilding
  // per resume was the dominant fixed cost left in snapshot mode: NvManager's
  // name-keyed slot map and the app task-graph std::functions are expensive to
  // construct and provably identical every time.
  TrialOutput ResumeFromCapture(Capture& c, std::vector<uint64_t> schedule,
                                const GoldenFacts& golden) {
    const uint64_t t0 = NowIfTimed();
    if (runtime_ == nullptr) {
      Prepare({});
    } else {
      sched_.Rescript({}, cfg_.off_us);
      trace_.Reset();  // still installed: the device was not reset
    }
    dev_.ResumeFromSnapshot(*c.dev);
    c.dev.reset();  // back to the pool: the next capture in this group reuses it
    runtime_->RestoreState(c.rt);
    kernel::Engine engine(kernel::RunConfig{cfg_.max_on_us});
    const kernel::RunResult run =
        engine.Resume(dev_, *runtime_, *nv_, app_.graph, c.paused_task);
    const size_t fired = schedule.size();
    const uint64_t t1 = NowIfTimed();
    AddPhase(ExploreMetrics::kResume, t1 - t0);
    TrialOutput out =
        CollectOutput(cfg_, run, trace_.TakeEvents(), fired, std::move(schedule), app_,
                      *runtime_, *nv_, dev_, &golden, nullptr, &c.scan);
    FinishTrial(t0, t1);
    return out;
  }

  // Hands a consumed trial's event buffer back for capacity reuse by the next trial
  // on this stack (see TraceRecorder::Recycle).
  void RecycleEvents(std::vector<sim::ProbeEvent> buf) { trace_.Recycle(std::move(buf)); }

  // Worker-lifetime scratch for RunTrunk output: keeping the Capture objects (and
  // their nested buffers) alive across groups turns per-capture snapshot state into
  // capacity-reusing overwrites.
  std::vector<Capture>& caps_scratch() { return caps_scratch_; }

 private:
  // Rebuilds the mutable layers over the reused device: rescript the scheduler, reset
  // the device in place, rebuild runtime + NV table + app (their registration is the
  // deterministic part a snapshot never captures).
  void Prepare(const std::vector<uint64_t>& schedule) {
    sched_.Rescript(schedule, cfg_.off_us);
    app_ = apps::AppHandle{};  // drop the previous trial's app state before rebuilding
    runtime_.reset();
    nv_.reset();
    dev_.Reset(MakeDeviceConfig(cfg_), sched_);
    trace_.Reset();
    trace_.Install(dev_);
    nv_.emplace(dev_.mem());
    runtime_ = apps::MakeRuntime(cfg_.runtime, MakeEaseioConfig(cfg_));
    runtime_->Bind(dev_, *nv_);
    app_ = apps::BuildApp(cfg_.app, dev_, *runtime_, *nv_, MakeAppOptions(cfg_));
  }

 public:
  // Drains the hot-path counters accumulated since the last call — FRAM pages
  // SnapshotInto/Restore actually copied, and snapshot buffers served from the pool's
  // free list — into the shared registry, then folds this worker's metric shard. Called
  // once per group, so a live reader sees progress mid-exploration; the shard
  // destructor folds whatever remains at worker teardown. Integer sums are
  // order-independent, so the totals are identical for any jobs count.
  void DrainCounters() {
    const uint64_t pages = dev_.mem().pages_copied();
    const uint64_t hits = pool_.hits();
    em_->reg->Add(em_->pages_copied, pages - pages_copied_seen_);
    em_->reg->Add(em_->pool_hits, hits - pool_hits_seen_);
    pages_copied_seen_ = pages;
    pool_hits_seen_ = hits;
    shard_.Fold();
  }

 private:
  // Clock reads happen only with an external registry attached (em_->timed):
  // the detached explorer's trials pay nothing for the phase instrumentation.
  uint64_t NowIfTimed() const { return em_->timed ? obs::MonotonicNanos() : 0; }
  void AddPhase(ExploreMetrics::Phase phase, uint64_t ns) {
    if (em_->timed) {
      shard_.Add(em_->phase_ns[phase], ns);
    }
  }
  // Judge phase (CollectOutput, between t1 and now) plus the whole-trial latency
  // observation for the per-trial histogram.
  void FinishTrial(uint64_t t0, uint64_t t1) {
    if (em_->timed) {
      const uint64_t t2 = obs::MonotonicNanos();
      shard_.Add(em_->phase_ns[ExploreMetrics::kJudge], t2 - t1);
      shard_.Observe(em_->trial_us, (t2 - t0) / 1000);
    }
  }

  const ExploreConfig cfg_;
  ExploreMetrics* em_;
  obs::Registry::Shard shard_;
  sim::ScriptedScheduler sched_;
  sim::Device dev_;
  TraceRecorder trace_;
  sim::SnapshotPool pool_;  // outlives every Capture handle a group holds
  bool hash_captures_ = false;
  StateHasher hasher_;  // per-stack: its page cache tracks this stack's device
  std::vector<Capture> caps_scratch_;
  std::optional<kernel::NvManager> nv_;
  std::unique_ptr<kernel::Runtime> runtime_;
  apps::AppHandle app_;
  uint64_t pages_copied_seen_ = 0;
  uint64_t pool_hits_seen_ = 0;
};

// Keeps at most `keep` of the sorted instant list `v`, spread uniformly over its
// *time span* rather than its enumeration index. Candidate instants cluster wherever
// the trace is event-dense (a store loop emits hundreds in a few hundred
// microseconds), so an index stride concentrates failures there; the failure model
// the checker stands in for — harvested energy running out — strikes uniformly in
// time. May return fewer than `keep` when sparse stretches collapse onto the same
// nearest instant. Pure arithmetic on the instant values: deterministic, and
// independent of engine mode and worker count.
std::vector<uint64_t> TimeSubset(const std::vector<uint64_t>& v, size_t keep) {
  if (v.size() <= keep) {
    return v;
  }
  if (keep <= 1) {
    return {v[v.size() / 2]};
  }
  const uint64_t lo = v.front();
  const uint64_t hi = v.back();
  std::vector<uint64_t> out;
  out.reserve(keep);
  size_t cursor = 0;
  for (size_t j = 0; j < keep; ++j) {
    const uint64_t target = lo + (hi - lo) * j / (keep - 1);
    while (cursor + 1 < v.size() && v[cursor] < target) {
      ++cursor;
    }
    if (out.empty() || out.back() != v[cursor]) {
      out.push_back(v[cursor]);
    }
  }
  return out;
}

// Partial-order reduction over a sorted instant list: maps each index to the index of
// its class representative (the first member, so representatives always precede their
// members). Tokens are monotone in the instant, so equal-class members are always a
// consecutive run. Applied per group (see Group below), so a member only ever
// references a representative executed by the same worker. Disabled (identity
// mapping) when `enabled` is false, so both engine modes and both pruning settings
// walk the identical slot layout.
std::vector<size_t> CollapseRuns(const std::vector<uint64_t>& v, const GapClasses& gc,
                                 bool enabled) {
  std::vector<size_t> rep(v.size());
  uint64_t prev_token = 0;
  for (size_t i = 0; i < v.size(); ++i) {
    const uint64_t token = gc.TokenFor(v[i]);
    if (enabled && i > 0 && token == prev_token && GapClasses::Collapsible(token)) {
      rep[i] = rep[i - 1];
    } else {
      rep[i] = i;
    }
    prev_token = token;
  }
  return rep;
}

// Outcome of one enumerated schedule, written only by the worker running its group.
struct Slot {
  bool completed = false;
  std::vector<Violation> violations;
};

// The unit of parallel work and of prefix sharing: schedules that differ only in
// their last failure instant. A depth-1 chunk has no t1; a pair group fails at t1
// first. `instants` ascend. rep_of[k] == k marks a POR class representative; a member
// points at an earlier representative of the same group. The outcome of instant k
// lands in slot slot_base + k, so the merge order (and therefore the JSON) is
// independent of which worker ran the group.
struct Group {
  bool has_t1 = false;
  uint64_t t1 = 0;
  std::vector<uint64_t> instants;
  std::vector<size_t> rep_of;
  size_t slot_base = 0;
};

size_t CountRepresentatives(const std::vector<size_t>& rep_of) {
  size_t reps = 0;
  for (size_t k = 0; k < rep_of.size(); ++k) {
    reps += rep_of[k] == k ? 1 : 0;
  }
  return reps;
}

// The dedup table standard mode shares across workers and phases. Which trial pays
// for a state is scheduling-dependent, but the substituted verdicts are not, so only
// the timing-block counters can shift.
class SharedDedup {
 public:
  bool Lookup(const StateKey& key) {
    std::lock_guard<std::mutex> lock(mu_);
    return table_.Lookup(key);
  }
  void Insert(const StateKey& key) {
    std::lock_guard<std::mutex> lock(mu_);
    table_.Insert(key);
  }

 private:
  std::mutex mu_;
  DedupTable table_;
};

// The choices one phase fixes for all of its groups.
struct PhasePlan {
  // Snapshot engine: a group with at least two representatives runs one trunk that
  // captures every representative's instant. Off (--no-snapshot), every
  // representative is a full replay, and with no captures there is no dedup either.
  bool trunk = true;
  // A dedup hit may stand in for a trial only at the last depth: an earlier-phase
  // trial must really run, its trace seeds the next phase.
  bool terminal = true;
  // Null in exhaust mode: each group then dedups against a table of its own, making
  // every certificate count a pure function of the spec.
  SharedDedup* shared = nullptr;
  std::vector<Slot>* slots = nullptr;
  // Sees every executed trial (not POR members, not dedup hits) with its slot index,
  // before the trial's event buffer is recycled. May be empty.
  std::function<void(const TrialOutput&, size_t)> sink;
};

// Runs one group on a worker's stack. Each representative either takes a verified
// dedup hit, resumes from its trunk capture, or (no trunk) replays in full; each POR
// member inherits its representative's verdicts outright — any violation it would
// re-report is the keep-first duplicate the collector drops anyway.
void RunGroup(TrialStack& stack, const Group& grp, const PhasePlan& plan,
              const GoldenFacts& golden, ExploreMetrics& em) {
  std::vector<uint64_t> capture_at;
  capture_at.reserve(grp.instants.size());
  for (size_t k = 0; k < grp.instants.size(); ++k) {
    if (grp.rep_of[k] == k) {
      capture_at.push_back(grp.instants[k]);
    }
  }
  // A trunk plus one resume costs more than one full replay, so a lone representative
  // replays directly.
  std::vector<TrialStack::Capture>& caps = stack.caps_scratch();
  const size_t taken = plan.trunk && capture_at.size() >= 2
                           ? stack.RunTrunk(grp.has_t1, grp.t1, capture_at, &caps)
                           : 0;
  DedupTable group_table;
  std::vector<Slot>& slots = *plan.slots;
  uint64_t pruned = 0;
  uint64_t deduped = 0;
  uint64_t resumed = 0;
  uint64_t saved = 0;
  uint64_t deepest = 0;
  size_t kc = 0;  // capture cursor over the representatives
  for (size_t k = 0; k < grp.instants.size(); ++k) {
    Slot& slot = slots[grp.slot_base + k];
    if (grp.rep_of[k] != k) {
      slot.completed = slots[grp.slot_base + grp.rep_of[k]].completed;
      ++pruned;
      continue;
    }
    TrialStack::Capture* cap = kc < taken ? &caps[kc] : nullptr;
    ++kc;
    const StateKey* key = cap != nullptr && cap->key.valid ? &cap->key : nullptr;
    if (plan.terminal && key != nullptr &&
        (plan.shared != nullptr ? plan.shared->Lookup(*key) : group_table.Lookup(*key))) {
      // A verified byte-identical state already ran clean to completion.
      slot.completed = true;
      cap->dev.reset();  // hand the snapshot straight back to the pool
      ++deduped;
      continue;
    }
    std::vector<uint64_t> schedule;
    if (grp.has_t1) {
      schedule.push_back(grp.t1);
    }
    schedule.push_back(grp.instants[k]);
    TrialOutput t = cap != nullptr ? stack.ResumeFromCapture(*cap, std::move(schedule), golden)
                                   : stack.RunFull(schedule, golden);
    slot.completed = t.facts.completed;
    slot.violations = std::move(t.violations);
    if (plan.sink) {
      plan.sink(t, grp.slot_base + k);
    }
    if (key != nullptr && slot.completed && slot.violations.empty()) {
      plan.shared != nullptr ? plan.shared->Insert(*key) : group_table.Insert(*key);
    }
    if (cap != nullptr) {
      ++resumed;
      saved += grp.instants[k];
      deepest = grp.instants[k];  // instants ascend, so the last resumed is the deepest
    }
    stack.RecycleEvents(std::move(t.events));
  }
  obs::Registry& reg = *em.reg;
  reg.Add(em.trials_pruned, pruned + deduped);
  reg.Add(em.dedup_hits, deduped);
  if (resumed > 0) {
    reg.Add(em.snapshot_resumes, resumed);
    // Full replay would execute [0, instant] per resumed trial; the group paid for one
    // trunk reaching the deepest capture instead.
    reg.Add(em.prefix_us_saved, saved - deepest);
  }
  stack.DrainCounters();
}

void AppendEscaped(std::ostringstream& os, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          os << ' ';
        } else {
          os << c;
        }
    }
  }
}

}  // namespace

ReplayOutput ReplaySchedule(const ExploreConfig& cfg, const std::vector<uint64_t>& schedule) {
  sim::ScriptedScheduler sched(schedule, cfg.off_us);
  sim::Device dev(MakeDeviceConfig(cfg), sched);
  TraceRecorder trace;
  trace.Install(dev);

  kernel::NvManager nv(dev.mem());
  auto runtime = apps::MakeRuntime(cfg.runtime, MakeEaseioConfig(cfg));
  runtime->Bind(dev, nv);
  apps::AppHandle app = apps::BuildApp(cfg.app, dev, *runtime, nv, MakeAppOptions(cfg));

  kernel::Engine engine(kernel::RunConfig{cfg.max_on_us});
  ReplayOutput out;
  out.run = engine.Run(dev, *runtime, nv, app.graph, app.entry);
  out.schedule = schedule;
  out.events = trace.TakeEvents();
  out.task_names.reserve(app.graph.size());
  for (size_t t = 0; t < app.graph.size(); ++t) {
    out.task_names.push_back(app.graph.task(static_cast<kernel::TaskId>(t)).name);
  }
  out.io_sites = runtime->io_sites();
  out.io_blocks = runtime->io_blocks();
  out.dma_sites = runtime->dma_sites();
  out.nv_slot_names.reserve(nv.slots().size());
  for (const kernel::NvSlot& s : nv.slots()) {
    out.nv_slot_names.push_back(s.name);
  }
  return out;
}

ExploreResult Explore(const ExploreConfig& cfg) {
  const auto wall_start = std::chrono::steady_clock::now();
  // Exhaust mode replaces the budgeted sampler with complete enumeration of every
  // schedule of at most `exhaust` failures; the snapshot engine is what makes that
  // tractable, so the flag combination is rejected at the CLI and checked here.
  const bool exhaust = cfg.exhaust > 0;
  if (exhaust) {
    EASEIO_CHECK(cfg.exhaust <= 2, "exhaust depth is capped at 2");
    EASEIO_CHECK(cfg.use_snapshot, "exhaust mode requires the snapshot engine");
  }
  const int depth = exhaust ? static_cast<int>(cfg.exhaust) : cfg.depth;
  ExploreResult res;
  res.app = apps::ToString(cfg.app);
  res.runtime = apps::ToString(cfg.runtime);
  res.seed = cfg.seed;
  res.depth = depth;

  // All metric registration happens here, before any worker shard exists. With no
  // external registry the local one is the accumulator of record — the timing
  // block below reads back from it either way.
  obs::Registry local_metrics;
  ExploreMetrics em(cfg.metrics, &local_metrics, res.app, res.runtime);
  obs::Registry& reg = *em.reg;
  reg.Add(em.explorations, 1);
  // Main-thread enumerate-phase timer (candidate extraction, subsampling, POR and
  // pair-group assembly). Worker phases are timed inside TrialStack.
  uint64_t enumerate_t0 = 0;
  auto enumerate_begin = [&] {
    if (em.timed) {
      enumerate_t0 = obs::MonotonicNanos();
    }
  };
  auto enumerate_end = [&] {
    if (em.timed) {
      reg.Add(em.phase_ns[ExploreMetrics::kEnumerate],
              obs::MonotonicNanos() - enumerate_t0);
    }
  };

  // Phase 0: continuous-power golden run with the probe installed. Always a fresh
  // stack — one run amortizes nothing. It also settles the prune policy: the site
  // tables only exist on a built stack.
  GoldenFacts golden;
  PrunePolicy policy;
  const TrialOutput g = RunTrial(cfg, {}, nullptr, &golden, &policy);
  EASEIO_CHECK(g.facts.completed, "golden run did not complete");
  res.golden_on_us = g.run.on_us;
  res.trace_events = static_cast<uint32_t>(g.events.size());
  const bool prune = cfg.use_pruning && policy.enabled;

  // Phase 1: depth-1 placements — candidate instants of the golden trace. When pairs
  // are requested, most of the budget is reserved for them: depth 2 is where the
  // second-order bugs hide, and (under the snapshot engine) where a schedule costs
  // only its suffix. Depth 1 keeps a quarter, spread uniformly over the run's
  // timeline (see TimeSubset). Exhaust mode keeps everything.
  enumerate_begin();
  std::vector<uint64_t> d1 = CandidateInstants(g.events, g.run.on_us);
  res.candidate_instants = static_cast<uint32_t>(d1.size());
  const uint32_t budget = std::max<uint32_t>(cfg.budget, 1);
  const bool want_depth2 = depth >= 2;
  const uint32_t d1_budget = want_depth2 ? std::max<uint32_t>(budget / 4, 1) : budget;
  if (!exhaust && d1.size() > d1_budget) {
    const size_t before = d1.size();
    d1 = TimeSubset(d1, d1_budget);
    res.schedules_skipped += static_cast<uint32_t>(before - d1.size());
  }

  // Partial-order reduction state. Depth-1 instants collapse only when no pair phase
  // needs their traces: a collapsed member never executes, so it can seed nothing —
  // in standard depth-2 runs every depth-1 trial runs (identical to pruning off),
  // while exhaust mode collapses them at any depth and certifies the member subtrees
  // as covered by their representative's (the post-reboot worlds are interchangeable,
  // so the representative's pair enumeration spans the member's classes too).
  GapClasses golden_classes;
  if (prune) {
    golden_classes.Build(g.events, 0);
  }
  const bool d1_collapse = prune && (exhaust || !want_depth2);

  // Standard mode shares one dedup table across phases and workers; exhaust mode
  // dedups per group (see PhasePlan::shared). Standard mode fingerprints depth-1
  // captures even at depth 2: no substitution there, but the inserted clean states
  // serve the pair phase (commit points drain runtime metadata back to the golden
  // trajectory, so cross-depth twins do occur). A group-local table would serve nobody
  // at a non-terminal depth, so exhaust mode fingerprints the terminal phase only.
  SharedDedup shared_dedup;
  auto run_phase = [&](const std::vector<Group>& groups, const PhasePlan& plan) {
    const bool hash_captures = prune && (plan.terminal || !exhaust);
    platform::ParallelForWithState(
        cfg.jobs, groups.size(),
        [&] {
          auto stack = std::make_unique<TrialStack>(cfg, &em);
          stack->set_hash_captures(hash_captures);
          return stack;
        },
        [&](std::unique_ptr<TrialStack>& stack, size_t gi) {
          RunGroup(*stack, groups[gi], plan, golden, em);
        });
  };
  std::vector<Violation> collected;
  auto collect = [&](std::vector<Slot>& slots) {
    for (Slot& s : slots) {
      res.schedules += 1;
      res.completed += s.completed ? 1 : 0;
      for (Violation& v : s.violations) {
        collected.push_back(std::move(v));
      }
    }
  };

  // Depth-1 trials share their prefixes with each other too: all of them replay the
  // golden timeline up to their failure instant. Consecutive instants form chunks of a
  // fixed size, so the chunk boundaries — and therefore which trunk serves which
  // trial — are pure index arithmetic, independent of the jobs value.
  constexpr size_t kD1Chunk = 32;
  std::vector<Group> d1_groups;
  uint64_t d1_class_count = 0;
  for (size_t lo = 0; lo < d1.size(); lo += kD1Chunk) {
    Group grp;
    grp.instants.assign(d1.begin() + lo, d1.begin() + std::min(d1.size(), lo + kD1Chunk));
    grp.rep_of = CollapseRuns(grp.instants, golden_classes, d1_collapse);
    grp.slot_base = lo;
    d1_class_count += CountRepresentatives(grp.rep_of);
    d1_groups.push_back(std::move(grp));
  }
  // Each executed depth-1 trial seeds the pair phase from its own trace. Only instants
  // after the first failure can seed a pair; extracting just the tail skips re-sorting
  // the shared golden prefix for every trial.
  std::vector<std::vector<uint64_t>> t2_lists(d1.size());
  std::vector<GapClasses> t2_classes(d1.size());  // pair-phase POR over each trace
  std::vector<Slot> slots(d1.size());
  enumerate_end();
  run_phase(d1_groups, {.trunk = cfg.use_snapshot,
                        .terminal = !want_depth2,
                        .shared = exhaust ? nullptr : &shared_dedup,
                        .slots = &slots,
                        .sink = [&](const TrialOutput& t, size_t i) {
                          if (want_depth2 && t.facts.completed) {
                            t2_lists[i] = CandidateInstants(t.events, t.run.on_us, d1[i] + 1);
                            if (prune) {
                              t2_classes[i].Build(t.events, d1[i] + 1);
                            }
                          }
                        }});
  collect(slots);

  // Phase 2: depth-2 pairs. The second failure is placed at the instants the depth-1
  // trial actually visited *after* its first failure — adaptive enumeration: the
  // post-failure execution (recovery, re-execution, skips) is where the second-order
  // bugs hide, and its timeline exists only in that trial's own trace. Pairs are
  // organised as first-instant *groups* from the start: each depth-1 trial owns the
  // pairs it seeded, and when the pair universe exceeds the budget the sampler keeps
  // whole (stride-subsampled) groups rather than flat-sampling pairs — the snapshot
  // engine then amortises one shared prefix over ~kGroupTarget suffixes. Selection is
  // pure index arithmetic over the enumeration order: deterministic for any jobs
  // value and identical in both engine modes.
  uint64_t pair_class_count = 0;
  uint64_t pair_total_selected = 0;
  if (want_depth2) {
    enumerate_begin();
    std::vector<size_t> owners;  // depth-1 trials with at least one pair to offer
    size_t total_pairs = 0;
    for (size_t i = 0; i < d1.size(); ++i) {
      if (!t2_lists[i].empty()) {
        owners.push_back(i);
        total_pairs += t2_lists[i].size();
      }
    }

    const uint32_t pair_budget = budget > res.schedules ? budget - res.schedules : 0;
    std::vector<Group> groups;
    auto add_group = [&](size_t i, std::vector<uint64_t> t2s) {
      Group grp;
      grp.has_t1 = true;
      grp.t1 = d1[i];
      // Collapse AFTER any budget subsample: the selected instants (and therefore the
      // serialized slot layout) are identical with pruning off.
      grp.rep_of = CollapseRuns(t2s, t2_classes[i], prune);
      grp.instants = std::move(t2s);
      groups.push_back(std::move(grp));
    };
    if (exhaust || total_pairs <= pair_budget) {
      // Exhaust mode lands here by construction: every owner contributes its full
      // pair set (collapsed depth-1 members contributed no candidates — their pair
      // subtrees are certified as covered by their representative's).
      for (size_t i : owners) {
        add_group(i, std::move(t2_lists[i]));
      }
    } else if (pair_budget > 0) {
      // Aim for groups of ~kGroupTarget suffixes: large enough to amortise the shared
      // prefix, small enough to keep many distinct first instants covered. Owners are
      // picked uniformly over the golden timeline (TimeSubset, same rationale as the
      // depth-1 subsample) — which also hands the snapshot engine deep shared
      // prefixes instead of the shallow ones an index-spread over an event-dense
      // stretch would pick. Each owner keeps a time-spread subsample of its own t2
      // list sized to an even share of the pair budget.
      constexpr size_t kGroupTarget = 16;
      const size_t n_groups =
          std::min(owners.size(), std::max<size_t>(1, pair_budget / kGroupTarget));
      std::vector<uint64_t> owner_instants;
      owner_instants.reserve(owners.size());
      for (size_t i : owners) {
        owner_instants.push_back(d1[i]);
      }
      const std::vector<uint64_t> picked_instants = TimeSubset(owner_instants, n_groups);
      std::vector<size_t> picked;
      size_t cursor = 0;
      for (uint64_t t1 : picked_instants) {
        while (d1[owners[cursor]] != t1) {
          ++cursor;
        }
        picked.push_back(owners[cursor]);
      }
      for (size_t j = 0; j < picked.size(); ++j) {
        const size_t i = picked[j];
        const size_t quota =
            pair_budget / picked.size() + (j < pair_budget % picked.size() ? 1 : 0);
        add_group(i, t2_lists[i].size() > quota ? TimeSubset(t2_lists[i], quota)
                                                : std::move(t2_lists[i]));
      }
    }
    size_t selected = 0;
    for (Group& grp : groups) {
      grp.slot_base = selected;
      selected += grp.instants.size();
      pair_class_count += CountRepresentatives(grp.rep_of);
    }
    pair_total_selected = selected;
    res.schedules_skipped += static_cast<uint32_t>(total_pairs - selected);

    std::vector<Slot> pair_slots(selected);
    enumerate_end();
    run_phase(groups, {.trunk = cfg.use_snapshot,
                       .terminal = true,
                       .shared = exhaust ? nullptr : &shared_dedup,
                       .slots = &pair_slots});
    collect(pair_slots);
  }

  // Deduplicate by (invariant, subject), keeping the first occurrence — depth-1 trials
  // come first and instants ascend, so each surviving violation carries the minimal
  // failing schedule the exploration found.
  std::set<std::string> seen;
  for (Violation& v : collected) {
    const std::string key = std::string(ToString(v.invariant)) + "|" + v.subject;
    if (seen.insert(key).second) {
      res.violations.push_back(std::move(v));
    }
  }

  // The timing block re-emits from the registry: each field is this exploration's
  // delta against its registration-time baseline, so a shared long-lived registry
  // reproduces exactly what the retired ad-hoc atomics reported.
  res.trials_pruned = reg.Value(em.trials_pruned) - em.base_trials_pruned;
  res.dedup_hits = reg.Value(em.dedup_hits) - em.base_dedup_hits;
  if (exhaust) {
    // The certificate restates the pruning as deterministic coverage accounting —
    // every count is a pure function of the spec (group-local dedup tables,
    // index-arithmetic POR runs), so it serializes outside the timing block.
    res.has_certificate = true;
    ExploreResult::Certificate& cert = res.certificate;
    cert.exhaust = cfg.exhaust;
    cert.schedules_covered = res.schedules;
    cert.d1_classes = d1_class_count;
    cert.d1_members_collapsed = d1.size() - d1_class_count;
    cert.pair_classes = pair_class_count;
    cert.pair_members_collapsed = pair_total_selected - pair_class_count;
    cert.states_deduped = res.dedup_hits;
    cert.trials_executed = cert.d1_classes + cert.pair_classes - cert.states_deduped;
    cert.reduction_ratio =
        cert.trials_executed > 0
            ? static_cast<double>(cert.schedules_covered) / cert.trials_executed
            : 0.0;
  }
  res.snapshot_resumes = reg.Value(em.snapshot_resumes) - em.base_snapshot_resumes;
  res.prefix_us_saved = reg.Value(em.prefix_us_saved) - em.base_prefix_us_saved;
  res.pages_copied = reg.Value(em.pages_copied) - em.base_pages_copied;
  res.pool_hits = reg.Value(em.pool_hits) - em.base_pool_hits;
  res.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  res.trials_per_sec =
      res.wall_seconds > 0 ? static_cast<double>(res.schedules) / res.wall_seconds : 0.0;
  return res;
}

std::string ToJson(const ExploreResult& r, bool include_timing) {
  std::ostringstream os;
  os << "{\"app\":\"";
  AppendEscaped(os, r.app);
  os << "\",\"runtime\":\"";
  AppendEscaped(os, r.runtime);
  os << "\",\"seed\":" << r.seed << ",\"depth\":" << r.depth
     << ",\"golden_on_us\":" << r.golden_on_us << ",\"trace_events\":" << r.trace_events
     << ",\"candidate_instants\":" << r.candidate_instants << ",\"schedules\":" << r.schedules
     << ",\"completed\":" << r.completed << ",\"schedules_skipped\":" << r.schedules_skipped
     << ",\"violations\":[";
  for (size_t i = 0; i < r.violations.size(); ++i) {
    const Violation& v = r.violations[i];
    if (i > 0) {
      os << ",";
    }
    os << "{\"invariant\":\"" << ToString(v.invariant) << "\",\"subject\":\"";
    AppendEscaped(os, v.subject);
    os << "\",\"detail\":\"";
    AppendEscaped(os, v.detail);
    os << "\",\"schedule\":[";
    for (size_t k = 0; k < v.schedule.size(); ++k) {
      if (k > 0) {
        os << ",";
      }
      os << v.schedule[k];
    }
    os << "]}";
  }
  os << "]";
  if (r.has_certificate) {
    // Deterministic coverage certificate (exhaust mode): serialized OUTSIDE the
    // strippable timing block because every field is byte-identical across jobs
    // counts and machines. Flat numerics only, like timing.
    const ExploreResult::Certificate& c = r.certificate;
    os << ",\"certificate\":{\"exhaust\":" << c.exhaust
       << ",\"schedules_covered\":" << c.schedules_covered
       << ",\"d1_classes\":" << c.d1_classes
       << ",\"d1_members_collapsed\":" << c.d1_members_collapsed
       << ",\"pair_classes\":" << c.pair_classes
       << ",\"pair_members_collapsed\":" << c.pair_members_collapsed
       << ",\"states_deduped\":" << c.states_deduped
       << ",\"trials_executed\":" << c.trials_executed
       << ",\"reduction_ratio\":" << c.reduction_ratio << "}";
  }
  if (include_timing) {
    // Flat numeric fields only: CI strips the whole object with a brace-free regex.
    os << ",\"timing\":{\"wall_seconds\":" << r.wall_seconds
       << ",\"trials_per_sec\":" << r.trials_per_sec
       << ",\"snapshot_resumes\":" << r.snapshot_resumes
       << ",\"prefix_us_saved\":" << r.prefix_us_saved
       << ",\"pages_copied\":" << r.pages_copied
       << ",\"pool_hits\":" << r.pool_hits
       << ",\"trials_pruned\":" << r.trials_pruned
       << ",\"dedup_hits\":" << r.dedup_hits << "}";
  }
  os << "}";
  return os.str();
}

std::string ToJson(const std::vector<ExploreResult>& results, bool include_timing) {
  std::ostringstream os;
  os << "{\"explorations\":[";
  for (size_t i = 0; i < results.size(); ++i) {
    if (i > 0) {
      os << ",";
    }
    os << ToJson(results[i], include_timing);
  }
  os << "]}";
  return os.str();
}

}  // namespace easeio::chk
