// perfbench_layers: the benchmark's layer driver.
//
// Times calls into each layer's public functions, from outside the program, so the
// traced benchmark run can report per-layer costs without any span inside the code
// under test. Four sections run in one process:
//
//   chk     Replays a chk cell the way chk::Explore's snapshot engine does — golden
//           run, candidate enumeration, POR class collapse, depth-1 chunks of 32 with
//           one trunk each, then a seeded sample of whole first-instant pair groups —
//           through kernel::Engine, sim::Device snapshots, chk::StateHasher /
//           DedupTable, chk::ScanEvents and chk::FinalizeInvariants. Also replays the
//           cell's whole depth-1 pass in --exhaust=1 form so the benchmark can check
//           the driver's totals against the tool's certificate (the fidelity check).
//   lint    easec::Compile, lint::ExecuteLintJob (v2 + witness) and lint::Certify
//           (exhaust 2) per program.
//   daemon  jsonin::ParseJson + ParseJobSpec, ContentHash, ResultCache Get/Put over
//           a file of submit frames (each distinct spec executed once to have an
//           artifact to store).
//   report  report::RunExperiment, obs::CaptureRun, obs::ProfileJson and
//           obs::ChromeTraceJson on one app.
//
// Every call is recorded as a span (name, start, end, parent, trial) in memory and
// written as NDJSON to --spans=PATH at exit. A span's self time is its duration minus
// the durations of its direct children; spans are strictly nested (one thread), so
// that is exact. The summary JSON printed on stdout holds per-call means, per-layer
// self times (layer = span-name prefix before the first '.') and the fidelity totals.
//
// Usage:
//   perfbench_layers --app=NAME --runtime=NAME --seed=N --mode=exhaust1|exhaust2|budget
//                    [--budget=N] [--groups=K] [--sample-seed=N]
//                    [--programs=A.ec,B.ec,...] [--frames=PATH --cache-dir=DIR]
//                    [--report-app=NAME] [--report-runs=N] --spans=PATH

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "apps/registry.h"
#include "apps/runtime_factory.h"
#include "chk/explorer.h"
#include "chk/invariants.h"
#include "chk/por.h"
#include "chk/statehash.h"
#include "chk/trace.h"
#include "daemon/cache.h"
#include "daemon/jobspec.h"
#include "daemon/jsonin.h"
#include "easec/lint/certify.h"
#include "easec/lint/run.h"
#include "easec/program.h"
#include "kernel/engine.h"
#include "obs/capture.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/timeline.h"
#include "report/experiment.h"
#include "report/jobs.h"
#include "sim/failure.h"
#include "sim/snapshot_pool.h"

namespace {

using namespace easeio;

uint64_t Now() { return obs::MonotonicNanos(); }

// ---------------------------------------------------------------------------
// Spans

struct Span {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  int64_t parent;  // index into the log, -1 for a root
  uint64_t trial;  // 0 outside a trial
};

class SpanLog {
 public:
  int64_t Begin(const char* name) {
    spans_.push_back({name, Now(), 0, open_, trial_});
    open_ = static_cast<int64_t>(spans_.size()) - 1;
    return open_;
  }
  void End(int64_t id) {
    spans_[id].end_ns = Now();
    open_ = spans_[id].parent;
  }
  uint64_t NewTrial() { return trial_ = ++trials_; }
  void EndTrial() { trial_ = 0; }

  struct Stat {
    uint64_t count = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;
  };
  std::map<std::string, Stat> Stats() const {
    std::vector<uint64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[s.parent] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, Stat> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      Stat& st = out[spans_[i].name];
      const uint64_t d = spans_[i].end_ns - spans_[i].start_ns;
      st.count += 1;
      st.total_ns += d;
      st.self_ns += d - child_ns[i];
    }
    return out;
  }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      return false;
    }
    const uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start_ns\":"
          << s.start_ns - t0 << ",\"end_ns\":" << s.end_ns - t0 << ",\"parent\":" << s.parent
          << ",\"trial\":" << s.trial << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
  int64_t open_ = -1;
  uint64_t trial_ = 0;
  uint64_t trials_ = 0;
};

class Scope {
 public:
  Scope(SpanLog& log, const char* name) : log_(log), id_(log.Begin(name)) {}
  ~Scope() { log_.End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  int64_t id_;
};

// ---------------------------------------------------------------------------
// chk section: the explorer's snapshot engine, rebuilt from public calls.

// Mirrors of the explorer's private config helpers (chk/explorer.cc).
sim::DeviceConfig DeviceConfigFor(const chk::ExploreConfig& cfg) {
  sim::DeviceConfig dc;
  dc.seed = cfg.seed;
  dc.timekeeper_tick_us = cfg.timekeeper_tick_us;
  return dc;
}

rt::EaseioConfig EaseioConfigFor(const chk::ExploreConfig& cfg) {
  rt::EaseioConfig ec;
  ec.dma_priv_buffer_bytes = cfg.easeio_priv_buffer_bytes;
  ec.enable_regional_privatization = cfg.easeio_regional_privatization;
  return ec;
}

apps::AppOptions AppOptionsFor(const chk::ExploreConfig& cfg) {
  apps::AppOptions options = cfg.app_options;
  if (apps::IsEaseioOp(cfg.runtime)) {
    options.exclude_const_dma = true;
  }
  return options;
}

bool IsSemantic(const chk::ExploreConfig& cfg) {
  return cfg.runtime == apps::RuntimeKind::kEaseio ||
         cfg.runtime == apps::RuntimeKind::kEaseioOp;
}

// The explorer's fixed work-item sizes; determinism depends on them, so the driver
// must use the same values to reproduce the tool's counts.
constexpr size_t kD1Chunk = 32;
constexpr size_t kGroupTarget = 16;

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

std::vector<size_t> CollapseRuns(const std::vector<uint64_t>& v, const chk::GapClasses& gc,
                                 bool enabled, size_t restart_every = SIZE_MAX) {
  std::vector<size_t> rep(v.size());
  uint64_t prev_token = 0;
  for (size_t i = 0; i < v.size(); ++i) {
    const uint64_t token = gc.TokenFor(v[i]);
    if (enabled && i > 0 && token == prev_token && chk::GapClasses::Collapsible(token) &&
        i % restart_every != 0) {
      rep[i] = rep[i - 1];
    } else {
      rep[i] = i;
    }
    prev_token = token;
  }
  return rep;
}

// Work counts of one pass, all deterministic.
struct ChkCounts {
  uint64_t classes = 0;          // representatives (depth-1 or pair)
  uint64_t members = 0;          // POR members inheriting a representative's verdict
  uint64_t deduped = 0;          // representatives retired by a dedup hit
  uint64_t executed = 0;         // trials actually run
  uint64_t resumes = 0;          // trials run as snapshot resumptions
  uint64_t pages_copied = 0;     // FRAM pages copied by captures and restores
  uint64_t events = 0;           // probe events recorded by executed trials
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t fingerprints = 0;
  uint64_t canonical_bytes = 0;  // summed over valid fingerprints
};

struct Trial {
  bool completed = false;
  bool clean = false;
  uint64_t on_us = 0;
  std::vector<sim::ProbeEvent> events;
};

// One reusable execution stack, organised like the explorer's TrialStack: the device
// is constructed once and reset between trunks; runtime, NV table and app are rebuilt
// per Prepare; resumes lay a pooled snapshot back over the stack.
class Stack {
 public:
  struct Capture {
    sim::SnapshotPool::Handle dev;
    kernel::RuntimeSnapshot rt;
    chk::EventScanState scan;
    kernel::TaskId paused_task = 0;
    chk::StateKey key;
  };

  Stack(const chk::ExploreConfig& cfg, const chk::GoldenFacts& golden, SpanLog& log,
        ChkCounts& counts)
      : cfg_(cfg), golden_(golden), log_(log), counts_(counts), sched_({}, cfg.off_us),
        dev_(DeviceConfigFor(cfg), sched_) {
    pages_seen_ = dev_.mem().pages_copied();
  }

  void set_hash_captures(bool on) { hash_captures_ = on; }
  std::vector<Capture>& caps() { return caps_; }

  Trial RunFull(const std::vector<uint64_t>& schedule) {
    Prepare(schedule);
    kernel::RunResult run;
    {
      Scope s(log_, "exec.run");
      kernel::Engine engine(kernel::RunConfig{cfg_.max_on_us});
      run = engine.Run(dev_, *runtime_, *nv_, app_.graph, app_.entry);
    }
    chk::EventScanState scan;
    return Judge(run, trace_.TakeEvents(), schedule, scan);
  }

  size_t RunTrunk(bool has_t1, uint64_t t1, const std::vector<uint64_t>& capture_at) {
    std::vector<uint64_t> schedule;
    if (has_t1) {
      schedule.push_back(t1);
    }
    schedule.push_back(capture_at.back());
    Prepare(schedule);
    if (hash_captures_) {
      hasher_.BeginTrial(*runtime_);
    }
    caps_.resize(capture_at.size());
    size_t taken = 0;
    size_t folded = 0;
    chk::EventScanState scan;
    kernel::TaskId last_begin = app_.entry;
    const bool semantic = IsSemantic(cfg_);
    const bool dma_mirror = apps::TraitsFor(cfg_.app).dma_mirror;
    dev_.SetCapturePlan(capture_at, [&](size_t i) {
      const std::vector<sim::ProbeEvent>& ev = trace_.events();
      {
        Scope s(log_, "judge.scan");
        chk::ScanEvents(scan, ev.data() + folded, ev.data() + ev.size(), *runtime_, dev_,
                        semantic, dma_mirror);
      }
      for (size_t j = folded; j < ev.size(); ++j) {
        if (ev[j].kind == sim::ProbeKind::kTaskBegin) {
          last_begin = static_cast<kernel::TaskId>(ev[j].id);
        }
      }
      folded = ev.size();
      Capture& c = caps_[i];
      {
        Scope s(log_, "snapshot.capture");
        c.dev = pool_.Acquire();
        dev_.SnapshotAtRebootInto(*c.dev);
        runtime_->SnapshotStateInto(c.rt);
        c.scan = scan;
      }
      c.paused_task = last_begin;
      c.key.valid = false;
      if (hash_captures_ && capture_at[i] * 4 <= cfg_.max_on_us) {
        Scope s(log_, "dedup.fingerprint");
        hasher_.Fingerprint(dev_.mem(), *runtime_, last_begin, scan, &c.key);
        ++counts_.fingerprints;
        counts_.canonical_bytes += c.key.valid ? c.key.canonical.size() : 0;
      }
      ++taken;
    });
    {
      Scope s(log_, "exec.trunk");
      kernel::RunConfig rc;
      rc.max_on_us = cfg_.max_on_us;
      rc.pause_at_failure = static_cast<uint32_t>(schedule.size());
      kernel::Engine engine(rc);
      engine.Run(dev_, *runtime_, *nv_, app_.graph, app_.entry);
    }
    dev_.ClearCapturePlan();
    DrainPages();
    return taken;
  }

  Trial Resume(Capture& c, const std::vector<uint64_t>& schedule) {
    if (runtime_ == nullptr) {
      Prepare({});
    } else {
      sched_.Rescript({}, cfg_.off_us);
      trace_.Reset();
    }
    {
      Scope s(log_, "snapshot.restore");
      dev_.ResumeFromSnapshot(*c.dev);
      c.dev.reset();
      runtime_->RestoreState(c.rt);
    }
    kernel::RunResult run;
    {
      Scope s(log_, "exec.resume");
      kernel::Engine engine(kernel::RunConfig{cfg_.max_on_us});
      run = engine.Resume(dev_, *runtime_, *nv_, app_.graph, c.paused_task);
    }
    ++counts_.resumes;
    DrainPages();
    return Judge(run, trace_.TakeEvents(), schedule, c.scan);
  }

  void Recycle(std::vector<sim::ProbeEvent> buf) { trace_.Recycle(std::move(buf)); }

 private:
  void Prepare(const std::vector<uint64_t>& schedule) {
    sched_.Rescript(schedule, cfg_.off_us);
    app_ = apps::AppHandle{};
    runtime_.reset();
    nv_.reset();
    dev_.Reset(DeviceConfigFor(cfg_), sched_);
    trace_.Reset();
    trace_.Install(dev_);
    nv_.emplace(dev_.mem());
    runtime_ = apps::MakeRuntime(cfg_.runtime, EaseioConfigFor(cfg_));
    runtime_->Bind(dev_, *nv_);
    app_ = apps::BuildApp(cfg_.app, dev_, *runtime_, *nv_, AppOptionsFor(cfg_));
  }

  void DrainPages() {
    const uint64_t now = dev_.mem().pages_copied();
    counts_.pages_copied += now - pages_seen_;
    pages_seen_ = now;
  }

  // The explorer's CollectOutput: facts, then the event scan folded on top of the
  // carried prefix state, then the final-state checks.
  Trial Judge(const kernel::RunResult& run, std::vector<sim::ProbeEvent> events,
              const std::vector<uint64_t>& schedule, chk::EventScanState& prefix) {
    const apps::AppTraits traits = apps::TraitsFor(cfg_.app);
    chk::TrialFacts facts;
    facts.completed = run.completed;
    facts.consistent = run.completed && app_.check_consistent(dev_);
    facts.deterministic = traits.deterministic;
    facts.dma_mirror = traits.dma_mirror;
    facts.semantic_runtime = IsSemantic(cfg_);
    facts.output = app_.collect_output(dev_);
    facts.schedule = schedule;
    chk::EventScanState scan = std::move(prefix);
    {
      Scope s(log_, "judge.scan");
      chk::ScanEvents(scan, events, *runtime_, dev_, facts.semantic_runtime, facts.dma_mirror);
    }
    std::vector<chk::Violation> violations;
    {
      Scope s(log_, "judge.finalize");
      violations = chk::FinalizeInvariants(facts, golden_, scan, *runtime_, *nv_, dev_);
    }
    ++counts_.executed;
    counts_.events += events.size();
    Trial t;
    t.completed = run.completed;
    t.clean = run.completed && violations.empty();
    t.on_us = run.on_us;
    t.events = std::move(events);
    return t;
  }

  const chk::ExploreConfig cfg_;
  const chk::GoldenFacts& golden_;
  SpanLog& log_;
  ChkCounts& counts_;
  sim::ScriptedScheduler sched_;
  sim::Device dev_;
  chk::TraceRecorder trace_;
  sim::SnapshotPool pool_;
  bool hash_captures_ = false;
  chk::StateHasher hasher_;
  std::vector<Capture> caps_;
  std::optional<kernel::NvManager> nv_;
  std::unique_ptr<kernel::Runtime> runtime_;
  apps::AppHandle app_;
  uint64_t pages_seen_ = 0;
};

struct Golden {
  chk::GoldenFacts facts;
  chk::PrunePolicy policy;
  std::vector<sim::ProbeEvent> events;
  uint64_t on_us = 0;
};

// Continuous-power golden run on a fresh stack. With `record` false no sink is
// attached, so the run pays nothing for probe delivery. Returns the engine time.
uint64_t GoldenRun(const chk::ExploreConfig& cfg, bool record, SpanLog& log, Golden* out) {
  sim::ScriptedScheduler sched({}, cfg.off_us);
  sim::Device dev(DeviceConfigFor(cfg), sched);
  chk::TraceRecorder trace;
  if (record) {
    trace.Install(dev);
  }
  kernel::NvManager nv(dev.mem());
  auto runtime = apps::MakeRuntime(cfg.runtime, EaseioConfigFor(cfg));
  runtime->Bind(dev, nv);
  apps::AppHandle app = apps::BuildApp(cfg.app, dev, *runtime, nv, AppOptionsFor(cfg));
  kernel::Engine engine(kernel::RunConfig{cfg.max_on_us});
  const uint64_t t0 = Now();
  kernel::RunResult run;
  {
    Scope s(log, "exec.golden_run");
    run = engine.Run(dev, *runtime, nv, app.graph, app.entry);
  }
  const uint64_t ns = Now() - t0;
  if (out != nullptr) {
    out->facts.output = app.collect_output(dev);
    out->facts.war_state = chk::CollectWarState(*runtime, nv, dev);
    out->policy = chk::MakePrunePolicy(apps::TraitsFor(cfg.app), IsSemantic(cfg), *runtime);
    out->events = trace.TakeEvents();
    out->on_us = run.on_us;
  }
  return ns;
}

// Per-depth-1-slot results the pair phase needs.
struct D1Slot {
  std::vector<uint64_t> candidates;
  chk::GapClasses classes;
};

struct PairGroup {
  uint64_t t1 = 0;
  std::vector<uint64_t> t2s;
  std::vector<size_t> rep_of;
};

class ChkDriver {
 public:
  ChkDriver(const chk::ExploreConfig& cfg, const Golden& golden, SpanLog& log)
      : cfg_(cfg), golden_(golden), log_(log),
        prune_(cfg.use_pruning && golden.policy.enabled) {}

  // The depth-1 phase, chunk for chunk as chk::Explore runs it. Returns per-slot
  // pair seeds when the cell has a depth-2 phase.
  std::vector<D1Slot> Depth1(ChkCounts& counts, std::vector<uint64_t>* d1_out) {
    const bool exhaust = cfg_.exhaust > 0;
    const int depth = exhaust ? static_cast<int>(cfg_.exhaust) : cfg_.depth;
    const bool want_depth2 = depth >= 2;
    std::vector<uint64_t> d1;
    {
      Scope s(log_, "enum.candidate_instants");
      d1 = chk::CandidateInstants(golden_.events, golden_.on_us);
    }
    const uint32_t budget = std::max<uint32_t>(cfg_.budget, 1);
    const uint32_t d1_budget = want_depth2 ? std::max<uint32_t>(budget / 4, 1) : budget;
    if (!exhaust && d1.size() > d1_budget) {
      d1 = TimeSubset(d1, d1_budget);
    }
    chk::GapClasses golden_classes;
    const bool d1_collapse = prune_ && (exhaust || !want_depth2);
    std::vector<size_t> rep;
    {
      Scope s(log_, "enum.gap_classes");
      if (prune_) {
        golden_classes.Build(golden_.events, 0);
      }
      rep = CollapseRuns(d1, golden_classes, d1_collapse, kD1Chunk);
    }
    const bool d1_terminal = !want_depth2;
    Stack stack(cfg_, golden_.facts, log_, counts);
    stack.set_hash_captures(prune_ && (!exhaust || d1_terminal));
    std::vector<D1Slot> slots(d1.size());
    for (size_t lo = 0; lo < d1.size(); lo += kD1Chunk) {
      const size_t hi = std::min(d1.size(), lo + kD1Chunk);
      Scope chunk_span(log_, "chk.chunk");
      std::vector<uint64_t> capture_at;
      for (size_t i = lo; i < hi; ++i) {
        if (rep[i] == i) {
          capture_at.push_back(d1[i]);
        }
      }
      const size_t taken = capture_at.size() >= 2 ? stack.RunTrunk(false, 0, capture_at) : 0;
      chk::DedupTable chunk_table;
      size_t k = 0;
      for (size_t i = lo; i < hi; ++i) {
        if (rep[i] != i) {
          ++counts.members;
          continue;
        }
        ++counts.classes;
        log_.NewTrial();
        Scope trial_span(log_, "chk.trial");
        Stack::Capture* cap = k < taken ? &stack.caps()[k] : nullptr;
        const chk::StateKey* key = cap != nullptr && cap->key.valid ? &cap->key : nullptr;
        chk::DedupTable& table = exhaust ? chunk_table : shared_table_;
        if (d1_terminal && key != nullptr && Lookup(table, *key, counts)) {
          cap->dev.reset();
          ++counts.deduped;
        } else {
          Trial t = cap != nullptr ? stack.Resume(*cap, {d1[i]}) : stack.RunFull({d1[i]});
          if (want_depth2 && t.completed) {
            {
              Scope s(log_, "enum.candidate_instants");
              slots[i].candidates = chk::CandidateInstants(t.events, t.on_us, d1[i] + 1);
            }
            if (prune_) {
              Scope s(log_, "enum.gap_classes");
              slots[i].classes.Build(t.events, d1[i] + 1);
            }
          }
          if (key != nullptr && t.clean) {
            Scope s(log_, "dedup.insert");
            table.Insert(*key);
          }
          stack.Recycle(std::move(t.events));
        }
        ++k;
        log_.EndTrial();
      }
    }
    *d1_out = d1;
    return slots;
  }

  // Assembles the pair groups exactly as chk::Explore does (all of them in exhaust
  // mode or when they fit the budget, else a time-spread budget subsample).
  std::vector<PairGroup> Groups(const std::vector<uint64_t>& d1, std::vector<D1Slot>& slots) {
    const bool exhaust = cfg_.exhaust > 0;
    std::vector<size_t> owners;
    size_t total_pairs = 0;
    for (size_t i = 0; i < d1.size(); ++i) {
      if (!slots[i].candidates.empty()) {
        owners.push_back(i);
        total_pairs += slots[i].candidates.size();
      }
    }
    const uint32_t budget = std::max<uint32_t>(cfg_.budget, 1);
    const uint32_t d1_count = static_cast<uint32_t>(d1.size());
    const uint32_t pair_budget = budget > d1_count ? budget - d1_count : 0;
    std::vector<PairGroup> groups;
    Scope s(log_, "enum.assemble_groups");
    if (exhaust || total_pairs <= pair_budget) {
      for (size_t i : owners) {
        groups.push_back({d1[i], slots[i].candidates,
                          CollapseRuns(slots[i].candidates, slots[i].classes, prune_)});
      }
    } else if (pair_budget > 0) {
      const size_t n_groups =
          std::min(owners.size(), std::max<size_t>(1, pair_budget / kGroupTarget));
      std::vector<uint64_t> owner_instants;
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
        std::vector<uint64_t> t2s = slots[i].candidates.size() > quota
                                        ? TimeSubset(slots[i].candidates, quota)
                                        : slots[i].candidates;
        std::vector<size_t> rep_of = CollapseRuns(t2s, slots[i].classes, prune_);
        groups.push_back({d1[i], std::move(t2s), std::move(rep_of)});
      }
    }
    return groups;
  }

  // Runs one first-instant group: one trunk failing at t1 and capturing at every
  // representative t2, then a resume (or dedup hit) per representative.
  void RunGroup(const PairGroup& grp, Stack& stack, ChkCounts& counts) {
    const bool exhaust = cfg_.exhaust > 0;
    Scope group_span(log_, "chk.group");
    std::vector<uint64_t> capture_at;
    for (size_t k = 0; k < grp.t2s.size(); ++k) {
      if (grp.rep_of[k] == k) {
        capture_at.push_back(grp.t2s[k]);
      }
    }
    const size_t taken = capture_at.size() >= 2 ? stack.RunTrunk(true, grp.t1, capture_at) : 0;
    chk::DedupTable group_table;
    size_t kc = 0;
    for (size_t k = 0; k < grp.t2s.size(); ++k) {
      if (grp.rep_of[k] != k) {
        ++counts.members;
        continue;
      }
      ++counts.classes;
      log_.NewTrial();
      Scope trial_span(log_, "chk.trial");
      Stack::Capture* cap = kc < taken ? &stack.caps()[kc] : nullptr;
      const chk::StateKey* key = cap != nullptr && cap->key.valid ? &cap->key : nullptr;
      chk::DedupTable& table = exhaust ? group_table : shared_table_;
      if (key != nullptr && Lookup(table, *key, counts)) {
        cap->dev.reset();
        ++counts.deduped;
      } else {
        Trial t = cap != nullptr ? stack.Resume(*cap, {grp.t1, grp.t2s[k]})
                                 : stack.RunFull({grp.t1, grp.t2s[k]});
        if (key != nullptr && t.clean) {
          Scope s(log_, "dedup.insert");
          table.Insert(*key);
        }
        stack.Recycle(std::move(t.events));
      }
      ++kc;
      log_.EndTrial();
    }
  }

  uint64_t probe_collisions() const { return collisions_; }

 private:
  bool Lookup(chk::DedupTable& table, const chk::StateKey& key, ChkCounts& counts) {
    Scope s(log_, "dedup.lookup");
    const uint64_t before = table.probe_collisions();
    const bool hit = table.Lookup(key);
    collisions_ += table.probe_collisions() - before;
    ++counts.lookups;
    counts.hits += hit ? 1 : 0;
    return hit;
  }

  const chk::ExploreConfig cfg_;
  const Golden& golden_;
  SpanLog& log_;
  const bool prune_;
  chk::DedupTable shared_table_;  // standard (budgeted) mode shares one table
  uint64_t collisions_ = 0;
};

// ---------------------------------------------------------------------------
// Output helpers

class JsonOut {
 public:
  void Num(const std::string& key, double v) {
    Sep();
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    os_ << '"' << key << "\":" << buf;
  }
  void Raw(const std::string& key, const std::string& raw) {
    Sep();
    os_ << '"' << key << "\":" << raw;
  }
  std::string Str() const { return "{" + os_.str() + "}"; }

 private:
  void Sep() {
    if (!first_) {
      os_ << ',';
    }
    first_ = false;
  }
  std::ostringstream os_;
  bool first_ = true;
};

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

std::vector<std::string> SplitComma(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == ',') {
      if (!cur.empty()) {
        out.push_back(cur);
      }
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) {
    out.push_back(cur);
  }
  return out;
}

bool ParseApp(const std::string& name, apps::AppKind* out) {
  std::vector<apps::AppKind> list;
  if (!report::ParseAppList(name, &list) || list.size() != 1) {
    return false;
  }
  *out = list[0];
  return true;
}

bool ParseRuntime(const std::string& name, apps::RuntimeKind* out) {
  std::vector<apps::RuntimeKind> list;
  if (!report::ParseRuntimeList(name, &list) || list.size() != 1) {
    return false;
  }
  *out = list[0];
  return true;
}

struct Options {
  chk::ExploreConfig cfg;
  std::string mode;          // exhaust1 | exhaust2 | budget
  uint32_t groups = 32;      // sampled pair groups
  uint64_t sample_seed = 1;  // picks which groups
  std::vector<std::string> programs;
  std::string frames_path;
  std::string cache_dir;
  apps::AppKind report_app = apps::AppKind::kDma;
  uint32_t report_runs = 20;
  std::string spans_path;
};

bool ParseUint(const std::string& s, uint64_t* out) {
  if (s.empty() || s.size() > 19) {
    return false;
  }
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') {
      return false;
    }
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::fprintf(stderr, "perfbench_layers: bad argument '%s'\n", arg.c_str());
      return false;
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string val = arg.substr(eq + 1);
    uint64_t n = 0;
    bool ok = true;
    if (key == "app") {
      ok = ParseApp(val, &o->cfg.app);
    } else if (key == "runtime") {
      ok = ParseRuntime(val, &o->cfg.runtime);
    } else if (key == "seed") {
      ok = ParseUint(val, &o->cfg.seed);
    } else if (key == "mode") {
      o->mode = val;
      ok = val == "exhaust1" || val == "exhaust2" || val == "budget";
    } else if (key == "budget") {
      ok = ParseUint(val, &n) && n >= 1 && n <= UINT32_MAX;
      o->cfg.budget = static_cast<uint32_t>(n);
    } else if (key == "groups") {
      ok = ParseUint(val, &n) && n <= 100000;
      o->groups = static_cast<uint32_t>(n);
    } else if (key == "sample-seed") {
      ok = ParseUint(val, &o->sample_seed);
    } else if (key == "programs") {
      o->programs = SplitComma(val);
    } else if (key == "frames") {
      o->frames_path = val;
    } else if (key == "cache-dir") {
      o->cache_dir = val;
    } else if (key == "report-app") {
      ok = ParseApp(val, &o->report_app);
    } else if (key == "report-runs") {
      ok = ParseUint(val, &n) && n >= 1 && n <= 100000;
      o->report_runs = static_cast<uint32_t>(n);
    } else if (key == "spans") {
      o->spans_path = val;
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr, "perfbench_layers: bad value in '%s'\n", arg.c_str());
      return false;
    }
  }
  if (o->mode.empty() || o->spans_path.empty() ||
      o->frames_path.empty() != o->cache_dir.empty()) {
    std::fprintf(stderr, "perfbench_layers: --mode and --spans are required; --frames "
                         "and --cache-dir go together\n");
    return false;
  }
  return true;
}

double MeanNs(const std::map<std::string, SpanLog::Stat>& st, const std::string& name) {
  auto it = st.find(name);
  return it == st.end() || it->second.count == 0
             ? 0.0
             : static_cast<double>(it->second.total_ns) / static_cast<double>(it->second.count);
}

// ---------------------------------------------------------------------------
// Sections

void ChkSection(const Options& o, SpanLog& log, JsonOut& out) {
  chk::ExploreConfig cfg = o.cfg;
  cfg.exhaust = o.mode == "exhaust2" ? 2 : o.mode == "exhaust1" ? 1 : 0;
  cfg.depth = 2;

  // Golden run with and without the trace recorder, interleaved; medians of the
  // engine time give the probe-delivery overhead.
  Golden golden;
  std::vector<double> bare_ms;
  std::vector<double> probed_ms;
  for (int r = 0; r < 7; ++r) {
    bare_ms.push_back(GoldenRun(cfg, false, log, nullptr) / 1e6);
    probed_ms.push_back(GoldenRun(cfg, true, log, r == 0 ? &golden : nullptr) / 1e6);
  }
  out.Num("exec.golden_run_ms", Median(bare_ms));
  out.Num("probe.golden_overhead_ms", Median(probed_ms) - Median(bare_ms));
  out.Num("chk.golden_trace_events", static_cast<double>(golden.events.size()));

  // Fidelity: the whole depth-1 pass in --exhaust=1 form.
  {
    chk::ExploreConfig f = cfg;
    f.exhaust = 1;
    ChkCounts c;
    ChkDriver driver(f, golden, log);
    std::vector<uint64_t> d1;
    driver.Depth1(c, &d1);
    JsonOut fid;
    fid.Num("schedules_covered", static_cast<double>(d1.size()));
    fid.Num("d1_classes", static_cast<double>(c.classes));
    fid.Num("d1_members_collapsed", static_cast<double>(c.members));
    fid.Num("states_deduped", static_cast<double>(c.deduped));
    fid.Num("trials_executed", static_cast<double>(c.classes - c.deduped));
    fid.Num("snapshot_resumes", static_cast<double>(c.resumes));
    fid.Num("pages_copied", static_cast<double>(c.pages_copied));
    out.Raw("fidelity", fid.Str());
  }

  // The workload's own mode: depth-1 pass (seeds the pairs), then a seeded sample of
  // whole pair groups.
  ChkCounts c;
  ChkDriver driver(cfg, golden, log);
  std::vector<uint64_t> d1;
  std::vector<D1Slot> slots = driver.Depth1(c, &d1);
  std::vector<PairGroup> groups = driver.Groups(d1, slots);
  std::vector<size_t> pick(groups.size());
  for (size_t i = 0; i < pick.size(); ++i) {
    pick[i] = i;
  }
  std::mt19937_64 rng(o.sample_seed);
  std::shuffle(pick.begin(), pick.end(), rng);
  pick.resize(std::min<size_t>(pick.size(), o.groups));
  std::sort(pick.begin(), pick.end());
  {
    Stack stack(cfg, golden.facts, log, c);
    stack.set_hash_captures(cfg.use_pruning && golden.policy.enabled);
    for (size_t gi : pick) {
      driver.RunGroup(groups[gi], stack, c);
    }
  }
  out.Num("chk.groups_total", static_cast<double>(groups.size()));
  out.Num("chk.groups_sampled", static_cast<double>(pick.size()));
  out.Num("driver.trials_executed", static_cast<double>(c.executed));
  out.Num("driver.states_deduped", static_cast<double>(c.deduped));
  out.Num("snapshot.pages_per_trial",
          c.resumes > 0 ? static_cast<double>(c.pages_copied) / c.resumes : 0.0);
  out.Num("probe.events_per_trial",
          c.executed > 0 ? static_cast<double>(c.events) / c.executed : 0.0);
  out.Num("dedup.hit_ratio", c.lookups > 0 ? static_cast<double>(c.hits) / c.lookups : 0.0);
  out.Num("dedup.probe_collisions", static_cast<double>(driver.probe_collisions()));
  out.Num("dedup.canonical_bytes",
          c.fingerprints > 0 ? static_cast<double>(c.canonical_bytes) / c.fingerprints : 0.0);
}

void LintSection(const Options& o, SpanLog& log) {
  for (const std::string& path : o.programs) {
    std::string source;
    if (!ReadFile(path, &source)) {
      std::fprintf(stderr, "perfbench_layers: cannot read %s\n", path.c_str());
      std::exit(2);
    }
    easec::lint::LintJob job;
    job.source = source;
    job.source_name = path;
    job.lint_v2 = true;
    job.confirm_witnesses = true;
    easec::CompileResult compiled;
    {
      Scope s(log, "easec.compile");
      compiled = easec::Compile(source, job.compile_options);
    }
    easec::lint::LintJobResult result;
    {
      Scope s(log, "lint.run");
      result = easec::lint::ExecuteLintJob(job);
    }
    if (!compiled.ok || !result.compiled) {
      std::fprintf(stderr, "perfbench_layers: %s does not compile\n", path.c_str());
      std::exit(2);
    }
    easec::lint::CertifyOptions co;
    co.exhaust = 2;
    co.jobs = 1;
    co.v2 = true;
    co.witness = job.witness_options;
    Scope s(log, "certify.run");
    easec::lint::Certify(compiled, co, &result.lint);
  }
}

void DaemonSection(const Options& o, SpanLog& log, JsonOut& out) {
  std::ifstream in(o.frames_path);
  if (!in) {
    std::fprintf(stderr, "perfbench_layers: cannot read %s\n", o.frames_path.c_str());
    std::exit(2);
  }
  daemon::ResultCache cache(o.cache_dir, 0);
  uint64_t artifact_bytes = 0;
  uint64_t artifacts = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    daemon::JsonValue doc;
    daemon::JobSpec spec;
    std::string error;
    bool ok = false;
    {
      Scope s(log, "daemon.parse");
      ok = daemon::ParseJson(line, &doc, &error);
      const daemon::JsonValue* job = ok && doc.is_object() ? doc.Find("job") : nullptr;
      ok = job != nullptr && daemon::ParseJobSpec(*job, &spec, &error);
    }
    if (!ok) {
      std::fprintf(stderr, "perfbench_layers: bad frame: %s\n", error.c_str());
      std::exit(2);
    }
    std::string hash;
    {
      Scope s(log, "daemon.key_hash");
      hash = daemon::ContentHash(spec);
    }
    std::string artifact;
    bool hit = false;
    {
      Scope s(log, "daemon.cache_get");
      hit = cache.Get(hash, &artifact);
    }
    if (!hit) {
      daemon::JobOutcome outcome;
      {
        Scope s(log, "job.execute");
        outcome = daemon::ExecuteSpec(spec);
      }
      if (!outcome.ok) {
        std::fprintf(stderr, "perfbench_layers: job failed: %s\n", outcome.error.c_str());
        std::exit(2);
      }
      Scope s(log, "daemon.cache_put");
      cache.Put(hash, daemon::ToString(spec.kind), outcome.artifact);
      artifact_bytes += outcome.artifact.size();
      ++artifacts;
    }
  }
  out.Num("daemon.artifact_kb", artifacts > 0 ? artifact_bytes / 1024.0 / artifacts : 0.0);
}

void ReportSection(const Options& o, SpanLog& log) {
  report::ExperimentConfig ec;
  ec.app = o.report_app;
  ec.runtime = apps::RuntimeKind::kEaseio;
  for (uint32_t r = 0; r < o.report_runs; ++r) {
    ec.seed = r + 1;
    Scope s(log, "report.run_experiment");
    report::RunExperiment(ec);
  }
  for (uint32_t r = 0; r < 3; ++r) {
    ec.seed = r + 1;
    obs::CapturedRun run;
    {
      Scope s(log, "obs.capture");
      run = obs::CaptureRun(ec);
    }
    Scope s(log, "obs.render");
    obs::ProfileJson(run);
    obs::ChromeTraceJson(run);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!ParseArgs(argc, argv, &o)) {
    return 2;
  }
  SpanLog log;
  JsonOut out;
  ChkSection(o, log, out);
  LintSection(o, log);
  if (!o.frames_path.empty()) {
    DaemonSection(o, log, out);
  }
  ReportSection(o, log);

  const std::map<std::string, SpanLog::Stat> st = log.Stats();
  out.Num("exec.resume_ns", MeanNs(st, "exec.resume"));
  out.Num("snapshot.capture_ns", MeanNs(st, "snapshot.capture"));
  out.Num("snapshot.restore_ns", MeanNs(st, "snapshot.restore"));
  out.Num("enum.candidate_instants_ns", MeanNs(st, "enum.candidate_instants"));
  out.Num("enum.gap_classes_ns", MeanNs(st, "enum.gap_classes"));
  out.Num("dedup.fingerprint_ns", MeanNs(st, "dedup.fingerprint"));
  out.Num("dedup.lookup_ns", MeanNs(st, "dedup.lookup"));
  out.Num("dedup.insert_ns", MeanNs(st, "dedup.insert"));
  out.Num("judge.scan_ns", MeanNs(st, "judge.scan"));
  out.Num("judge.finalize_ns", MeanNs(st, "judge.finalize"));
  out.Num("easec.compile_ms", MeanNs(st, "easec.compile") / 1e6);
  out.Num("lint.run_ms", MeanNs(st, "lint.run") / 1e6);
  out.Num("certify.ms", MeanNs(st, "certify.run") / 1e6);
  out.Num("daemon.parse_us", MeanNs(st, "daemon.parse") / 1e3);
  out.Num("daemon.key_hash_us", MeanNs(st, "daemon.key_hash") / 1e3);
  out.Num("daemon.cache_get_us", MeanNs(st, "daemon.cache_get") / 1e3);
  out.Num("daemon.cache_put_us", MeanNs(st, "daemon.cache_put") / 1e3);
  out.Num("sweep.run_us", MeanNs(st, "report.run_experiment") / 1e3);
  out.Num("obs.capture_ms", MeanNs(st, "obs.capture") / 1e6);
  out.Num("obs.render_ms", MeanNs(st, "obs.render") / 1e6);

  std::map<std::string, uint64_t> layer_self_ns;
  for (const auto& [name, stat] : st) {
    layer_self_ns[name.substr(0, name.find('.'))] += stat.self_ns;
  }
  JsonOut self;
  for (const auto& [layer, ns] : layer_self_ns) {
    self.Num(layer, ns / 1e6);
  }
  out.Raw("self_ms", self.Str());

  if (!log.Write(o.spans_path)) {
    std::fprintf(stderr, "perfbench_layers: cannot write %s\n", o.spans_path.c_str());
    return 2;
  }
  std::printf("%s\n", out.Str().c_str());
  return 0;
}
