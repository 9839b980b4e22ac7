// The simulated intermittent device: memory + capacitor + clock + peripherals +
// failure injection, with phase-tagged charging of every operation.
//
// Usage pattern (the task engine drives this):
//   Device dev(config, scheduler, harvester);
//   dev.Begin();
//   try { ... dev.Cpu(n); dev.LoadWord(a); dev.temp().Read(dev); ... }
//   catch (const PowerFailure&) { dev.Reboot(); /* re-enter current task */ }

#ifndef EASEIO_SIM_DEVICE_H_
#define EASEIO_SIM_DEVICE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "platform/rng.h"
#include "sim/clock.h"
#include "sim/costs.h"
#include "sim/dma.h"
#include "sim/energy.h"
#include "sim/failure.h"
#include "sim/harvester.h"
#include "sim/lea.h"
#include "sim/memory.h"
#include "sim/peripherals.h"
#include "sim/probe.h"
#include "sim/stats.h"

namespace easeio::sim {

struct DeviceConfig {
  uint32_t sram_bytes = 8 * 1024;
  uint32_t fram_bytes = 256 * 1024;
  uint64_t seed = 1;

  // When true the device draws every operation from the capacitor, harvests while on
  // and off, and browns out when the capacitor crosses v_off (Figure 13 mode). When
  // false, energy is metered but unconstrained and failures come purely from the
  // scheduler (the paper's emulated-failure mode).
  bool use_capacitor = false;
  double capacitance_f = kDefaultCapacitanceF;
  double v_on = kDefaultVOn;
  double v_off = kDefaultVOff;
  double v_max = kDefaultVMax;

  // Quiescent draw of the platform while powered (regulator + always-on logic); only
  // charged in capacitor mode, alongside per-operation energy.
  double idle_power_w = 0.25e-3;

  uint64_t timekeeper_tick_us = 100;

  // When non-zero, the device emits a kCapSample probe event at least every
  // `cap_sample_period_us` of on-time (host-side observation only — sampling charges
  // nothing). In timer mode the capacitor sits at v_max, so the track is flat; in
  // capacitor mode it follows the harvest/draw trajectory. Off by default: the chk
  // explorer never enables it, keeping candidate enumeration unchanged.
  uint64_t cap_sample_period_us = 0;
};

// Everything that legally crosses a power failure, captured the instant a
// PowerFailure is thrown and *before* Device::Reboot() runs: FRAM plus cursors,
// both clocks, capacitor voltage, stats (including the still-unfolded attempt
// buffer — Reboot folds it on resume), the failure RNG, and the peripheral /
// accelerator counters the invariant checker and host reports read. SRAM is absent
// on purpose: it is destroyed by the reboot on either side of the snapshot.
struct DeviceSnapshot {
  MemorySnapshot mem;
  SimClock clock;
  Capacitor capacitor;
  EnergyMeter meter;
  RunStats stats;
  Xorshift64Star failure_rng;
  AnalogSensor temp;
  AnalogSensor humidity;
  AnalogSensor pressure;
  Radio radio;
  Camera camera;
  DmaEngine dma;
  LeaAccelerator lea;
};

class Device {
 public:
  // `scheduler` decides power failures; `harvester` may be null when use_capacitor is
  // false. Both must outlive the device (or be replaced via Reset before further use).
  Device(const DeviceConfig& config, FailureScheduler& scheduler,
         const Harvester* harvester = nullptr);

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  // Powers the device on at the start of a run (full capacitor, scheduler armed).
  void Begin();

  // Returns the device to its freshly constructed state *without* reallocating the
  // arenas (Memory::Reset re-zeros only the used prefixes): re-seeds the RNG streams
  // and sensors, rewinds the clocks, resets capacitor/meter/stats, and drops reboot
  // listeners and the probe. Arena sizes must match the original construction; the
  // failure source and harvester are rebound. Per-worker trial stacks call this
  // between trials instead of constructing a new device.
  void Reset(const DeviceConfig& config, FailureScheduler& scheduler,
             const Harvester* harvester = nullptr);

  // Captures the power-failure-persistent state (see DeviceSnapshot). Call with the
  // device exactly as a caught PowerFailure left it, before Reboot().
  DeviceSnapshot SnapshotAtReboot() const;

  // In-place variant reusing `out`'s buffers (the SnapshotPool hot path). When `out`
  // was last filled from this same device, only FRAM pages dirtied since that fill
  // are re-copied (see Memory::SnapshotInto).
  void SnapshotAtRebootInto(DeviceSnapshot& out) const;

  // Restores a snapshot onto this device. The runtime/app stack must have been rebuilt
  // with the identical construction sequence first (registration rebuilds the volatile
  // and host-side structures; this call then rolls FRAM and the counters back to the
  // captured instant). The caller resumes by performing the deferred reboot
  // (kernel::Engine::Resume).
  void ResumeFromSnapshot(const DeviceSnapshot& snapshot);

  // --- Charged execution primitives -----------------------------------------------------
  // Spends `cycles` of CPU/bus time with the given total energy, advancing the clock and
  // drawing from the capacitor. Throws PowerFailure at the exact failure instant.
  //
  // Fast path, inline: while the whole spend lands strictly before
  // fast_spend_before_us_ — the precomputed min of the cached failure deadline and
  // the next armed capture instant, zero when the capacitor model or voltage
  // sampling is active — the stepping slow path provably collapses to a single
  // uninterrupted step: no hook can fire and FailNow is false at every check site.
  // Charge it in one shot with the *identical* floating-point expression the
  // one-step slow path evaluates ((energy/cycles) * cycles, not energy), keeping
  // stats and meter bit-exact. Trunk runs (capture plan armed) qualify whenever the
  // spend stays short of the next capture, which is nearly always — the plan holds a
  // handful of instants against millions of word-sized spends.
  void Spend(uint64_t cycles, double energy_j) {
    if (cycles == 0) {
      return;
    }
    if (fast_spend_before_us_ != 0 && clock_.on_us() + cycles < fast_spend_before_us_) {
      const double draw_j = OneStepDrawJ(cycles, energy_j);
      clock_.AdvanceOn(cycles);
      stats_.ChargeAttempt(phase_, static_cast<double>(cycles), draw_j);
      meter_.Add(phase_, draw_j);
      return;
    }
    SpendSlow(cycles, energy_j);
  }

  // Pure compute for `cycles` cycles.
  void Cpu(uint64_t cycles) { Spend(cycles, static_cast<double>(cycles) * kCpuEnergyPerCycleJ); }

  // Charged 16-bit memory accesses (cost depends on SRAM vs FRAM). Inline together
  // with Spend's fast path: the kernel's NV accessors funnel every simulated load and
  // store through here, the hottest call chain in a chk exploration.
  uint16_t LoadWord(uint32_t addr) {
    // Single bounds walk; the pointer survives Spend (arenas never reallocate, and a
    // capture hook firing inside Spend only reads the arena). If Spend throws, the
    // speculative resolve had no side effect.
    MemKind kind;
    const uint8_t* p = mem_.ResolveWord(addr, &kind);
    const AccessCost cost = WordCost(kind, /*store=*/false);
    Spend(cost.cycles, cost.energy_j);
    return static_cast<uint16_t>(p[0] | (p[1] << 8));
  }
  void StoreWord(uint32_t addr, uint16_t value) {
    MemKind kind;
    uint8_t* p = mem_.ResolveWordMut(addr, &kind);
    const AccessCost cost = WordCost(kind, /*store=*/true);
    Spend(cost.cycles, cost.energy_j);
    // The write (and its dirty stamp) lands only if Spend didn't fail the device, and
    // the stamp lands after the bytes so a mid-Spend capture can't mark it synced.
    p[0] = static_cast<uint8_t>(value & 0xFF);
    p[1] = static_cast<uint8_t>(value >> 8);
    if (kind == MemKind::kFram) {
      mem_.MarkFramWordDirty(addr);
    }
  }
  uint32_t LoadWord32(uint32_t addr);
  void StoreWord32(uint32_t addr, uint32_t value);

  // Charged copy performed by the CPU: charges exactly what a LoadWord/StoreWord loop
  // over the (nbytes + 1) / 2 words would, and lands the same bytes. When both ranges
  // are valid and disjoint and the whole copy ends before fast_spend_before_us_, it
  // replays the per-word ledger in registers and moves the bytes with one
  // Memory::Copy; otherwise it runs that word loop, so a failure or capture instant
  // inside the copy tears it at the exact word. DMA copies go through dma().
  void CpuCopy(uint32_t dst, uint32_t src, uint32_t nbytes);

  // --- Phase attribution ----------------------------------------------------------------
  Phase phase() const { return phase_; }
  void set_phase(Phase phase) { phase_ = phase; }

  // RAII phase switch: runtimes wrap their bookkeeping in PhaseScope(dev, kOverhead).
  class PhaseScope {
   public:
    PhaseScope(Device& dev, Phase phase) : dev_(dev), saved_(dev.phase_) {
      dev_.phase_ = phase;
    }
    ~PhaseScope() { dev_.phase_ = saved_; }
    PhaseScope(const PhaseScope&) = delete;
    PhaseScope& operator=(const PhaseScope&) = delete;

   private:
    Device& dev_;
    Phase saved_;
  };

  // --- Power failure handling -------------------------------------------------------------
  // Reboots after a PowerFailure: folds the in-flight attempt into wasted work, spends
  // the off-time (timer mode: scheduler-provided; capacitor mode: harvester recharge to
  // v_on), clears SRAM, notifies reboot listeners, re-arms the scheduler.
  void Reboot();

  // Marks the current attempt committed (called by the engine at task commit).
  void FoldAttemptCommitted() { stats_.FoldCommitted(); }

  // Registers a callback run on every reboot (runtimes clear volatile state here).
  void AddRebootListener(std::function<void()> fn) { reboot_listeners_.push_back(std::move(fn)); }

  // --- Capture plan (src/chk trunk execution) ----------------------------------------
  // Arms a sorted list of distinct on-clock instants at which `hook(i)` runs, exactly
  // once per instant, from inside Spend. Spend clamps its charging steps so the clock
  // lands exactly on each instant, and the hook runs immediately *before* the failure
  // check at that point — so the state the hook observes is bit-identical to what a
  // scripted failure at the same instant would leave for SnapshotAtReboot, whether or
  // not a failure actually fires there. The hook must only observe (snapshot, read the
  // trace); it must not advance the clock, spend energy, or throw. Cleared by Reset.
  void SetCapturePlan(std::vector<uint64_t> capture_at, std::function<void(size_t)> hook) {
    capture_at_ = std::move(capture_at);
    capture_hook_ = std::move(hook);
    capture_next_ = 0;
    RecomputeFastSpendBound();
  }
  void ClearCapturePlan() {
    capture_at_.clear();
    capture_hook_ = nullptr;
    capture_next_ = 0;
    RecomputeFastSpendBound();
  }

  // --- Execution probe (src/chk + src/obs instrumentation) ---------------------------
  // Subscribes `sink` to the batched probe stream (see ProbeBatch in probe.h). Any
  // number of sinks may coexist (the explorer's recorder, the timeline tracer, and
  // the profiler can observe the same run concurrently); each receives every event,
  // in emission order, at flush boundaries. The sink is not owned and must outlive
  // its registration. Observation is free: no cycles, no energy — an instrumented run
  // is indistinguishable from an uninstrumented one. Cleared by Reset.
  void AddSink(ProbeSink* sink) { sinks_.push_back(sink); }

  // Per-event callback compatibility shim: wraps `fn` in a device-owned adapter sink
  // that unpacks each batch back into ProbeEvent calls. Consumers that keep up with
  // the stream should implement ProbeSink instead and skip the per-event dispatch.
  void AddProbe(ProbeFn fn);

  // Legacy single-subscriber entry point. Installing a non-empty `fn` over existing
  // subscribers silently dropped them in earlier revisions — now it aborts; call
  // set_probe(nullptr) first (or use AddSink/AddProbe, which compose). An empty `fn`
  // clears every registration, matching the historical "remove the probe" idiom.
  void set_probe(ProbeFn fn) {
    if (fn) {
      EASEIO_CHECK(sinks_.empty(),
                   "set_probe would drop existing probe subscribers; use AddProbe/AddSink");
      AddProbe(std::move(fn));
    } else {
      FlushProbes();
      sinks_.clear();
      owned_sinks_.clear();
    }
  }

  bool has_probe() const { return !sinks_.empty(); }

  // Appends one probe event, stamped with the current on-time, to the emission ring.
  // No-op without subscribers. Delivery to sinks happens at the next flush boundary.
  void Note(ProbeKind kind, uint32_t id, uint32_t lane = 0, uint64_t a = 0, uint64_t b = 0) {
    if (sinks_.empty()) {
      return;
    }
    if (ring_count_ == kProbeRingCap) {
      FlushProbes();
    }
    const size_t i = ring_count_++;
    ring_kind_[i] = kind;
    ring_id_[i] = id;
    ring_lane_[i] = lane;
    ring_a_[i] = a;
    ring_b_[i] = b;
    ring_on_us_[i] = clock_.on_us();
  }

  // Delivers every buffered event to every sink, in order. Called automatically when
  // the ring fills, before each capture-plan hook, on Reset, and by the engine at the
  // end of a drive; callers reading a sink outside those points (e.g. after emitting
  // events by hand) must flush first. Sinks must not emit or flush re-entrantly.
  void FlushProbes() {
    if (ring_count_ == 0) {
      return;
    }
    ProbeBatch batch;
    batch.count = ring_count_;
    batch.kinds = ring_kind_;
    batch.ids = ring_id_;
    batch.lanes = ring_lane_;
    batch.a = ring_a_;
    batch.b = ring_b_;
    batch.on_us = ring_on_us_;
    ring_count_ = 0;
    for (ProbeSink* sink : sinks_) {
      sink->OnProbeBatch(batch);
    }
  }

  // --- Components --------------------------------------------------------------------------
  Memory& mem() { return mem_; }
  const Memory& mem() const { return mem_; }
  SimClock& clock() { return clock_; }
  const SimClock& clock() const { return clock_; }
  const PersistentTimekeeper& timekeeper() const { return timekeeper_; }
  Capacitor& capacitor() { return cap_; }
  RunStats& stats() { return stats_; }
  const RunStats& stats() const { return stats_; }
  EnergyMeter& meter() { return meter_; }

  AnalogSensor& temp() { return temp_; }
  AnalogSensor& humidity() { return humidity_; }
  AnalogSensor& pressure() { return pressure_; }
  Radio& radio() { return radio_; }
  Camera& camera() { return camera_; }
  DmaEngine& dma() { return dma_; }
  LeaAccelerator& lea() { return lea_; }

  const DeviceConfig& config() const { return config_; }

 private:
  DeviceConfig config_;
  FailureScheduler* scheduler_;  // never null; rebound by Reset
  const Harvester* harvester_;

  Memory mem_;
  SimClock clock_;
  PersistentTimekeeper timekeeper_;
  Capacitor cap_;
  EnergyMeter meter_;
  RunStats stats_;
  Phase phase_ = Phase::kApp;

  Xorshift64Star failure_rng_;

  AnalogSensor temp_;
  AnalogSensor humidity_;
  AnalogSensor pressure_;
  Radio radio_;
  Camera camera_;
  DmaEngine dma_;
  LeaAccelerator lea_;

  std::vector<std::function<void()>> reboot_listeners_;

  // Probe emission ring (SoA, fixed capacity) and its subscribers. `owned_sinks_`
  // holds the AddProbe adapter objects; `sinks_` is the dispatch list and may also
  // contain caller-owned sinks registered via AddSink.
  static constexpr size_t kProbeRingCap = 256;
  ProbeKind ring_kind_[kProbeRingCap];
  uint32_t ring_id_[kProbeRingCap];
  uint32_t ring_lane_[kProbeRingCap];
  uint64_t ring_a_[kProbeRingCap];
  uint64_t ring_b_[kProbeRingCap];
  uint64_t ring_on_us_[kProbeRingCap];
  size_t ring_count_ = 0;
  std::vector<ProbeSink*> sinks_;
  std::vector<std::unique_ptr<ProbeSink>> owned_sinks_;

  // Cached next-failure instant for deadline-driven schedulers (see
  // FailureScheduler::DeadlineDriven): while clock_.on_us() stays strictly below it,
  // FailNow is provably false and Spend takes the consultation-free fast path. 0 means
  // "no cached deadline, consult the scheduler every step" — the conservative state
  // Reset and ResumeFromSnapshot fall back to (the deferred Reboot re-derives it).
  uint64_t deadline_on_us_ = 0;

  // Stepping spend loop: capture-plan clamping, capacitor draw/harvest, per-step
  // failure checks. Everything Spend's inline fast path proves it can skip.
  void SpendSlow(uint64_t cycles, double energy_j);

  // The energy a spend charges when the slow path would take it in one step: the
  // identical expression SpendSlow evaluates for step == cycles.
  static double OneStepDrawJ(uint64_t cycles, double energy_j) {
    return (energy_j / static_cast<double>(cycles)) * static_cast<double>(cycles);
  }

  // Cycles and energy of one charged 16-bit access — the single cost table
  // LoadWord, StoreWord and CpuCopy charge from.
  struct AccessCost {
    uint64_t cycles;
    double energy_j;
  };
  static constexpr AccessCost WordCost(MemKind kind, bool store) {
    if (kind == MemKind::kSram) {
      return {kSramAccessCycles,
              kSramAccessEnergyJ + static_cast<double>(kSramAccessCycles) * kCpuEnergyPerCycleJ};
    }
    if (store) {
      return {kFramWriteCycles,
              kFramWriteEnergyJ + static_cast<double>(kFramWriteCycles) * kCpuEnergyPerCycleJ};
    }
    return {kFramReadCycles,
            kFramReadEnergyJ + static_cast<double>(kFramReadCycles) * kCpuEnergyPerCycleJ};
  }

  // Recomputes deadline_on_us_ from the scheduler. Called wherever the scheduler is
  // (re-)armed: Begin and the end of Reboot.
  void RearmFailureDeadline() {
    if (!scheduler_->DeadlineDriven()) {
      deadline_on_us_ = 0;
      RecomputeFastSpendBound();
      return;
    }
    const uint64_t budget = scheduler_->OnTimeBudgetUs(clock_);
    deadline_on_us_ =
        budget > UINT64_MAX - clock_.on_us() ? UINT64_MAX : clock_.on_us() + budget;
    RecomputeFastSpendBound();
  }

  // The single bound Spend's fast-path gate tests: the earliest instant at which
  // anything at all (scripted failure or capture hook) can interrupt a spend, or 0
  // when the fast path is off entirely (no cached deadline, capacitor model on, or
  // voltage sampling armed). Folding the whole eligibility decision into one cached
  // value matters because the gate runs once per simulated word access. Recomputed
  // wherever any input changes: RearmFailureDeadline, the capture plan setters,
  // CaptureCheck advancing past an instant, Reset, and ResumeFromSnapshot.
  uint64_t fast_spend_before_us_ = 0;

  void RecomputeFastSpendBound() {
    uint64_t bound = deadline_on_us_;
    if (bound == 0 || config_.use_capacitor || config_.cap_sample_period_us != 0) {
      fast_spend_before_us_ = 0;
      return;
    }
    if (capture_hook_ && capture_next_ < capture_at_.size() &&
        capture_at_[capture_next_] < bound) {
      bound = capture_at_[capture_next_];
    }
    fast_spend_before_us_ = bound;
  }

  // On-time threshold for the next kCapSample emission (cap_sample_period_us > 0).
  uint64_t next_cap_sample_us_ = 0;

  // Emits due kCapSample events; called from the same Spend sites as CaptureCheck so
  // samples land between charging steps, never mid-step.
  void CapSampleCheck() {
    if (config_.cap_sample_period_us == 0 || sinks_.empty()) {
      return;
    }
    if (clock_.on_us() >= next_cap_sample_us_) {
      Note(ProbeKind::kCapSample, 0, 0, static_cast<uint64_t>(cap_.voltage() * 1e6),
           static_cast<uint64_t>(cap_.StoredJ() * 1e9));
      // Next threshold on the period grid strictly after now: a charging step that
      // crosses several periods yields one sample, not a burst at the same instant.
      next_cap_sample_us_ =
          (clock_.on_us() / config_.cap_sample_period_us + 1) * config_.cap_sample_period_us;
    }
  }

  // Runs every due capture hook. Called at each failure-check site in Spend, before
  // the check itself (see SetCapturePlan). The ring is flushed first so a hook that
  // reads a sink (the trunk's trace fold) sees every event up to the capture instant.
  void CaptureCheck() {
    bool advanced = false;
    while (capture_hook_ && capture_next_ < capture_at_.size() &&
           clock_.on_us() >= capture_at_[capture_next_]) {
      FlushProbes();
      capture_hook_(capture_next_);
      ++capture_next_;
      advanced = true;
    }
    if (advanced) {
      RecomputeFastSpendBound();
    }
  }

  std::vector<uint64_t> capture_at_;
  size_t capture_next_ = 0;
  std::function<void(size_t)> capture_hook_;
};

}  // namespace easeio::sim

#endif  // EASEIO_SIM_DEVICE_H_
