#include "sim/device.h"

#include <algorithm>

#include "platform/check.h"

namespace easeio::sim {

Device::Device(const DeviceConfig& config, FailureScheduler& scheduler,
               const Harvester* harvester)
    : config_(config),
      scheduler_(&scheduler),
      harvester_(harvester),
      mem_(config.sram_bytes, config.fram_bytes),
      timekeeper_(clock_, config.timekeeper_tick_us),
      cap_(config.capacitance_f, config.v_on, config.v_off, config.v_max),
      failure_rng_(DeriveSeed(config.seed, 0)),
      temp_(MakeTempSensor(DeriveSeed(config.seed, 1))),
      humidity_(MakeHumiditySensor(DeriveSeed(config.seed, 2))),
      pressure_(MakePressureSensor(DeriveSeed(config.seed, 3))),
      camera_(DeriveSeed(config.seed, 4)) {
  EASEIO_CHECK(!config.use_capacitor || harvester != nullptr,
               "capacitor mode requires a harvester");
}

void Device::Reset(const DeviceConfig& config, FailureScheduler& scheduler,
                   const Harvester* harvester) {
  EASEIO_CHECK(config.sram_bytes == mem_.sram_size() && config.fram_bytes == mem_.fram_size(),
               "Device::Reset cannot change arena sizes");
  EASEIO_CHECK(!config.use_capacitor || harvester != nullptr,
               "capacitor mode requires a harvester");
  config_ = config;
  scheduler_ = &scheduler;
  harvester_ = harvester;
  mem_.Reset();
  clock_.Reset();
  timekeeper_.Reset(config.timekeeper_tick_us);
  cap_ = Capacitor(config.capacitance_f, config.v_on, config.v_off, config.v_max);
  meter_.Reset();
  stats_.Reset();
  phase_ = Phase::kApp;
  failure_rng_ = Xorshift64Star(DeriveSeed(config.seed, 0));
  temp_ = MakeTempSensor(DeriveSeed(config.seed, 1));
  humidity_ = MakeHumiditySensor(DeriveSeed(config.seed, 2));
  pressure_ = MakePressureSensor(DeriveSeed(config.seed, 3));
  radio_ = Radio();
  camera_ = Camera(DeriveSeed(config.seed, 4));
  dma_ = DmaEngine();
  lea_ = LeaAccelerator();
  reboot_listeners_.clear();
  ring_count_ = 0;
  sinks_.clear();
  owned_sinks_.clear();
  deadline_on_us_ = 0;
  next_cap_sample_us_ = 0;
  ClearCapturePlan();
}

namespace {

// Adapter behind Device::AddProbe: unpacks batches into the legacy per-event callback.
class ProbeFnSink final : public ProbeSink {
 public:
  explicit ProbeFnSink(ProbeFn fn) : fn_(std::move(fn)) {}
  void OnProbeBatch(const ProbeBatch& batch) override {
    for (size_t i = 0; i < batch.count; ++i) {
      const ProbeEvent e = batch.Event(i);
      fn_(e);
    }
  }

 private:
  ProbeFn fn_;
};

}  // namespace

void Device::AddProbe(ProbeFn fn) {
  EASEIO_CHECK(static_cast<bool>(fn), "AddProbe requires a callable");
  owned_sinks_.push_back(std::make_unique<ProbeFnSink>(std::move(fn)));
  sinks_.push_back(owned_sinks_.back().get());
}

DeviceSnapshot Device::SnapshotAtReboot() const {
  return DeviceSnapshot{mem_.Snapshot(), clock_, cap_,    meter_,  stats_, failure_rng_,
                        temp_,           humidity_, pressure_, radio_, camera_,
                        dma_,            lea_};
}

void Device::SnapshotAtRebootInto(DeviceSnapshot& out) const {
  mem_.SnapshotInto(out.mem);
  out.clock = clock_;
  out.capacitor = cap_;
  out.meter = meter_;
  out.stats = stats_;
  out.failure_rng = failure_rng_;
  out.temp = temp_;
  out.humidity = humidity_;
  out.pressure = pressure_;
  out.radio = radio_;
  out.camera = camera_;
  out.dma = dma_;
  out.lea = lea_;
}

void Device::ResumeFromSnapshot(const DeviceSnapshot& snapshot) {
  mem_.Restore(snapshot.mem);
  clock_ = snapshot.clock;
  cap_ = snapshot.capacitor;
  meter_ = snapshot.meter;
  stats_ = snapshot.stats;
  failure_rng_ = snapshot.failure_rng;
  temp_ = snapshot.temp;
  humidity_ = snapshot.humidity;
  pressure_ = snapshot.pressure;
  radio_ = snapshot.radio;
  camera_ = snapshot.camera;
  dma_ = snapshot.dma;
  lea_ = snapshot.lea;
  // The snapshot was taken mid-failure; the deferred Reboot() re-enters at kApp.
  phase_ = Phase::kApp;
  // Conservative until the deferred Reboot() re-arms the scheduler and re-derives it.
  deadline_on_us_ = 0;
  RecomputeFastSpendBound();
}

void Device::Begin() {
  cap_.Reset();
  scheduler_->OnPowerOn(clock_, failure_rng_);
  RearmFailureDeadline();
}

void Device::SpendSlow(uint64_t cycles, double energy_j) {
  CaptureCheck();
  CapSampleCheck();
  if (scheduler_->FailNow(clock_, cap_)) {
    throw PowerFailure{};
  }
  const double energy_per_cycle = energy_j / static_cast<double>(cycles);
  uint64_t remaining = cycles;
  while (remaining > 0) {
    const uint64_t budget = scheduler_->OnTimeBudgetUs(clock_);
    EASEIO_CHECK(budget > 0, "scheduler returned zero budget without failing");
    uint64_t step = std::min(remaining, budget);
    // Clamp to the next capture instant so the clock lands exactly on it; splitting a
    // step changes nothing observable (stats/meter accumulate sums, and the capacitor
    // path is unused in the scripted mode capture plans run under).
    if (capture_hook_ && capture_next_ < capture_at_.size()) {
      const uint64_t next_capture = capture_at_[capture_next_];
      if (clock_.on_us() < next_capture) {
        step = std::min(step, next_capture - clock_.on_us());
      }
    }
    const double step_s = static_cast<double>(step) * 1e-6;
    double draw_j = energy_per_cycle * static_cast<double>(step);
    if (config_.use_capacitor) {
      draw_j += config_.idle_power_w * step_s;
      cap_.Charge(harvester_->PowerW(clock_.wall_us()) * step_s);
      cap_.Draw(draw_j);
    }
    clock_.AdvanceOn(step);
    stats_.ChargeAttempt(phase_, static_cast<double>(step), draw_j);
    meter_.Add(phase_, draw_j);
    remaining -= step;
    CaptureCheck();
    CapSampleCheck();
    if (scheduler_->FailNow(clock_, cap_)) {
      throw PowerFailure{};
    }
  }
}

uint32_t Device::LoadWord32(uint32_t addr) {
  const uint32_t lo = LoadWord(addr);
  const uint32_t hi = LoadWord(addr + 2);
  return lo | (hi << 16);
}

void Device::StoreWord32(uint32_t addr, uint32_t value) {
  StoreWord(addr, static_cast<uint16_t>(value & 0xFFFF));
  StoreWord(addr + 2, static_cast<uint16_t>(value >> 16));
}

void Device::CpuCopy(uint32_t dst, uint32_t src, uint32_t nbytes) {
  const uint32_t words = (nbytes + 1) / 2;
  const uint32_t span = 2 * words;  // the word loop moves whole words
  // Bulk path. Valid ranges resolve every word of each side to one arena, so each
  // load and each store costs the same; disjoint ranges make read-all-then-write-all
  // equal to the interleaved loop. Below the fast-spend bound, every one of the loop's
  // 2 * words spends would take Spend's fast path, so its ledger is replayed here in
  // the same order, add by add, and needs no failure or capture check.
  if (mem_.RangeValid(src, span) && mem_.RangeValid(dst, span) &&
      (src + span <= dst || dst + span <= src)) {
    const AccessCost load = WordCost(mem_.Classify(src), /*store=*/false);
    const AccessCost store = WordCost(mem_.Classify(dst), /*store=*/true);
    const uint64_t total = static_cast<uint64_t>(words) * (load.cycles + store.cycles);
    if (fast_spend_before_us_ != 0 && clock_.on_us() + total < fast_spend_before_us_) {
      const double load_us = static_cast<double>(load.cycles);
      const double store_us = static_cast<double>(store.cycles);
      const double load_j = OneStepDrawJ(load.cycles, load.energy_j);
      const double store_j = OneStepDrawJ(store.cycles, store.energy_j);
      const int p = static_cast<int>(phase_);
      double us = stats_.attempt_us[p];
      double j = stats_.attempt_j[p];
      double meter_j = meter_.PhaseJ(phase_);
      for (uint32_t i = 0; i < words; ++i) {
        us += load_us;
        j += load_j;
        meter_j += load_j;
        us += store_us;
        j += store_j;
        meter_j += store_j;
      }
      stats_.attempt_us[p] = us;
      stats_.attempt_j[p] = j;
      meter_.SetPhaseJ(phase_, meter_j);
      clock_.AdvanceOn(total);
      mem_.Copy(dst, src, span);
      return;
    }
  }
  for (uint32_t i = 0; i < words; ++i) {
    const uint16_t v = LoadWord(src + 2 * i);
    StoreWord(dst + 2 * i, v);
  }
}

void Device::Reboot() {
  stats_.FoldFailed();
  ++stats_.power_failures;
  // The voltage the failure left behind, before the recharge below refills it.
  const double v_at_failure = cap_.voltage();
  const uint64_t off_before = clock_.off_us();

  if (config_.use_capacitor) {
    // Dark until the harvester refills the capacitor to the boot threshold. With zero
    // harvest the device would stay dark forever; surface that as a modelling error.
    const double deficit = cap_.DeficitToOnJ();
    if (deficit > 0) {
      const double p = harvester_->PowerW(clock_.wall_us());
      EASEIO_CHECK(p > 1e-12, "device browned out with no harvest income");
      const double seconds = deficit / p;
      clock_.AdvanceOff(static_cast<uint64_t>(seconds * 1e6) + 1);
      cap_.Charge(deficit);
    }
  } else {
    clock_.AdvanceOff(scheduler_->OffTimeUs(failure_rng_));
  }

  // Emitted once the dark interval is known so the event can carry it: on_us is the
  // failure instant (unchanged by AdvanceOff), a is the off-time just spent, b the
  // capacitor voltage at the failure instant.
  Note(ProbeKind::kReboot, static_cast<uint32_t>(stats_.power_failures), 0,
       clock_.off_us() - off_before, static_cast<uint64_t>(v_at_failure * 1e6));

  mem_.OnReboot();
  phase_ = Phase::kApp;
  for (const auto& fn : reboot_listeners_) {
    fn();
  }
  scheduler_->OnPowerOn(clock_, failure_rng_);
  RearmFailureDeadline();
}

}  // namespace easeio::sim
