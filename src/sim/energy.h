// Energy storage and metering for the simulated device.

#ifndef EASEIO_SIM_ENERGY_H_
#define EASEIO_SIM_ENERGY_H_

#include <cstdint>

#include "platform/check.h"
#include "sim/costs.h"

namespace easeio::sim {

// The capacitor that powers the device. Harvested energy charges it; every executed
// operation draws from it. The device browns out when the voltage falls below v_off
// and boots again once it climbs back above v_on.
class Capacitor {
 public:
  Capacitor(double capacitance_f = kDefaultCapacitanceF, double v_on = kDefaultVOn,
            double v_off = kDefaultVOff, double v_max = kDefaultVMax)
      : capacitance_f_(capacitance_f), v_on_(v_on), v_off_(v_off), v_max_(v_max), v_(v_max) {
    EASEIO_CHECK(capacitance_f > 0 && v_off > 0 && v_on > v_off && v_max >= v_on,
                 "capacitor thresholds must satisfy 0 < v_off < v_on <= v_max");
  }

  // Stored energy relative to ground, 1/2 C V^2.
  double StoredJ() const { return 0.5 * capacitance_f_ * v_ * v_; }

  // Energy usable before brown-out.
  double UsableJ() const {
    const double floor = 0.5 * capacitance_f_ * v_off_ * v_off_;
    const double stored = StoredJ();
    return stored > floor ? stored - floor : 0.0;
  }

  // Energy needed to climb from the current voltage back to the boot threshold.
  double DeficitToOnJ() const {
    const double target = 0.5 * capacitance_f_ * v_on_ * v_on_;
    const double stored = StoredJ();
    return stored < target ? target - stored : 0.0;
  }

  // Draws `j` joules. Returns false (leaving the capacitor clamped at v_off) when the
  // draw would brown the device out.
  bool Draw(double j) {
    EASEIO_CHECK(j >= 0, "cannot draw negative energy");
    if (j > UsableJ()) {
      SetVoltage(v_off_);
      return false;
    }
    SetEnergy(StoredJ() - j);
    return true;
  }

  // Adds harvested energy, clamped at the v_max rail.
  void Charge(double j) {
    EASEIO_CHECK(j >= 0, "cannot harvest negative energy");
    const double cap = 0.5 * capacitance_f_ * v_max_ * v_max_;
    double e = StoredJ() + j;
    SetEnergy(e > cap ? cap : e);
  }

  // Resets to fully charged (used at run start).
  void Reset() { v_ = v_max_; }

  double voltage() const { return v_; }
  double v_on() const { return v_on_; }
  double v_off() const { return v_off_; }
  double capacitance_f() const { return capacitance_f_; }
  bool BelowOff() const { return v_ <= v_off_ + 1e-12; }

 private:
  void SetEnergy(double j) {
    v_ = j <= 0 ? 0.0 : __builtin_sqrt(2.0 * j / capacitance_f_);
  }
  void SetVoltage(double v) { v_ = v; }

  double capacitance_f_;
  double v_on_;
  double v_off_;
  double v_max_;
  double v_;
};

// Attribution buckets for time and energy. The paper's Figures 7 and 10 decompose
// total execution time into useful application work, runtime overhead, and wasted
// work; the device tags every charged operation with the currently active phase.
enum class Phase : uint8_t {
  kApp = 0,       // first-time useful application work (compute and I/O)
  kOverhead = 1,  // runtime bookkeeping: flags, timestamps, privatization, commits
  kRedundant = 2, // re-executed I/O work within an eventually-successful attempt
};
inline constexpr int kNumPhases = 3;

// Accumulates energy consumption per phase.
class EnergyMeter {
 public:
  void Add(Phase phase, double j) { per_phase_[static_cast<int>(phase)] += j; }

  double TotalJ() const { return per_phase_[0] + per_phase_[1] + per_phase_[2]; }
  double PhaseJ(Phase phase) const { return per_phase_[static_cast<int>(phase)]; }
  void SetPhaseJ(Phase phase, double j) { per_phase_[static_cast<int>(phase)] = j; }

  void Reset() { per_phase_[0] = per_phase_[1] = per_phase_[2] = 0.0; }

 private:
  double per_phase_[kNumPhases] = {0.0, 0.0, 0.0};
};

}  // namespace easeio::sim

#endif  // EASEIO_SIM_ENERGY_H_
