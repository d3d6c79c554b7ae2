// ChaosEngine: compiles a declarative Scenario into scheduler-driven fault
// actions against a live net::Fabric.
//
// Absolute-time events (`at ...`) are scheduled when arm() is called; phase
// events (`phase p50 ...`) wait until the workload announces the phase via
// fire_phase() (wire traffic::TrafficEngine::set_phase_hook straight into
// it) and then fire after their optional offset. Compound primitives expand
// into plain scheduler actions at arm/fire time:
//  * flap      -> `count` down/up cycles on one link; cycle boundaries are
//                 jittered from the campaign RNG (seeded by Scenario::seed),
//                 so flap timing is bit-reproducible per seed;
//  * error_ramp-> `steps` rate changes climbing linearly to the target
//                 loss/corrupt probabilities across `over`;
//  * partition/heal -> per-host access-link cut/heal for each listed host.
//
// Every applied action appends one line to a deterministic event log
// ("t=<ns> <action>"); two same-seed runs of the same scenario over the same
// workload produce byte-identical logs — the determinism contract
// tests/chaos_test.cpp and scripts/verify.sh enforce.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "chaos/scenario.hpp"
#include "net/fabric.hpp"
#include "obs/metrics.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"

namespace sanfault::chaos {

class StateCorruptor;

class ChaosEngine {
 public:
  /// `sched` is where actions are scheduled and `fabric` is what they act
  /// on, through its fault surface (net::Fabric::fail_link and friends).
  ChaosEngine(sim::Scheduler& sched, net::Fabric& fabric, Scenario scenario);

  /// Hook for nic_reset events: called with the host index. The harness
  /// binds this to firmware::ReliableFirmware::nic_reset for that host; the
  /// indirection keeps the engine ignorant of the firmware layer.
  void set_nic_reset_fn(std::function<void(std::uint32_t)> fn) {
    nic_reset_fn_ = std::move(fn);
  }

  /// Hook for corrupt events: the harness binds the StateCorruptor holding
  /// the per-host firmware/mapper bindings (corruptor.hpp). Unset, corrupt
  /// events are audited no-ops — same indirection as set_nic_reset_fn.
  void set_corruptor(StateCorruptor* corruptor) { corruptor_ = corruptor; }

  /// Schedule every absolute-time event. Call once, before running.
  void arm();

  /// Announce a workload phase; fires the scenario's events for that phase
  /// (each after its offset). Repeat announcements of the same phase are
  /// ignored, so per-window hooks can call this unconditionally.
  void fire_phase(std::string_view phase);

  [[nodiscard]] const Scenario& scenario() const { return scenario_; }

  /// Actions scheduled but not yet applied (flap cycles count individually).
  [[nodiscard]] std::uint64_t pending() const { return pending_; }
  [[nodiscard]] std::uint64_t applied() const { return applied_; }

  /// The deterministic event log: one "t=<ns> <action>" line per applied
  /// action, in application order.
  [[nodiscard]] const std::vector<std::string>& log() const { return log_; }
  [[nodiscard]] std::string log_text() const;

 private:
  void schedule_event(const ChaosEvent& ev, sim::Duration delay);
  void apply(const ChaosEvent& ev);
  void expand_flap(const ChaosEvent& ev);
  void expand_ramp(const ChaosEvent& ev);
  void note(std::string action);

  sim::Scheduler& sched_;
  net::Fabric& fabric_;
  Scenario scenario_;
  sim::Rng rng_;
  std::function<void(std::uint32_t)> nic_reset_fn_;
  StateCorruptor* corruptor_ = nullptr;
  std::vector<std::string> fired_phases_;
  std::vector<std::string> log_;
  std::uint64_t pending_ = 0;
  std::uint64_t applied_ = 0;
  bool armed_ = false;
  obs::Counter* ops_applied_ = nullptr;
};

}  // namespace sanfault::chaos
