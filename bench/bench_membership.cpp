// Membership sweep: SWIM failure detection measured as real gossip traffic
// on the simulated fabrics — gossip period x indirect-probe fan-out x
// cluster size (16-host Figure-2 up to the 128-host k=8 fat-tree).
//
// Per cell, on a SwimRig (one agent per host, full gossip mesh, confirm
// hooks wired to firmware exclusion):
//
//  * steady state  — warm the protocol, then measure gossip overhead over a
//    50-period window (packets/s and bytes/s per host from SwimStats
//    deltas);
//  * host kill     — cut one host's access link, run to global confirmation,
//    and record every survivor's detection latency (median / p99 / max),
//    gated against SwimAgent::detection_bound;
//  * the race      — the per-NIC no-progress detector (chaos-calibrated
//    10 ms threshold) runs concurrently; the cell records any survivor
//    whose local kPathFail beat its SWIM confirm. The membership claim is
//    that exclusion preempts the local threshold at every survivor.
//
// All numbers are sim-time and seeded-Rng derived: two runs produce
// byte-identical tables and JSON regardless of --jobs
// (scripts/same_behaviour.sh and CI diff the --quick JSON across runs).
//
//   ./build/bench/bench_membership [--quick] [--json <file>] [--jobs <N>]
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "firmware/reliability.hpp"
#include "harness/table.hpp"
#include "membership/rig.hpp"
#include "membership/swim.hpp"
#include "sweep.hpp"

namespace {

using namespace sanfault;

struct CellSpec {
  const char* fabric;  // display name: fig2-16 / clos-64 / clos-128
  harness::TopoKind topo;
  std::size_t hosts;
  std::size_t clos_k;  // ignored for Figure-2 fabrics
  sim::Duration period;
  std::size_t k_indirect;
};

struct CellResult {
  CellSpec spec;
  double pkts_per_host_s = 0;   // steady-state gossip packets/s per host
  double bytes_per_host_s = 0;  // steady-state gossip bytes/s per host
  sim::Duration det_median = 0;
  sim::Duration det_p99 = 0;
  sim::Duration det_max = 0;
  sim::Duration bound = 0;
  std::uint64_t exclusions = 0;      // firmware peer-exclusions at survivors
  std::uint64_t local_pathfails = 0; // survivors' kPathFail(victim) events
  bool all_confirmed = false;
  /// Survivors whose local no-progress declaration fired before their SWIM
  /// confirm — the acceptance gate wants this to be zero everywhere.
  std::uint64_t pathfail_races_lost = 0;
  std::vector<std::string> violations;
};

CellResult run_cell(const CellSpec& spec) {
  membership::SwimRigConfig rc;
  rc.cluster.num_hosts = spec.hosts;
  rc.cluster.topo = spec.topo;
  rc.cluster.clos.k = spec.clos_k;
  rc.cluster.fw = harness::FirmwareKind::kReliable;
  // The chaos-campaign local detector calibration: the race SWIM has to win.
  rc.cluster.rel.fail_threshold = sim::milliseconds(10);
  rc.cluster.rel.fail_min_rounds = 8;
  rc.swim.protocol_period = spec.period;
  rc.swim.probe_timeout = spec.period / 5;
  // Suspicion ages with the protocol clock, so the sweep shows the real
  // latency/overhead trade instead of a fixed floor.
  rc.swim.suspect_timeout = 3 * spec.period;
  rc.swim.k_indirect = spec.k_indirect;
  membership::SwimRig rig(rc);

  const std::size_t n = spec.hosts;
  const std::size_t victim = (n * 5) / 8;
  const net::HostId victim_id = rig.c.hosts[victim];

  // First local permanent-failure declaration against the victim, per host.
  std::vector<sim::Time> first_pathfail(n, sim::kNever);
  for (std::size_t i = 0; i < n; ++i) {
    firmware::ReliableFirmware& fw = rig.c.rel(i);
    sim::Time& slot = first_pathfail[i];
    sim::Scheduler& sched = rig.c.sched;
    fw.set_event_hook([&slot, &sched, victim_id](const firmware::FwEvent& ev) {
      if (ev.kind == firmware::FwEvent::Kind::kPathFail &&
          ev.peer == victim_id && slot == sim::kNever) {
        slot = sched.now();
      }
    });
  }

  // Warm up, then measure steady-state gossip overhead over 50 periods.
  rig.c.sched.run_for(30 * spec.period);
  std::uint64_t msgs0 = 0;
  std::uint64_t bytes0 = 0;
  for (std::size_t i = 0; i < n; ++i) {
    msgs0 += rig.agent(i).stats().gossip_msgs_tx;
    bytes0 += rig.agent(i).stats().gossip_bytes_tx;
  }
  const int window_periods = 50;
  rig.c.sched.run_for(window_periods * spec.period);
  std::uint64_t msgs1 = 0;
  std::uint64_t bytes1 = 0;
  for (std::size_t i = 0; i < n; ++i) {
    msgs1 += rig.agent(i).stats().gossip_msgs_tx;
    bytes1 += rig.agent(i).stats().gossip_bytes_tx;
  }
  const double window_s =
      sim::to_seconds(window_periods * spec.period) * static_cast<double>(n);
  CellResult r;
  r.spec = spec;
  r.pkts_per_host_s = static_cast<double>(msgs1 - msgs0) / window_s;
  r.bytes_per_host_s = static_cast<double>(bytes1 - bytes0) / window_s;

  // Kill the victim and run to global confirmation (bounded).
  rig.c.fabric().cut_host(victim_id);
  const sim::Time t0 = rig.c.sched.now();
  r.bound = membership::SwimAgent::detection_bound(rc.swim, n);
  const sim::Time cap = t0 + r.bound + 20 * spec.period;
  while (!rig.all_confirmed(victim) && rig.c.sched.now() < cap &&
         rig.c.sched.step()) {
  }
  r.all_confirmed = rig.all_confirmed(victim);
  if (!r.all_confirmed) {
    r.violations.push_back("not every survivor confirmed the dead host");
  }

  std::vector<sim::Duration> lat;
  for (std::size_t i = 0; i < n; ++i) {
    if (i == victim) continue;
    const sim::Time at = rig.agent(i).confirm_time(victim_id);
    if (at == sim::kNever) continue;
    lat.push_back(at - t0);
    r.exclusions += rig.c.rel(i).stats().peer_exclusions;
    r.local_pathfails += first_pathfail[i] != sim::kNever ? 1 : 0;
    if (first_pathfail[i] != sim::kNever && first_pathfail[i] < at) {
      ++r.pathfail_races_lost;
    }
  }
  std::sort(lat.begin(), lat.end());
  if (!lat.empty()) {
    r.det_median = lat[lat.size() / 2];
    r.det_p99 = lat[std::min(lat.size() - 1, (lat.size() * 99) / 100)];
    r.det_max = lat.back();
  }
  if (r.det_max > r.bound) {
    r.violations.push_back("detection latency exceeds the analytic bound");
  }
  if (r.pathfail_races_lost > 0) {
    r.violations.push_back(
        "a local no-progress declaration preceded the SWIM confirm");
  }
  return r;
}

bench::Fields json_fields(const CellResult& r) {
  return {{"fabric", r.spec.fabric},
          {"hosts", r.spec.hosts},
          {"period_us", sim::to_micros(r.spec.period), 1},
          {"k_indirect", r.spec.k_indirect},
          {"gossip_pkts_per_host_s", r.pkts_per_host_s, 1},
          {"gossip_bytes_per_host_s", r.bytes_per_host_s, 1},
          {"detect_median_us", sim::to_micros(r.det_median), 1},
          {"detect_p99_us", sim::to_micros(r.det_p99), 1},
          {"detect_max_us", sim::to_micros(r.det_max), 1},
          {"bound_us", sim::to_micros(r.bound), 1},
          {"peer_exclusions", r.exclusions},
          {"local_pathfails", r.local_pathfails},
          {"pathfail_races_lost", r.pathfail_races_lost},
          {"all_confirmed", r.all_confirmed},
          {"violations", r.violations.size()}};
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::uint64_t jobs = 1;
  const char* json_path = nullptr;
  if (!bench::parse_flags(argc, argv,
                          {{"--quick", quick},
                           {"--json", "<file>", json_path},
                           {"--jobs", "<N>", jobs}})) {
    return 2;
  }

  const std::vector<sim::Duration> periods = {
      sim::microseconds(500), sim::milliseconds(1), sim::milliseconds(2)};

  // Quick: the clos-64 period sweep at the production fan-out — the
  // determinism battery's entry. Full: every fabric x period x fan-out.
  std::vector<CellSpec> specs;
  if (quick) {
    for (const sim::Duration p : periods) {
      specs.push_back({"clos-64", harness::TopoKind::kClos, 64, 8, p, 3});
    }
  } else {
    struct Fabric {
      const char* name;
      harness::TopoKind topo;
      std::size_t hosts;
      std::size_t clos_k;
    };
    const std::vector<Fabric> fabrics = {
        {"fig2-16", harness::TopoKind::kFigure2, 16, 8},
        {"clos-64", harness::TopoKind::kClos, 64, 8},
        {"clos-128", harness::TopoKind::kClos, 128, 8},
    };
    for (const Fabric& f : fabrics) {
      for (const sim::Duration p : periods) {
        for (const std::size_t k : {std::size_t{1}, std::size_t{3}}) {
          specs.push_back({f.name, f.topo, f.hosts, f.clos_k, p, k});
        }
      }
    }
  }

  std::printf(
      "Membership sweep: SWIM gossip period x k-indirect x fabric, "
      "%zu cells (steady-state overhead + host-kill detection latency)\n\n",
      specs.size());

  const std::vector<CellResult> rows = bench::run_cells(jobs, specs, run_cell);

  harness::Table t({"Fabric", "Hosts", "Period(us)", "K", "Gossip(pkt/s/h)",
                    "Gossip(B/s/h)", "DetMed(us)", "DetP99(us)", "DetMax(us)",
                    "Bound(us)", "Excl", "LocalPF", "OK"});
  for (const CellResult& r : rows) {
    t.add_row({r.spec.fabric, std::to_string(r.spec.hosts),
               harness::fmt(sim::to_micros(r.spec.period), 0),
               std::to_string(r.spec.k_indirect),
               harness::fmt(r.pkts_per_host_s, 1),
               harness::fmt(r.bytes_per_host_s, 1),
               harness::fmt(sim::to_micros(r.det_median), 1),
               harness::fmt(sim::to_micros(r.det_p99), 1),
               harness::fmt(sim::to_micros(r.det_max), 1),
               harness::fmt(sim::to_micros(r.bound), 1),
               std::to_string(r.exclusions), std::to_string(r.local_pathfails),
               r.violations.empty() ? "OK" : "FAIL"});
  }
  t.print();

  bool all_ok = true;
  for (const CellResult& r : rows) {
    for (const std::string& v : r.violations) {
      std::printf("MEMBERSHIP VIOLATION [%s period=%.0fus k=%zu]: %s\n",
                  r.spec.fabric, sim::to_micros(r.spec.period),
                  r.spec.k_indirect, v.c_str());
      all_ok = false;
    }
  }
  std::printf("\nmembership sweep: %s\n", all_ok ? "all cells OK" : "FAIL");

  if (json_path != nullptr) {
    all_ok &= bench::write_file(json_path, bench::json_rows(rows, json_fields));
  }
  return all_ok ? 0 : 1;
}
