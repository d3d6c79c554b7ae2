// Chaos campaign runner: the KV + open-loop traffic workload driven through
// a matrix of declarative fault scenarios (src/chaos) on 4/8/16-node
// Figure-2 fabrics. Where bench_kv_service asks "what does the service look
// like under one fault", this asks "how fast does the stack *recover*, and
// do the invariants hold" — the view self-healing-network evaluations take.
//
// Scenarios (each a src/chaos DSL text, phase-anchored to the workload):
//   link-kill      — one trunk of the first redundant pair dies at p25;
//                    on-demand remap must converge onto the twin trunk;
//   flap-train     — the same trunk flaps down/up for ~5 cycles at p25;
//                    go-back-N must absorb it without a generation restart;
//   switch-death   — crossbar sw16_a dies at p25 and revives 18 ms later
//                    (outliving the 10 ms permanent-failure threshold);
//   partition-heal — a server host's access link is cut at p25 for 18 ms;
//                    recovery needs remap + generation restart after heal;
//   error-ramp     — loss/corruption rates ramp up on every link (transient
//                    errors only; no disruptive fault);
//   compound       — ramp + flap + NIC reset + client partition together;
//   spine-death-placement / spine-death-random
//                  — Clos-only placement experiment: every server in one pod
//                    dies permanently at p25 (whole fault domain lost) with
//                    the SWIM membership stack running. Pod-aware placement
//                    must keep every shard at quorum; the seeded-random
//                    control must demonstrably lose quorum (both cells kill
//                    the same pod — the one carrying a co-located shard
//                    under random placement).
//
// Per cell: recovery metrics from chaos::RecoveryMonitor (time-to-first-
// redelivery, remap convergence, retransmission amplification, goodput dip
// area), the exactly-once KV audit, and the chaos invariant checker. Any
// invariant violation fails the process — this is the CI gate.
//
// Two state-corruption modes ride along (docs/CHAOS.md "State corruption"),
// both over chaos::run_convergence_case, the cell the property battery
// runs too: `--corrupt-smoke` runs one fixed-seed case per corruption
// class and emits a byte-comparable artifact (scripts/same_behaviour.sh
// double-runs and diffs it); `--soak <seed> [--soak-cases N]` derives N
// randomized cases from the master seed — the nightly workflow's
// randomized battery, whose artifact records every case's scenario DSL for
// exact replay. Both run their cases on the --jobs pool too.
//
//   ./build/bench/bench_chaos [--quick] [--scale] [--compare]
//                             [--json <file>] [--metrics-json <file>]
//                             [--log <file>] [--jobs <N>] [--corrupt-smoke]
//                             [--soak <seed>] [--soak-cases <N>]
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "chaos/convergence.hpp"
#include "chaos/engine.hpp"
#include "chaos/recovery.hpp"
#include "chaos/scenario.hpp"
#include "harness/cluster.hpp"
#include "sim/rng.hpp"
#include "harness/table.hpp"
#include "kv/audit.hpp"
#include "kv/rig.hpp"
#include "obs/metrics.hpp"
#include "sweep.hpp"
#include "traffic/engine.hpp"

namespace {

using namespace sanfault;

struct CellSpec {
  const char* scenario;
  std::size_t hosts;
  bool require_redelivery;
  bool require_remap;
  /// Fabric under test; the scale cells run on the 64-host k=8 fat-tree.
  harness::TopoKind topo = harness::TopoKind::kFigure2;
  /// spine_death_placement cells: run SWIM membership on every host, kill one
  /// whole fault domain (every server in the victim pod) permanently, and
  /// judge the replica-quorum invariant. `pod_aware` selects the placement
  /// policy under test; false is the seeded-random control expected to LOSE
  /// quorum (some shard keeps both replicas in one pod).
  bool placement_cell = false;
  bool pod_aware = false;
  /// Proactive backup paths (docs/ROUTING.md): precompute disjoint alternates
  /// and promote on failure instead of probing. The --compare mode runs each
  /// scenario with this off and on and gates on the TTFR improvement.
  bool proactive = false;
};

struct CellResult {
  CellSpec spec;
  std::uint64_t issued = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  double goodput_rps = 0;
  double availability = 0;
  chaos::RecoveryReport recovery;
  kv::AuditResult audit;
  std::vector<std::string> violations;
  std::string event_log;
  std::string metrics_json;
  /// Placement cells only (-1 otherwise): the quorum verdict, mirrored from
  /// the invariant input so the campaign JSON logs both outcomes.
  int quorum_expected = -1;
  bool quorum_held = true;
  std::uint64_t shards_no_live_replica = 0;
  /// Proactive-backup mapper totals summed over all nodes (compare mode).
  std::uint64_t backup_promotions = 0;
  std::uint64_t backup_stale_rejections = 0;
  std::uint64_t backup_replenish_probes = 0;
};

/// The scenario DSL text for `name` on an `n`-host Figure-2 fabric. Link 0
/// is one trunk of the redundant sw8_a<->sw16_a pair (link 1 its twin);
/// switch 1 is sw16_a; host 1 is always a server (servers are hosts
/// 0..n/2-1), host n-1 always a client host.
std::string scenario_text(const std::string& name, std::size_t n) {
  const std::string header = "scenario " + name + "\n";
  if (name == "link-kill") {
    return header + "seed 11\nphase p25 link_down link=0\n";
  }
  if (name == "flap-train") {
    return header +
           "seed 12\n"
           "phase p25 flap link=0 count=5 period=2ms duty=0.5 jitter=0.25\n";
  }
  if (name == "switch-death") {
    return header +
           "seed 13\n"
           "phase p25 switch_down switch=1\n"
           "phase p25+18ms switch_up switch=1\n";
  }
  if (name == "partition-heal") {
    // 18 ms outlives fail_threshold (10 ms), so the partitioned server's
    // peers declare the path failed and must remap after the heal; it is
    // far below the replication give-up, so the audit stays exactly-once.
    return header +
           "seed 14\n"
           "phase p25 partition hosts=1\n"
           "phase p25+18ms heal hosts=1\n";
  }
  if (name == "spine-death") {
    // Clos-only: switch 0 is a core (the builder creates the spine first),
    // so this kills one spine crossbar for 18 ms — longer than the 10 ms
    // permanent-failure threshold, forcing cross-pod pairs routed through it
    // to remap onto one of the redundant spines.
    return header +
           "seed 17\n"
           "phase p25 switch_down switch=0\n"
           "phase p25+18ms switch_up switch=0\n";
  }
  if (name == "error-ramp") {
    return header +
           "seed 15\n"
           "at 2ms error_ramp loss=0.002 corrupt=0.0005 steps=4 over=10ms\n";
  }
  if (name == "compound") {
    const std::string victim = std::to_string(n - 1);
    return header +
           "seed 16\n"
           "at 1ms error_ramp loss=0.001 corrupt=0.0002 steps=2 over=5ms\n"
           "phase p25 flap link=1 count=3 period=2ms duty=0.5 jitter=0.2\n"
           "phase p50 nic_reset host=0\n"
           "phase p50+1ms partition hosts=" + victim + "\n" +
           "phase p75 heal hosts=" + victim + "\n";
  }
  std::fprintf(stderr, "unknown scenario '%s'\n", name.c_str());
  std::abort();
}

/// Victim hosts for the spine_death_placement cells: every server in the
/// first pod where a POD-BLIND shard map co-locates some shard's primary and
/// backup. The pod is computed from a blind twin of the rig's map (same
/// servers, shard count, vnodes and seed), so the pod-aware cell and its
/// random control kill the exact same fault domain — the one that provably
/// carries both replicas of at least one shard under random placement.
std::vector<std::uint32_t> placement_victims(const kv::KvRig& rig) {
  const kv::KvRigConfig& cfg = rig.config();
  std::vector<net::HostId> servers(
      rig.c.hosts.begin(),
      rig.c.hosts.begin() + static_cast<std::ptrdiff_t>(cfg.num_servers));
  const kv::ShardMap blind(std::move(servers), cfg.num_shards, /*vnodes=*/16,
                           cfg.map_seed);
  std::uint32_t victim_pod = std::numeric_limits<std::uint32_t>::max();
  for (std::size_t sh = 0; sh < blind.num_shards(); ++sh) {
    const std::uint32_t p = rig.c.host_pods[blind.primary(sh).v];
    const std::uint32_t b = rig.c.host_pods[blind.backup(sh).v];
    if (p == b) {
      victim_pod = p;
      break;
    }
  }
  if (victim_pod == std::numeric_limits<std::uint32_t>::max()) {
    std::fprintf(stderr,
                 "placement cell: blind map co-locates no shard; the control "
                 "would show nothing\n");
    std::abort();
  }
  std::vector<std::uint32_t> victims;
  for (std::uint32_t i = 0; i < cfg.num_servers; ++i) {
    if (rig.c.host_pods[i] == victim_pod) victims.push_back(i);
  }
  return victims;
}

/// Permanent whole-domain kill: cut every victim's access link at p25, no
/// heal. SWIM confirms the deaths, survivors exclude the peers, clients fail
/// over; whether a shard stays served depends purely on placement.
std::string placement_scenario_text(const std::string& name,
                                    const std::vector<std::uint32_t>& victims) {
  std::string list;
  for (std::size_t i = 0; i < victims.size(); ++i) {
    if (i > 0) list += ",";
    list += std::to_string(victims[i]);
  }
  return "scenario " + name + "\nseed 18\nphase p25 partition hosts=" + list +
         "\n";
}

/// Median of the per-destination TTFR samples (0 when none). The median, not
/// the max, is the headline: a single stale-backup fallback legitimately
/// probes and should not hide the promoted majority.
sim::Duration median_ttfr(const chaos::RecoveryReport& rec) {
  if (rec.ttfr_dest.empty()) return 0;
  std::vector<sim::Duration> v = rec.ttfr_dest;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

CellResult run_cell(const CellSpec& spec, std::uint64_t total_requests,
                    double rate_rps, std::size_t num_clients,
                    bool want_metrics) {
  kv::KvRigConfig rc;
  rc.num_servers = spec.hosts / 2;
  rc.num_client_hosts = spec.hosts - rc.num_servers;
  rc.cluster.topo = spec.topo;
  rc.cluster.fw = harness::FirmwareKind::kReliable;
  rc.cluster.mapper = harness::MapperKind::kOnDemand;
  rc.cluster.nic.send_buffers = 64;
  // Fast permanent-failure declaration (the paper's default is tuned for
  // hours-long jobs); scenario timings above are calibrated against this.
  rc.cluster.rel.fail_threshold = sim::milliseconds(10);
  rc.cluster.rel.fail_min_rounds = 8;
  rc.cluster.ondemand.proactive_backup = spec.proactive;
  if (spec.placement_cell) {
    // Placement cells run the full production membership stack: SWIM gossip
    // on every host (confirm -> firmware exclusion -> client dead-hook
    // failover) plus the placement policy under test. Gossip needs a full
    // n x n message mesh, so shrink the per-sender ring partitions (gossip
    // packets are tiny; the largest KV message still fits in 16 KiB).
    rc.membership = true;
    rc.pod_aware_placement = spec.pod_aware;
    rc.ring_per_peer = 16 * 1024;
  }
  if (spec.topo == harness::TopoKind::kClos) {
    // k=4 (16-host) fat-tree for the quick placement cells; the 64-host
    // cells keep the canonical k=8.
    if (spec.hosts <= 16) rc.cluster.clos.k = 4;
    // Scale-out remaps must converge inside the KV replication retry budget
    // (~seconds). A cross-pod BFS on the 80-switch fat-tree costs ~20k+
    // probes with the default Table-3 methodology — mostly duplicate
    // detection, each a timeout — so these cells run the mapper in its
    // configured-deployment mode: fabric database resolves duplicate
    // verdicts (no dup probes), deterministic multipath spreads remapped
    // pairs over the redundant spines, and the probe timeout is sized to the
    // Clos RTT (~6 us) instead of the conservative default.
    rc.cluster.ondemand.configured_identity = true;
    rc.cluster.ondemand.multipath = true;
    rc.cluster.ondemand.max_probes = std::size_t{1} << 17;
    rc.cluster.ondemand.probe_timeout = sim::microseconds(30);
  }
  kv::KvRig rig(rc);

  chaos::RecoveryMonitor monitor(rig.c.sched);
  monitor.watch(rig.c);

  std::vector<std::uint32_t> victims;
  std::string scen_text;
  if (spec.placement_cell) {
    victims = placement_victims(rig);
    scen_text = placement_scenario_text(spec.scenario, victims);
  } else {
    scen_text = scenario_text(spec.scenario, spec.hosts);
  }
  chaos::ChaosEngine engine(rig.c.sched, rig.c.fabric(),
                            chaos::Scenario::parse(scen_text));
  engine.set_nic_reset_fn(
      [&rig](std::uint32_t host) { rig.c.rel(host).nic_reset(); });
  engine.arm();

  traffic::TrafficConfig tc;
  tc.num_clients = num_clients;
  tc.total_requests = total_requests;
  tc.rate_rps = rate_rps;
  tc.zipf_theta = 0.99;
  tc.seed = 42;
  traffic::TrafficEngine traffic(rig.c.sched, rig.client_view(), tc);
  traffic.set_phase_hook(
      [&engine](std::string_view phase) { engine.fire_phase(phase); });
  traffic.start();

  const sim::Time cap = sim::seconds(600);
  while (!traffic.done() && rig.c.sched.now() < cap && rig.c.sched.step()) {
  }
  const double elapsed_s = sim::to_seconds(rig.c.sched.now());
  rig.quiesce();
  monitor.finalize();

  CellResult r;
  r.spec = spec;
  const auto& s = traffic.stats();
  r.issued = s.issued;
  r.ok = s.ok;
  r.failed = s.failed;
  r.goodput_rps = elapsed_s > 0 ? static_cast<double>(s.ok) / elapsed_s : 0;
  r.availability = s.availability();
  r.recovery = monitor.report();
  r.audit = kv::audit(*rig.map, rig.server_view(), traffic.shadow());
  r.event_log = engine.log_text();
  for (std::size_t i = 0; i < rig.c.size(); ++i) {
    const auto& ms = rig.c.mapper(i).stats();
    r.backup_promotions += ms.backup_promotions;
    r.backup_stale_rejections += ms.backup_stale_rejections;
    r.backup_replenish_probes += ms.backup_replenish_probes;
  }

  chaos::InvariantInput in;
  in.audit_clean = r.audit.ok();
  in.ops_expected = tc.total_requests;
  in.ops_completed = s.completed;
  in.require_redelivery = spec.require_redelivery;
  in.require_remap = spec.require_remap;
  if (spec.placement_cell) {
    // Replica-quorum verdict: a shard is lost when both its replicas sat on
    // hosts in the killed domain. Pod-aware placement guarantees primary and
    // backup straddle pods, so no shard can lose both.
    std::vector<bool> dead(spec.hosts, false);
    for (const std::uint32_t v : victims) dead[v] = true;
    std::uint64_t lost = 0;
    for (std::size_t sh = 0; sh < rig.map->num_shards(); ++sh) {
      if (dead[rig.map->primary(sh).v] && dead[rig.map->backup(sh).v]) ++lost;
    }
    in.quorum_expected = spec.pod_aware ? 1 : 0;
    in.quorum_held = lost == 0;
    in.shards_no_live_replica = lost;
    r.quorum_expected = in.quorum_expected;
    r.quorum_held = in.quorum_held;
    r.shards_no_live_replica = lost;
  }
  r.violations = chaos::check_invariants(r.recovery, in);

  if (want_metrics) r.metrics_json = obs::Registry::of(rig.c.sched).to_json();
  return r;
}

bench::Fields json_fields(const CellResult& r) {
  const chaos::RecoveryReport& rec = r.recovery;
  return {{"scenario", r.spec.scenario},
          {"hosts", r.spec.hosts},
          {"issued", r.issued},
          {"ok", r.ok},
          {"failed", r.failed},
          {"goodput_rps", r.goodput_rps, 1},
          {"availability", r.availability, 6},
          {"proactive", r.spec.proactive},
          {"ttfr_first_ns", rec.ttfr_first},
          {"ttfr_max_ns", rec.ttfr_max},
          {"ttfr_samples", rec.ttfr_samples},
          {"ttfr_dest_samples", rec.ttfr_dest_samples},
          {"ttfr_dest_median_ns", median_ttfr(rec)},
          {"gen_restarts", rec.gen_restarts},
          {"remap_convergences", rec.remap_convergences},
          {"remap_conv_max_ns", rec.remap_conv_max},
          {"remap_conv_promoted", rec.remap_conv_promoted},
          {"remap_conv_probed", rec.remap_conv_probed},
          {"retrans_amplification", rec.retrans_amplification(), 4},
          {"goodput_dip_area", rec.goodput_dip_area, 1},
          {"nic_resets", rec.nic_resets},
          {"audit_ok", r.audit.ok()},
          {"invariant_violations", r.violations.size()},
          {"placement", !r.spec.placement_cell ? "none"
                        : r.spec.pod_aware     ? "pod-aware"
                                               : "random"},
          {"quorum_expected", r.quorum_expected},
          {"quorum_held", r.quorum_held},
          {"shards_no_live_replica", r.shards_no_live_replica}};
}

bench::Fields metrics_cell(const CellResult& r) {
  return {{"scenario", r.spec.scenario}, {"hosts", r.spec.hosts}};
}

/// Concatenated per-cell chaos event logs — the byte-comparable determinism
/// artifact (scripts/same_behaviour.sh compares it across runs and builds).
std::string event_log(const std::vector<CellResult>& rows) {
  std::string out;
  for (const CellResult& r : rows) {
    out += std::string("=== scenario=") + r.spec.scenario +
           " hosts=" + std::to_string(r.spec.hosts) + " ===\n" + r.event_log;
  }
  return out;
}

// ---------------------------------------------------------------------------
// State-corruption convergence modes. Both drive the shared cell
// (chaos::run_convergence_case) that the tests/property_test
// SelfStabilization battery also runs.

/// How one convergence case ended, as the artifacts record it.
std::string verdict(const chaos::ConvergenceResult& r) {
  if (r.converged()) {
    return "converged (applied=" + std::to_string(r.applied) +
           " witness=" + std::to_string(r.witness) + ")\n";
  }
  std::string out = "FAILED\n";
  for (const std::string& v : r.violations) out += "  violation: " + v + "\n";
  return out;
}

/// One --corrupt-smoke cell: the convergence case and the class it corrupts.
struct SmokeCell : chaos::ConvergenceResult {
  std::string name;
};

/// --corrupt-smoke: one fixed-seed cell per corruption class on fig2-16.
/// The artifact (written to --log) is fully deterministic — the
/// same_behaviour.sh battery runs the smoke twice and byte-compares,
/// proving corruption injection, the scrubber, and the recovery path all
/// replay identically.
int run_corrupt_smoke(std::uint64_t jobs, const char* log_path,
                      const char* metrics_path) {
  constexpr std::uint64_t kSmokeSeed = 9003;  // inside the battery's range
  std::vector<chaos::CorruptState> classes;
  for (int cls = 0; cls < 6; ++cls) {
    classes.push_back(static_cast<chaos::CorruptState>(cls));
  }
  const std::vector<SmokeCell> cells =
      bench::run_cells(jobs, classes, [&](chaos::CorruptState cls) {
        return SmokeCell{
            chaos::run_convergence_case(harness::TopoKind::kFigure2, 16, cls,
                                        kSmokeSeed, metrics_path != nullptr),
            std::string(chaos::corrupt_state_name(cls))};
      });

  std::string artifact =
      "=== corruption smoke: fig2-16, 6 classes, seed " +
      std::to_string(kSmokeSeed) + " ===\n";
  bool all_ok = true;
  for (const SmokeCell& c : cells) {
    artifact += "--- class=" + c.name + " ---\n" + c.dsl + c.chaos_log +
                "fw: " + c.fw_stats + "\nresult: " + verdict(c);
    all_ok &= c.converged();
    std::printf("corrupt-smoke class=%-11s %s\n", c.name.c_str(),
                c.converged() ? "converged" : "FAILED");
  }
  if (log_path == nullptr) {
    std::fwrite(artifact.data(), 1, artifact.size(), stdout);
  } else if (!bench::write_file(log_path, artifact)) {
    return 1;
  }
  const auto cell_of = [](const SmokeCell& c) {
    return bench::Fields{{"scenario", "corrupt-" + c.name}, {"hosts", 16}};
  };
  if (metrics_path != nullptr &&
      !bench::write_file(metrics_path, bench::metrics_array(cells, cell_of))) {
    return 1;
  }
  std::printf("corruption smoke: %s\n",
              all_ok ? "all classes converged" : "CONVERGENCE FAILURES");
  return all_ok ? 0 : 1;
}

/// One --soak case, derived from the master seed.
struct SoakCase {
  chaos::CorruptState cls;
  std::uint64_t seed;
  bool clos;  // the 64-host fat-tree, else fig2-16
};

/// --soak <seed>: randomized corruption cases derived from one master seed
/// (the nightly workflow passes its run id). Every case's class, seed and
/// fabric come from the master RNG, so re-running with the seed printed in
/// a red run's artifact replays the exact failing schedule byte-for-byte.
int run_soak(std::uint64_t jobs, std::uint64_t master_seed,
             std::uint64_t cases, const char* log_path) {
  sim::Rng master(master_seed ^ 0x50AF5EEDull);
  std::vector<SoakCase> specs;
  for (std::uint64_t i = 0; i < cases; ++i) {
    const auto cls = static_cast<chaos::CorruptState>(master.uniform(6));
    // Every fifth case runs on the 64-host fat-tree; the rest on fig2-16.
    specs.push_back({cls, master.next(), i % 5 == 4});
  }
  std::printf("corruption soak: master_seed=%llu cases=%llu\n",
              static_cast<unsigned long long>(master_seed),
              static_cast<unsigned long long>(cases));
  const std::vector<chaos::ConvergenceResult> results =
      bench::run_cells(jobs, specs, [](const SoakCase& c) {
        return chaos::run_convergence_case(
            c.clos ? harness::TopoKind::kClos : harness::TopoKind::kFigure2,
            c.clos ? 64 : 16, c.cls, c.seed);
      });

  std::string artifact = "=== corruption soak: master_seed=" +
                         std::to_string(master_seed) + " cases=" +
                         std::to_string(cases) + " ===\n";
  std::uint64_t failures = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const SoakCase& c = specs[i];
    const chaos::ConvergenceResult& r = results[i];
    const std::string name(chaos::corrupt_state_name(c.cls));
    const char* topo = c.clos ? "clos-64" : "fig2-16";
    artifact += "--- case " + std::to_string(i) + ": class=" + name +
                " seed=" + std::to_string(c.seed) + " topo=" + topo +
                " ---\n" + r.dsl;
    if (r.converged()) {
      artifact += "result: " + verdict(r);
      continue;
    }
    ++failures;
    artifact += r.chaos_log + "fw: " + r.fw_stats + "\nresult: " + verdict(r);
    std::printf("soak case %zu FAILED: class=%s seed=%llu topo=%s\n", i,
                name.c_str(), static_cast<unsigned long long>(c.seed), topo);
    for (const std::string& v : r.violations) {
      std::printf("  violation: %s\n", v.c_str());
    }
  }
  artifact += "=== soak verdict: " + std::to_string(cases - failures) + "/" +
              std::to_string(cases) + " converged ===\n";
  if (log_path != nullptr && !bench::write_file(log_path, artifact)) return 1;
  std::printf("corruption soak: %llu/%llu converged%s\n",
              static_cast<unsigned long long>(cases - failures),
              static_cast<unsigned long long>(cases),
              failures == 0 ? "" : " — replay with --soak <master_seed>");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool scale = false;
  bool compare = false;
  bool corrupt_smoke = false;
  std::optional<std::uint64_t> soak_seed;
  std::uint64_t soak_cases = 30;
  std::uint64_t jobs = 1;
  const char* json_path = nullptr;
  const char* metrics_path = nullptr;
  const char* log_path = nullptr;
  if (!bench::parse_flags(argc, argv,
                          {{"--quick", quick},
                           {"--scale", scale},
                           {"--compare", compare},
                           {"--json", "<file>", json_path},
                           {"--metrics-json", "<file>", metrics_path},
                           {"--log", "<file>", log_path},
                           {"--jobs", "<N>", jobs},
                           {"--corrupt-smoke", corrupt_smoke},
                           {"--soak", "<seed>", soak_seed},
                           // An empty soak would pass without testing.
                           {"--soak-cases", "<N>", soak_cases, 1}})) {
    return 2;
  }

  if (corrupt_smoke) return run_corrupt_smoke(jobs, log_path, metrics_path);
  if (soak_seed) return run_soak(jobs, *soak_seed, soak_cases, log_path);

  const std::uint64_t total_requests = (quick || scale || compare) ? 1500 : 6000;
  const double rate_rps = (quick || scale || compare) ? 50000 : 100000;
  const std::size_t num_clients = (quick || scale || compare) ? 64 : 250;

  // The 64-host k=8 fat-tree cells: kill one spine crossbar, and partition a
  // server, at scale. Both outlive the permanent-failure threshold, so clean
  // invariants here certify remap + redelivery on the large fabric.
  const std::vector<CellSpec> scale_specs = {
      {"spine-death", 64, true, true, harness::TopoKind::kClos},
      {"partition-heal", 64, true, true, harness::TopoKind::kClos},
      {"spine-death-placement", 64, false, false, harness::TopoKind::kClos,
       /*placement_cell=*/true, /*pod_aware=*/true},
      {"spine-death-random", 64, false, false, harness::TopoKind::kClos,
       /*placement_cell=*/true, /*pod_aware=*/false},
  };

  // Quick: one cell per scenario class across all three fabric sizes (the
  // CI smoke + determinism gate). Scale: just the 64-host Clos cells, at
  // quick workload intensity. Full: every scenario on every Figure-2 size,
  // plus the scale cells.
  // --compare: each scenario twice — the on-demand baseline and the
  // proactive-backup mapper — on the Figure-2 16-host and Clos 64-host
  // fabrics (docs/EXPERIMENTS.md "TTFR comparison sweep"). Gated below:
  // on link-kill cells the proactive median per-destination TTFR must be
  // strictly lower, and retransmission amplification must be no worse
  // anywhere. partition-heal is the deliberate non-win control: the victim's
  // access link is its only attachment, every backup is stale at promote
  // time, and recovery must correctly fall back to probing.
  const std::vector<CellSpec> compare_specs = {
      {"link-kill", 16, true, true},
      {"partition-heal", 16, true, true},
      {"link-kill", 64, true, true, harness::TopoKind::kClos},
      {"spine-death", 64, true, true, harness::TopoKind::kClos},
  };

  std::vector<CellSpec> specs;
  if (compare) {
    for (const CellSpec& base : compare_specs) {
      CellSpec od = base;
      od.proactive = false;
      specs.push_back(od);
      CellSpec pro = base;
      pro.proactive = true;
      specs.push_back(pro);
    }
  } else if (quick) {
    specs = {
        {"link-kill", 8, true, true},
        {"flap-train", 8, true, false},
        {"partition-heal", 8, true, true},
        {"error-ramp", 4, false, false},
        {"compound", 16, true, false},
        {"spine-death-placement", 16, false, false, harness::TopoKind::kClos,
         /*placement_cell=*/true, /*pod_aware=*/true},
        {"spine-death-random", 16, false, false, harness::TopoKind::kClos,
         /*placement_cell=*/true, /*pod_aware=*/false},
    };
  } else if (scale) {
    specs = scale_specs;
  } else {
    for (const std::size_t n : {std::size_t{4}, std::size_t{8},
                                std::size_t{16}}) {
      specs.push_back({"link-kill", n, true, true});
      specs.push_back({"flap-train", n, true, false});
      specs.push_back({"switch-death", n, true, false});
      specs.push_back({"partition-heal", n, true, true});
      specs.push_back({"error-ramp", n, false, false});
      specs.push_back({"compound", n, true, false});
    }
    specs.insert(specs.end(), scale_specs.begin(), scale_specs.end());
  }

  std::printf(
      "Chaos campaign: KV service + open-loop traffic on Figure-2 fabrics, "
      "%llu requests @ %.0fk rps per cell, %zu cells\n\n",
      static_cast<unsigned long long>(total_requests), rate_rps / 1e3,
      specs.size());

  const std::vector<CellResult> rows =
      bench::run_cells(jobs, specs, [&](const CellSpec& spec) {
        return run_cell(spec, total_requests, rate_rps, num_clients,
                        metrics_path != nullptr);
      });

  bool all_ok = true;
  if (compare) {
    // Pairwise view: rows alternate on-demand / proactive per scenario.
    harness::Table t({"Scenario", "Hosts", "Mapper", "TTFRmed(us)",
                      "TTFRdest", "Promoted", "Probed", "StaleRej", "RetxAmp",
                      "Audit", "Invariants"});
    for (const CellResult& r : rows) {
      const auto& rec = r.recovery;
      t.add_row({r.spec.scenario, std::to_string(r.spec.hosts),
                 r.spec.proactive ? "proactive" : "on-demand",
                 rec.ttfr_dest_samples > 0
                     ? harness::fmt(sim::to_micros(median_ttfr(rec)), 1)
                     : "-",
                 std::to_string(rec.ttfr_dest_samples),
                 std::to_string(rec.remap_conv_promoted),
                 std::to_string(rec.remap_conv_probed),
                 std::to_string(r.backup_stale_rejections),
                 harness::fmt(rec.retrans_amplification(), 3),
                 r.audit.ok() ? "OK" : "FAIL",
                 r.violations.empty() ? "OK" : "FAIL"});
    }
    t.print();

    for (std::size_t i = 0; i + 1 < rows.size(); i += 2) {
      const CellResult& od = rows[i];
      const CellResult& pro = rows[i + 1];
      const sim::Duration m_od = median_ttfr(od.recovery);
      const sim::Duration m_pro = median_ttfr(pro.recovery);
      const bool is_link_kill =
          std::strcmp(od.spec.scenario, "link-kill") == 0;
      if (is_link_kill) {
        // The headline gate: promotion moves the probe storm off the
        // failover critical path, so the median per-destination TTFR must
        // strictly beat the probing baseline on every link-kill cell.
        if (m_od == 0 || m_pro == 0 || m_pro >= m_od) {
          std::printf(
              "COMPARE GATE FAILED [%s/%zu]: proactive median TTFR %.1f us "
              "not strictly below on-demand %.1f us\n",
              od.spec.scenario, od.spec.hosts, sim::to_micros(m_pro),
              sim::to_micros(m_od));
          all_ok = false;
        }
        if (pro.recovery.remap_conv_promoted == 0) {
          std::printf(
              "COMPARE GATE FAILED [%s/%zu]: no promoted remap convergence "
              "(backups never used)\n",
              od.spec.scenario, od.spec.hosts);
          all_ok = false;
        }
      }
      // Promotion must not pay for speed with duplicate traffic: the
      // retransmission amplification may not regress (small slack for
      // timing-shift noise between the two runs).
      const double amp_od = od.recovery.retrans_amplification();
      const double amp_pro = pro.recovery.retrans_amplification();
      if (amp_pro > amp_od * 1.05 + 0.005) {
        std::printf(
            "COMPARE GATE FAILED [%s/%zu]: retransmission amplification "
            "regressed (%.4f -> %.4f)\n",
            od.spec.scenario, od.spec.hosts, amp_od, amp_pro);
        all_ok = false;
      }
    }
  } else {
    harness::Table t({"Scenario", "Hosts", "Goodput(rps)", "Avail", "TTFR(us)",
                      "RemapConv(us)", "GenRestarts", "RetxAmp", "DipArea",
                      "Quorum", "Audit", "Invariants"});
    for (const CellResult& r : rows) {
      const auto& rec = r.recovery;
      t.add_row({r.spec.scenario, std::to_string(r.spec.hosts),
                 harness::fmt(r.goodput_rps, 0),
                 harness::fmt(r.availability, 4),
                 rec.ttfr_samples > 0
                     ? harness::fmt(sim::to_micros(rec.ttfr_first), 1)
                     : "-",
                 rec.remap_convergences > 0
                     ? harness::fmt(sim::to_micros(rec.remap_conv_max), 1)
                     : "-",
                 std::to_string(rec.gen_restarts),
                 harness::fmt(rec.retrans_amplification(), 3),
                 harness::fmt(rec.goodput_dip_area, 0),
                 !r.spec.placement_cell ? "-"
                 : r.quorum_held        ? "held"
                                        : "lost",
                 r.audit.ok() ? "OK" : "FAIL",
                 r.violations.empty() ? "OK" : "FAIL"});
    }
    t.print();
  }
  for (const CellResult& r : rows) {
    for (const std::string& v : r.violations) {
      std::printf("INVARIANT VIOLATION [%s/%zu hosts]: %s\n", r.spec.scenario,
                  r.spec.hosts, v.c_str());
      all_ok = false;
    }
    if (!r.audit.ok()) all_ok = false;
  }
  std::printf("\nchaos invariants: %s\n",
              all_ok ? "all cells OK" : "VIOLATIONS");

  if (json_path != nullptr) {
    all_ok &= bench::write_file(json_path, bench::json_rows(rows, json_fields));
  }
  if (metrics_path != nullptr) {
    all_ok &= bench::write_file(metrics_path,
                                bench::metrics_array(rows, metrics_cell));
  }
  if (log_path != nullptr) {
    all_ok &= bench::write_file(log_path, event_log(rows));
  }
  return all_ok ? 0 : 1;
}
