// Repair-bandwidth vs foreground-goodput sweep: the erasure-coded striped
// object class (src/ec, src/kv striped/repair) under a clos host kill, with
// the online SNS-style repair machines rebuilding the dead server's units
// while the primary-backup KV service keeps serving an open-loop foreground
// workload over the same fabric.
//
// Per cell (throttle level x foreground load): preload a striped keyspace,
// run the foreground traffic, kill one unit-holding server at the p25 phase,
// let SWIM confirm, read the whole striped keyspace back mid-repair (degraded
// reads must return exact bytes), then drain repair and audit. The cell
// reports foreground goodput, the repair drain time, and the observed repair
// bandwidth — the sweep is the "repair bandwidth vs goodput dip" experiment
// in docs/EXPERIMENTS.md.
//
// Hard gates (non-zero exit on violation — this is a CI gate):
//   * completeness — every committed stripe decodes and is whole again on
//     live holders (extended exactly-once audit, audit_striped);
//   * the foreground service's own exactly-once audit stays clean;
//   * no live repair machine abandons a stripe, and the kill cost units;
//   * throttled cells: the token bucket engaged and was never overdrawn
//     (moved bytes <= bucket + overdraft + refill since the kill);
//   * tighter throttles drain strictly no faster, and the most-throttled
//     cell's goodput stays within 10% of the unthrottled cell at the same
//     load — the goodput dip is bounded by the throttle.
//
//   ./build/bench/bench_repair [--quick] [--json <file>]
//                              [--metrics-json <file>] [--log <file>]
//                              [--jobs <N>]
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <unordered_map>
#include <string_view>
#include <vector>

#include "harness/cluster.hpp"
#include "harness/table.hpp"
#include "kv/audit.hpp"
#include "kv/rig.hpp"
#include "membership/swim.hpp"
#include "obs/metrics.hpp"
#include "sim/process.hpp"
#include "sweep.hpp"
#include "traffic/engine.hpp"

namespace {

using namespace sanfault;

struct RepairCellSpec {
  /// Repair token-bucket rate in bytes/sec; 0 = unthrottled.
  std::uint64_t throttle = 0;
  /// Foreground open-loop request rate.
  double rate_rps = 50'000;
  std::size_t hosts = 64;  // 64 -> clos-64 (k=8), 16 -> clos-16 (k=4)
  /// Only the tightest throttle is slow enough that the mid-repair read
  /// battery is guaranteed to catch un-repaired stripes (degraded reads).
  bool expect_degraded = false;
};

struct RepairCellResult {
  RepairCellSpec spec;
  std::uint64_t issued = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  double goodput_rps = 0;
  double availability = 0;
  std::uint64_t stripes_repaired = 0;
  std::uint64_t stripes_abandoned = 0;  // live machines only
  std::uint64_t units_rebuilt = 0;
  std::uint64_t repair_bytes = 0;       // fetched + written, live machines
  std::uint64_t throttle_waits = 0;
  sim::Duration repair_drain = 0;       // kill -> all live machines idle
  double repair_bw_bps = 0;             // repair_bytes / repair_drain
  std::uint64_t degraded_reads = 0;
  std::uint64_t reads_ok = 0;
  std::uint64_t reads_exact = 0;
  std::uint64_t read_total = 0;
  bool throttle_bound_ok = true;
  kv::StripedAuditResult striped_audit;
  kv::AuditResult kv_audit;
  std::uint64_t live_mismatches = 0;  // replica divergence off-victim shards
  bool foreground_ok = false;
  std::string event_log;      // per-machine repair stats + event lines
  std::string metrics_json;
  std::vector<std::string> violations;
};

/// Replica-divergence count over the shards that do NOT touch the victim.
/// On the victim's own shards, a write in flight at the kill legitimately
/// leaves one-sided residue (e.g. the backup applied and acked, but the ack
/// could not reach the dead primary, which therefore never applied) — and no
/// such write was ever acknowledged to a client, so lost/duplicated/alien
/// from the full audit still gate those shards. Live shards get the strict
/// two-replica divergence check.
std::uint64_t live_shard_mismatches(
    const kv::ShardMap& map, const std::vector<const kv::KvServer*>& servers,
    net::HostId victim) {
  std::unordered_map<std::uint32_t, const kv::KvServer*> by_host;
  for (const auto* s : servers) by_host[s->host().v] = s;
  std::uint64_t mismatches = 0;
  for (std::size_t shard = 0; shard < map.num_shards(); ++shard) {
    if (map.primary(shard).v == victim.v || map.backup(shard).v == victim.v) {
      continue;
    }
    const kv::KvServer* prim = by_host.at(map.primary(shard).v);
    const kv::KvServer* back = by_host.at(map.backup(shard).v);
    for (const auto& [key, value] : prim->store()) {
      if (map.shard_of(key) != shard) continue;
      const auto bit = back->store().find(key);
      if (bit == back->store().end() || bit->second != value) ++mismatches;
    }
    for (const auto& [key, value] : back->store()) {
      if (map.shard_of(key) != shard) continue;
      if (!prim->store().contains(key)) ++mismatches;
    }
  }
  return mismatches;
}

/// Tally for the mid-repair striped read battery.
struct ReadTally {
  std::uint64_t ok = 0;
  std::uint64_t exact = 0;
  std::uint64_t total = 0;
  bool done = false;
};

constexpr std::uint32_t kObjectLen = 512;  // 6 units x ~128 B per stripe

RepairCellResult run_repair_cell(const RepairCellSpec& spec,
                                 std::uint64_t total_requests,
                                 std::size_t num_clients,
                                 std::uint64_t preload_keys,
                                 bool want_metrics) {
  kv::KvRigConfig rc;
  rc.num_servers = spec.hosts == 64 ? 16 : spec.hosts / 2;
  rc.num_client_hosts = spec.hosts - rc.num_servers;
  rc.cluster.topo = harness::TopoKind::kClos;
  rc.cluster.fw = harness::FirmwareKind::kReliable;
  rc.cluster.mapper = harness::MapperKind::kOnDemand;
  rc.cluster.nic.send_buffers = 64;
  rc.cluster.rel.fail_threshold = sim::milliseconds(10);
  rc.cluster.rel.fail_min_rounds = 8;
  // Configured-deployment mapper mode for clos remaps (see bench_chaos).
  rc.cluster.clos.k = spec.hosts <= 16 ? 4 : 8;
  rc.cluster.ondemand.configured_identity = true;
  rc.cluster.ondemand.multipath = true;
  rc.cluster.ondemand.max_probes = std::size_t{1} << 17;
  rc.cluster.ondemand.probe_timeout = sim::microseconds(30);
  rc.membership = true;
  rc.pod_aware_placement = true;
  rc.ring_per_peer = 16 * 1024;
  // Congestion-tolerant failure detection: SWIM pings share the fabric with
  // the foreground bursts, and the library's test-tuned 200 us / 3 ms
  // timeouts false-confirm live peers under 100 krps of KV traffic — which
  // the repair machines would then "repair". Production-style margins keep
  // detection honest; the read battery and drain poller scale with
  // detection_bound(), so cells stay comparable.
  rc.swim.protocol_period = sim::milliseconds(2);
  rc.swim.probe_timeout = sim::milliseconds(1);
  rc.swim.suspect_timeout = sim::milliseconds(20);
  rc.striped = true;
  rc.repair.bandwidth_bytes_per_sec = spec.throttle;
  // A small bucket keeps throttled repair genuinely paced (per-machine moved
  // bytes exceed the burst, so the token bucket engages and the degraded-read
  // window stays open); unthrottled cells never consult it.
  rc.repair.burst_bytes = 512;
  rc.repair.log_events = true;
  kv::KvRig rig(rc);

  // Preload the striped keyspace — the repair corpus.
  kv::StripedShadow shadow;
  bool preloaded = false;
  [](kv::KvRig& rig, kv::StripedShadow& shadow, std::uint64_t keys,
     bool& done) -> sim::Process {
    auto& sc = rig.striped_client(0);
    for (std::uint64_t key = 0; key < keys; ++key) {
      const kv::RequestId id{99, key + 1};
      shadow.record_issued(id, key, kObjectLen);
      auto put = co_await sc.put(id, key, kv::make_value(id, kObjectLen));
      if (put.status == kv::Status::kOk) shadow.record_committed(id);
    }
    done = true;
  }(rig, shadow, preload_keys, preloaded);
  while (!preloaded && rig.c.sched.step()) {
  }

  RepairCellResult r;
  r.spec = spec;
  if (shadow.committed().size() != preload_keys) {
    r.violations.push_back("preload incomplete: " +
                           std::to_string(shadow.committed().size()) + "/" +
                           std::to_string(preload_keys));
    return r;
  }

  // Foreground: the production primary-backup KV workload.
  traffic::TrafficConfig tc;
  tc.num_clients = num_clients;
  tc.total_requests = total_requests;
  tc.rate_rps = spec.rate_rps;
  tc.zipf_theta = 0.99;
  // Read-only foreground, by design. The primary-backup write path has no
  // re-replication: a write to a shard whose primary died is forwarded by
  // the failed-over backup straight back to the corpse, where it retries
  // its full retransmission budget. Sustained post-kill writes therefore
  // measure that doomed-forwarding storm (it starves NIC send buffers until
  // SWIM false-confirms the whole fabric), not repair interference. Reads
  // fail over to the backup and keep serving — the contended-but-healthy
  // baseline this sweep needs.
  tc.get_ratio = 1.0;
  tc.del_ratio = 0.0;
  tc.seed = 42;
  traffic::TrafficEngine traffic(rig.c.sched, rig.client_view(), tc);

  // At p25: kill a unit-holding server for good, then — once SWIM has had
  // time to confirm — read the whole striped keyspace back mid-repair.
  const net::HostId victim = rig.c.hosts[5];
  ReadTally tally;
  tally.total = preload_keys;
  bool killed = false;
  sim::Time t_kill = 0;
  sim::Time t_drained = 0;
  // Sim-clock poller armed at the kill: the drain stamp is taken the
  // millisecond every live machine has both enqueued work (i.e. SWIM
  // confirmed) and gone idle again — repair usually finishes while the
  // foreground traffic is still running, so sampling after traffic would
  // right-censor every cell to the same timestamp.
  std::function<void()> poll_drained = [&] {
    bool enqueued = false;
    bool idle = true;
    for (const auto& rm : rig.repairs) {
      if (rm->host() == victim) continue;
      enqueued |= rm->stats().stripes_enqueued > 0;
      idle &= rm->idle();
    }
    if (enqueued && idle) {
      t_drained = rig.c.sched.now();
      return;
    }
    rig.c.sched.after(sim::milliseconds(1), poll_drained);
  };
  traffic.set_phase_hook([&](std::string_view phase) {
    if (phase != "p25" || killed) return;
    killed = true;
    t_kill = rig.c.sched.now();
    rig.c.fabric().cut_host(victim);
    poll_drained();
    const sim::Duration bound = membership::SwimAgent::detection_bound(
        rig.config().swim, rig.c.size());
    rig.c.sched.after(bound + sim::milliseconds(2), [&rig, &shadow, &tally] {
      [](kv::KvRig& rig, const kv::StripedShadow& shadow,
         ReadTally& tally) -> sim::Process {
        auto& sc = rig.striped_client(1);
        for (const auto& [packed, w] : shadow.issued()) {
          auto get = co_await sc.get({98, w.id.seq}, w.key);
          if (get.status == kv::Status::kOk) {
            ++tally.ok;
            if (get.value == kv::make_value(w.id, w.object_len)) ++tally.exact;
          }
        }
        tally.done = true;
      }(rig, shadow, tally);
    });
  });
  const sim::Time t_traffic = rig.c.sched.now();  // preload already elapsed
  traffic.start();

  const sim::Time cap = sim::seconds(600);
  while (!traffic.done() && rig.c.sched.now() < cap && rig.c.sched.step()) {
  }
  const double elapsed_s = sim::to_seconds(rig.c.sched.now() - t_traffic);
  while (!tally.done && rig.c.sched.now() < cap && rig.c.sched.step()) {
  }

  // If repair outlasted the foreground run, keep driving until the poller
  // stamps the drain.
  while (killed && t_drained == 0 && rig.c.sched.now() < cap) {
    rig.c.sched.run_for(sim::milliseconds(1));
  }
  rig.quiesce();

  const auto& s = traffic.stats();
  r.issued = s.issued;
  r.ok = s.ok;
  r.failed = s.failed;
  r.goodput_rps = elapsed_s > 0 ? static_cast<double>(s.ok) / elapsed_s : 0;
  r.availability = s.availability();
  r.degraded_reads = rig.striped_client(1).stats().degraded_reads;
  r.reads_ok = tally.ok;
  r.reads_exact = tally.exact;
  r.read_total = tally.total;
  r.repair_drain = killed && t_drained > t_kill ? t_drained - t_kill : 0;

  std::string log;
  for (const auto& rm : rig.repairs) {
    if (rm->host() == victim) continue;
    const auto& st = rm->stats();
    r.stripes_repaired += st.stripes_repaired;
    r.stripes_abandoned += st.stripes_abandoned;
    r.units_rebuilt += st.units_rebuilt;
    r.repair_bytes += st.bytes_fetched + st.bytes_written;
    r.throttle_waits += st.throttle_waits;
    if (spec.throttle > 0 && killed) {
      const std::uint64_t moved = st.bytes_fetched + st.bytes_written;
      const std::uint64_t budget =
          2 * rc.repair.burst_bytes +
          spec.throttle * (t_drained - t_kill) / 1'000'000'000ull;
      if (moved > budget) r.throttle_bound_ok = false;
    }
    log += "node " + std::to_string(rm->host().v) +
           " enq=" + std::to_string(st.stripes_enqueued) +
           " rep=" + std::to_string(st.stripes_repaired) +
           " aband=" + std::to_string(st.stripes_abandoned) +
           " units=" + std::to_string(st.units_rebuilt) +
           " fetched=" + std::to_string(st.bytes_fetched) +
           " written=" + std::to_string(st.bytes_written) +
           " waits=" + std::to_string(st.throttle_waits) + "\n";
    for (const std::string& line : rm->log()) log += "  " + line + "\n";
  }
  r.event_log = std::move(log);
  r.repair_bw_bps =
      r.repair_drain > 0
          ? static_cast<double>(r.repair_bytes) /
                (static_cast<double>(r.repair_drain) / 1e9)
          : 0;

  const auto dead = [&rig](net::HostId h) {
    return rig.agents[0]->confirmed_dead(h);
  };
  r.striped_audit = kv::audit_striped(*rig.stripe_map, *rig.codec,
                                      rig.store_view(), shadow, dead);
  r.kv_audit = kv::audit(*rig.map, rig.server_view(), traffic.shadow());
  r.live_mismatches = live_shard_mismatches(*rig.map, rig.server_view(), victim);
  r.foreground_ok = r.kv_audit.lost == 0 && r.kv_audit.duplicated == 0 &&
                    r.kv_audit.alien_values == 0 && r.live_mismatches == 0;

  // --- per-cell gates -------------------------------------------------------
  if (!killed) r.violations.emplace_back("p25 never fired; no kill");
  if (!rig.agents[0]->confirmed_dead(victim)) {
    r.violations.emplace_back("SWIM never confirmed the victim dead");
  }
  if (!r.striped_audit.ok()) {
    r.violations.push_back(
        "striped audit: lost=" + std::to_string(r.striped_audit.lost) +
        " mismatched=" + std::to_string(r.striped_audit.mismatched) +
        " duplicated=" + std::to_string(r.striped_audit.duplicated) +
        " incomplete=" + std::to_string(r.striped_audit.incomplete) +
        " alien=" + std::to_string(r.striped_audit.alien_units));
  }
  if (!r.foreground_ok) {
    r.violations.push_back(
        "foreground KV audit: lost=" + std::to_string(r.kv_audit.lost) +
        " duplicated=" + std::to_string(r.kv_audit.duplicated) +
        " live_shard_mismatches=" + std::to_string(r.live_mismatches) +
        " alien=" + std::to_string(r.kv_audit.alien_values));
  }
  if (r.stripes_abandoned != 0) {
    r.violations.push_back("live machines abandoned " +
                           std::to_string(r.stripes_abandoned) + " stripes");
  }
  if (r.stripes_repaired == 0 || r.units_rebuilt == 0) {
    r.violations.emplace_back("the kill cost no units; cell proves nothing");
  }
  if (!tally.done || tally.ok != tally.total || tally.exact != tally.total) {
    r.violations.push_back("mid-repair reads: " + std::to_string(tally.exact) +
                           "/" + std::to_string(tally.total) + " byte-exact");
  }
  if (spec.expect_degraded && r.degraded_reads == 0) {
    r.violations.emplace_back(
        "no degraded read despite the squeezed throttle");
  }
  if (spec.throttle > 0) {
    if (!r.throttle_bound_ok) {
      r.violations.emplace_back("token bucket overdrawn");
    }
    if (r.throttle_waits == 0) {
      r.violations.emplace_back("throttle never engaged");
    }
  }

  if (want_metrics) r.metrics_json = obs::Registry::of(rig.c.sched).to_json();
  return r;
}

bench::Fields json_fields(const RepairCellResult& r) {
  return {{"hosts", r.spec.hosts},
          {"throttle_bps", r.spec.throttle},
          {"load_rps", r.spec.rate_rps, 0},
          {"issued", r.issued},
          {"ok", r.ok},
          {"failed", r.failed},
          {"goodput_rps", r.goodput_rps, 1},
          {"availability", r.availability, 6},
          {"stripes_repaired", r.stripes_repaired},
          {"units_rebuilt", r.units_rebuilt},
          {"repair_bytes", r.repair_bytes},
          {"repair_drain_ns", r.repair_drain},
          {"repair_bw_bps", r.repair_bw_bps, 1},
          {"throttle_waits", r.throttle_waits},
          {"degraded_reads", r.degraded_reads},
          {"reads_exact", r.reads_exact},
          {"read_total", r.read_total},
          {"striped_audit_ok", r.striped_audit.ok()},
          {"kv_audit_ok", r.foreground_ok},
          {"violations", r.violations.size()}};
}

bench::Fields metrics_cell(const RepairCellResult& r) {
  return {{"scenario", "repair-" + std::to_string(r.spec.throttle) + "-" +
                           harness::fmt(r.spec.rate_rps, 0)},
          {"hosts", r.spec.hosts}};
}

/// Concatenated per-cell repair event logs + integer stats — the
/// byte-comparable determinism artifact (scripts/same_behaviour.sh compares
/// it across runs and builds).
std::string event_log(const std::vector<RepairCellResult>& rows) {
  std::string out;
  for (const RepairCellResult& r : rows) {
    out += "=== hosts=" + std::to_string(r.spec.hosts) +
           " throttle=" + std::to_string(r.spec.throttle) +
           " load=" + harness::fmt(r.spec.rate_rps, 0) + " ===\n" +
           r.event_log;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::uint64_t jobs = 1;
  const char* json_path = nullptr;
  const char* metrics_path = nullptr;
  const char* log_path = nullptr;
  if (!bench::parse_flags(argc, argv,
                          {{"--quick", quick},
                           {"--json", "<file>", json_path},
                           {"--metrics-json", "<file>", metrics_path},
                           {"--log", "<file>", log_path},
                           {"--jobs", "<N>", jobs}})) {
    return 2;
  }
  // The throttle sweep. 20 kB/s stretches the drain to hundreds of
  // milliseconds — comfortably past the detection bound, so the mid-repair
  // read battery provably lands in the degraded window; 2 MB/s is two
  // orders of magnitude looser; 0 lets repair stampede. Quick runs the two
  // extremes on the clos-16 fabric — still >= 2 throttle levels for the
  // dip gate.
  std::vector<RepairCellSpec> specs;
  std::uint64_t total_requests = 0;
  std::size_t num_clients = 0;
  std::uint64_t preload_keys = 0;
  if (quick) {
    total_requests = 1200;
    num_clients = 64;
    preload_keys = 32;
    specs = {
        {/*throttle=*/0, /*rate_rps=*/50'000, /*hosts=*/16},
        {/*throttle=*/20'000, /*rate_rps=*/50'000, /*hosts=*/16,
         /*expect_degraded=*/true},
    };
  } else {
    total_requests = 3000;
    num_clients = 128;
    preload_keys = 64;
    for (const double rate : {25'000.0, 100'000.0}) {
      specs.push_back({0, rate, 64});
      specs.push_back({2'000'000, rate, 64});
      specs.push_back({20'000, rate, 64, /*expect_degraded=*/true});
    }
  }

  std::printf(
      "Repair sweep: striped keyspace + host kill + SNS repair vs foreground "
      "KV traffic on clos fabrics, %llu requests per cell, %zu cells\n\n",
      static_cast<unsigned long long>(total_requests), specs.size());

  const std::vector<RepairCellResult> rows =
      bench::run_cells(jobs, specs, [&](const RepairCellSpec& spec) {
        return run_repair_cell(spec, total_requests, num_clients, preload_keys,
                               metrics_path != nullptr);
      });

  harness::Table t({"Hosts", "Throttle(B/s)", "Load(rps)", "Goodput(rps)",
                    "Avail", "Repaired", "Units", "RepairKB", "Drain(ms)",
                    "RepairBW(B/s)", "Degraded", "Audit"});
  for (const RepairCellResult& r : rows) {
    t.add_row({std::to_string(r.spec.hosts),
               r.spec.throttle == 0 ? "unthrottled"
                                    : std::to_string(r.spec.throttle),
               harness::fmt(r.spec.rate_rps, 0), harness::fmt(r.goodput_rps, 0),
               harness::fmt(r.availability, 4),
               std::to_string(r.stripes_repaired),
               std::to_string(r.units_rebuilt),
               harness::fmt(static_cast<double>(r.repair_bytes) / 1024.0, 1),
               harness::fmt(static_cast<double>(r.repair_drain) / 1e6, 1),
               harness::fmt(r.repair_bw_bps, 0),
               std::to_string(r.degraded_reads),
               r.striped_audit.ok() && r.foreground_ok ? "OK" : "FAIL"});
  }
  t.print();

  bool all_ok = true;
  for (const RepairCellResult& r : rows) {
    for (const std::string& v : r.violations) {
      std::printf("REPAIR GATE FAILED [throttle=%llu load=%.0f]: %s\n",
                  static_cast<unsigned long long>(r.spec.throttle),
                  r.spec.rate_rps, v.c_str());
      all_ok = false;
    }
  }

  // Cross-cell gates, per load group: tighter throttles must not drain
  // faster, and the tightest throttle's goodput must stay within 10% of the
  // unthrottled cell's — the foreground dip is bounded by the throttle.
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::size_t j = 0; j < rows.size(); ++j) {
      const RepairCellResult& a = rows[i];
      const RepairCellResult& b = rows[j];
      if (a.spec.rate_rps != b.spec.rate_rps ||
          a.spec.hosts != b.spec.hosts) {
        continue;
      }
      const std::uint64_t ta =
          a.spec.throttle == 0 ? std::uint64_t(-1) : a.spec.throttle;
      const std::uint64_t tb =
          b.spec.throttle == 0 ? std::uint64_t(-1) : b.spec.throttle;
      if (ta < tb && a.repair_drain < b.repair_drain) {
        std::printf(
            "REPAIR GATE FAILED [load=%.0f]: throttle %llu drained slower "
            "(%.1f ms) than tighter throttle %llu (%.1f ms)\n",
            a.spec.rate_rps, static_cast<unsigned long long>(b.spec.throttle),
            static_cast<double>(b.repair_drain) / 1e6,
            static_cast<unsigned long long>(a.spec.throttle),
            static_cast<double>(a.repair_drain) / 1e6);
        all_ok = false;
      }
      if (a.spec.throttle == 0 && b.spec.expect_degraded &&
          b.goodput_rps < a.goodput_rps * 0.9) {
        std::printf(
            "REPAIR GATE FAILED [load=%.0f]: throttled goodput %.0f rps "
            "dipped >10%% below unthrottled %.0f rps\n",
            a.spec.rate_rps, b.goodput_rps, a.goodput_rps);
        all_ok = false;
      }
    }
  }
  std::printf("\nrepair gates: %s\n", all_ok ? "all cells OK" : "FAILURES");

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
