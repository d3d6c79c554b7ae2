// Service-level benchmark: the firmware as *infrastructure* rather than as
// the benchmark subject. A sharded primary-backup KV service (src/kv) runs
// on 4 server nodes of the Figure-2 redundant fabric while an open-loop
// client population (src/traffic) drives it; the sweep crosses client count
// x injected error rate x fault campaign:
//
//   steady    — transient drops only (the paper's §5.1.3 injection);
//   link-kill — same drops, plus one trunk link dies permanently mid-run,
//               exercising failure declaration, on-demand re-mapping,
//               generation restart and client failover under live load.
//
// Reported per cell: achieved throughput/goodput, availability, retries,
// client failovers, firmware path failures, and p50/p90/p99/p99.9 latency
// from the HDR histogram — plus a post-run consistency audit proving no
// committed write was lost or duplicated (exactly-once atop at-least-once).
//
//   ./build/bench/bench_kv_service [--quick] [--json <file>]
#include <cstdio>
#include <string>
#include <vector>

#include "harness/table.hpp"
#include "kv/audit.hpp"
#include "kv/rig.hpp"
#include "obs/metrics.hpp"
#include "sweep.hpp"
#include "traffic/engine.hpp"

namespace {

using namespace sanfault;

struct RunSpec {
  std::size_t clients;
  const char* err_name;
  std::uint64_t drop_interval;  // 0 = clean
  bool link_kill;
};

struct RunResult {
  RunSpec spec;
  double elapsed_ms = 0;
  std::uint64_t issued = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  double throughput_rps = 0;
  double goodput_rps = 0;
  double availability = 0;
  std::uint64_t retries = 0;
  std::uint64_t failovers = 0;
  std::uint64_t path_failures = 0;
  double p50_us = 0, p90_us = 0, p99_us = 0, p999_us = 0;
  kv::AuditResult audit;
  std::string metrics_json;  // full obs registry dump, if requested
};

RunResult run_cell(const RunSpec& spec, std::uint64_t total_requests,
                   double rate_rps, bool want_metrics) {
  kv::KvRigConfig rc;
  rc.num_servers = 4;
  rc.num_client_hosts = 4;
  rc.cluster.topo = harness::TopoKind::kFigure2;
  rc.cluster.fw = harness::FirmwareKind::kReliable;
  rc.cluster.mapper = harness::MapperKind::kOnDemand;
  rc.cluster.nic.send_buffers = 64;
  rc.cluster.rel.drop_interval = spec.drop_interval;
  // Fast permanent-failure declaration so the mid-run kill resolves within
  // the run (the paper's conservative default is tuned for hours-long jobs).
  rc.cluster.rel.fail_threshold = sim::milliseconds(10);
  rc.cluster.rel.fail_min_rounds = 8;
  kv::KvRig rig(rc);

  traffic::TrafficConfig tc;
  tc.num_clients = spec.clients;
  tc.total_requests = total_requests;
  tc.rate_rps = rate_rps;
  tc.zipf_theta = 0.99;
  tc.seed = 42;
  traffic::TrafficEngine engine(rig.c.sched, rig.client_view(), tc);
  engine.start();

  if (spec.link_kill) {
    // Halfway through the nominal run, kill one trunk of the first redundant
    // pair (sw8_a <-> sw16_a). Every preloaded shortest route crossing that
    // segment dies; the on-demand mapper must find the twin trunk.
    const double half_ns = 0.5 * 1e9 * static_cast<double>(total_requests) /
                           rate_rps;
    rig.c.sched.after(static_cast<sim::Duration>(half_ns), [&rig] {
      rig.c.topo.set_link_up(net::LinkId{0}, false);
    });
  }

  // Drive to completion (open-loop: the generator never stalls), then
  // quiesce: let in-flight replication and forwarded writes drain so the
  // audit sees final state.
  const sim::Time cap = sim::seconds(600);
  while (!engine.done() && rig.c.sched.now() < cap && rig.c.sched.step()) {
  }
  const double elapsed_ms = sim::to_millis(rig.c.sched.now());
  rig.c.sched.run_for(sim::milliseconds(100));  // stragglers (forwards) arrive
  const sim::Time quiesce_cap = rig.c.sched.now() + sim::seconds(10);
  while (!rig.servers_idle() && rig.c.sched.now() < quiesce_cap &&
         rig.c.sched.step()) {
  }
  rig.c.sched.run_for(sim::milliseconds(100));  // final applies + replies land

  RunResult r;
  r.spec = spec;
  r.elapsed_ms = elapsed_ms;
  const auto& s = engine.stats();
  r.issued = s.issued;
  r.ok = s.ok;
  r.failed = s.failed;
  r.throughput_rps = static_cast<double>(s.completed) / (elapsed_ms / 1e3);
  r.goodput_rps = static_cast<double>(s.ok) / (elapsed_ms / 1e3);
  r.availability = s.availability();
  r.retries = s.retries;
  r.failovers = s.failovers;
  r.p50_us = static_cast<double>(s.latency.quantile(0.50)) / 1e3;
  r.p90_us = static_cast<double>(s.latency.quantile(0.90)) / 1e3;
  r.p99_us = static_cast<double>(s.latency.quantile(0.99)) / 1e3;
  r.p999_us = static_cast<double>(s.latency.quantile(0.999)) / 1e3;
  for (std::size_t i = 0; i < rig.c.size(); ++i) {
    r.path_failures += rig.c.rel(i).stats().path_failures;
  }
  r.audit = kv::audit(*rig.map, rig.server_view(), engine.shadow());
  // Snapshot the cell's metrics registry while the rig is still alive (each
  // cell has its own scheduler, and with it its own registry).
  if (want_metrics) r.metrics_json = obs::Registry::of(rig.c.sched).to_json();
  return r;
}

const char* campaign(const RunSpec& spec) {
  return spec.link_kill ? "link-kill" : "steady";
}

bench::Fields json_fields(const RunResult& r) {
  return {{"clients", r.spec.clients},
          {"error_rate", r.spec.err_name},
          {"campaign", campaign(r.spec)},
          {"elapsed_ms", r.elapsed_ms, 3},
          {"issued", r.issued},
          {"ok", r.ok},
          {"failed", r.failed},
          {"throughput_rps", r.throughput_rps, 1},
          {"goodput_rps", r.goodput_rps, 1},
          {"availability", r.availability, 6},
          {"retries", r.retries},
          {"failovers", r.failovers},
          {"path_failures", r.path_failures},
          {"p50_us", r.p50_us, 1},
          {"p90_us", r.p90_us, 1},
          {"p99_us", r.p99_us, 1},
          {"p999_us", r.p999_us, 1},
          {"audit_ok", r.audit.ok()},
          {"lost_writes", r.audit.lost},
          {"dup_writes", r.audit.duplicated}};
}

// The cell key of each per-cell obs registry dump (the "metrics" value is
// the registry's own JSON — see docs/OBSERVABILITY.md for the schema and
// scripts/metrics_diff.py for the comparison tool).
bench::Fields metrics_cell(const RunResult& r) {
  return {{"clients", r.spec.clients},
          {"error_rate", r.spec.err_name},
          {"campaign", campaign(r.spec)}};
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::uint64_t jobs = 1;
  const char* json_path = nullptr;
  const char* metrics_path = nullptr;
  if (!bench::parse_flags(argc, argv,
                          {{"--quick", quick},
                           {"--json", "<file>", json_path},
                           {"--metrics-json", "<file>", metrics_path},
                           {"--jobs", "<N>", jobs}})) {
    return 2;
  }

  const std::uint64_t total_requests = quick ? 2000 : 10000;
  const double rate_rps = quick ? 50000 : 100000;
  const std::vector<std::size_t> client_counts =
      quick ? std::vector<std::size_t>{64}
            : std::vector<std::size_t>{250, 1000};
  struct Err {
    const char* name;
    std::uint64_t drop_interval;
  };
  const Err errs[] = {{"0", 0}, {"1e-4", 10000}, {"1e-3", 1000}};

  std::printf(
      "KV service sweep: 4 servers + 4 client hosts on the Figure-2 fabric, "
      "%llu requests @ %.0fk rps, Zipf(0.99)\n\n",
      static_cast<unsigned long long>(total_requests), rate_rps / 1e3);

  // Each cell owns its scheduler and registry; run them on a worker pool
  // (declaration-order results, so output is identical for any --jobs N).
  std::vector<RunSpec> specs;
  for (const std::size_t clients : client_counts) {
    for (const Err& e : errs) {
      for (const bool kill : {false, true}) {
        specs.push_back({clients, e.name, e.drop_interval, kill});
      }
    }
  }
  const std::vector<RunResult> rows =
      bench::run_cells(jobs, specs, [&](const RunSpec& spec) {
        return run_cell(spec, total_requests, rate_rps,
                        metrics_path != nullptr);
      });

  harness::Table t({"Clients", "Err", "Campaign", "Goodput(rps)", "Avail",
                    "p50(us)", "p90(us)", "p99(us)", "p99.9(us)", "Retries",
                    "Failovers", "PathFail", "Audit"});
  for (const RunResult& r : rows) {
    t.add_row({std::to_string(r.spec.clients), r.spec.err_name,
               campaign(r.spec), harness::fmt(r.goodput_rps, 0),
               harness::fmt(r.availability, 4), harness::fmt(r.p50_us, 1),
               harness::fmt(r.p90_us, 1), harness::fmt(r.p99_us, 1),
               harness::fmt(r.p999_us, 1), std::to_string(r.retries),
               std::to_string(r.failovers), std::to_string(r.path_failures),
               r.audit.ok() ? "OK" : "FAIL"});
  }
  t.print();

  bool all_ok = true;
  for (const RunResult& r : rows) all_ok = all_ok && r.audit.ok();
  std::printf("\nconsistency audit: %s (committed writes audited per cell; "
              "lost=%s dup=%s)\n",
              all_ok ? "all cells OK" : "FAILURES", all_ok ? "0" : "!=0",
              all_ok ? "0" : "!=0");

  if (json_path != nullptr) {
    all_ok &= bench::write_file(json_path, bench::json_rows(rows, json_fields));
  }
  if (metrics_path != nullptr) {
    all_ok &= bench::write_file(metrics_path,
                                bench::metrics_array(rows, metrics_cell));
  }
  return all_ok ? 0 : 1;
}
