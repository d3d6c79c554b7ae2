#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <optional>
#include <string_view>

#include "apps/fft.hpp"
#include "apps/radix.hpp"
#include "chaos/engine.hpp"
#include "chaos/recovery.hpp"
#include "chaos/scenario.hpp"
#include "derived.hpp"
#include "harness/cluster.hpp"
#include "kv/audit.hpp"
#include "kv/rig.hpp"
#include "membership/swim.hpp"
#include "obs/metrics.hpp"
#include "sim/process.hpp"
#include "traffic/engine.hpp"

namespace perfbench {

namespace {

using namespace sanfault;

// Run lengths. Every request workload keeps well over 10 samples beyond its
// p99.9 (the validity rule in derived.hpp).
constexpr std::uint64_t kKvRequests = 50'000;
constexpr std::uint64_t kRepairRequests = 60'000;
constexpr std::size_t kRepairClients = 128;
constexpr std::uint64_t kRepairPreloadKeys = 64;
constexpr std::uint32_t kObjectLen = 512;  // 6 units x ~128 B per stripe
constexpr std::size_t kRepairVictim = 5;
constexpr unsigned kFftLog2Points = 18;
constexpr int kFftIterations = 2;
constexpr std::size_t kRadixKeys = std::size_t{1} << 19;
constexpr sim::Time kCap = sim::seconds(600);

/// A library default reseeded by the workload seed; the committed default
/// seed reproduces the default exactly.
std::uint64_t reseed(std::uint64_t library_default, std::uint64_t seed) {
  return library_default ^ (seed ^ kDefaultSeed);
}

std::string fmt(const char* f, double a, double b = 0, double c = 0) {
  char buf[160];
  std::snprintf(buf, sizeof buf, f, a, b, c);
  return buf;
}

// --- registry reads ---------------------------------------------------------

/// Registry state at the phase boundaries of one simulation; traced repeats
/// only (each snapshot runs every collector).
struct Part {
  sim::Scheduler* sched = nullptr;
  CounterSnapshot run0, traffic_end, end;
  sim::Time t_run0 = 0, t_traffic_end = 0;
  std::uint64_t events = 0;  // executed from run start to the end
  std::size_t pending_max = 0;
};

sim::HdrHistogram merged_histogram(obs::Registry& reg,
                                   const std::string& schema) {
  sim::HdrHistogram h;
  for (const std::string& name : reg.names()) {
    if (schema_of(name) == schema) h.merge(reg.histogram(name).hist());
  }
  return h;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Per-layer values every workload reads the same way: registry counter
/// deltas from run start to the end (setup traffic excluded), utilisations
/// over the traffic window, and merged latency histograms.
void registry_layers(std::map<std::string, double>& L,
                     const std::vector<Part>& parts,
                     std::vector<std::string>& violations) {
  auto sum = [&parts](const std::string& schema) {
    double s = 0;
    for (const Part& p : parts) {
      s += static_cast<double>(schema_delta(p.run0, p.end, schema));
    }
    return s;
  };
  auto util_max = [&](const std::string& schema) {
    double m = 0;
    for (const Part& p : parts) {
      const double u = utilisation(
          schema_delta_max(p.run0, p.traffic_end, schema),
          p.t_traffic_end - p.t_run0);
      if (u < 0) violations.push_back(schema + " utilisation out of [0, 1]");
      m = std::max(m, u);
    }
    return m;
  };
  for (const Part& p : parts) {
    L["sim.events"] += static_cast<double>(p.events);
    L["sim.pending_max"] =
        std::max(L["sim.pending_max"], static_cast<double>(p.pending_max));
  }
  L["net.injected"] = sum("fabric.injected");
  L["net.delivered"] = sum("fabric.delivered");
  L["net.dropped"] = sum("fabric.dropped_link_down") +
                     sum("fabric.dropped_switch_dead") +
                     sum("fabric.dropped_misroute") +
                     sum("fabric.dropped_random") +
                     sum("fabric.dropped_path_reset") +
                     sum("fabric.dropped_unattached");
  L["net.dropped_link_down"] = sum("fabric.dropped_link_down");
  L["net.link_util_max"] = util_max("fabric.link_busy_ns");
  L["nic.wire_tx"] = sum("nic.wire_tx");
  L["nic.bytes_tx"] = sum("nic.bytes_tx");
  L["nic.injection_stalls"] = sum("nic.injection_stalls");
  L["nic.cpu_util_max"] = util_max("nic.cpu_busy_ns");
  L["nic.host_dma_util_max"] = util_max("nic.host_dma_busy_ns");
  const double data_tx = sum("firmware.data_tx");
  L["firmware.data_tx"] = data_tx;
  L["firmware.retransmissions"] = sum("firmware.retransmissions");
  L["firmware.retrans_frac"] = ratio(L["firmware.retransmissions"], data_tx);
  L["firmware.ack_frac"] = ratio(sum("firmware.acks_explicit_tx"), data_tx);
  L["firmware.timer_fires"] = sum("firmware.timer_fires");
  L["firmware.path_failures"] = sum("firmware.path_failures");
  L["firmware.generation_restarts"] = sum("firmware.generation_restarts");
  L["firmware.unreachable_drops"] = sum("firmware.unreachable_drops");
  L["mapper.probes_tx"] =
      sum("mapper.host_probes_tx") + sum("mapper.switch_probes_tx");
  L["mapper.path_cache_hits"] = sum("mapper.path_cache_hits");
  L["mapper.backup_promotions"] = sum("mapper.backup_promotions");
  sim::HdrHistogram mapping;
  for (const Part& p : parts) {
    mapping.merge(
        merged_histogram(obs::Registry::of(*p.sched), "mapper.mapping_time_ns"));
  }
  L["mapper.mapping_ns_p50"] = static_cast<double>(mapping.quantile(0.5));
  L["mapper.mapping_ns_max"] = static_cast<double>(mapping.max());
  L["vmmc.msg_tx"] = sum("vmmc.msg_tx");
  L["vmmc.msg_bytes_tx"] = sum("vmmc.msg_bytes_tx");
  L["vmmc.segments_tx"] = sum("vmmc.segments_tx");
  L["vmmc.bytes_tx"] = sum("vmmc.bytes_tx");
  L["kv.attempts_per_call"] =
      ratio(sum("kv.client_posts"), sum("kv.client_calls"));
  L["kv.client_timeouts"] = sum("kv.client_timeouts");
  L["kv.client_failovers"] = sum("kv.client_failovers");
  L["kv.server_forwards"] = sum("kv.server_forwards");
  L["kv.server_repl_retries"] = sum("kv.server_repl_retries");
  L["kv.server_repl_failures"] = sum("kv.server_repl_failures");
  L["traffic.issued"] = sum("traffic.issued");
  L["traffic.retries"] = sum("traffic.retries");
  L["membership.pings_tx"] = sum("membership.pings_tx");
  L["membership.gossip_bytes_tx"] = sum("membership.gossip_bytes_tx");
}

// --- shared pieces of the request workloads ---------------------------------

/// Goodput, latency and failure fraction of an open-loop request run.
void request_outcome(RepeatResult& out, const traffic::TrafficStats& s,
                     sim::Duration elapsed) {
  const std::uint64_t n = s.latency.count();
  const std::uint64_t tail = p999_tail_samples(n);
  out.sim.push_back({"goodput_rps",
                     static_cast<double>(s.ok) / sim::to_seconds(elapsed),
                     "rps",
                     fmt("%.0f ok over %.3f simulated ms",
                         static_cast<double>(s.ok), sim::to_millis(elapsed))});
  out.sim.push_back(
      {"p50_us", static_cast<double>(s.latency.quantile(0.50)) / 1e3, "us",
       fmt("%.0f samples", static_cast<double>(n))});
  out.sim.push_back(
      {"p999_us", static_cast<double>(s.latency.quantile(0.999)) / 1e3, "us",
       fmt("%.0f samples beyond p99.9", static_cast<double>(tail))});
  if (tail < kMinTailSamples) {
    out.violations.push_back("p99.9 has " + std::to_string(tail) +
                             " samples beyond it (< 10): run too short");
  }
  const double ff = failed_fraction(s.failed, s.issued);
  if (ff < 0) out.violations.emplace_back("failed_frac has no valid base");
  out.sim.push_back({"failed_frac", ff, "ratio",
                     fmt("%.0f failed of %.0f issued",
                         static_cast<double>(s.failed),
                         static_cast<double>(s.issued))});
}

void outage_outcome(RepeatResult& out, const traffic::TrafficStats& s,
                    sim::Time t_start, sim::Time t_fault) {
  std::vector<std::uint64_t> committed;
  std::vector<std::uint64_t> issued;
  for (const traffic::WindowCounters& w : s.windows) {
    committed.push_back(w.ok);
    issued.push_back(w.issued);
  }
  const OutageResult o = outage(committed, issued, kWindow, t_start, t_fault);
  if (o.pre_windows == 0) {
    out.violations.emplace_back("outage_ms: no whole window before the fault");
  }
  out.sim.push_back(
      {"outage_ms", o.outage_ms, "ms",
       fmt("%.0f of %.0f post-fault windows under half the baseline "
           "(%.1f committed/window)",
           static_cast<double>(o.below), static_cast<double>(o.candidates),
           o.baseline)});
}

void audit_violation(RepeatResult& out, const char* what,
                     const kv::AuditResult& a) {
  if (a.ok()) return;
  out.violations.push_back(
      std::string(what) + ": lost=" + std::to_string(a.lost) +
      " duplicated=" + std::to_string(a.duplicated) +
      " mismatches=" + std::to_string(a.replica_mismatches) +
      " alien=" + std::to_string(a.alien_values));
}

/// Registry export under an `obs.export` span, folded into the digest.
std::uint64_t export_registry(Tracer& tr, sim::Scheduler& sched,
                              std::uint64_t h) {
  const int ex = tr.open("obs.export", -1, sched.now());
  const std::string json = obs::Registry::of(sched).to_json();
  tr.close(ex, sched.now());
  return registry_digest(json, h);
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/// Watches a rig's faults: a chaos::RecoveryMonitor on every fault,
/// delivery and firmware event, the first fault's time, and that fault as an
/// instant span under the run span (whose id is only known once the run
/// starts, hence the reference).
class FaultWatch {
 public:
  FaultWatch(kv::KvRig& rig, Tracer& tr, const int& run_span,
             std::function<void()> on_first_fault = {})
      : sched_(rig.c.sched), monitor_(rig.c.sched) {
    rig.c.fabric().set_fault_hook([this, &tr, &run_span,
                                   first = std::move(on_first_fault)](
                                      const net::FaultEvent& ev) {
      if (first_ == 0) {
        first_ = sched_.now();
        tr.instant("chaos.fault", run_span, first_,
                   {{"target", static_cast<double>(ev.id)}});
        if (first) first();
      }
      monitor_.on_fault(ev);
    });
    rig.c.fabric().set_delivery_hook(
        [this](const net::Packet& pkt, net::HostId dst) {
          monitor_.on_delivery(pkt, dst);
        });
    for (firmware::ReliableFirmware* fw : rig.rel_view()) {
      fw->set_event_hook(
          [this](const firmware::FwEvent& ev) { monitor_.on_fw_event(ev); });
    }
  }
  FaultWatch(const FaultWatch&) = delete;
  FaultWatch& operator=(const FaultWatch&) = delete;

  /// Simulated time of the first fault; 0 if none fired.
  [[nodiscard]] sim::Time first_fault() const { return first_; }
  void finalize() { monitor_.finalize(); }

  void layers(std::map<std::string, double>& L) const {
    const chaos::RecoveryReport& r = monitor_.report();
    L["chaos.ttfr_dest_max_ns"] = static_cast<double>(r.ttfr_dest_max);
    L["chaos.remap_conv_from_fault_max_ns"] =
        static_cast<double>(r.remap_conv_from_fault_max);
    L["chaos.retrans_amplification_milli"] = 1000.0 * r.retrans_amplification();
  }

 private:
  sim::Scheduler& sched_;
  chaos::RecoveryMonitor monitor_;
  sim::Time first_ = 0;
};

// --- kv-steady / kv-linkkill ------------------------------------------------

kv::KvRigConfig kv_rig_config(std::uint64_t seed) {
  kv::KvRigConfig rc;
  rc.num_servers = 4;
  rc.num_client_hosts = 4;
  rc.map_seed = reseed(rc.map_seed, seed);
  rc.cluster.topo = harness::TopoKind::kFigure2;
  rc.cluster.fw = harness::FirmwareKind::kReliable;
  rc.cluster.mapper = harness::MapperKind::kOnDemand;
  rc.cluster.nic.send_buffers = 64;
  rc.cluster.rel.drop_interval = 1000;  // the paper's §5.1.3 drops at 1e-3
  rc.cluster.rel.fail_threshold = sim::milliseconds(10);
  rc.cluster.rel.fail_min_rounds = 8;
  return rc;
}

RepeatResult run_kv(std::uint64_t seed, bool traced, bool link_kill) {
  RepeatResult out;
  const HostTimer setup_timer;
  Tracer tr(traced, Clock::now());

  const int setup = tr.open("setup", -1, 0);
  const int build = tr.open("harness.build", setup, 0);
  kv::KvRig rig(kv_rig_config(seed));
  sim::Scheduler& sched = rig.c.sched;
  tr.close(build, sched.now());
  tr.close(setup, sched.now());
  out.setup_s = setup_timer.cpu_s();
  out.setup_wall_s = setup_timer.wall_s();

  traffic::TrafficConfig tc;
  tc.num_clients = 1000;
  tc.total_requests = kKvRequests;
  tc.rate_rps = 100'000;
  tc.zipf_theta = 0.99;
  tc.window = kWindow;
  tc.seed = seed;
  traffic::TrafficEngine engine(sched, rig.client_view(), tc);

  // kv-linkkill: halfway through the arrivals, one trunk of the first
  // redundant pair (sw8_a <-> sw16_a) dies for good.
  int run = -1;
  std::optional<FaultWatch> watch;
  std::optional<chaos::ChaosEngine> campaign;
  if (link_kill) {
    watch.emplace(rig, tr, run);
    const auto half = static_cast<sim::Duration>(
        0.5 * 1e9 * static_cast<double>(tc.total_requests) / tc.rate_rps);
    campaign.emplace(
        sched, rig.c.fabric(),
        chaos::Scenario::parse("scenario kv-linkkill\nseed " +
                               std::to_string(seed) + "\nat " +
                               std::to_string(sched.now() + half) +
                               "ns link_down link=0\n"));
  }

  Part part;
  part.sched = &sched;
  if (traced) part.run0 = snapshot_counters(obs::Registry::of(sched));
  const HostTimer run_timer;
  const sim::Time t_start = sched.now();
  const std::uint64_t events0 = sched.events_executed();
  run = tr.open("run", -1, t_start);
  WindowTicker ticker(sched, tr, run, kWindow);
  ticker.start();
  if (campaign) campaign->arm();
  engine.start();
  while (!engine.done() && sched.now() < kCap && sched.step()) {
  }
  const sim::Time t_done = sched.now();
  ticker.stop();
  tr.close(run, t_done);
  if (traced) part.traffic_end = snapshot_counters(obs::Registry::of(sched));

  // Quiesce as bench_kv_service does: stragglers, then every server idle.
  const int quiesce = tr.open("quiesce", -1, sched.now());
  sched.run_for(sim::milliseconds(100));
  const sim::Time quiesce_cap = sched.now() + sim::seconds(10);
  while (!rig.servers_idle() && sched.now() < quiesce_cap && sched.step()) {
  }
  sched.run_for(sim::milliseconds(100));
  tr.close(quiesce, sched.now());
  out.run_s = run_timer.cpu_s();
  out.run_wall_s = run_timer.wall_s();
  out.events = sched.events_executed() - events0;

  const int check = tr.open("check", -1, sched.now());
  if (watch) watch->finalize();
  const int audit_span = tr.open("kv.audit", check, sched.now());
  const kv::AuditResult audit =
      kv::audit(*rig.map, rig.server_view(), engine.shadow());
  tr.close(audit_span, sched.now());
  tr.close(check, sched.now());
  out.digest = export_registry(tr, sched, kFnvBasis);

  if (!engine.done()) out.violations.emplace_back("traffic did not drain");
  audit_violation(out, "kv audit", audit);
  request_outcome(out, engine.stats(), t_done - t_start);
  if (link_kill) {
    if (campaign->applied() != 1 || watch->first_fault() == 0) {
      out.violations.emplace_back("the link kill never fired");
    }
    outage_outcome(out, engine.stats(), t_start, watch->first_fault());
  }

  if (traced) {
    part.end = snapshot_counters(obs::Registry::of(sched));
    part.t_run0 = t_start;
    part.t_traffic_end = t_done;
    part.events = sched.events_executed() - events0;
    part.pending_max = ticker.pending_max();
    registry_layers(out.layers, {part}, out.violations);
    if (watch) watch->layers(out.layers);
    out.spans = tr.spans();
  }
  return out;
}

RepeatResult run_kv_steady(std::uint64_t seed, bool traced) {
  return run_kv(seed, traced, false);
}

RepeatResult run_kv_linkkill(std::uint64_t seed, bool traced) {
  return run_kv(seed, traced, true);
}

// --- repair-hostkill ---------------------------------------------------------

/// bench_repair's clos-64 cell, unthrottled, at 100 k rps.
kv::KvRigConfig repair_rig_config(std::uint64_t seed) {
  kv::KvRigConfig rc;
  rc.num_servers = 16;
  rc.num_client_hosts = 48;
  rc.map_seed = reseed(rc.map_seed, seed);
  rc.cluster.topo = harness::TopoKind::kClos;
  rc.cluster.fw = harness::FirmwareKind::kReliable;
  rc.cluster.mapper = harness::MapperKind::kOnDemand;
  rc.cluster.nic.send_buffers = 64;
  rc.cluster.rel.fail_threshold = sim::milliseconds(10);
  rc.cluster.rel.fail_min_rounds = 8;
  rc.cluster.clos.k = 8;
  rc.cluster.ondemand.configured_identity = true;
  rc.cluster.ondemand.multipath = true;
  rc.cluster.ondemand.max_probes = std::size_t{1} << 17;
  rc.cluster.ondemand.probe_timeout = sim::microseconds(30);
  rc.membership = true;
  rc.pod_aware_placement = true;
  rc.ring_per_peer = 16 * 1024;
  // bench_repair's production SWIM margins (the library's test-tuned
  // timeouts false-confirm live peers under 100 krps).
  rc.swim.protocol_period = sim::milliseconds(2);
  rc.swim.probe_timeout = sim::milliseconds(1);
  rc.swim.suspect_timeout = sim::milliseconds(20);
  rc.striped = true;
  rc.repair.bandwidth_bytes_per_sec = 0;  // unthrottled
  rc.repair.burst_bytes = 512;
  return rc;
}

struct ReadTally {
  std::uint64_t ok = 0;
  std::uint64_t exact = 0;
  bool done = false;
};

RepeatResult run_repair_hostkill(std::uint64_t seed, bool traced) {
  RepeatResult out;
  const HostTimer setup_timer;
  Tracer tr(traced, Clock::now());

  const int setup = tr.open("setup", -1, 0);
  const int build = tr.open("harness.build", setup, 0);
  kv::KvRig rig(repair_rig_config(seed));
  sim::Scheduler& sched = rig.c.sched;
  tr.close(build, sched.now());

  // Preload the striped keyspace, the repair corpus.
  const int preload = tr.open("ec.preload", setup, sched.now());
  kv::StripedShadow shadow;
  bool preloaded = false;
  [](kv::KvRig& rig, kv::StripedShadow& shadow, bool& done) -> sim::Process {
    auto& sc = rig.striped_client(0);
    for (std::uint64_t key = 0; key < kRepairPreloadKeys; ++key) {
      const kv::RequestId id{99, key + 1};
      shadow.record_issued(id, key, kObjectLen);
      auto put = co_await sc.put(id, key, kv::make_value(id, kObjectLen));
      if (put.status == kv::Status::kOk) shadow.record_committed(id);
    }
    done = true;
  }(rig, shadow, preloaded);
  while (!preloaded && sched.step()) {
  }
  tr.close(preload, sched.now());
  tr.close(setup, sched.now());
  out.setup_s = setup_timer.cpu_s();
  out.setup_wall_s = setup_timer.wall_s();
  if (shadow.committed().size() != kRepairPreloadKeys) {
    out.violations.push_back("preload incomplete: " +
                             std::to_string(shadow.committed().size()));
    return out;
  }

  traffic::TrafficConfig tc;
  tc.num_clients = kRepairClients;
  tc.total_requests = kRepairRequests;
  tc.rate_rps = 100'000;
  tc.zipf_theta = 0.99;
  // Read-only until writes survive a dead primary (ROADMAP item 1).
  tc.get_ratio = 1.0;
  tc.del_ratio = 0.0;
  tc.window = kWindow;
  tc.seed = seed;
  traffic::TrafficEngine traffic(sched, rig.client_view(), tc);

  const net::HostId victim = rig.c.hosts[kRepairVictim];
  chaos::ChaosEngine campaign(
      sched, rig.c.fabric(),
      chaos::Scenario::parse("scenario repair-hostkill\nseed " +
                             std::to_string(seed) +
                             "\nphase p25 partition hosts=" +
                             std::to_string(victim.v) + "\n"));
  traffic.set_phase_hook(
      [&campaign](std::string_view phase) { campaign.fire_phase(phase); });

  // Every confirm, for the false-confirm ground truth and detection time.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> confirms;
  sim::Time t_detect = 0;
  for (std::size_t i = 0; i < rig.agents.size(); ++i) {
    const std::uint32_t observer = rig.c.hosts[i].v;
    rig.agents[i]->add_confirm_hook(
        [&, observer](net::HostId dead, sim::Time at) {
          confirms.emplace_back(observer, dead.v);
          if (dead == victim && observer != victim.v && t_detect == 0) {
            t_detect = at;
          }
        });
  }

  // At the kill: stamp the drain the millisecond every live repair machine
  // has enqueued work and gone idle, and read the striped keyspace back once
  // SWIM has had time to confirm (bench_repair's mid-repair battery).
  ReadTally tally;
  sim::Time t_drained = 0;
  std::function<void()> poll_drained = [&] {
    bool enqueued = false;
    bool idle = true;
    for (const auto& rm : rig.repairs) {
      if (rm->host() == victim) continue;
      enqueued |= rm->stats().stripes_enqueued > 0;
      idle &= rm->idle();
    }
    if (enqueued && idle) {
      t_drained = sched.now();
      return;
    }
    sched.after(sim::milliseconds(1), poll_drained);
  };
  int run = -1;
  FaultWatch watch(rig, tr, run, [&] {
    poll_drained();
    const sim::Duration bound =
        membership::SwimAgent::detection_bound(rig.config().swim, rig.c.size());
    sched.after(bound + sim::milliseconds(2), [&rig, &shadow, &tally] {
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

  Part part;
  part.sched = &sched;
  if (traced) part.run0 = snapshot_counters(obs::Registry::of(sched));
  const HostTimer run_timer;
  const sim::Time t_start = sched.now();
  const std::uint64_t events0 = sched.events_executed();
  run = tr.open("run", -1, t_start);
  WindowTicker ticker(sched, tr, run, kWindow);
  ticker.start();
  campaign.arm();
  traffic.start();
  while (!traffic.done() && sched.now() < kCap && sched.step()) {
  }
  const sim::Time t_done = sched.now();
  ticker.stop();
  tr.close(run, t_done);
  if (traced) part.traffic_end = snapshot_counters(obs::Registry::of(sched));

  const sim::Time t_kill = watch.first_fault();
  const int quiesce = tr.open("quiesce", -1, sched.now());
  while (!tally.done && sched.now() < kCap && sched.step()) {
  }
  while (t_kill != 0 && t_drained == 0 && sched.now() < kCap) {
    sched.run_for(sim::milliseconds(1));
  }
  rig.quiesce();
  tr.close(quiesce, sched.now());
  out.run_s = run_timer.cpu_s();
  out.run_wall_s = run_timer.wall_s();
  out.events = sched.events_executed() - events0;

  const int check = tr.open("check", -1, sched.now());
  watch.finalize();
  const int kv_span = tr.open("kv.audit", check, sched.now());
  const kv::AuditResult audit =
      kv::audit(*rig.map, rig.server_view(), traffic.shadow());
  tr.close(kv_span, sched.now());
  const int ec_span = tr.open("ec.audit", check, sched.now());
  const auto dead = [&rig](net::HostId h) {
    return rig.agents[0]->confirmed_dead(h);
  };
  const kv::StripedAuditResult striped = kv::audit_striped(
      *rig.stripe_map, *rig.codec, rig.store_view(), shadow, dead);
  tr.close(ec_span, sched.now());
  tr.close(check, sched.now());
  out.digest = export_registry(tr, sched, kFnvBasis);

  // Gates: bench_repair's per-cell checks.
  if (!traffic.done()) out.violations.emplace_back("traffic did not drain");
  if (t_kill == 0) out.violations.emplace_back("the host kill never fired");
  if (!rig.agents[0]->confirmed_dead(victim)) {
    out.violations.emplace_back("SWIM never confirmed the victim dead");
  }
  // A write in flight at the kill may leave one-sided residue on the
  // victim's own shards, so replica divergence is not gated here (the
  // foreground is read-only; lost/duplicated/alien still are).
  kv::AuditResult fg = audit;
  fg.replica_mismatches = 0;
  audit_violation(out, "foreground kv audit", fg);
  if (!striped.ok()) {
    out.violations.push_back(
        "striped audit: lost=" + std::to_string(striped.lost) +
        " mismatched=" + std::to_string(striped.mismatched) +
        " duplicated=" + std::to_string(striped.duplicated) +
        " incomplete=" + std::to_string(striped.incomplete) +
        " alien=" + std::to_string(striped.alien_units));
  }
  kv::RepairStats repair;
  for (const auto& rm : rig.repairs) {
    if (rm->host() == victim) continue;
    const kv::RepairStats& st = rm->stats();
    repair.stripes_repaired += st.stripes_repaired;
    repair.stripes_abandoned += st.stripes_abandoned;
    repair.units_rebuilt += st.units_rebuilt;
    repair.bytes_fetched += st.bytes_fetched;
    repair.bytes_written += st.bytes_written;
    repair.fetch_retries += st.fetch_retries;
    repair.put_retries += st.put_retries;
  }
  if (repair.stripes_abandoned != 0) {
    out.violations.push_back("live repair machines abandoned " +
                             std::to_string(repair.stripes_abandoned) +
                             " stripes");
  }
  if (repair.stripes_repaired == 0 || repair.units_rebuilt == 0) {
    out.violations.emplace_back("the kill cost no units; nothing repaired");
  }
  if (!tally.done || tally.exact != kRepairPreloadKeys) {
    out.violations.push_back("mid-repair reads: " +
                             std::to_string(tally.exact) + "/" +
                             std::to_string(kRepairPreloadKeys) +
                             " byte-exact");
  }
  if (t_drained <= t_kill) {
    out.violations.emplace_back("repair never drained");
  }

  request_outcome(out, traffic.stats(), t_done - t_start);
  outage_outcome(out, traffic.stats(), t_start, t_kill);
  out.sim.push_back({"repair_drain_ms", sim::to_millis(t_drained - t_kill),
                     "ms",
                     fmt("%.0f stripes, %.0f units rebuilt",
                         static_cast<double>(repair.stripes_repaired),
                         static_cast<double>(repair.units_rebuilt))});

  if (traced) {
    part.end = snapshot_counters(obs::Registry::of(sched));
    part.t_run0 = t_start;
    part.t_traffic_end = t_done;
    part.events = sched.events_executed() - events0;
    part.pending_max = ticker.pending_max();
    auto& L = out.layers;
    registry_layers(L, {part}, out.violations);
    // Membership and repair are read from the live hosts only: the cut-off
    // victim confirms everyone else and abandons its own repair queue.
    std::uint64_t suspects = 0;
    for (std::size_t i = 0; i < rig.agents.size(); ++i) {
      if (rig.c.hosts[i] != victim) suspects += rig.agents[i]->stats().suspects;
    }
    std::uint64_t live_confirms = 0;
    for (const auto& [observer, target] : confirms) {
      if (observer != victim.v) ++live_confirms;
    }
    L["membership.suspects"] = static_cast<double>(suspects);
    L["membership.confirms"] = static_cast<double>(live_confirms);
    L["membership.false_confirms"] =
        static_cast<double>(false_confirms(confirms, {victim.v}));
    L["membership.detect_ms"] =
        t_detect > t_kill ? sim::to_millis(t_detect - t_kill) : 0;
    L["ec.repair_stripes_repaired"] =
        static_cast<double>(repair.stripes_repaired);
    L["ec.repair_units_rebuilt"] = static_cast<double>(repair.units_rebuilt);
    L["ec.repair_bytes"] =
        static_cast<double>(repair.bytes_fetched + repair.bytes_written);
    L["ec.repair_retries"] =
        static_cast<double>(repair.fetch_retries + repair.put_retries);
    L["ec.degraded_reads"] = static_cast<double>(
        schema_delta(part.run0, part.end, "ec.degraded_reads"));
    const sim::HdrHistogram stripe = merged_histogram(
        obs::Registry::of(sched), "ec.repair_stripe_latency_ns");
    L["ec.repair_stripe_ns_p50"] = static_cast<double>(stripe.quantile(0.5));
    L["ec.repair_stripe_ns_max"] = static_cast<double>(stripe.max());
    watch.layers(L);
    out.spans = tr.spans();
  }
  return out;
}

// --- svm-apps ----------------------------------------------------------------

/// bench_fig9's r1ms-q32 cluster at 1e-3 drops.
harness::ClusterConfig svm_cluster_config() {
  harness::ClusterConfig cfg;
  cfg.num_hosts = 4;
  cfg.fw = harness::FirmwareKind::kReliable;
  cfg.nic.send_buffers = 32;
  cfg.rel.retrans_interval = sim::milliseconds(1);
  cfg.rel.drop_interval = 1000;
  cfg.rel.fail_threshold = sim::seconds(30);  // no permanent failures here
  cfg.rel.fail_min_rounds = 1000;
  return cfg;
}

RepeatResult run_svm_apps(std::uint64_t seed, bool traced) {
  RepeatResult out;
  const HostTimer setup_timer;
  Tracer tr(traced, Clock::now());

  // One cluster per application, as bench_fig9 runs them.
  const int setup = tr.open("setup", -1, 0);
  const int build = tr.open("harness.build", setup, 0);
  harness::Cluster fft_cluster(svm_cluster_config());
  harness::Cluster radix_cluster(svm_cluster_config());
  tr.close(build, 0);
  tr.close(setup, 0);
  out.setup_s = setup_timer.cpu_s();
  out.setup_wall_s = setup_timer.wall_s();

  apps::FftConfig fft;
  fft.log2_points = kFftLog2Points;
  fft.iterations = kFftIterations;
  apps::RadixConfig radix;
  radix.num_keys = kRadixKeys;
  radix.seed = reseed(radix.seed, seed);

  const HostTimer run_timer;
  const int run = tr.open("run", -1, 0);
  std::vector<Part> parts;
  auto run_app = [&](const char* name, harness::Cluster& c, auto&& body) {
    Part p;
    p.sched = &c.sched;
    if (traced) p.run0 = snapshot_counters(obs::Registry::of(c.sched));
    p.t_run0 = c.sched.now();
    const std::uint64_t events0 = c.sched.events_executed();
    const int span = tr.open(name, run, c.sched.now());
    WindowTicker ticker(c.sched, tr, span, kWindow);
    ticker.start();
    apps::AppResult r = body();
    ticker.stop();
    tr.close(span, c.sched.now());
    p.t_traffic_end = c.sched.now();
    p.events = c.sched.events_executed() - events0;
    p.pending_max = ticker.pending_max();
    if (traced) {
      p.traffic_end = snapshot_counters(obs::Registry::of(c.sched));
      p.end = p.traffic_end;
    }
    out.events += p.events;
    parts.push_back(std::move(p));
    return r;
  };
  const apps::AppResult fr = run_app("apps.fft", fft_cluster, [&] {
    return apps::run_fft(fft_cluster, fft);
  });
  const apps::AppResult rr = run_app("apps.radix", radix_cluster, [&] {
    return apps::run_radix(radix_cluster, radix);
  });
  tr.close(run, radix_cluster.sched.now());
  out.run_s = run_timer.cpu_s();
  out.run_wall_s = run_timer.wall_s();

  const int check = tr.open("check", -1, 0);
  const int verify = tr.open("apps.verify", check, 0);
  if (!fr.verified) out.violations.emplace_back("FFT output not verified");
  if (!rr.verified) out.violations.emplace_back("Radix output not verified");
  tr.close(verify, 0);
  tr.close(check, 0);
  out.digest = export_registry(tr, fft_cluster.sched, kFnvBasis);
  out.digest = export_registry(tr, radix_cluster.sched, out.digest);

  out.sim.push_back({"app_elapsed_ms",
                     sim::to_millis(fr.elapsed) + sim::to_millis(rr.elapsed),
                     "ms",
                     fmt("FFT %.3f ms + Radix %.3f ms",
                         sim::to_millis(fr.elapsed),
                         sim::to_millis(rr.elapsed))});

  if (traced) {
    auto& L = out.layers;
    registry_layers(L, parts, out.violations);
    svm::TimeBreakdown t = fr.aggregate();
    t += rr.aggregate();
    L["svm.barrier_ms"] = sim::to_millis(t.barrier);
    L["svm.lock_ms"] = sim::to_millis(t.lock);
    L["svm.data_ms"] = sim::to_millis(t.data);
    L["svm.compute_ms"] = sim::to_millis(t.compute);
    out.spans = tr.spans();
  }
  return out;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      {"kv-steady", run_kv_steady},
      {"kv-linkkill", run_kv_linkkill},
      {"repair-hostkill", run_repair_hostkill},
      {"svm-apps", run_svm_apps},
  };
  return w;
}

const std::vector<LayerDef>& layer_defs() {
  static const std::vector<LayerDef> defs = {
      {"sim.events", "count", "run_s, all workloads"},
      {"sim.host_ns_per_event", "ns", "run_s on kv-steady"},
      {"sim.pending_max", "count", "peak_rss_mb and run_s on repair-hostkill"},
      {"harness.build_s", "s", "setup_s, all workloads"},
      {"net.injected", "count", "run_s on kv-steady"},
      {"net.delivered", "count", "run_s on kv-steady"},
      {"net.dropped", "count",
       "goodput_rps and outage_ms on kv-linkkill; run_s on repair-hostkill"},
      {"net.dropped_link_down", "count",
       "goodput_rps and outage_ms on kv-linkkill; run_s on repair-hostkill"},
      {"net.link_util_max", "ratio", "p999_us on kv-steady, app_elapsed_ms"},
      {"nic.wire_tx", "count", "run_s"},
      {"nic.bytes_tx", "bytes", "run_s on svm-apps"},
      {"nic.injection_stalls", "count",
       "goodput_rps and p999_us on kv-linkkill"},
      {"nic.cpu_util_max", "ratio", "p50_us on kv-steady"},
      {"nic.host_dma_util_max", "ratio", "app_elapsed_ms"},
      {"firmware.data_tx", "count", "p999_us on kv-steady"},
      {"firmware.retransmissions", "count", "p999_us on kv-steady"},
      {"firmware.retrans_frac", "ratio", "p999_us on kv-steady"},
      {"firmware.ack_frac", "ratio", "run_s on kv-steady"},
      {"firmware.timer_fires", "count", "run_s on kv-steady"},
      {"firmware.path_failures", "count",
       "outage_ms and failed_frac on kv-linkkill; run_s on repair-hostkill"},
      {"firmware.generation_restarts", "count",
       "outage_ms and failed_frac on kv-linkkill"},
      {"firmware.unreachable_drops", "count",
       "outage_ms and failed_frac on kv-linkkill; run_s on repair-hostkill"},
      {"mapper.probes_tx", "count",
       "outage_ms on kv-linkkill; run_s on repair-hostkill"},
      {"mapper.path_cache_hits", "count", "outage_ms on kv-linkkill"},
      {"mapper.backup_promotions", "count", "outage_ms on kv-linkkill"},
      {"mapper.mapping_ns_p50", "ns",
       "outage_ms on kv-linkkill; p999_us on repair-hostkill"},
      {"mapper.mapping_ns_max", "ns",
       "outage_ms on kv-linkkill; p999_us on repair-hostkill"},
      {"vmmc.msg_tx", "count", "run_s on kv-*"},
      {"vmmc.msg_bytes_tx", "bytes", "run_s on kv-*"},
      {"vmmc.segments_tx", "count", "run_s and app_elapsed_ms on svm-apps"},
      {"vmmc.bytes_tx", "bytes", "run_s and app_elapsed_ms on svm-apps"},
      {"kv.attempts_per_call", "ratio", "goodput_rps on kv-linkkill"},
      {"kv.client_timeouts", "count",
       "outage_ms on kv-linkkill; p999_us on repair-hostkill"},
      {"kv.client_failovers", "count",
       "outage_ms on kv-linkkill; p999_us on repair-hostkill"},
      {"kv.server_forwards", "count", "failed_frac on kv-linkkill"},
      {"kv.server_repl_retries", "count", "failed_frac on kv-linkkill"},
      {"kv.server_repl_failures", "count", "failed_frac on kv-linkkill"},
      {"traffic.issued", "count", "base of failed_frac"},
      {"traffic.retries", "count", "base of kv.attempts_per_call"},
      {"membership.pings_tx", "count", "run_s and p50_us on repair-hostkill"},
      {"membership.gossip_bytes_tx", "bytes",
       "run_s and p50_us on repair-hostkill"},
      {"membership.suspects", "count", "repair_drain_ms on repair-hostkill"},
      {"membership.confirms", "count", "repair_drain_ms on repair-hostkill"},
      {"membership.false_confirms", "count",
       "repair_drain_ms on repair-hostkill"},
      {"membership.detect_ms", "ms", "repair_drain_ms on repair-hostkill"},
      {"ec.preload_s", "s", "setup_s on repair-hostkill"},
      {"ec.repair_stripes_repaired", "count", "repair_drain_ms"},
      {"ec.repair_units_rebuilt", "count", "repair_drain_ms"},
      {"ec.repair_bytes", "bytes", "repair_drain_ms"},
      {"ec.repair_retries", "count", "repair_drain_ms"},
      {"ec.degraded_reads", "count", "repair_drain_ms"},
      {"ec.repair_stripe_ns_p50", "ns", "repair_drain_ms"},
      {"ec.repair_stripe_ns_max", "ns", "repair_drain_ms"},
      {"chaos.ttfr_dest_max_ns", "ns",
       "outage_ms on kv-linkkill and repair-hostkill"},
      {"chaos.remap_conv_from_fault_max_ns", "ns",
       "outage_ms on kv-linkkill and repair-hostkill"},
      {"chaos.retrans_amplification_milli", "permille",
       "outage_ms on kv-linkkill and repair-hostkill"},
      {"svm.barrier_ms", "ms", "app_elapsed_ms"},
      {"svm.lock_ms", "ms", "app_elapsed_ms"},
      {"svm.data_ms", "ms", "app_elapsed_ms"},
      {"svm.compute_ms", "ms", "app_elapsed_ms"},
      {"obs.export_s", "s", "none (tracing overhead)"},
      {"obs.trace_overhead", "ratio", "none (traced / untraced run_s)"},
  };
  return defs;
}

const std::vector<std::string>& digest_excluded_gauge_max() {
  static const std::vector<std::string> names = {
      "firmware.send_buffers_free", "nic.send_buffers_free",
      "nic.send_waiters"};
  return names;
}

std::uint64_t registry_digest(const std::string& json, std::uint64_t h) {
  auto mix = [&h](std::string_view s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
  };
  // Gauge objects print as "NAME":{"type":"gauge",...,"max":N}.
  static const std::string kGauge = ":{\"type\":\"gauge\"";
  std::size_t from = 0;
  for (std::size_t at = json.find(kGauge); at != std::string::npos;
       at = json.find(kGauge, at + 1)) {
    const std::size_t name_end = at - 1;  // closing quote of NAME
    const std::size_t name_begin = json.rfind('"', name_end - 1) + 1;
    const std::string name = json.substr(name_begin, name_end - name_begin);
    const auto& skip = digest_excluded_gauge_max();
    if (std::find(skip.begin(), skip.end(), schema_of(name)) == skip.end()) {
      continue;
    }
    const std::size_t close = json.find('}', at);
    const std::size_t max = json.find(",\"max\":", at);
    if (max == std::string::npos || max > close) continue;
    mix(std::string_view(json).substr(from, max - from));
    from = close;
  }
  mix(std::string_view(json).substr(from));
  return h;
}

}  // namespace perfbench
