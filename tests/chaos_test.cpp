// Tests for the chaos fault-campaign layer (src/chaos): scenario DSL
// round-tripping and error reporting, bit-deterministic campaign event logs,
// recovery through a mid-retransmission link kill, exactly-once KV service
// behavior across a partition-and-heal, flap trains not regressing sequence
// generations, and the traffic engine's phase announcements.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "chaos/engine.hpp"
#include "chaos/recovery.hpp"
#include "chaos/scenario.hpp"
#include "harness/cluster.hpp"
#include "kv/audit.hpp"
#include "kv/rig.hpp"
#include "sim/process.hpp"
#include "traffic/engine.hpp"

namespace sanfault {
namespace {

using harness::Cluster;
using harness::ClusterConfig;

// --- scenario DSL ----------------------------------------------------------

TEST(ChaosScenario, ParseRoundTrip) {
  const std::string text =
      "scenario trunk-kill\n"
      "seed 7\n"
      "# comment lines and blanks are ignored\n"
      "\n"
      "at 2ms error_ramp loss=0.001 corrupt=0.0002 steps=4 over=8ms\n"
      "phase p25 link_down link=0\n"
      "phase p50+3ms link_up link=0\n"
      "at 5ms flap link=1 count=6 period=2ms duty=0.5 jitter=0.25\n"
      "phase p25 partition hosts=1,5\n"
      "phase p50+2ms heal hosts=1,5\n"
      "at 1500us nic_reset host=3\n"
      "at 4ms switch_down switch=1\n"
      "at 22ms switch_up switch=1\n";
  const chaos::Scenario sc = chaos::Scenario::parse(text);
  EXPECT_EQ(sc.name, "trunk-kill");
  EXPECT_EQ(sc.seed, 7u);
  ASSERT_EQ(sc.events.size(), 9u);
  EXPECT_EQ(sc.events[0].op, chaos::ChaosOp::kErrorRamp);
  EXPECT_EQ(sc.events[0].at, sim::milliseconds(2));
  EXPECT_EQ(sc.events[1].phase, "p25");
  EXPECT_EQ(sc.events[2].at, sim::milliseconds(3));  // phase offset
  EXPECT_EQ(sc.events[4].hosts, (std::vector<std::uint32_t>{1, 5}));

  // Canonical form round-trips byte-for-byte.
  const std::string canon = sc.to_string();
  EXPECT_EQ(chaos::Scenario::parse(canon).to_string(), canon);
}

TEST(ChaosScenario, ParseErrorsNameTheLine) {
  const auto expect_error = [](const char* text, const char* needle) {
    try {
      chaos::Scenario::parse(text);
      FAIL() << "expected parse failure for: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "got: " << e.what();
    }
  };
  expect_error("at 2ms explode link=0\n", "unknown op");
  expect_error("scenario x\nat 2ms link_down\n", "line 2");
  expect_error("at 2 link_down link=0\n", "time unit");
  expect_error("at 2ms flap link=0 count=3 period=1ms duty=1.5\n", "duty");
  expect_error("at 2ms partition\n", "hosts=");
  expect_error("bogus line here\n", "line 1");
  expect_error("at 2ms error_ramp loss=0.1 steps=4\n", "over=");
}

// --- engine determinism ----------------------------------------------------

/// Run a jittered campaign (no workload) and return its event log.
std::string run_campaign_log() {
  ClusterConfig cfg;
  cfg.num_hosts = 4;
  cfg.topo = harness::TopoKind::kFigure2;
  Cluster c(cfg);
  chaos::ChaosEngine eng(
      c.sched, c.fabric(),
      chaos::Scenario::parse(
          "scenario det\nseed 9\n"
          "at 1ms flap link=0 count=6 period=2ms duty=0.4 jitter=0.3\n"
          "at 2ms error_ramp loss=0.01 corrupt=0.001 steps=5 over=9ms\n"
          "at 4ms switch_down switch=1\nat 9ms switch_up switch=1\n"));
  eng.arm();
  c.sched.run_for(sim::milliseconds(40));
  EXPECT_EQ(eng.pending(), 0u);
  EXPECT_GT(eng.applied(), 0u);
  return eng.log_text();
}

TEST(ChaosEngine, DeterministicEventLog) {
  const std::string a = run_campaign_log();
  const std::string b = run_campaign_log();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);  // same seed -> byte-identical event log
}

// --- recovery through faults ----------------------------------------------

struct Drainer {
  std::vector<harness::HostMsg> msgs;
};

sim::Process drain(Cluster& c, std::size_t host, Drainer& d) {
  for (;;) {
    harness::HostMsg m = co_await c.inbox(host).pop(c.sched);
    d.msgs.push_back(std::move(m));
  }
}

/// Paced one-way stream 0 -> 1 with a chaos scenario running underneath.
/// Returns the monitor's report; `msgs` receives the delivered stream.
chaos::RecoveryReport stream_under_chaos(ClusterConfig cfg,
                                         const std::string& scenario,
                                         int n, sim::Duration gap,
                                         Drainer& d) {
  Cluster c(cfg);
  chaos::RecoveryMonitor monitor(c.sched);
  monitor.watch(c);
  chaos::ChaosEngine eng(c.sched, c.fabric(),
                         chaos::Scenario::parse(scenario));
  eng.arm();

  drain(c, 1, d);
  for (int i = 0; i < n; ++i) {
    c.sched.after(static_cast<sim::Duration>(i) * gap, [&c, i] {
      net::UserHeader u;
      u.w0 = static_cast<std::uint64_t>(i);
      c.send(0, 1, std::vector<std::uint8_t>(64, 1), u);
    });
  }
  c.sched.run_for(sim::seconds(2));
  monitor.finalize();
  return monitor.report();
}

TEST(ChaosRecovery, KillDuringRetransmission) {
  // host 0 (sw8_a) -> host 1 (sw16_a) crosses trunk link 0. The kill lands
  // mid-stream: queued packets are being retransmitted into a dead link
  // until the 10 ms threshold declares the path failed and the on-demand
  // mapper reroutes over the twin trunk with a generation restart.
  ClusterConfig cfg;
  cfg.num_hosts = 4;
  cfg.topo = harness::TopoKind::kFigure2;
  cfg.mapper = harness::MapperKind::kOnDemand;
  cfg.rel.fail_threshold = sim::milliseconds(10);
  cfg.rel.fail_min_rounds = 8;
  cfg.nic.send_buffers = 64;
  Drainer d;
  const int n = 200;
  const auto r = stream_under_chaos(
      cfg, "scenario kill\nseed 3\nat 1ms link_down link=0\n", n,
      sim::microseconds(10), d);

  // Across a generation restart the sender resends every un-ACKed packet,
  // including ones delivered just before the kill whose ACKs died with the
  // link — so the raw stream is at-least-once over a remap (bounded by the
  // send-buffer pool), with first deliveries still in order. The layers
  // above dedupe by request id; PartitionAndHealIsExactlyOnce proves that.
  ASSERT_GE(d.msgs.size(), static_cast<std::size_t>(n));
  EXPECT_LE(d.msgs.size(), static_cast<std::size_t>(n) + cfg.nic.send_buffers);
  std::uint64_t next_first = 0;
  for (const harness::HostMsg& m : d.msgs) {
    if (m.user.w0 == next_first) ++next_first;
    EXPECT_LT(m.user.w0, next_first) << "gap before first delivery";
  }
  EXPECT_EQ(next_first, static_cast<std::uint64_t>(n));  // none lost
  EXPECT_EQ(r.disruptive_faults, 1u);
  EXPECT_GE(r.gen_restarts, 1u);         // remap restarted the channel
  EXPECT_GE(r.remap_convergences, 1u);   // ...and traffic flowed on it
  EXPECT_GE(r.ttfr_samples, 1u);         // redelivery observed post-kill
  EXPECT_GT(r.retrans_deliveries, 0u);
  EXPECT_FALSE(r.gen_regressed);
}

TEST(ChaosRecovery, FlapTrainDoesNotRegressGenerations) {
  // Flap cycles (1.2 ms down / 0.8 ms up) are each far below the default
  // 200 ms permanent-failure threshold: go-back-N must ride the train with
  // plain retransmissions — no path failure, no generation movement.
  ClusterConfig cfg;
  cfg.num_hosts = 4;
  cfg.topo = harness::TopoKind::kFigure2;
  cfg.mapper = harness::MapperKind::kOnDemand;
  cfg.nic.send_buffers = 64;
  Drainer d;
  const int n = 400;
  const auto r = stream_under_chaos(
      cfg,
      "scenario flap\nseed 4\n"
      "at 1ms flap link=0 count=4 period=2ms duty=0.6 jitter=0.2\n",
      n, sim::microseconds(25), d);

  ASSERT_EQ(d.msgs.size(), static_cast<std::size_t>(n));
  EXPECT_EQ(r.disruptive_faults, 4u);
  EXPECT_EQ(r.heals, 4u);
  EXPECT_EQ(r.gen_restarts, 0u);
  EXPECT_FALSE(r.gen_regressed);
  EXPECT_GE(r.ttfr_samples, 1u);
  EXPECT_GT(r.retrans_deliveries, 0u);
  EXPECT_GT(r.last_delivery_at, r.last_heal_at);  // progress after heal
}

TEST(ChaosRecovery, PartitionAndHealIsExactlyOnce) {
  // The full service stack: a server host partitioned for 18 ms (beyond the
  // 10 ms fail threshold, so its peers declare path failure and must remap
  // after the heal) under live open-loop load. The shadow-map audit proves
  // exactly-once application semantics end to end.
  kv::KvRigConfig rc;
  rc.num_servers = 4;
  rc.num_client_hosts = 4;
  rc.cluster.topo = harness::TopoKind::kFigure2;
  rc.cluster.mapper = harness::MapperKind::kOnDemand;
  rc.cluster.nic.send_buffers = 64;
  rc.cluster.rel.fail_threshold = sim::milliseconds(10);
  rc.cluster.rel.fail_min_rounds = 8;
  kv::KvRig rig(rc);

  chaos::RecoveryMonitor monitor(rig.c.sched);
  monitor.watch(rig.c);
  chaos::ChaosEngine eng(rig.c.sched, rig.c.fabric(),
                         chaos::Scenario::parse(
                             "scenario part\nseed 5\n"
                             "phase p25 partition hosts=1\n"
                             "phase p25+18ms heal hosts=1\n"));
  eng.arm();

  traffic::TrafficConfig tc;
  tc.num_clients = 32;
  tc.total_requests = 800;
  tc.rate_rps = 50000;
  tc.zipf_theta = 0.99;
  tc.seed = 42;
  traffic::TrafficEngine traffic(rig.c.sched, rig.client_view(), tc);
  traffic.set_phase_hook(
      [&eng](std::string_view phase) { eng.fire_phase(phase); });
  traffic.start();

  const sim::Time cap = sim::seconds(600);
  while (!traffic.done() && rig.c.sched.now() < cap && rig.c.sched.step()) {
  }
  rig.quiesce();
  monitor.finalize();

  const kv::AuditResult audit =
      kv::audit(*rig.map, rig.server_view(), traffic.shadow());
  EXPECT_TRUE(audit.ok()) << "lost=" << audit.lost
                          << " dup=" << audit.duplicated;

  chaos::InvariantInput in;
  in.audit_clean = audit.ok();
  in.ops_expected = tc.total_requests;
  in.ops_completed = traffic.stats().completed;
  in.require_redelivery = true;
  in.require_remap = true;
  const auto violations = chaos::check_invariants(monitor.report(), in);
  for (const auto& v : violations) ADD_FAILURE() << v;

  const auto& r = monitor.report();
  EXPECT_GE(r.ttfr_samples, 1u);
  EXPECT_GE(r.remap_convergences, 1u);
  EXPECT_LT(r.remap_conv_max, sim::seconds(600));  // finite, by construction
}

// --- per-destination recovery attribution ----------------------------------

TEST(ChaosRecovery, PerDestinationTtfrIsNotMaskedByFastChannels) {
  // Regression: the single burst-global TTFR sample stops at whichever
  // channel recovers first, so a channel whose remap was served from the
  // path cache (recovering in microseconds) used to absorb the measurement
  // and hide a channel that took 7 ms. Synthetic event feed: one fault, two
  // channels redelivering at different times.
  sim::Scheduler sched;
  chaos::RecoveryMonitor monitor(sched);

  auto retrans = [](std::uint32_t src, std::uint32_t dst) {
    net::Packet p;
    p.hdr.src = net::HostId{src};
    p.hdr.dst = net::HostId{dst};
    p.hdr.type = net::PacketType::kData;
    p.hdr.flags = net::kFlagRetransmit;
    return p;
  };
  sched.after(sim::milliseconds(1), [&] {
    monitor.on_fault({net::FaultKind::kLinkDown, 0});
  });
  sched.after(sim::milliseconds(3), [&] {  // fast channel 0->1: 2 ms
    monitor.on_delivery(retrans(0, 1), net::HostId{1});
  });
  sched.after(sim::milliseconds(8), [&] {  // slow channel 0->2: 7 ms
    monitor.on_delivery(retrans(0, 2), net::HostId{2});
  });
  sched.after(sim::milliseconds(10), [&] {  // same pair again: no new sample
    monitor.on_delivery(retrans(0, 1), net::HostId{1});
  });
  sched.run_until(sim::milliseconds(20));
  monitor.finalize();

  const auto& r = monitor.report();
  EXPECT_EQ(r.ttfr_samples, 1u);  // the global clock still stops at 2 ms
  EXPECT_EQ(r.ttfr_max, sim::milliseconds(2));
  ASSERT_EQ(r.ttfr_dest_samples, 2u);  // ...but both channels sampled
  EXPECT_EQ(r.ttfr_dest_max, sim::milliseconds(7));
  ASSERT_EQ(r.ttfr_dest.size(), 2u);
  EXPECT_EQ(r.ttfr_dest[0], sim::milliseconds(2));
  EXPECT_EQ(r.ttfr_dest[1], sim::milliseconds(7));
  // A retransmission of the same pair later in the burst is not a second
  // sample — first redelivery only.
}

TEST(ChaosRecovery, PerDestinationLedgerClearsPerBurstAndGrowsWithIds) {
  // The per-destination ledger over a scripted feed: a retransmission before
  // any burst, repeats on one pair, both orientations of a pair, host ids
  // past 64 and past 1000 (the ledger grows twice mid-burst), a heal, and a
  // second burst that must sample every pair afresh. Expected values were
  // taken from the ordered-set ledger this bitmap replaced.
  sim::Scheduler sched;
  chaos::RecoveryMonitor monitor(sched);

  auto deliver = [&](sim::Time at, std::uint32_t src, std::uint32_t dst) {
    sched.after(at, [&monitor, src, dst] {
      net::Packet p;
      p.hdr.src = net::HostId{src};
      p.hdr.dst = net::HostId{dst};
      p.hdr.type = net::PacketType::kData;
      p.hdr.flags = net::kFlagRetransmit;
      monitor.on_delivery(p, net::HostId{dst});
    });
  };
  auto fault = [&](sim::Time at, net::FaultKind kind) {
    sched.after(at, [&monitor, kind] { monitor.on_fault({kind, 0}); });
  };
  const sim::Duration us = sim::microseconds(1);
  deliver(500 * us, 0, 1);  // before any burst: no per-pair sample
  fault(1000 * us, net::FaultKind::kLinkDown);  // burst 1
  deliver(2000 * us, 0, 1);
  deliver(2500 * us, 0, 1);  // same pair: no second sample
  deliver(3000 * us, 1, 0);  // the other orientation is its own pair
  deliver(3500 * us, 70, 3);   // grows the ledger past 64 ids
  deliver(4000 * us, 3, 200);  // ...and again
  deliver(4500 * us, 70, 3);
  // Burst 1 ended at its first redelivery, so this kill opens burst 2; the
  // switch kill before burst 2's first redelivery extends it.
  fault(5000 * us, net::FaultKind::kLinkDown);
  fault(5200 * us, net::FaultKind::kLinkUp);
  fault(5400 * us, net::FaultKind::kSwitchDown);
  deliver(6000 * us, 0, 1);
  deliver(6100 * us, 0, 1);
  deliver(6300 * us, 70, 3);
  deliver(7000 * us, 1000, 999);  // grows past 1000 ids
  deliver(7100 * us, 3, 200);
  deliver(7200 * us, 1000, 999);
  sched.run_until(sim::milliseconds(20));
  monitor.finalize();

  const auto& r = monitor.report();
  EXPECT_EQ(r.disruptive_faults, 3u);
  EXPECT_EQ(r.heals, 1u);
  EXPECT_EQ(r.data_deliveries, 13u);
  EXPECT_EQ(r.retrans_deliveries, 13u);
  EXPECT_EQ(r.ttfr_samples, 2u);
  EXPECT_EQ(r.ttfr_first, 1000 * us);
  EXPECT_EQ(r.ttfr_max, 1000 * us);
  const std::vector<sim::Duration> want{1000 * us, 2000 * us, 2500 * us,
                                        3000 * us, 1000 * us, 1300 * us,
                                        2000 * us, 2100 * us};
  EXPECT_EQ(r.ttfr_dest, want);
  EXPECT_EQ(r.ttfr_dest_samples, want.size());
  EXPECT_EQ(r.ttfr_dest_max, 3000 * us);
}

TEST(ChaosRecovery, RemapConvergenceAnchorsAtFaultNotRestart) {
  // A restart answered from the path cache converges almost instantly by
  // the restart-relative clock; the fault-relative clock still charges the
  // full detection delay. Both are reported, attributed promoted/probed.
  sim::Scheduler sched;
  chaos::RecoveryMonitor monitor(sched);

  sched.after(sim::milliseconds(1), [&] {
    monitor.on_fault({net::FaultKind::kLinkDown, 0});
  });
  sched.after(sim::milliseconds(5), [&] {
    firmware::FwEvent ev;
    ev.kind = firmware::FwEvent::Kind::kGenRestart;
    ev.self = net::HostId{0};
    ev.peer = net::HostId{1};
    ev.gen = 2;
    ev.promoted = true;
    monitor.on_fw_event(ev);
  });
  sched.after(sim::milliseconds(9), [&] {
    net::Packet p;
    p.hdr.src = net::HostId{0};
    p.hdr.dst = net::HostId{1};
    p.hdr.type = net::PacketType::kData;
    p.hdr.generation = 2;
    monitor.on_delivery(p, net::HostId{1});
  });
  sched.run_until(sim::milliseconds(20));
  monitor.finalize();

  const auto& r = monitor.report();
  EXPECT_EQ(r.remap_convergences, 1u);
  EXPECT_EQ(r.remap_conv_max, sim::milliseconds(4));             // restart-relative
  EXPECT_EQ(r.remap_conv_from_fault_max, sim::milliseconds(8));  // fault-relative
  EXPECT_EQ(r.remap_conv_promoted, 1u);
  EXPECT_EQ(r.remap_conv_probed, 0u);
}

TEST(ChaosRecovery, ProactiveBackupServesKillWithPromotedRemap) {
  // The KillDuringRetransmission cell with proactive backups on: the path
  // failure is answered by a promotion (no probe run on the critical path)
  // and the stream stays lossless and in first-delivery order.
  ClusterConfig cfg;
  cfg.num_hosts = 4;
  cfg.topo = harness::TopoKind::kFigure2;
  cfg.mapper = harness::MapperKind::kOnDemand;
  cfg.ondemand.proactive_backup = true;
  cfg.rel.fail_threshold = sim::milliseconds(10);
  cfg.rel.fail_min_rounds = 8;
  cfg.nic.send_buffers = 64;
  Drainer d;
  const int n = 200;
  const auto r = stream_under_chaos(
      cfg, "scenario kill\nseed 3\nat 1ms link_down link=0\n", n,
      sim::microseconds(10), d);

  ASSERT_GE(d.msgs.size(), static_cast<std::size_t>(n));
  std::uint64_t next_first = 0;
  for (const harness::HostMsg& m : d.msgs) {
    if (m.user.w0 == next_first) ++next_first;
    EXPECT_LT(m.user.w0, next_first) << "gap before first delivery";
  }
  EXPECT_EQ(next_first, static_cast<std::uint64_t>(n));  // none lost
  EXPECT_GE(r.gen_restarts, 1u);
  EXPECT_GE(r.remap_convergences, 1u);
  EXPECT_GE(r.remap_conv_promoted, 1u);  // the remap came from the backup
  EXPECT_EQ(r.remap_failures, 0u);
  EXPECT_GE(r.ttfr_dest_samples, 1u);
  EXPECT_FALSE(r.gen_regressed);
}

// --- workload phase hooks --------------------------------------------------

TEST(TrafficPhases, AnnouncedOnceInOrder) {
  kv::KvRigConfig rc;
  rc.num_servers = 2;
  rc.num_client_hosts = 2;
  kv::KvRig rig(rc);

  traffic::TrafficConfig tc;
  tc.num_clients = 8;
  tc.total_requests = 200;
  tc.rate_rps = 100000;
  tc.seed = 7;
  traffic::TrafficEngine traffic(rig.c.sched, rig.client_view(), tc);
  std::vector<std::string> phases;
  traffic.set_phase_hook(
      [&phases](std::string_view p) { phases.emplace_back(p); });
  traffic.start();
  while (!traffic.done() && rig.c.sched.step()) {
  }
  rig.quiesce();

  EXPECT_EQ(phases, (std::vector<std::string>{"p25", "p50", "p75",
                                              "drained"}));
}

// --- erasure-coded repair under a clos-64 host kill ------------------------

/// One full clos-64 striped repair campaign, serialized to a transcript for
/// byte-compare determinism: write a keyspace, cut a unit-holding server,
/// wait for SWIM confirmation, let the throttled repair machines drain, then
/// audit. Returns the transcript plus the numbers the assertions need.
struct ClosRepairRun {
  std::string transcript;
  std::uint64_t repaired = 0;
  std::uint64_t abandoned = 0;   // live machines only
  std::uint64_t throttle_waits = 0;
  bool throttle_bound_ok = true;
  kv::StripedAuditResult audit;
};

ClosRepairRun run_clos_repair_case(std::uint64_t seed) {
  constexpr std::uint64_t kKeys = 40;
  kv::KvRigConfig rc;
  rc.num_servers = 16;
  rc.num_client_hosts = 48;  // 64 hosts total on the clos-64 fabric
  rc.cluster.topo = harness::TopoKind::kClos;
  rc.cluster.clos.k = 8;
  rc.cluster.fw = harness::FirmwareKind::kReliable;
  rc.cluster.fabric.seed = seed;
  rc.ring_per_peer = 16 * 1024;
  rc.striped = true;
  rc.membership = true;
  // Squeeze the token bucket so the drain demonstrably trickles: ~1 KiB of
  // repair traffic at 20 kB/s stretches over tens of simulated milliseconds.
  rc.repair.bandwidth_bytes_per_sec = 20'000;
  rc.repair.burst_bytes = 64;
  rc.repair.log_events = true;
  kv::KvRig rig(rc);

  kv::StripedShadow shadow;
  bool wrote = false;
  [](kv::KvRig& rig, kv::StripedShadow& shadow, bool& done) -> sim::Process {
    auto& sc = rig.striped_client(0);
    for (std::uint64_t key = 0; key < kKeys; ++key) {
      const kv::RequestId id{21, key + 1};
      const auto v = kv::make_value(id, 64);
      shadow.record_issued(id, key, static_cast<std::uint32_t>(v.size()));
      auto put = co_await sc.put(id, key, v);
      EXPECT_EQ(put.status, kv::Status::kOk) << "key " << key;
      if (put.status == kv::Status::kOk) shadow.record_committed(id);
    }
    done = true;
  }(rig, shadow, wrote);
  while (!wrote && rig.c.sched.step()) {
  }
  EXPECT_TRUE(wrote);

  const net::HostId victim = rig.c.hosts[5];
  const sim::Time t_kill = rig.c.sched.now();
  rig.c.fabric().cut_host(victim);
  rig.c.sched.run_for(membership::SwimAgent::detection_bound(
                          rig.config().swim, rig.c.size()) +
                      sim::milliseconds(5));
  EXPECT_TRUE(rig.agents[0]->confirmed_dead(victim));

  rig.quiesce();
  const sim::Time t_end = rig.c.sched.now();

  ClosRepairRun out;
  std::ostringstream ts;
  for (const auto& rm : rig.repairs) {
    if (rm->host() == victim) continue;
    const auto& st = rm->stats();
    out.repaired += st.stripes_repaired;
    out.abandoned += st.stripes_abandoned;
    out.throttle_waits += st.throttle_waits;
    // Token-bucket invariant: a machine can never move more repair bytes
    // than one full bucket, one burst-capped overdraft, and the refill since
    // the kill allow.
    const std::uint64_t moved = st.bytes_fetched + st.bytes_written;
    const std::uint64_t budget =
        2 * rc.repair.burst_bytes +
        rc.repair.bandwidth_bytes_per_sec * (t_end - t_kill) / 1'000'000'000ull;
    if (moved > budget) out.throttle_bound_ok = false;
    ts << "node " << rm->host().v << " enq=" << st.stripes_enqueued
       << " rep=" << st.stripes_repaired << " aband=" << st.stripes_abandoned
       << " units=" << st.units_rebuilt << " fetched=" << st.bytes_fetched
       << " written=" << st.bytes_written << " waits=" << st.throttle_waits
       << " wait_ns=" << st.throttle_wait_ns << "\n";
    for (const auto& line : rm->log()) ts << "  " << line << "\n";
  }
  const auto dead = [&rig](net::HostId h) {
    return rig.agents[0]->confirmed_dead(h);
  };
  out.audit = kv::audit_striped(*rig.stripe_map, *rig.codec, rig.store_view(),
                                shadow, dead);
  ts << "t_end=" << t_end << " committed=" << out.audit.committed
     << " incomplete=" << out.audit.incomplete << " lost=" << out.audit.lost
     << "\n";
  out.transcript = ts.str();
  return out;
}

TEST(ChaosRepair, Clos64HostKillRepairsThrottledAndDeterministic) {
  const auto run = run_clos_repair_case(77);

  // Convergence: every committed stripe is whole again on live holders, no
  // live machine gave up, and the kill actually cost units to rebuild.
  EXPECT_GT(run.repaired, 0u);
  EXPECT_EQ(run.abandoned, 0u);
  EXPECT_EQ(run.audit.committed, 40u);
  EXPECT_EQ(run.audit.incomplete, 0u);
  EXPECT_EQ(run.audit.lost, 0u);
  EXPECT_EQ(run.audit.mismatched, 0u);
  EXPECT_EQ(run.audit.duplicated, 0u);
  EXPECT_EQ(run.audit.alien_units, 0u);

  // The squeezed bucket engaged and was never overdrawn.
  EXPECT_GT(run.throttle_waits, 0u);
  EXPECT_TRUE(run.throttle_bound_ok);

  // Same seed, fresh rig: stats, event logs and audit are byte-identical.
  const auto again = run_clos_repair_case(77);
  EXPECT_EQ(run.transcript, again.transcript);
}

}  // namespace
}  // namespace sanfault
