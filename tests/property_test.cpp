// Randomized property tests (seed-parameterized, deterministic per seed):
//  * random connected fabrics: BFS shortest routes always deliver, and
//    UP*/DOWN* routes are legal and complete wherever BFS reaches;
//  * random loss patterns: the reliable firmware delivers exactly-once
//    in-order on a random fabric;
//  * random VMMC deposit patterns equal a golden memory model, with the
//    error-injection drop plan active.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "chaos/convergence.hpp"
#include "firmware/raw.hpp"
#include "firmware/reliability.hpp"
#include "firmware/updown.hpp"
#include "harness/cluster.hpp"
#include "kv/audit.hpp"
#include "kv/rig.hpp"
#include "membership/swim.hpp"
#include "net/fabric.hpp"
#include "net/packet.hpp"
#include "net/topology.hpp"
#include "sim/awaitables.hpp"
#include "sim/process.hpp"
#include "sim/rng.hpp"
#include "vmmc/endpoint.hpp"

namespace sanfault {
namespace {

/// A random connected fabric: 16-port switches in a random tree plus a few
/// redundant cross links, hosts on the free ports.
struct RandomFabric {
  net::Topology topo;
  std::vector<net::HostId> hosts;
};

RandomFabric make_random_fabric(std::uint64_t seed) {
  sim::Rng rng(seed);
  RandomFabric f;
  const std::size_t ns = 3 + rng.uniform(5);   // 3..7 switches
  const std::size_t nh = 4 + rng.uniform(9);   // 4..12 hosts

  std::vector<net::SwitchId> sws;
  std::vector<std::uint8_t> next_port(ns, 0);
  for (std::size_t i = 0; i < ns; ++i) sws.push_back(f.topo.add_switch(16));
  auto take_port = [&](std::size_t s) {
    return net::Port{net::Device::sw(sws[s]), next_port[s]++};
  };
  for (std::size_t i = 1; i < ns; ++i) {
    f.topo.connect(take_port(rng.uniform(i)), take_port(i));
  }
  for (std::size_t e = 0; e + 1 < ns; ++e) {  // redundancy => cycles
    const std::size_t x = rng.uniform(ns);
    const std::size_t y = rng.uniform(ns);
    if (x != y) f.topo.connect(take_port(x), take_port(y));
  }
  for (std::size_t h = 0; h < nh; ++h) {
    const std::size_t s = rng.uniform(ns);
    auto host = f.topo.add_host();
    f.topo.connect(net::Port{net::Device::host(host), 0}, take_port(s));
    f.hosts.push_back(host);
  }
  return f;
}

class RandomFabricProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomFabricProperty, ShortestRoutesAlwaysDeliver) {
  RandomFabric f = make_random_fabric(GetParam());
  for (auto a : f.hosts) {
    for (auto b : f.hosts) {
      if (a == b) continue;
      auto r = f.topo.shortest_route(a, b);
      ASSERT_TRUE(r.has_value()) << a.v << "->" << b.v << " (connected fabric)";
      auto end = f.topo.trace_route(a, *r);
      ASSERT_TRUE(end.has_value());
      EXPECT_EQ(*end, net::Device::host(b));
    }
  }
}

TEST_P(RandomFabricProperty, UpDownRoutesLegalAndComplete) {
  RandomFabric f = make_random_fabric(GetParam());
  firmware::UpDownRouting ud(f.topo);
  for (auto a : f.hosts) {
    for (auto b : f.hosts) {
      if (a == b) continue;
      auto r = ud.route(a, b);
      // Complete: every BFS-reachable pair has a legal UP*/DOWN* route on a
      // connected fabric.
      ASSERT_TRUE(r.has_value()) << a.v << "->" << b.v;
      auto end = f.topo.trace_route(a, *r);
      ASSERT_TRUE(end.has_value());
      EXPECT_EQ(*end, net::Device::host(b));
      // Legal: no up-link after the first down-link.
      auto att = f.topo.peer_of({net::Device::host(a), 0});
      net::Device cur = att->peer.dev;
      bool gone_down = false;
      for (std::uint8_t p : r->ports) {
        auto hop = f.topo.peer_of({cur, p});
        ASSERT_TRUE(hop.has_value());
        const bool up = ud.is_up(hop->link, cur);
        if (up) {
          EXPECT_FALSE(gone_down) << "down->up transition " << a.v << "->" << b.v;
        } else {
          gone_down = true;
        }
        cur = hop->peer.dev;
      }
    }
  }
}

TEST_P(RandomFabricProperty, RawFabricDeliversAlongComputedRoutes) {
  RandomFabric f = make_random_fabric(GetParam());
  sim::Rng rng(GetParam() ^ 0xFAB);
  sim::Scheduler sched;
  net::Fabric fabric(sched, f.topo, {});
  std::vector<int> got(f.topo.num_hosts(), 0);
  for (auto h : f.hosts) {
    fabric.attach(h, [&got, h](net::Packet&&) { ++got[h.v]; });
  }
  int sent = 0;
  for (int i = 0; i < 64; ++i) {
    const auto a = f.hosts[rng.uniform(f.hosts.size())];
    const auto b = f.hosts[rng.uniform(f.hosts.size())];
    if (a == b) continue;
    net::Packet p;
    p.hdr.src = a;
    p.hdr.dst = b;
    p.hdr.route = *f.topo.shortest_route(a, b);
    p.payload.assign(rng.uniform(2048), 0x77);
    fabric.inject(a, std::move(p));
    ++sent;
  }
  sched.run();
  EXPECT_EQ(fabric.stats().delivered, static_cast<std::uint64_t>(sent));
  EXPECT_EQ(fabric.stats().dropped_total(), 0u);
}

TEST_P(RandomFabricProperty, ReliableExactlyOnceOnRandomFabricWithLoss) {
  RandomFabric f = make_random_fabric(GetParam());
  sim::Rng rng(GetParam() ^ 0x10);
  sim::Scheduler sched;
  net::FabricConfig fc;
  fc.seed = GetParam();
  net::Fabric fabric(sched, f.topo, fc);
  // Lossy wires everywhere.
  for (std::uint32_t l = 0; l < f.topo.num_links(); ++l) {
    fabric.link_faults(net::LinkId{l}).loss_prob = 0.05;
    fabric.link_faults(net::LinkId{l}).corrupt_prob = 0.02;
  }
  const auto src = f.hosts[rng.uniform(f.hosts.size())];
  auto dst = src;
  while (dst == src) dst = f.hosts[rng.uniform(f.hosts.size())];

  nic::Nic nic_a(sched, fabric, src, {});
  nic::Nic nic_b(sched, fabric, dst, {});
  firmware::ReliableFirmware fw_a(nic_a, {});
  firmware::ReliableFirmware fw_b(nic_b, {});
  fw_a.routes().populate_all(f.topo, src);
  fw_b.routes().populate_all(f.topo, dst);

  std::vector<std::uint64_t> tags;
  nic_b.set_host_rx([&tags](net::UserHeader u, net::PayloadRef,
                            net::HostId) { tags.push_back(u.w0); });
  for (std::uint64_t i = 0; i < 60; ++i) {
    nic::SendRequest req;
    req.dst = dst;
    req.user.w0 = i;
    req.payload.assign(200, static_cast<std::uint8_t>(i));
    nic_a.host_submit(std::move(req));
  }
  sched.run_until(sim::seconds(60));
  ASSERT_EQ(tags.size(), 60u);
  for (std::uint64_t i = 0; i < 60; ++i) EXPECT_EQ(tags[i], i);
}

TEST_P(RandomFabricProperty, VmmcDepositsMatchGoldenMemoryModel) {
  harness::ClusterConfig cfg;
  cfg.num_hosts = 2;
  cfg.fw = harness::FirmwareKind::kReliable;
  cfg.rel.drop_interval = 25;
  cfg.rel.drop_seed = GetParam();
  harness::Cluster c(cfg);
  vmmc::Endpoint tx(c.sched, c.nic(0));
  vmmc::Endpoint rx(c.sched, c.nic(1));
  constexpr std::size_t kExportBytes = 32 * 1024;
  auto exp = rx.export_buffer(kExportBytes);

  std::vector<std::uint8_t> golden(kExportBytes, 0);
  bool done = false;
  [](harness::Cluster& c, vmmc::Endpoint& tx, vmmc::ExportId exp,
     std::vector<std::uint8_t>& golden, std::uint64_t seed,
     bool& done) -> sim::Process {
    sim::Rng rng(seed ^ 0xDE90517);
    auto imp = co_await tx.import(c.hosts[1], exp);
    for (int i = 0; i < 40; ++i) {
      const std::size_t len = 1 + rng.uniform(9000);
      const std::size_t off = rng.uniform(golden.size() - len);
      std::vector<std::uint8_t> data(len);
      for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
      // Deposits from one sender are ordered, so the golden model can apply
      // them immediately in submission order.
      for (std::size_t k = 0; k < len; ++k) golden[off + k] = data[k];
      co_await tx.send(*imp, off, std::move(data));
    }
    done = true;
  }(c, tx, exp, golden, GetParam(), done);

  const sim::Time deadline = sim::seconds(120);
  while (!done && c.sched.now() < deadline && c.sched.step()) {
  }
  ASSERT_TRUE(done);
  // Let trailing segments land.
  c.sched.run_until(c.sched.now() + sim::seconds(5));
  const auto buf = rx.buffer(exp);
  const std::vector<std::uint8_t> got(buf.begin(), buf.end());
  EXPECT_EQ(got, golden);
  EXPECT_GT(c.rel(0).stats().injected_drops, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFabricProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// ---------------------------------------------------------------------------
// Reliability battery: 3 properties x 70 seeds = 210 deterministic cases.
// Each seed draws its own per-link drop/duplicate/reorder schedule (the
// LinkFaults transient-fault knobs), so the battery sweeps a grid of fault
// mixes on a two-host Figure-2 rig while every case stays reproducible.

harness::ClusterConfig battery_cfg() {
  harness::ClusterConfig cfg;
  cfg.num_hosts = 2;  // host 0 on sw8_a, host 1 on sw16_a: a 2-switch path
  cfg.topo = harness::TopoKind::kFigure2;
  cfg.fw = harness::FirmwareKind::kReliable;
  return cfg;
}

void run_until_done(harness::Cluster& c, sim::Time deadline,
                    const std::function<bool()>& done) {
  while (!done() && c.sched.now() < deadline && c.sched.step()) {
  }
}

class ReliabilityBattery : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReliabilityBattery, ExactlyOnceInOrderUnderDropDupReorder) {
  const std::uint64_t seed = GetParam();
  sim::Rng knobs(seed ^ 0xBA77E51);
  auto cfg = battery_cfg();
  cfg.fabric.seed = seed;
  harness::Cluster c(cfg);
  for (std::uint32_t l = 0; l < c.topo.num_links(); ++l) {
    auto& lf = c.fabric().link_faults(net::LinkId{l});
    lf.loss_prob = 0.02 + 0.05 * knobs.uniform_double();
    lf.dup_prob = 0.02 + 0.06 * knobs.uniform_double();
    lf.reorder_prob = 0.02 + 0.08 * knobs.uniform_double();
    lf.reorder_delay = sim::microseconds(5 + knobs.uniform(60));
    lf.corrupt_prob = 0.01;
  }

  std::vector<std::uint64_t> tags;
  c.nic(1).set_host_rx(
      [&tags](net::UserHeader u, net::PayloadRef, net::HostId) {
        tags.push_back(u.w0);
      });
  constexpr std::uint64_t kMsgs = 60;
  for (std::uint64_t i = 0; i < kMsgs; ++i) {
    net::UserHeader u;
    u.w0 = i;
    c.send(0, 1, std::vector<std::uint8_t>(160, static_cast<std::uint8_t>(i)),
           u);
  }
  run_until_done(c, sim::seconds(120), [&] { return tags.size() >= kMsgs; });
  // No generation restarts happen here, so delivery is strictly exactly-once
  // in order: duplicates and reordered arrivals are receiver-side drops.
  ASSERT_EQ(tags.size(), kMsgs);
  for (std::uint64_t i = 0; i < kMsgs; ++i) EXPECT_EQ(tags[i], i);
  // The schedule actually exercised the fault paths.
  const auto& fs = c.fabric().stats();
  EXPECT_GT(fs.duplicates_injected + fs.reorders_injected + fs.dropped_random +
                fs.corruptions_injected,
            0u);
  // Every send buffer returns to the pool once the stream is acknowledged.
  c.sched.run_until(c.sched.now() + sim::seconds(2));
  EXPECT_EQ(c.nic(0).send_pool().free_count(),
            c.nic(0).send_pool().capacity());
  EXPECT_EQ(c.rel(0).stats().path_failures, 0u);
}

TEST_P(ReliabilityBattery, CumulativeAcksNeverRegressWithinGeneration) {
  const std::uint64_t seed = GetParam();
  sim::Rng knobs(seed ^ 0xACCACC);
  auto cfg = battery_cfg();
  cfg.fabric.seed = seed;
  harness::Cluster c(cfg);
  // Loss + duplication + corruption, but no reordering: links are FIFO, so
  // the wire-observed cumulative-ACK stream of each (sender, ack_gen) pair
  // must be non-decreasing — a lost ACK skips values, a duplicated ACK
  // repeats one, but cumulative acknowledgment can never move backwards.
  for (std::uint32_t l = 0; l < c.topo.num_links(); ++l) {
    auto& lf = c.fabric().link_faults(net::LinkId{l});
    lf.loss_prob = 0.02 + 0.05 * knobs.uniform_double();
    lf.dup_prob = 0.02 + 0.08 * knobs.uniform_double();
    lf.corrupt_prob = 0.01;
  }

  std::map<std::uint64_t, std::uint32_t> high;  // (src,dst,ack_gen) -> max ack
  std::uint64_t observed = 0;
  std::uint64_t violations = 0;
  c.fabric().set_delivery_hook([&](const net::Packet& p, net::HostId to) {
    const bool carries_ack = p.hdr.type == net::PacketType::kAck ||
                             (p.hdr.flags & net::kFlagPiggyAck) != 0;
    if (!carries_ack) return;
    const std::uint64_t key = (static_cast<std::uint64_t>(p.hdr.src.v) << 32) |
                              (static_cast<std::uint64_t>(to.v) << 16) |
                              p.hdr.ack_gen;
    auto [it, fresh] = high.try_emplace(key, p.hdr.ack);
    if (!fresh) {
      if (p.hdr.ack < it->second) {
        ++violations;
      } else {
        it->second = p.hdr.ack;
      }
    }
    ++observed;
  });

  // Bidirectional traffic so both piggy-backed and explicit ACKs flow both
  // ways.
  std::vector<std::uint64_t> fwd, rev;
  c.nic(1).set_host_rx([&fwd](net::UserHeader u, net::PayloadRef,
                              net::HostId) { fwd.push_back(u.w0); });
  c.nic(0).set_host_rx([&rev](net::UserHeader u, net::PayloadRef,
                              net::HostId) { rev.push_back(u.w0); });
  constexpr std::uint64_t kMsgs = 40;
  for (std::uint64_t i = 0; i < kMsgs; ++i) {
    net::UserHeader u;
    u.w0 = i;
    c.send(0, 1, std::vector<std::uint8_t>(120, 1), u);
    c.send(1, 0, std::vector<std::uint8_t>(120, 2), u);
  }
  run_until_done(c, sim::seconds(120), [&] {
    return fwd.size() >= kMsgs && rev.size() >= kMsgs;
  });
  ASSERT_EQ(fwd.size(), kMsgs);
  ASSERT_EQ(rev.size(), kMsgs);
  for (std::uint64_t i = 0; i < kMsgs; ++i) {
    EXPECT_EQ(fwd[i], i);
    EXPECT_EQ(rev[i], i);
  }
  EXPECT_GT(observed, 0u);
  EXPECT_EQ(violations, 0u);
  EXPECT_GT(c.rel(0).stats().ack_advances, 0u);
  EXPECT_GT(c.rel(1).stats().ack_advances, 0u);
}

/// Paced one-way stream that resets the sender NIC right after submitting
/// selected messages. 100 us later the fresh packet is still unacknowledged
/// (single-packet ACKs wait for a retransmission round), so every reset finds
/// pending work and must recover it via remap + generation restart.
sim::Process stream_with_resets(harness::Cluster& c, std::uint64_t n,
                                std::vector<std::uint64_t> reset_after) {
  for (std::uint64_t i = 0; i < n; ++i) {
    net::UserHeader u;
    u.w0 = i;
    c.send(0, 1, std::vector<std::uint8_t>(96, static_cast<std::uint8_t>(i)),
           u);
    bool reset_here = false;
    for (std::uint64_t r : reset_after) reset_here |= (r == i);
    if (reset_here) {
      co_await sim::DelayFor{c.sched, sim::microseconds(100)};
      c.rel(0).nic_reset();
      co_await sim::DelayFor{c.sched, sim::microseconds(200)};
    } else {
      co_await sim::DelayFor{c.sched, sim::microseconds(300)};
    }
  }
}

TEST_P(ReliabilityBattery, StaleGenerationDropsOnlyAfterGenerationRestart) {
  const std::uint64_t seed = GetParam();
  sim::Rng knobs(seed ^ 0x57A1E);
  auto cfg = battery_cfg();
  cfg.fabric.seed = seed;
  cfg.mapper = harness::MapperKind::kOnDemand;  // resets re-map on demand
  cfg.ondemand.probe_retries = 6;  // probes must survive the lossy wires
  // The reorder schedule below delays individual traversals by up to 220 us,
  // and a probe RTT crosses several links each way — the 300 us default
  // timeout would count a merely-delayed reply as a dead port, and an
  // unlucky streak of those can fail the whole remap (marking the peer
  // unreachable, which this test's delivery assertion forbids). Give probes
  // a timeout that cumulative reorder delay cannot starve.
  cfg.ondemand.probe_timeout = sim::milliseconds(2);
  harness::Cluster c(cfg);
  // Heavy reordering: packets from the pre-reset generation get delayed past
  // the renumbered post-restart stream and arrive recognizably stale.
  for (std::uint32_t l = 0; l < c.topo.num_links(); ++l) {
    auto& lf = c.fabric().link_faults(net::LinkId{l});
    lf.loss_prob = 0.01;
    lf.dup_prob = 0.05 * knobs.uniform_double();
    lf.reorder_prob = 0.15 + 0.25 * knobs.uniform_double();
    lf.reorder_delay = sim::microseconds(20 + knobs.uniform(200));
  }

  constexpr std::uint64_t kMsgs = 60;
  std::vector<std::uint64_t> tags;
  std::vector<char> seen(kMsgs, 0);
  std::size_t distinct = 0;
  c.nic(1).set_host_rx([&](net::UserHeader u, net::PayloadRef, net::HostId) {
    tags.push_back(u.w0);
    if (u.w0 < kMsgs && !seen[u.w0]) {
      seen[u.w0] = 1;
      ++distinct;
    }
  });
  // Temporal witness: at the instant of the sender's first generation
  // restart the receiver must not have dropped anything as stale yet —
  // stale-generation drops require a preceding restart, never the reverse.
  bool restart_seen = false;
  std::uint64_t stale_at_first_restart = 0;
  c.rel(0).set_event_hook([&](const firmware::FwEvent& ev) {
    if (ev.kind == firmware::FwEvent::Kind::kGenRestart && !restart_seen) {
      restart_seen = true;
      stale_at_first_restart = c.rel(1).stats().stale_gen_drops;
    }
  });

  stream_with_resets(c, kMsgs, {20, 40});
  run_until_done(c, sim::seconds(120), [&] { return distinct >= kMsgs; });
  c.sched.run_until(c.sched.now() + sim::milliseconds(50));  // trailing copies
  ASSERT_EQ(distinct, kMsgs);

  // First deliveries arrive in submission order, across generation restarts;
  // a restart may replay the unacknowledged suffix (host-level duplicates),
  // but can never deliver a later message before an earlier one.
  std::vector<std::uint64_t> firsts;
  std::vector<char> mark(kMsgs, 0);
  for (std::uint64_t t : tags) {
    if (t < kMsgs && !mark[t]) {
      mark[t] = 1;
      firsts.push_back(t);
    }
  }
  ASSERT_EQ(firsts.size(), kMsgs);
  for (std::uint64_t i = 0; i < kMsgs; ++i) EXPECT_EQ(firsts[i], i);

  const auto& tx = c.rel(0).stats();
  const auto& rx = c.rel(1).stats();
  EXPECT_EQ(tx.nic_resets, 2u);
  EXPECT_GT(tx.generation_restarts, 0u);
  ASSERT_TRUE(restart_seen);
  EXPECT_EQ(stale_at_first_restart, 0u);
  // Duplicate host deliveries only ever come from a restart's suffix replay.
  if (tags.size() > kMsgs) {
    EXPECT_GT(tx.generation_restarts, 0u);
  }
  // Every in-order acceptance reached the host and vice versa — data is
  // never silently consumed between the protocol and the host library.
  EXPECT_EQ(rx.data_rx_in_order, static_cast<std::uint64_t>(tags.size()));
}

TEST_P(ReliabilityBattery, ExactlyOnceWhenPromotedBackupIsItselfDead) {
  // Proactive backups with a poisoned failover: the fault pattern kills the
  // primary's first trunk AND the backup's middle trunk, so the promotion
  // candidate is as dead as the primary. The mapper must reject it
  // (trace_route_up) and fall back to probing — never deliver over a wrong
  // route — and the stream must stay lossless with first deliveries in
  // order. A live mixed path (primary's surviving trunks + the backup's)
  // always exists, so the fallback mapping is guaranteed to succeed.
  const std::uint64_t seed = GetParam();
  sim::Rng knobs(seed ^ 0xBAC0FF);
  harness::ClusterConfig cfg;
  cfg.num_hosts = 8;  // host 0 on sw8_a, host 3 on sw8_b: distance 4
  cfg.topo = harness::TopoKind::kFigure2;
  cfg.fw = harness::FirmwareKind::kReliable;
  cfg.mapper = harness::MapperKind::kOnDemand;
  cfg.ondemand.proactive_backup = true;
  cfg.ondemand.probe_retries = 6;  // probes must survive the lossy wires
  cfg.rel.fail_threshold = sim::milliseconds(10);
  cfg.rel.fail_min_rounds = 8;
  cfg.nic.send_buffers = 64;
  cfg.fabric.seed = seed;
  harness::Cluster c(cfg);
  for (std::uint32_t l = 0; l < c.topo.num_links(); ++l) {
    auto& lf = c.fabric().link_faults(net::LinkId{l});
    lf.loss_prob = 0.03 * knobs.uniform_double();
    lf.dup_prob = 0.03 * knobs.uniform_double();
  }

  const net::Route* primary = c.mapper(0).cached_route(c.hosts[3]);
  ASSERT_NE(primary, nullptr);
  const auto* slot = c.mapper(0).cached_backup(c.hosts[3]);
  ASSERT_NE(slot, nullptr);
  ASSERT_TRUE(slot->has_value());
  const auto plinks = c.topo.route_links(c.hosts[0], *primary);
  const auto blinks = c.topo.route_links(c.hosts[0], (*slot)->route);
  ASSERT_EQ(plinks.size(), 5u);  // access + 3 trunks + access
  ASSERT_EQ(blinks.size(), 5u);
  c.topo.set_link_up(plinks[1], false);  // primary's sw8_a - sw16_a trunk
  c.topo.set_link_up(blinks[2], false);  // backup's sw16_a - sw16_b trunk

  constexpr std::uint64_t kMsgs = 60;
  std::vector<std::uint64_t> tags;
  std::vector<char> seen(kMsgs, 0);
  std::size_t distinct = 0;
  c.nic(3).set_host_rx([&](net::UserHeader u, net::PayloadRef, net::HostId) {
    tags.push_back(u.w0);
    if (u.w0 < kMsgs && !seen[u.w0]) {
      seen[u.w0] = 1;
      ++distinct;
    }
  });
  for (std::uint64_t i = 0; i < kMsgs; ++i) {
    c.sched.after(static_cast<sim::Duration>(i) * sim::microseconds(300),
                  [&c, i] {
                    net::UserHeader u;
                    u.w0 = i;
                    c.send(0, 3,
                           std::vector<std::uint8_t>(
                               96, static_cast<std::uint8_t>(i)),
                           u);
                  });
  }
  run_until_done(c, sim::seconds(120), [&] { return distinct >= kMsgs; });
  c.sched.run_until(c.sched.now() + sim::milliseconds(50));  // trailing copies
  ASSERT_EQ(distinct, kMsgs);

  // First deliveries in submission order (a restart may replay the
  // unacknowledged suffix; it can never reorder or lose).
  std::vector<char> mark(kMsgs, 0);
  std::vector<std::uint64_t> firsts;
  for (std::uint64_t t : tags) {
    if (t < kMsgs && !mark[t]) {
      mark[t] = 1;
      firsts.push_back(t);
    }
  }
  ASSERT_EQ(firsts.size(), kMsgs);
  for (std::uint64_t i = 0; i < kMsgs; ++i) EXPECT_EQ(firsts[i], i);

  const auto& st = c.mapper(0).stats();
  EXPECT_GE(st.backup_stale_rejections, 1u);  // the dead backup was refused
  EXPECT_GE(st.mappings_succeeded, 1u);       // probing found the mixed path
  EXPECT_GE(c.rel(0).stats().generation_restarts, 1u);
}

INSTANTIATE_TEST_SUITE_P(FaultSchedules, ReliabilityBattery,
                         ::testing::Range<std::uint64_t>(1000, 1070));

// ---------------------------------------------------------------------------
// Self-stabilization battery (docs/CHAOS.md "State corruption"): 6
// corruption classes x (25 seeds on fig2-16 + 10 seeds on clos-64) = 210
// deterministic cases of the convergence cell that `bench_chaos
// --corrupt-smoke` and the nightly soak also run (src/chaos/convergence.hpp
// states the property). Each violation fails the case with its replay
// recipe: the scenario DSL, the engine log and the firmware counters.

void expect_converges(harness::TopoKind topo, std::size_t num_hosts, int cls,
                      std::uint64_t seed) {
  const chaos::ConvergenceResult r = chaos::run_convergence_case(
      topo, num_hosts, static_cast<chaos::CorruptState>(cls), seed);
  for (const std::string& v : r.violations) {
    ADD_FAILURE() << v << "\n"
                  << r.dsl << r.chaos_log << "fw: " << r.fw_stats;
  }
}

using SelfStabParam = std::tuple<int, std::uint64_t>;

class SelfStabilization : public ::testing::TestWithParam<SelfStabParam> {};
class SelfStabilizationClos : public ::testing::TestWithParam<SelfStabParam> {
};

TEST_P(SelfStabilization, ConvergesOnFigure2) {
  expect_converges(harness::TopoKind::kFigure2, 16, std::get<0>(GetParam()),
                   std::get<1>(GetParam()));
}

TEST_P(SelfStabilizationClos, ConvergesOnClos64) {
  expect_converges(harness::TopoKind::kClos, 64, std::get<0>(GetParam()),
                   std::get<1>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    AllClasses, SelfStabilization,
    ::testing::Combine(::testing::Range(0, 6),
                       ::testing::Range<std::uint64_t>(9000, 9025)));

INSTANTIATE_TEST_SUITE_P(
    AllClasses, SelfStabilizationClos,
    ::testing::Combine(::testing::Range(0, 6),
                       ::testing::Range<std::uint64_t>(9100, 9110)));

// ---------------------------------------------------------------------------
// Striped host-kill-during-write battery: per seed, a paced stream of striped
// PUTs is in flight when a seed-chosen server host is cut. Every PUT must
// still commit (per-unit retries chase the re-homed holders once SWIM
// confirms), every object must read back byte-exact afterwards, the live
// repair machines must converge without abandoning a stripe, and the
// extended exactly-once audit must come back clean under the survivors' view.

class StripedKillDuringWrite : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(StripedKillDuringWrite, AllWritesCommitAndAuditClean) {
  const std::uint64_t seed = GetParam();
  sim::Rng knobs(seed ^ 0x57C1BEDull);

  kv::KvRigConfig rc;
  rc.num_servers = 8;  // k+m = 6 units need 6+ distinct holders
  rc.num_client_hosts = 2;
  rc.striped = true;
  rc.membership = true;
  rc.ring_per_peer = 16 * 1024;
  rc.cluster.fabric.seed = seed;
  kv::KvRig rig(rc);

  const std::size_t victim_idx = knobs.uniform(rc.num_servers);
  const net::HostId victim = rig.c.hosts[victim_idx];
  // Live witness for the post-mortem membership view (the victim's own agent
  // ends up believing everyone else is dead).
  membership::SwimAgent& witness =
      *rig.agents[victim_idx == 0 ? 1 : 0];

  // The kill lands mid-stream: writes are paced 100 us apart (~3 ms total),
  // the cut fires at a seed-chosen instant inside that window.
  constexpr std::uint64_t kKeys = 30;
  const sim::Duration kill_at =
      sim::microseconds(300 + knobs.uniform(2200));
  rig.c.sched.after(kill_at,
                    [&rig, victim] { rig.c.fabric().cut_host(victim); });

  kv::StripedShadow shadow;
  bool wrote = false;
  [](kv::KvRig& rig, kv::StripedShadow& shadow, std::uint64_t seed,
     bool& done) -> sim::Process {
    sim::Rng lens(seed ^ 0x1E4);
    auto& sc = rig.striped_client(0);
    for (std::uint64_t key = 0; key < kKeys; ++key) {
      const kv::RequestId id{11, key + 1};
      const std::uint32_t len =
          static_cast<std::uint32_t>(24 + lens.uniform(127));
      shadow.record_issued(id, key, len);
      auto put = co_await sc.put(id, key, kv::make_value(id, len));
      EXPECT_EQ(put.status, kv::Status::kOk) << "key " << key;
      if (put.status == kv::Status::kOk) shadow.record_committed(id);
      co_await sim::DelayFor{rig.c.sched, sim::microseconds(100)};
    }
    done = true;
  }(rig, shadow, seed, wrote);
  run_until_done(rig.c, sim::seconds(30), [&] { return wrote; });
  ASSERT_TRUE(wrote);

  rig.c.sched.run_for(membership::SwimAgent::detection_bound(
                          rig.config().swim, rig.c.size()) +
                      sim::milliseconds(5));
  ASSERT_TRUE(witness.confirmed_dead(victim));

  // Every committed object reads back byte-exact from the other client host,
  // degraded or not (repair may still be running).
  bool read = false;
  [](kv::KvRig& rig, const kv::StripedShadow& shadow,
     bool& done) -> sim::Process {
    auto& sc = rig.striped_client(1);
    for (const auto& [packed, w] : shadow.issued()) {
      auto get = co_await sc.get({12, w.id.seq}, w.key);
      EXPECT_EQ(get.status, kv::Status::kOk) << "key " << w.key;
      EXPECT_EQ(get.value, kv::make_value(w.id, w.object_len))
          << "key " << w.key;
    }
    done = true;
  }(rig, shadow, read);
  run_until_done(rig.c, rig.c.sched.now() + sim::seconds(30),
                 [&] { return read; });
  ASSERT_TRUE(read);

  rig.quiesce();
  for (const auto& rm : rig.repairs) {
    if (rm->host() == victim) continue;  // the corpse repairs into the void
    EXPECT_EQ(rm->stats().stripes_abandoned, 0u)
        << "node " << rm->host().v << " gave up on a stripe";
  }

  const auto dead = [&witness](net::HostId h) {
    return witness.confirmed_dead(h);
  };
  const auto audit = kv::audit_striped(*rig.stripe_map, *rig.codec,
                                       rig.store_view(), shadow, dead);
  EXPECT_EQ(audit.committed, kKeys);
  EXPECT_EQ(audit.lost, 0u);
  EXPECT_EQ(audit.mismatched, 0u);
  EXPECT_EQ(audit.duplicated, 0u);
  EXPECT_EQ(audit.incomplete, 0u);
  EXPECT_EQ(audit.alien_units, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StripedKillDuringWrite,
                         ::testing::Range<std::uint64_t>(4200, 4208));

}  // namespace
}  // namespace sanfault
