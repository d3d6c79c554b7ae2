// Tests for the core contribution: the firmware-level go-back-N
// retransmission protocol (§4.1), including exactly-once in-order delivery
// under injected drops, wire loss, corruption, ACK policy behavior, timer
// behavior, and permanent-failure handling without a mapper.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "harness/cluster.hpp"
#include "sim/process.hpp"

namespace sanfault {
namespace {

using harness::Cluster;
using harness::ClusterConfig;
using harness::FirmwareKind;

ClusterConfig base_cfg() {
  ClusterConfig cfg;
  cfg.num_hosts = 2;
  cfg.fw = FirmwareKind::kReliable;
  return cfg;
}

/// Drain an inbox into a vector of messages via a forever-looping coroutine.
struct Drainer {
  std::vector<harness::HostMsg> msgs;
};

sim::Process drain(Cluster& c, std::size_t host, Drainer& d) {
  for (;;) {
    harness::HostMsg m = co_await c.inbox(host).pop(c.sched);
    d.msgs.push_back(std::move(m));
  }
}

/// Helper: send n messages, drain, settle. Asserts nothing by itself.
struct StreamResult {
  std::vector<harness::HostMsg> msgs;
};

StreamResult stream(Cluster& c, int n, std::size_t bytes = 64,
                    sim::Duration settle = sim::seconds(10)) {
  Drainer d;
  drain(c, 1, d);
  for (int i = 0; i < n; ++i) {
    net::UserHeader u;
    u.w0 = static_cast<std::uint64_t>(i);
    c.send(0, 1, std::vector<std::uint8_t>(bytes, static_cast<std::uint8_t>(i)),
           u);
  }
  c.sched.run_until(c.sched.now() + settle);
  return StreamResult{std::move(d.msgs)};
}

void expect_exactly_once_in_order(const StreamResult& r, int n) {
  ASSERT_EQ(r.msgs.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(r.msgs[static_cast<std::size_t>(i)].user.w0,
              static_cast<std::uint64_t>(i))
        << "at position " << i;
  }
}

TEST(Reliability, InOrderDeliveryNoErrors) {
  Cluster c(base_cfg());
  auto r = stream(c, 50);
  expect_exactly_once_in_order(r, 50);
  EXPECT_EQ(c.rel(1).stats().ooo_drops, 0u);
  EXPECT_EQ(c.rel(1).stats().corrupt_drops, 0u);
  // Trailing packets of a one-way burst are retransmitted once by the timer
  // (their ACK-request bit was never set); the resulting duplicates are the
  // protocol's documented idle-tail behavior, bounded by the queue size.
  EXPECT_LE(c.rel(1).stats().dup_drops, c.nic(0).send_pool().capacity());
}

TEST(Reliability, PayloadIntegrityPreserved) {
  Cluster c(base_cfg());
  Drainer d;
  drain(c, 1, d);
  std::vector<std::uint8_t> payload(777);
  std::iota(payload.begin(), payload.end(), std::uint8_t{0});
  // 777 > 4096? no. single segment.
  c.send(0, 1, payload);
  c.sched.run_until(sim::seconds(1));
  ASSERT_EQ(d.msgs.size(), 1u);
  EXPECT_EQ(d.msgs[0].payload, payload);
}

TEST(Reliability, BuffersAllFreedAfterQuiescence) {
  auto cfg = base_cfg();
  cfg.nic.send_buffers = 8;
  Cluster c(cfg);
  auto r = stream(c, 100);
  expect_exactly_once_in_order(r, 100);
  EXPECT_EQ(c.nic(0).send_pool().free_count(), 8u);
  EXPECT_EQ(c.rel(0).tx_channel(c.hosts[1])->retrans_queue.size(), 0u);
}

TEST(Reliability, SequenceNumbersAdvanceMonotonically) {
  Cluster c(base_cfg());
  auto r = stream(c, 10);
  expect_exactly_once_in_order(r, 10);
  const auto* tx = c.rel(0).tx_channel(c.hosts[1]);
  ASSERT_NE(tx, nullptr);
  EXPECT_EQ(tx->next_seq, 11u);
  const auto* rx = c.rel(1).rx_channel(c.hosts[0]);
  ASSERT_NE(rx, nullptr);
  EXPECT_EQ(rx->expected_seq, 11u);
}

TEST(Reliability, ChannelsExistOnlyForContactedPeersInAscendingOrder) {
  // Per-peer state is one slot per host id. A channel comes alive on first
  // contact only, and the peer lists the corruptor draws from name exactly
  // the contacted peers, ascending, however far apart their ids are.
  ClusterConfig cfg = base_cfg();
  cfg.num_hosts = 64;
  cfg.topo = harness::TopoKind::kClos;
  Cluster c(cfg);
  for (std::size_t h = 1; h < c.hosts.size(); ++h) {
    EXPECT_EQ(c.rel(0).tx_channel(c.hosts[h]), nullptr) << "peer " << h;
    EXPECT_EQ(c.rel(0).rx_channel(c.hosts[h]), nullptr) << "peer " << h;
  }
  EXPECT_TRUE(c.rel(0).chaos_tx_peers().empty());
  EXPECT_TRUE(c.rel(0).chaos_rx_peers().empty());

  for (const std::size_t to : {63u, 5u, 17u}) {
    c.send(0, to, std::vector<std::uint8_t>(64, 1));
  }
  c.sched.run_until(c.sched.now() + sim::milliseconds(50));
  const std::vector<net::HostId> contacted{c.hosts[5], c.hosts[17],
                                           c.hosts[63]};
  EXPECT_EQ(c.rel(0).chaos_tx_peers(), contacted);
  EXPECT_EQ(c.rel(0).chaos_rx_peers(), contacted);
  for (const std::size_t h : {1u, 6u, 16u, 62u}) {
    EXPECT_EQ(c.rel(0).tx_channel(c.hosts[h]), nullptr) << "peer " << h;
    EXPECT_EQ(c.rel(0).chaos_tx_channel(c.hosts[h]), nullptr) << "peer " << h;
    EXPECT_EQ(c.rel(0).rx_channel(c.hosts[h]), nullptr) << "peer " << h;
    EXPECT_EQ(c.rel(0).chaos_rx_channel(c.hosts[h]), nullptr) << "peer " << h;
  }
  // A receiver learns its sender from the data (and its piggy-backed ACK).
  const std::vector<net::HostId> sender{c.hosts[0]};
  EXPECT_EQ(c.rel(63).chaos_tx_peers(), sender);
  EXPECT_EQ(c.rel(63).chaos_rx_peers(), sender);
  EXPECT_EQ(c.rel(63).tx_channel(c.hosts[5]), nullptr);
  // An id past every table is simply unknown.
  EXPECT_EQ(c.rel(0).tx_channel(net::HostId{1000}), nullptr);
  EXPECT_EQ(c.rel(0).chaos_rx_channel(net::HostId{1000}), nullptr);
}

TEST(Reliability, PiggybackSuppressesExplicitAcksOnTwoWayTraffic) {
  Cluster c(base_cfg());
  Drainer d0;
  Drainer d1;
  drain(c, 0, d0);
  drain(c, 1, d1);
  // Ping-pong: interleave sends so each direction's data carries the ACK.
  struct Pinger {
    static sim::Process run(Cluster& c, int rounds) {
      for (int i = 0; i < rounds; ++i) {
        sim::Trigger acc;
        c.send(0, 1, std::vector<std::uint8_t>(8, 1), {},
               [&c, &acc] { acc.fire(c.sched); });
        co_await acc.wait(c.sched);
        sim::Trigger acc2;
        c.send(1, 0, std::vector<std::uint8_t>(8, 2), {},
               [&c, &acc2] { acc2.fire(c.sched); });
        co_await acc2.wait(c.sched);
        co_await sim::DelayFor{c.sched, sim::microseconds(30)};
      }
    }
  };
  Pinger::run(c, 50);
  c.sched.run_until(sim::seconds(5));
  EXPECT_EQ(d0.msgs.size(), 50u);
  EXPECT_EQ(d1.msgs.size(), 50u);
  // Piggy-backing should carry nearly all ACK traffic; a handful of
  // timer-driven explicit ACKs at the end of the run are acceptable.
  EXPECT_LE(c.rel(0).stats().acks_explicit_tx + c.rel(1).stats().acks_explicit_tx,
            8u);
}

TEST(Reliability, BufferPressureForcesAckRequests) {
  auto cfg = base_cfg();
  cfg.nic.send_buffers = 2;  // scarce: every packet requests an ACK
  Cluster c(cfg);
  auto r = stream(c, 60);
  expect_exactly_once_in_order(r, 60);
  EXPECT_GE(c.rel(1).stats().acks_explicit_tx, 25u);
}

TEST(Reliability, InjectedDropRecoveredByTimer) {
  auto cfg = base_cfg();
  cfg.rel.drop_interval = 5;  // drop every 5th injected data packet
  Cluster c(cfg);
  auto r = stream(c, 20);
  expect_exactly_once_in_order(r, 20);
  EXPECT_GE(c.rel(0).stats().injected_drops, 4u);
  EXPECT_GE(c.rel(0).stats().retransmissions, 1u);
  EXPECT_GE(c.rel(0).stats().retrans_rounds, 1u);
}

TEST(Reliability, ExactlyOnceUnderHeavyInjectedDrops) {
  auto cfg = base_cfg();
  cfg.rel.drop_interval = 3;  // brutal: every 3rd injection vanishes
  cfg.nic.send_buffers = 8;
  Cluster c(cfg);
  auto r = stream(c, 200, 64, sim::seconds(60));
  expect_exactly_once_in_order(r, 200);
  EXPECT_EQ(c.nic(0).send_pool().free_count(), 8u);
}

TEST(Reliability, RandomWireLossRecovered) {
  Cluster c(base_cfg());
  c.fabric().link_faults(net::LinkId{0}).loss_prob = 0.15;
  auto r = stream(c, 150, 64, sim::seconds(60));
  expect_exactly_once_in_order(r, 150);
  EXPECT_GT(c.fabric().stats().dropped_random, 0u);
}

TEST(Reliability, CorruptionDetectedAndRecovered) {
  Cluster c(base_cfg());
  c.fabric().link_faults(net::LinkId{1}).corrupt_prob = 0.2;
  auto r = stream(c, 150, 256, sim::seconds(60));
  expect_exactly_once_in_order(r, 150);
  EXPECT_GT(c.rel(1).stats().corrupt_drops, 0u);
  // Link 1 corrupts both ways, so the receiver's ACKs are corrupted too.
  EXPECT_GT(c.rel(0).stats().corrupt_drops, 0u);
  // Every corrupt delivery fails the NIC's check and is dropped by the
  // firmware: nothing is lost between the marker and the drop counter.
  const std::uint64_t delivered_corrupt =
      c.fabric().stats().delivered_corrupt;
  EXPECT_EQ(c.nic(0).stats().crc_failures + c.nic(1).stats().crc_failures,
            delivered_corrupt);
  EXPECT_EQ(c.rel(0).stats().corrupt_drops + c.rel(1).stats().corrupt_drops,
            delivered_corrupt);
  // Every delivered payload must be intact despite wire corruption.
  for (const auto& m : r.msgs) {
    const auto tag = static_cast<std::uint8_t>(m.user.w0);
    EXPECT_EQ(m.payload, std::vector<std::uint8_t>(256, tag));
  }
}

TEST(Reliability, AckLossIsToleratedViaDuplicateReAck) {
  // Lose 30% in BOTH directions: data drops AND ack drops. Duplicates with
  // the ack-request bit must re-ACK, or senders would retransmit forever.
  Cluster c(base_cfg());
  c.fabric().link_faults(net::LinkId{0}).loss_prob = 0.3;
  c.fabric().link_faults(net::LinkId{1}).loss_prob = 0.3;
  auto r = stream(c, 100, 64, sim::seconds(120));
  expect_exactly_once_in_order(r, 100);
  EXPECT_GT(c.rel(0).stats().retransmissions, 0u);
  EXPECT_EQ(c.nic(0).send_pool().free_count(), c.nic(0).send_pool().capacity());
}

TEST(Reliability, GoBackNDropsSuccessorsOfAGap) {
  auto cfg = base_cfg();
  cfg.rel.drop_interval = 10;
  Cluster c(cfg);
  auto r = stream(c, 40);
  expect_exactly_once_in_order(r, 40);
  // A dropped packet means its pipelined successors arrive out of order and
  // are discarded by the receiver (no receiver buffering).
  EXPECT_GT(c.rel(1).stats().ooo_drops, 0u);
}

TEST(Reliability, TimerIntervalBoundsRecoveryLatency) {
  for (const sim::Duration interval :
       {sim::microseconds(100), sim::milliseconds(1), sim::milliseconds(10)}) {
    auto cfg = base_cfg();
    cfg.rel.retrans_interval = interval;
    cfg.rel.drop_interval = 2;  // the 2nd injected data packet is dropped
    Cluster c(cfg);
    Drainer d;
    drain(c, 1, d);
    for (int i = 0; i < 3; ++i) {
      net::UserHeader u;
      u.w0 = static_cast<std::uint64_t>(i);
      c.send(0, 1, std::vector<std::uint8_t>(16, 1), u);
    }
    c.sched.run_until(sim::seconds(5));
    ASSERT_EQ(d.msgs.size(), 3u) << "interval=" << interval;
    // Last delivery happens within a few timer periods (the effective
    // period is interval + scan/service time on the control processor).
    EXPECT_LT(d.msgs.back().at, 5 * interval + sim::milliseconds(1))
        << "interval=" << interval;
  }
}

TEST(Reliability, TinyTimerCausesFalseRetransmissions) {
  auto cfg = base_cfg();
  cfg.rel.retrans_interval = sim::microseconds(10);
  cfg.nic.send_buffers = 32;
  Cluster c(cfg);
  auto r = stream(c, 50, 1024, sim::seconds(5));
  expect_exactly_once_in_order(r, 50);
  // No errors were injected, yet the 10 us timer (< RTT) retransmitted.
  EXPECT_GT(c.rel(0).stats().retransmissions, 10u);
  EXPECT_GT(c.rel(1).stats().dup_drops, 10u);
}

TEST(Reliability, DefaultTimerQuietOnCleanBidirectionalRun) {
  Cluster c(base_cfg());
  Drainer d0, d1;
  drain(c, 0, d0);
  drain(c, 1, d1);
  // Two-way traffic so piggyback ACKs keep queues drained.
  for (int i = 0; i < 30; ++i) {
    c.send(0, 1, std::vector<std::uint8_t>(64, 1));
    c.send(1, 0, std::vector<std::uint8_t>(64, 2));
  }
  c.sched.run_until(sim::milliseconds(900));  // < fail thresholds
  EXPECT_EQ(d0.msgs.size(), 30u);
  EXPECT_EQ(d1.msgs.size(), 30u);
}

TEST(Reliability, ReceiverCoalesceValveAcksLongOneWayStreams) {
  auto cfg = base_cfg();
  cfg.nic.send_buffers = 128;  // plentiful: requests every 64th packet
  cfg.rel.ack.receiver_coalesce_max = 16;
  Cluster c(cfg);
  auto r = stream(c, 100);
  expect_exactly_once_in_order(r, 100);
  // The valve must have fired several times (100 msgs / 16).
  EXPECT_GE(c.rel(1).stats().acks_explicit_tx, 4u);
}

TEST(Reliability, PermanentLinkFailureWithoutMapperMarksUnreachable) {
  auto cfg = base_cfg();
  cfg.rel.fail_threshold = sim::milliseconds(20);
  cfg.rel.fail_min_rounds = 3;
  Cluster c(cfg);
  Drainer d;
  drain(c, 1, d);
  // Kill the receiver's link permanently before any traffic.
  c.topo.set_link_up(net::LinkId{1}, false);
  for (int i = 0; i < 5; ++i) {
    c.send(0, 1, std::vector<std::uint8_t>(32, 1));
  }
  c.sched.run_until(sim::seconds(2));
  EXPECT_TRUE(d.msgs.empty());
  EXPECT_EQ(c.rel(0).stats().path_failures, 1u);
  EXPECT_EQ(c.rel(0).stats().unreachable_drops, 5u);
  const auto* tx = c.rel(0).tx_channel(c.hosts[1]);
  ASSERT_NE(tx, nullptr);
  EXPECT_TRUE(tx->unreachable);
  // All send buffers recycled after the drop.
  EXPECT_EQ(c.nic(0).send_pool().free_count(), c.nic(0).send_pool().capacity());
}

TEST(Reliability, SendsToUnreachableNodeAreDroppedCheaply) {
  auto cfg = base_cfg();
  cfg.rel.fail_threshold = sim::milliseconds(20);
  Cluster c(cfg);
  c.topo.set_link_up(net::LinkId{1}, false);
  c.send(0, 1, std::vector<std::uint8_t>(32, 1));
  c.sched.run_until(sim::seconds(2));
  ASSERT_TRUE(c.rel(0).tx_channel(c.hosts[1])->unreachable);
  const auto drops_before = c.rel(0).stats().unreachable_drops;
  c.send(0, 1, std::vector<std::uint8_t>(32, 1));
  c.sched.run_until(c.sched.now() + sim::milliseconds(100));
  EXPECT_EQ(c.rel(0).stats().unreachable_drops, drops_before + 1);
  EXPECT_EQ(c.rel(0).stats().path_failures, 1u);  // no second detection cycle
}

TEST(Reliability, TransientBlackoutHealsWithoutPermanentDeclaration) {
  auto cfg = base_cfg();
  cfg.rel.fail_threshold = sim::milliseconds(500);
  Cluster c(cfg);
  Drainer d;
  drain(c, 1, d);
  c.topo.set_link_up(net::LinkId{1}, false);
  for (int i = 0; i < 5; ++i) {
    net::UserHeader u;
    u.w0 = static_cast<std::uint64_t>(i);
    c.send(0, 1, std::vector<std::uint8_t>(32, 1), u);
  }
  // Heal the link after 10 ms — well inside the 500 ms threshold.
  c.sched.after(sim::milliseconds(10),
                [&] { c.topo.set_link_up(net::LinkId{1}, true); });
  c.sched.run_until(sim::seconds(2));
  ASSERT_EQ(d.msgs.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(d.msgs[static_cast<std::size_t>(i)].user.w0,
              static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(c.rel(0).stats().path_failures, 0u);
}

TEST(Reliability, DeterministicAcrossIdenticalRuns) {
  auto run_once = [] {
    auto cfg = base_cfg();
    cfg.rel.drop_interval = 7;
    Cluster c(cfg);
    auto r = stream(c, 64);
    return std::tuple{r.msgs.size(), c.rel(0).stats().retransmissions,
                      c.rel(0).stats().injected_drops, c.sched.events_executed()};
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Reliability, BurstyDropsRecovered) {
  // Ablation knob: 8-packet drop bursts at the same long-run rate. The
  // go-back-N recovery must still deliver exactly once, in order.
  auto cfg = base_cfg();
  cfg.rel.drop_interval = 80;
  cfg.rel.drop_burst = 8;
  Cluster c(cfg);
  auto r = stream(c, 150, 256, sim::seconds(60));
  expect_exactly_once_in_order(r, 150);
  EXPECT_GE(c.rel(0).stats().injected_drops, 8u);
}

TEST(Reliability, BoundedRetransmitWindowStillCorrect) {
  // Ablation knob: go-back-1 (stop-and-wait recovery) instead of
  // whole-queue rounds. Slower, but correctness must be untouched.
  auto cfg = base_cfg();
  cfg.rel.drop_interval = 10;
  cfg.rel.retransmit_window = 1;
  Cluster c(cfg);
  auto r = stream(c, 80, 64, sim::seconds(120));
  expect_exactly_once_in_order(r, 80);
}

// --- bounded per-NIC queue state ---------------------------------------------

/// Packets queued at NIC `i`, summed over its channels toward the hosts.
std::size_t queued_at(Cluster& c, std::size_t i) {
  std::size_t n = 0;
  for (const net::HostId h : c.hosts) {
    if (const auto* ch = c.rel(i).tx_channel(h)) n += ch->retrans_queue.size();
  }
  return n;
}

/// The fabric link that host `from`'s preloaded route to `to` takes out of
/// its first switch.
net::LinkId first_trunk(Cluster& c, std::size_t from, std::size_t to) {
  const auto route = c.routes(from).get(c.hosts[to]);
  const auto edge = c.topo.peer_of({net::Device::host(c.hosts[from]), 0});
  const auto up = c.topo.peer_of({edge->peer.dev, route->ports[0]});
  return up->link;
}

TEST(Reliability, QueuedPacketsStayWithinTheSendBuffersInUse) {
  // A queued packet owns its send buffer until the cumulative ACK frees it,
  // so at every instant a NIC's queues together hold no more packets than it
  // has buffers in use, and never more than it has buffers. Checked after
  // every event of a clos-64 run that moves queues every way they move:
  // injected drops refill them, a killed uplink makes host 0 declare its
  // path to host 40 failed and restart the generation on a new route, and
  // a NIC reset re-enters host 1's busy channels into mapping.
  ClusterConfig cfg = base_cfg();
  cfg.num_hosts = 64;
  cfg.topo = harness::TopoKind::kClos;
  cfg.mapper = harness::MapperKind::kOnDemand;
  // A cold cross-pod BFS probes thousands of ports; on an idle fabric a
  // reply takes a few microseconds, so a short wait keeps the remap short.
  cfg.ondemand.max_probes = std::size_t{1} << 17;
  cfg.ondemand.probe_timeout = sim::microseconds(20);
  cfg.ondemand.probe_retries = 0;
  cfg.ondemand.configured_identity = true;
  cfg.rel.drop_interval = 7;
  cfg.rel.fail_threshold = sim::milliseconds(10);
  cfg.rel.fail_min_rounds = 8;
  cfg.nic.send_buffers = 16;
  Cluster c(cfg);
  constexpr std::size_t kSenders = 4;
  constexpr int kPerPeer = 40;
  const std::vector<std::size_t> peers{40, 9, 22, 63};
  std::vector<Drainer> drainers(c.size());
  for (const std::size_t to : peers) drain(c, to, drainers[to]);
  for (int i = 0; i < kPerPeer; ++i) {
    for (std::size_t from = 0; from < kSenders; ++from) {
      for (const std::size_t to : peers) {
        net::UserHeader u;
        u.w0 = from;
        u.w1 = static_cast<std::uint64_t>(i);
        c.send(from, to, std::vector<std::uint8_t>(128, 7), u);
      }
    }
  }
  const net::LinkId uplink = first_trunk(c, 0, 40);
  c.sched.after(sim::milliseconds(1),
                [&] { c.topo.set_link_up(uplink, false); });
  c.sched.after(sim::milliseconds(3), [&] { c.rel(1).nic_reset(); });

  const auto quiet = [&] {
    for (const std::size_t to : peers) {
      if (drainers[to].msgs.size() < kSenders * kPerPeer) return false;
    }
    for (std::size_t i = 0; i < c.size(); ++i) {
      if (c.nic(i).send_pool().in_use() != 0) return false;
    }
    return true;
  };
  std::uint64_t events = 0;
  while (!quiet() && c.sched.now() < sim::seconds(3) && c.sched.step()) {
    ++events;
    for (std::size_t i = 0; i < c.size(); ++i) {
      const auto& pool = c.nic(i).send_pool();
      ASSERT_LE(queued_at(c, i), pool.in_use())
          << "host " << i << " after event " << events;
      ASSERT_LE(pool.in_use(), pool.capacity()) << "host " << i;
    }
  }
  EXPECT_GT(c.rel(0).stats().injected_drops, 0u);
  EXPECT_GE(c.rel(0).stats().path_failures, 1u);
  EXPECT_GE(c.rel(0).tx_channel(c.hosts[40])->generation, 1u);
  EXPECT_EQ(c.rel(1).stats().nic_resets, 1u);
  EXPECT_GE(c.rel(1).stats().generation_restarts, 1u);
  // Every message arrived (a generation restart may resend some).
  for (const std::size_t to : peers) {
    EXPECT_GE(drainers[to].msgs.size(), kSenders * kPerPeer) << "to " << to;
  }
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(queued_at(c, i), 0u) << "host " << i;
    EXPECT_EQ(c.nic(i).send_pool().in_use(), 0u) << "host " << i;
  }
}

TEST(Reliability, TableGrowthDuringAPathFailureKeepsTheRemapOnItsChannel) {
  // Per-peer tables grow when an id is first used. Here that happens inside
  // host 0's path failure toward host 40, while the firmware holds that
  // channel by reference: the event hook, which runs synchronously at the
  // failure, excludes an id no table has reached yet (a host this NIC has
  // never seen, as one added to a running fabric would be). The remap that
  // follows must still run on host 40's own channel: its generation
  // restarts and every message arrives, first deliveries in order.
  ClusterConfig cfg = base_cfg();
  cfg.num_hosts = 64;
  cfg.topo = harness::TopoKind::kClos;
  cfg.mapper = harness::MapperKind::kOnDemand;
  // A cold cross-pod BFS probes thousands of ports; on an idle fabric a
  // reply takes a few microseconds, so a short wait keeps the remap short.
  cfg.ondemand.max_probes = std::size_t{1} << 17;
  cfg.ondemand.probe_timeout = sim::microseconds(20);
  cfg.ondemand.probe_retries = 0;
  cfg.rel.fail_threshold = sim::milliseconds(10);
  cfg.rel.fail_min_rounds = 8;
  cfg.nic.send_buffers = 16;
  Cluster c(cfg);
  const net::HostId newcomer{1000};
  bool grown = false;
  c.rel(0).set_event_hook([&](const firmware::FwEvent& ev) {
    if (ev.kind != firmware::FwEvent::Kind::kPathFail || grown) return;
    grown = true;
    ASSERT_EQ(c.rel(0).tx_channel(newcomer), nullptr);
    c.rel(0).exclude_peer(newcomer);
  });
  Drainer d;
  drain(c, 40, d);
  constexpr int kMsgs = 60;
  for (int i = 0; i < kMsgs; ++i) {
    net::UserHeader u;
    u.w0 = static_cast<std::uint64_t>(i);
    c.send(0, 40, std::vector<std::uint8_t>(256, 3), u);
  }
  c.topo.set_link_up(first_trunk(c, 0, 40), false);
  c.sched.run_until(sim::milliseconds(400));

  ASSERT_TRUE(grown);
  const auto* added = c.rel(0).tx_channel(newcomer);
  ASSERT_NE(added, nullptr);
  EXPECT_TRUE(added->unreachable);
  const auto* ch = c.rel(0).tx_channel(c.hosts[40]);
  ASSERT_NE(ch, nullptr);
  EXPECT_EQ(ch->generation, 1u);
  EXPECT_FALSE(ch->remap_in_flight);
  EXPECT_FALSE(ch->unreachable);
  EXPECT_TRUE(ch->retrans_queue.empty());
  EXPECT_EQ(c.rel(0).stats().generation_restarts, 1u);
  std::uint64_t next_first = 0;
  for (const harness::HostMsg& m : d.msgs) {
    if (m.user.w0 == next_first) ++next_first;
    EXPECT_LT(m.user.w0, next_first) << "gap before first delivery";
  }
  EXPECT_EQ(next_first, static_cast<std::uint64_t>(kMsgs));
  EXPECT_EQ(c.nic(0).send_pool().in_use(), 0u);
}

// --- property sweep: exactly-once in-order delivery must hold across the
// paper's whole Table-1 parameter space ------------------------------------
struct SweepParam {
  std::uint64_t drop_interval;  // 0 = clean
  std::size_t queue;
  sim::Duration timer;
};

class ReliabilitySweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ReliabilitySweep, ExactlyOnceInOrderDelivery) {
  const auto p = GetParam();
  auto cfg = base_cfg();
  cfg.rel.drop_interval = p.drop_interval;
  cfg.nic.send_buffers = p.queue;
  cfg.rel.retrans_interval = p.timer;
  Cluster c(cfg);
  auto r = stream(c, 120, 64, sim::seconds(80));
  expect_exactly_once_in_order(r, 120);
  EXPECT_EQ(c.nic(0).send_pool().free_count(), p.queue);
}

INSTANTIATE_TEST_SUITE_P(
    Table1, ReliabilitySweep,
    ::testing::Values(
        SweepParam{0, 2, sim::milliseconds(1)},
        SweepParam{0, 128, sim::microseconds(10)},
        SweepParam{100, 2, sim::milliseconds(1)},
        SweepParam{100, 32, sim::microseconds(100)},
        SweepParam{10, 8, sim::milliseconds(1)},
        SweepParam{10, 128, sim::milliseconds(1)},
        SweepParam{3, 32, sim::milliseconds(10)},
        SweepParam{1000, 32, sim::seconds(1)},
        SweepParam{5, 2, sim::microseconds(100)},
        SweepParam{7, 64, sim::milliseconds(100)}),
    [](const auto& info) {
      const auto& p = info.param;
      return "drop" + std::to_string(p.drop_interval) + "_q" +
             std::to_string(p.queue) + "_t" + std::to_string(p.timer);
    });

}  // namespace
}  // namespace sanfault
