// Tests for the dynamic fabric: timing, contention, the corruption marker,
// and fault injection — plus the inline PortList that routes and entry-port
// records share.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "net/fabric.hpp"
#include "net/topology.hpp"
#include "sim/scheduler.hpp"

namespace sanfault::net {
namespace {

struct Rx {
  std::vector<std::pair<sim::Time, Packet>> got;
  Fabric::RxHandler handler(sim::Scheduler& s) {
    return [this, &s](Packet&& p) { got.emplace_back(s.now(), std::move(p)); };
  }
};

struct FabricFixture : ::testing::Test {
  sim::Scheduler sched;
  Topology topo;
  HostId h0, h1;
  SwitchId sw;
  LinkId l0, l1;
  Rx rx0, rx1;

  FabricFixture() {
    sw = topo.add_switch(8);
    h0 = topo.add_host();
    h1 = topo.add_host();
    l0 = topo.connect({Device::host(h0), 0}, {Device::sw(sw), 0});
    l1 = topo.connect({Device::host(h1), 0}, {Device::sw(sw), 1});
  }

  Fabric make_fabric(FabricConfig cfg = {}) {
    Fabric f(sched, topo, cfg);
    f.attach(h0, rx0.handler(sched));
    f.attach(h1, rx1.handler(sched));
    return f;
  }

  static Packet data_packet(HostId src, HostId dst, Route r,
                            std::size_t payload = 0) {
    Packet p;
    p.hdr.src = src;
    p.hdr.dst = dst;
    p.hdr.type = PacketType::kData;
    p.hdr.route = std::move(r);
    p.payload.assign(payload, 0xAB);
    return p;
  }
};

TEST_F(FabricFixture, DeliversAcrossOneSwitch) {
  Fabric f = make_fabric();
  f.inject(h0, data_packet(h0, h1, Route{{1}}, 4));
  sched.run();
  ASSERT_EQ(rx1.got.size(), 1u);
  EXPECT_EQ(f.stats().delivered, 1u);
  EXPECT_EQ(f.stats().delivered_corrupt, 0u);
  EXPECT_EQ(rx1.got[0].second.payload.size(), 4u);
}

TEST_F(FabricFixture, UncontendedTimingMatchesWormholeFormula) {
  Fabric f = make_fabric();
  Packet p = data_packet(h0, h1, Route{{1}}, 4);
  const std::size_t wire_bytes = p.wire_bytes();
  f.inject(h0, p);
  sched.run();
  ASSERT_EQ(rx1.got.size(), 1u);
  // link0: ser + latency to switch head... full formula:
  // start0=0; head at sw = 250+300 = 550; starts link1 at 550;
  // tail leaves link1 at 550+ser; arrives 250 later.
  const sim::Duration ser = sim::transfer_time(wire_bytes, 160.0e6);
  EXPECT_EQ(rx1.got[0].first, 550u + ser + 250u);
}

TEST_F(FabricFixture, PayloadContentSurvivesTransit) {
  Fabric f = make_fabric();
  Packet p = data_packet(h0, h1, Route{{1}});
  p.payload = {1, 2, 3, 4, 5};
  p.hdr.user.w0 = 0xDEADBEEF;
  f.inject(h0, p);
  sched.run();
  ASSERT_EQ(rx1.got.size(), 1u);
  EXPECT_EQ(rx1.got[0].second.payload, (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(rx1.got[0].second.hdr.user.w0, 0xDEADBEEFu);
}

TEST_F(FabricFixture, SharedLinkSerializes) {
  Fabric f = make_fabric();
  // Two large packets back-to-back on the same path: second's delivery is
  // one serialization later than the first's.
  f.inject(h0, data_packet(h0, h1, Route{{1}}, 4096));
  f.inject(h0, data_packet(h0, h1, Route{{1}}, 4096));
  sched.run();
  ASSERT_EQ(rx1.got.size(), 2u);
  const sim::Duration gap = rx1.got[1].first - rx1.got[0].first;
  const sim::Duration ser =
      sim::transfer_time(data_packet(h0, h1, Route{{1}}, 4096).wire_bytes(),
                         160.0e6);
  EXPECT_EQ(gap, ser);
}

TEST_F(FabricFixture, MisrouteToUnconnectedPortDrops) {
  Fabric f = make_fabric();
  f.inject(h0, data_packet(h0, h1, Route{{7}}, 4));  // port 7 unwired
  sched.run();
  EXPECT_EQ(f.stats().dropped_misroute, 1u);
  EXPECT_TRUE(rx1.got.empty());
}

TEST_F(FabricFixture, RouteExhaustedMidFabricDrops) {
  Fabric f = make_fabric();
  f.inject(h0, data_packet(h0, h1, Route{}, 4));
  sched.run();
  EXPECT_EQ(f.stats().dropped_misroute, 1u);
}

TEST_F(FabricFixture, LeftoverRouteBytesAtHostDrops) {
  Fabric f = make_fabric();
  f.inject(h0, data_packet(h0, h1, Route{{1, 1}}, 4));
  sched.run();
  EXPECT_EQ(f.stats().dropped_misroute, 1u);
  EXPECT_TRUE(rx1.got.empty());
}

TEST_F(FabricFixture, DownLinkDropsPackets) {
  Fabric f = make_fabric();
  topo.set_link_up(l1, false);
  f.inject(h0, data_packet(h0, h1, Route{{1}}, 4));
  sched.run();
  EXPECT_EQ(f.stats().dropped_link_down, 1u);
}

TEST_F(FabricFixture, DeadSwitchDropsPackets) {
  Fabric f = make_fabric();
  topo.set_switch_up(sw, false);
  f.inject(h0, data_packet(h0, h1, Route{{1}}, 4));
  sched.run();
  EXPECT_EQ(f.stats().dropped_switch_dead, 1u);
}

TEST_F(FabricFixture, MidFlightLinkDeathAffectsOnlyLaterPackets) {
  Fabric f = make_fabric();
  f.inject(h0, data_packet(h0, h1, Route{{1}}, 4));
  sched.run();
  topo.set_link_up(l1, false);
  f.inject(h0, data_packet(h0, h1, Route{{1}}, 4));
  sched.run();
  EXPECT_EQ(f.stats().delivered, 1u);
  EXPECT_EQ(f.stats().dropped_link_down, 1u);
}

// Number of byte positions at which two equal-length payloads differ.
std::size_t bytes_differing(const PayloadRef& a, const PayloadRef& b) {
  EXPECT_EQ(a.size(), b.size());
  std::size_t n = 0;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    n += a.data()[i] != b.data()[i] ? 1 : 0;
  }
  return n;
}

TEST_F(FabricFixture, CorruptionArrivesMarkedWithOneByteFlipped) {
  Fabric f = make_fabric();
  f.link_faults(l0).corrupt_prob = 1.0;
  const Packet sent = data_packet(h0, h1, Route{{1}}, 64);
  f.inject(h0, sent);
  sched.run();
  ASSERT_EQ(rx1.got.size(), 1u);
  EXPECT_EQ(f.stats().delivered_corrupt, 1u);
  const Packet& p = rx1.got[0].second;
  EXPECT_TRUE(p.corrupt_marker);
  EXPECT_EQ(bytes_differing(p.payload, sent.payload), 1u);
}

// The retransmission path: the sender keeps one PayloadRef and re-injects
// it. Corruption on the first traversal must land on a private copy, so the
// sender's buffer keeps its bytes and the retransmission is delivered clean:
// unmarked and equal to what was sent.
TEST_F(FabricFixture, CorruptionNeverPoisonsTheSendersBuffer) {
  Fabric f = make_fabric();
  const Packet sent = data_packet(h0, h1, Route{{1}}, 256);
  const std::vector<std::uint8_t> clean = sent.payload.to_vector();
  f.link_faults(l0).corrupt_prob = 1.0;
  f.inject(h0, sent);
  sched.run();
  f.link_faults(l0).corrupt_prob = 0.0;
  f.inject(h0, sent);  // retransmission from the same buffer
  sched.run();

  ASSERT_EQ(rx1.got.size(), 2u);
  EXPECT_EQ(f.stats().delivered_corrupt, 1u);
  EXPECT_EQ(f.stats().corruptions_injected, 1u);
  const Packet& first = rx1.got[0].second;
  const Packet& second = rx1.got[1].second;
  EXPECT_TRUE(first.corrupt_marker);
  EXPECT_EQ(bytes_differing(first.payload, sent.payload), 1u);
  EXPECT_FALSE(second.corrupt_marker);
  EXPECT_EQ(second.payload, clean);
  EXPECT_EQ(sent.payload, clean);
}

TEST_F(FabricFixture, EmptyPayloadCorruptionUsesMarker) {
  Fabric f = make_fabric();
  f.link_faults(l0).corrupt_prob = 1.0;
  f.inject(h0, data_packet(h0, h1, Route{{1}}, 0));
  sched.run();
  ASSERT_EQ(rx1.got.size(), 1u);
  EXPECT_TRUE(rx1.got[0].second.corrupt_marker);
  EXPECT_EQ(f.stats().delivered_corrupt, 1u);
}

TEST_F(FabricFixture, RandomLossDrops) {
  Fabric f = make_fabric();
  f.link_faults(l0).loss_prob = 1.0;
  f.inject(h0, data_packet(h0, h1, Route{{1}}, 4));
  sched.run();
  EXPECT_EQ(f.stats().dropped_random, 1u);
}

TEST_F(FabricFixture, PartialLossRateIsStatistical) {
  Fabric f = make_fabric();
  f.link_faults(l0).loss_prob = 0.3;
  for (int i = 0; i < 1000; ++i) {
    f.inject(h0, data_packet(h0, h1, Route{{1}}, 4));
    sched.run();
  }
  EXPECT_NEAR(static_cast<double>(f.stats().dropped_random), 300.0, 60.0);
  EXPECT_EQ(f.stats().delivered + f.stats().dropped_random, 1000u);
}

TEST_F(FabricFixture, BlockedLinkTriggersPathResetDrop) {
  FabricConfig cfg;
  cfg.deadlock_timeout = sim::milliseconds(62);
  Fabric f = make_fabric(cfg);
  f.link_faults(l1).blocked = true;
  sim::Time dropped_at = 0;
  f.set_drop_hook([&](const Packet&, DropReason r) {
    EXPECT_EQ(r, DropReason::kPathReset);
    dropped_at = sched.now();
  });
  f.inject(h0, data_packet(h0, h1, Route{{1}}, 4));
  sched.run();
  EXPECT_EQ(f.stats().dropped_path_reset, 1u);
  // Head reaches the switch at 550ns, then sits for the deadlock timeout.
  EXPECT_EQ(dropped_at, 550u + sim::milliseconds(62));
}

TEST_F(FabricFixture, UnattachedHostCountsDrop) {
  Fabric f(sched, topo, {});
  f.attach(h0, rx0.handler(sched));
  // h1 never attached.
  f.inject(h0, data_packet(h0, h1, Route{{1}}, 4));
  sched.run();
  EXPECT_EQ(f.stats().dropped_unattached, 1u);
}

TEST_F(FabricFixture, DropHookSeesReason) {
  Fabric f = make_fabric();
  std::vector<DropReason> reasons;
  f.set_drop_hook([&](const Packet&, DropReason r) { reasons.push_back(r); });
  topo.set_link_up(l1, false);
  f.inject(h0, data_packet(h0, h1, Route{{1}}, 4));
  sched.run();
  ASSERT_EQ(reasons.size(), 1u);
  EXPECT_EQ(reasons[0], DropReason::kLinkDown);
}

// What one link direction's fault draws did to each packet of a flow.
struct DrawOutcome {
  bool dropped = false;
  bool corrupt = false;
  std::vector<std::uint8_t> payload;  // as delivered (locates a flipped byte)
  bool operator==(const DrawOutcome&) const = default;
};

struct StreamProbe {
  std::vector<DrawOutcome> b_fwd;   // flow h0->h1: crosses link B forward
  std::uint64_t b_rev_packets = 0;  // packets that crossed B in reverse
};

// Three hosts on one crossbar. Flow F (h0->h1) crosses link B (h0's access
// link) forward; flow R (h2->h0) crosses link A (h2's access link), then B
// in reverse. B is lossy and corrupting in every run; only A's knobs vary.
// Fault knobs are per link, so B's reverse direction is varied through what
// it carries: A's loss thins flow R before it reaches B, and A's draws and
// B's reverse draws both change in number.
StreamProbe probe_link_streams(double a_loss, double a_corrupt) {
  sim::Scheduler sched;
  Topology topo;
  const SwitchId sw = topo.add_switch(8);
  const HostId h0 = topo.add_host();
  const HostId h1 = topo.add_host();
  const HostId h2 = topo.add_host();
  const LinkId b = topo.connect({Device::host(h0), 0}, {Device::sw(sw), 0});
  topo.connect({Device::host(h1), 0}, {Device::sw(sw), 1});
  const LinkId a = topo.connect({Device::host(h2), 0}, {Device::sw(sw), 2});
  Fabric f(sched, topo, {});
  f.link_faults(b).loss_prob = 0.2;
  f.link_faults(b).corrupt_prob = 0.2;
  f.link_faults(a).loss_prob = a_loss;
  f.link_faults(a).corrupt_prob = a_corrupt;

  constexpr std::uint32_t kPackets = 200;
  StreamProbe out;
  out.b_fwd.resize(kPackets);
  f.attach(h0, [](Packet&&) {});
  f.attach(h1, [&out](Packet&& p) {
    out.b_fwd[p.hdr.seq].corrupt = p.corrupt_marker;
    out.b_fwd[p.hdr.seq].payload = p.payload.to_vector();
  });
  f.set_drop_hook([&out, h0](const Packet& p, DropReason r) {
    if (p.hdr.src == h0 && r == DropReason::kRandomLoss) {
      out.b_fwd[p.hdr.seq].dropped = true;
    }
  });
  for (std::uint32_t i = 0; i < kPackets; ++i) {
    sched.at(i * 2000, [&f, h0, h1, h2, i] {
      Packet fwd = FabricFixture::data_packet(h0, h1, Route{{1}}, 32);
      fwd.hdr.seq = i;
      f.inject(h0, std::move(fwd));
      f.inject(h2, FabricFixture::data_packet(h2, h0, Route{{0}}, 32));
    });
  }
  sched.run();
  out.b_rev_packets = f.link_server(b, 1).jobs_served();
  return out;
}

TEST(FabricRngStreams, OtherLinksNeverMoveALinkDirectionsFaultSequence) {
  const StreamProbe quiet = probe_link_streams(0.0, 0.0);
  const StreamProbe noisy = probe_link_streams(0.3, 0.3);
  // The runs really differ on A and on B's reverse direction...
  EXPECT_GT(quiet.b_rev_packets, noisy.b_rev_packets);
  // ...and B's forward draws are nontrivial...
  std::size_t drops = 0;
  std::size_t corruptions = 0;
  for (const DrawOutcome& o : quiet.b_fwd) {
    drops += o.dropped ? 1 : 0;
    corruptions += o.corrupt ? 1 : 0;
  }
  EXPECT_GT(drops, 0u);
  EXPECT_GT(corruptions, 0u);
  // ...yet every packet crossing B forward meets the same fate. A single
  // fabric RNG, or one stream per link shared by both directions, would
  // shift this sequence.
  EXPECT_EQ(quiet.b_fwd, noisy.b_fwd);
}

TEST_F(FabricFixture, MultiHopTimingAddsPerHopLatency) {
  // h0 - sw - sw2 - h2: two switches.
  SwitchId sw2 = topo.add_switch(4);
  HostId h2 = topo.add_host();
  topo.connect({Device::sw(sw), 2}, {Device::sw(sw2), 0});
  topo.connect({Device::host(h2), 0}, {Device::sw(sw2), 1});
  Rx rx2;
  Fabric f = make_fabric();
  f.attach(h2, rx2.handler(sched));

  Packet p = data_packet(h0, h2, Route{{2, 1}}, 4);
  const sim::Duration ser = sim::transfer_time(p.wire_bytes() + 1, 160.0e6);
  (void)ser;
  f.inject(h0, p);
  sched.run();
  ASSERT_EQ(rx2.got.size(), 1u);
  // Head: 2 switch hops of (250 + 300); tail: ser of the 2-byte-route packet
  // plus final 250 propagation.
  const sim::Duration ser2 = sim::transfer_time(p.wire_bytes(), 160.0e6);
  EXPECT_EQ(rx2.got[0].first, 2 * (250u + 300u) + ser2 + 250u);
}

// --- PortList: route bytes and entry-port records ---------------------------

TEST(PortList, SixteenthEntryThrowsForRoutesAndInPortsAlike) {
  Route r;
  Packet p;
  for (std::uint8_t i = 0; i < PortList::kCapacity; ++i) {
    r.ports.push_back(i);
    p.in_ports.push_back(i);
  }
  EXPECT_EQ(r.hops(), 15u);
  EXPECT_EQ(p.in_ports.size(), 15u);
  EXPECT_THROW(r.ports.push_back(15), std::length_error);
  EXPECT_THROW(p.in_ports.push_back(15), std::length_error);
  const std::vector<std::uint8_t> one{1};
  EXPECT_THROW(r.ports.append(one.begin(), one.end()), std::length_error);
}

TEST(PortList, AppendAtEndReverseAndMutableBytes) {
  Route r{{3, 1}};
  const std::vector<std::uint8_t> home{0, 2};
  r.ports.append(home.begin(), home.end());
  EXPECT_EQ(r.ports, (std::vector<std::uint8_t>{3, 1, 0, 2}));
  EXPECT_EQ(r.wire_bytes(), 4u);

  std::reverse(r.ports.begin(), r.ports.end());
  EXPECT_EQ(r.ports, (std::vector<std::uint8_t>{2, 0, 1, 3}));

  // The access chaos::StateCorruptor uses to garble a cached route.
  r.ports[1] ^= 0xFF;
  for (auto& byte : r.ports) byte += 1;
  EXPECT_EQ(r.ports, (std::vector<std::uint8_t>{3, 0, 2, 4}));

  Packet p;
  p.in_ports = {5, 6, 7};
  Route back;
  back.ports.assign(p.in_ports.rbegin(), p.in_ports.rend());
  EXPECT_EQ(back.ports, (std::vector<std::uint8_t>{7, 6, 5}));
}

TEST(PortList, EqualityComparesOnlyTheLiveEntries) {
  Route a{{1, 2}};
  Route b{{1, 2, 9}};
  EXPECT_NE(a, b);
  b.ports.clear();
  b.ports.push_back(1);
  b.ports.push_back(2);
  EXPECT_EQ(a, b);  // the stale third byte is not compared
  EXPECT_EQ(Route{}, Route{{}});
  EXPECT_FALSE(a.ports == (std::vector<std::uint8_t>{1}));
}

}  // namespace
}  // namespace sanfault::net
