// Unit tests for the static network graph: wiring, routes, failure state.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "firmware/route_table.hpp"
#include "net/topology.hpp"

namespace sanfault::net {
namespace {

// Two hosts on one 8-port crossbar.
struct PairFixture {
  Topology topo;
  HostId h0, h1;
  SwitchId sw;
  LinkId l0, l1;

  PairFixture() {
    sw = topo.add_switch(8);
    h0 = topo.add_host();
    h1 = topo.add_host();
    l0 = topo.connect({Device::host(h0), 0}, {Device::sw(sw), 0});
    l1 = topo.connect({Device::host(h1), 0}, {Device::sw(sw), 1});
  }
};

TEST(Topology, CountsEntities) {
  PairFixture f;
  EXPECT_EQ(f.topo.num_hosts(), 2u);
  EXPECT_EQ(f.topo.num_switches(), 1u);
  EXPECT_EQ(f.topo.num_links(), 2u);
  EXPECT_EQ(f.topo.switch_ports(f.sw), 8);
}

TEST(Topology, PeerOfFollowsLinks) {
  PairFixture f;
  auto att = f.topo.peer_of({Device::host(f.h0), 0});
  ASSERT_TRUE(att.has_value());
  EXPECT_EQ(att->peer.dev, Device::sw(f.sw));
  EXPECT_EQ(att->peer.port, 0);
  EXPECT_EQ(att->link, f.l0);

  auto back = f.topo.peer_of(att->peer);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->peer.dev, Device::host(f.h0));
}

TEST(Topology, UnwiredPortHasNoPeer) {
  PairFixture f;
  EXPECT_FALSE(f.topo.peer_of({Device::sw(f.sw), 7}).has_value());
}

TEST(Topology, DoubleConnectThrows) {
  PairFixture f;
  HostId h2 = f.topo.add_host();
  EXPECT_THROW(
      f.topo.connect({Device::host(h2), 0}, {Device::sw(f.sw), 0}),
      std::logic_error);
}

TEST(Topology, HostSecondPortThrows) {
  Topology t;
  HostId h = t.add_host();
  SwitchId s = t.add_switch(4);
  EXPECT_THROW(t.connect({Device::host(h), 1}, {Device::sw(s), 0}),
               std::out_of_range);
}

TEST(Topology, ShortestRouteOneSwitch) {
  PairFixture f;
  auto r = f.topo.shortest_route(f.h0, f.h1);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->ports, (std::vector<std::uint8_t>{1}));  // out port toward h1
}

TEST(Topology, ShortestRouteToSelfIsEmpty) {
  PairFixture f;
  auto r = f.topo.shortest_route(f.h0, f.h0);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->empty());
}

TEST(Topology, RouteAcrossTwoSwitches) {
  Topology t;
  SwitchId s0 = t.add_switch(4);
  SwitchId s1 = t.add_switch(4);
  HostId a = t.add_host();
  HostId b = t.add_host();
  t.connect({Device::host(a), 0}, {Device::sw(s0), 0});
  t.connect({Device::sw(s0), 3}, {Device::sw(s1), 2});
  t.connect({Device::host(b), 0}, {Device::sw(s1), 1});
  auto r = t.shortest_route(a, b);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->ports, (std::vector<std::uint8_t>{3, 1}));
}

TEST(Topology, RouteAvoidsDownLink) {
  // Two disjoint switch paths between a and b; kill the short one.
  Topology t;
  SwitchId s0 = t.add_switch(4);   // direct switch
  SwitchId s1 = t.add_switch(4);   // detour
  SwitchId s2 = t.add_switch(4);
  HostId a = t.add_host();
  HostId b = t.add_host();
  t.connect({Device::host(a), 0}, {Device::sw(s0), 0});
  t.connect({Device::host(b), 0}, {Device::sw(s0), 1});
  LinkId direct = t.connect({Device::sw(s0), 2}, {Device::sw(s1), 0});
  t.connect({Device::sw(s1), 1}, {Device::sw(s2), 0});

  auto r1 = t.shortest_route(a, b);
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(r1->hops(), 1u);  // same switch

  // Unused here, but exercise link-down observation:
  t.set_link_up(direct, false);
  EXPECT_FALSE(t.link_up(direct));
}

TEST(Topology, RouteAvoidsDeadSwitch) {
  // a - s0 - b and a parallel path a - s0 - s1 - s2 - s0'? Build a square:
  // h0 - sA - sB - h1 and h0 - sA - sC - sB (redundant).
  Topology t;
  SwitchId sA = t.add_switch(4);
  SwitchId sB = t.add_switch(4);
  SwitchId sC = t.add_switch(4);
  HostId h0 = t.add_host();
  HostId h1 = t.add_host();
  t.connect({Device::host(h0), 0}, {Device::sw(sA), 0});
  t.connect({Device::host(h1), 0}, {Device::sw(sB), 0});
  t.connect({Device::sw(sA), 1}, {Device::sw(sB), 1});   // direct
  t.connect({Device::sw(sA), 2}, {Device::sw(sC), 0});   // detour
  t.connect({Device::sw(sC), 1}, {Device::sw(sB), 2});

  auto direct = t.shortest_route(h0, h1);
  ASSERT_TRUE(direct.has_value());
  EXPECT_EQ(direct->hops(), 2u);

  // Kill nothing on the direct path — dead sC must not matter.
  t.set_switch_up(sC, false);
  EXPECT_EQ(t.shortest_route(h0, h1)->hops(), 2u);
  t.set_switch_up(sC, true);

  // Now force the detour by downing the direct link.
  auto att = t.peer_of({Device::sw(sA), 1});
  ASSERT_TRUE(att.has_value());
  t.set_link_up(att->link, false);
  auto detour = t.shortest_route(h0, h1);
  ASSERT_TRUE(detour.has_value());
  EXPECT_EQ(detour->hops(), 3u);
  EXPECT_EQ(detour->ports, (std::vector<std::uint8_t>{2, 1, 0}));

  // Kill the detour switch too: unreachable.
  t.set_switch_up(sC, false);
  EXPECT_FALSE(t.shortest_route(h0, h1).has_value());
}

TEST(Topology, DisconnectUnplugsBothEnds) {
  PairFixture f;
  f.topo.disconnect(f.l1);
  EXPECT_FALSE(f.topo.peer_of({Device::host(f.h1), 0}).has_value());
  EXPECT_FALSE(f.topo.shortest_route(f.h0, f.h1).has_value());
  // Port 1 is free again: reconnect elsewhere.
  LinkId nl = f.topo.connect({Device::host(f.h1), 0}, {Device::sw(f.sw), 5});
  EXPECT_TRUE(f.topo.link_up(nl));
  auto r = f.topo.shortest_route(f.h0, f.h1);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->ports, (std::vector<std::uint8_t>{5}));
}

TEST(Topology, TraceRouteFollowsPorts) {
  PairFixture f;
  auto dev = f.topo.trace_route(f.h0, Route{{1}});
  ASSERT_TRUE(dev.has_value());
  EXPECT_EQ(*dev, Device::host(f.h1));
}

TEST(Topology, TraceRouteDetectsMisroutes) {
  PairFixture f;
  // Leftover route bytes after reaching a host.
  EXPECT_FALSE(f.topo.trace_route(f.h0, Route{{1, 3}}).has_value());
  // Route exhausted at the switch.
  EXPECT_FALSE(f.topo.trace_route(f.h0, Route{}).has_value());
  // Unconnected output port.
  EXPECT_FALSE(f.topo.trace_route(f.h0, Route{{6}}).has_value());
  // Port number beyond the crossbar radix.
  EXPECT_FALSE(f.topo.trace_route(f.h0, Route{{200}}).has_value());
}

// --- up-state-aware tracing and disjoint backup routes ----------------------

TEST(Topology, TraceRouteUpRequiresLiveElements) {
  // h0 - sA - sB - h1 direct, plus a detour through sC.
  Topology t;
  SwitchId sA = t.add_switch(4);
  SwitchId sB = t.add_switch(4);
  SwitchId sC = t.add_switch(4);
  HostId h0 = t.add_host();
  HostId h1 = t.add_host();
  t.connect({Device::host(h0), 0}, {Device::sw(sA), 0});
  t.connect({Device::host(h1), 0}, {Device::sw(sB), 0});
  LinkId direct = t.connect({Device::sw(sA), 1}, {Device::sw(sB), 1});
  t.connect({Device::sw(sA), 2}, {Device::sw(sC), 0});
  t.connect({Device::sw(sC), 1}, {Device::sw(sB), 2});

  const Route r{{1, 0}};  // h0 -> sA -> sB -> h1 over the direct trunk
  auto end = t.trace_route_up(h0, r);
  ASSERT_TRUE(end.has_value());
  EXPECT_EQ(*end, Device::host(h1));

  // A dead link anywhere on the walk voids it (trace_route still follows
  // the wiring — up-state is this variant's whole point).
  t.set_link_up(direct, false);
  EXPECT_FALSE(t.trace_route_up(h0, r).has_value());
  EXPECT_TRUE(t.trace_route(h0, r).has_value());
  t.set_link_up(direct, true);

  // A dead switch voids it too.
  t.set_switch_up(sB, false);
  EXPECT_FALSE(t.trace_route_up(h0, r).has_value());
}

TEST(Topology, DisjointRouteFindsNodeDisjointDetour) {
  Topology t;
  SwitchId sA = t.add_switch(4);
  SwitchId sB = t.add_switch(4);
  SwitchId sC = t.add_switch(4);
  HostId h0 = t.add_host();
  HostId h1 = t.add_host();
  t.connect({Device::host(h0), 0}, {Device::sw(sA), 0});
  t.connect({Device::host(h1), 0}, {Device::sw(sB), 0});
  t.connect({Device::sw(sA), 1}, {Device::sw(sB), 1});  // direct
  t.connect({Device::sw(sA), 2}, {Device::sw(sC), 0});  // detour
  t.connect({Device::sw(sC), 1}, {Device::sw(sB), 2});

  const auto primary = t.shortest_route(h0, h1);
  ASSERT_TRUE(primary.has_value());
  EXPECT_EQ(primary->hops(), 2u);  // via the direct trunk
  const auto alt = t.disjoint_route(h0, h1, *primary, 1);
  ASSERT_TRUE(alt.has_value());
  EXPECT_EQ(alt->cls, DisjointClass::kNodeDisjoint);
  EXPECT_NE(alt->route, *primary);
  auto end = t.trace_route(h0, alt->route);
  ASSERT_TRUE(end.has_value());
  EXPECT_EQ(*end, Device::host(h1));
}

TEST(Topology, DisjointRouteDegradesToLinkDisjointThroughSharedSwitch) {
  // Chain h0 - sA == sM == sB - h1 with doubled trunks on both segments:
  // every route crosses sM, but the second trunk pair avoids every primary
  // *link*.
  Topology t;
  SwitchId sA = t.add_switch(4);
  SwitchId sM = t.add_switch(4);
  SwitchId sB = t.add_switch(4);
  HostId h0 = t.add_host();
  HostId h1 = t.add_host();
  t.connect({Device::host(h0), 0}, {Device::sw(sA), 0});
  t.connect({Device::host(h1), 0}, {Device::sw(sB), 2});
  t.connect({Device::sw(sA), 1}, {Device::sw(sM), 0});
  t.connect({Device::sw(sA), 2}, {Device::sw(sM), 1});
  t.connect({Device::sw(sM), 2}, {Device::sw(sB), 0});
  t.connect({Device::sw(sM), 3}, {Device::sw(sB), 1});

  const auto primary = t.shortest_route(h0, h1);
  ASSERT_TRUE(primary.has_value());
  const auto alt = t.disjoint_route(h0, h1, *primary, 1);
  ASSERT_TRUE(alt.has_value());
  EXPECT_EQ(alt->cls, DisjointClass::kLinkDisjoint);
  EXPECT_NE(alt->route, *primary);
  auto end = t.trace_route(h0, alt->route);
  ASSERT_TRUE(end.has_value());
  EXPECT_EQ(*end, Device::host(h1));
}

TEST(Topology, DisjointRouteDegradesToOverlappingWhenOneLinkIsShared) {
  // Doubled first segment, single second segment: any alternate must reuse
  // the sM - sB link, but avoiding the primary's sA - sM link still
  // survives that link's death.
  Topology t;
  SwitchId sA = t.add_switch(4);
  SwitchId sM = t.add_switch(4);
  SwitchId sB = t.add_switch(4);
  HostId h0 = t.add_host();
  HostId h1 = t.add_host();
  t.connect({Device::host(h0), 0}, {Device::sw(sA), 0});
  t.connect({Device::host(h1), 0}, {Device::sw(sB), 1});
  t.connect({Device::sw(sA), 1}, {Device::sw(sM), 0});
  t.connect({Device::sw(sA), 2}, {Device::sw(sM), 1});
  t.connect({Device::sw(sM), 2}, {Device::sw(sB), 0});

  const auto primary = t.shortest_route(h0, h1);
  ASSERT_TRUE(primary.has_value());
  const auto alt = t.disjoint_route(h0, h1, *primary, 1);
  ASSERT_TRUE(alt.has_value());
  EXPECT_EQ(alt->cls, DisjointClass::kOverlapping);
  EXPECT_NE(alt->route, *primary);
  auto end = t.trace_route(h0, alt->route);
  ASSERT_TRUE(end.has_value());
  EXPECT_EQ(*end, Device::host(h1));
}

TEST(Topology, DisjointRouteImpossibleOnSharedCrossbar) {
  // Same-crossbar pair: the primary's interior is empty — the only route IS
  // the primary, and the caller degrades to a backup-less entry.
  PairFixture f;
  const auto primary = f.topo.shortest_route(f.h0, f.h1);
  ASSERT_TRUE(primary.has_value());
  EXPECT_FALSE(f.topo.disjoint_route(f.h0, f.h1, *primary, 1).has_value());
}

TEST(Topology, DisjointRouteIsDeterministicPerSalt) {
  auto f = make_figure2_fabric(8);
  const auto primary = f.topo.shortest_route(f.hosts[0], f.hosts[3]);
  ASSERT_TRUE(primary.has_value());
  const auto a = f.topo.disjoint_route(f.hosts[0], f.hosts[3], *primary, 42);
  const auto b = f.topo.disjoint_route(f.hosts[0], f.hosts[3], *primary, 42);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->route, b->route);
  EXPECT_EQ(a->cls, b->cls);
}

TEST(Figure2Fabric, CrossFabricBackupIsLinkDisjoint) {
  // sw8_a - sw16_a - sw16_b - sw8_b is a chain: the interior switches cannot
  // be avoided, but every trunk is doubled — the best achievable backup for
  // a cross-fabric pair is exactly link-disjoint, and it survives the death
  // of any single primary trunk.
  auto f = make_figure2_fabric(8);
  const auto primary = f.topo.shortest_route(f.hosts[0], f.hosts[3]);
  ASSERT_TRUE(primary.has_value());
  const auto alt = f.topo.disjoint_route(f.hosts[0], f.hosts[3], *primary, 7);
  ASSERT_TRUE(alt.has_value());
  EXPECT_EQ(alt->cls, DisjointClass::kLinkDisjoint);
  auto end = f.topo.trace_route_up(f.hosts[0], alt->route);
  ASSERT_TRUE(end.has_value());
  EXPECT_EQ(*end, Device::host(f.hosts[3]));
}

TEST(Figure2Fabric, BuildsAndConnectsAllHosts) {
  auto f = make_figure2_fabric(8);
  EXPECT_EQ(f.topo.num_hosts(), 8u);
  EXPECT_EQ(f.topo.num_switches(), 4u);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      if (i == j) continue;
      auto r = f.topo.shortest_route(f.hosts[i], f.hosts[j]);
      ASSERT_TRUE(r.has_value()) << i << "->" << j;
      auto dev = f.topo.trace_route(f.hosts[i], *r);
      ASSERT_TRUE(dev.has_value());
      EXPECT_EQ(*dev, Device::host(f.hosts[j]));
    }
  }
}

TEST(Figure2Fabric, RouteLinksListAccessTrunksAccess) {
  auto f = make_figure2_fabric(8);  // host 0 on sw8_a, host 3 on sw8_b
  const auto r = f.topo.shortest_route(f.hosts[0], f.hosts[3]);
  ASSERT_TRUE(r.has_value());
  const auto links = f.topo.route_links(f.hosts[0], *r);
  ASSERT_EQ(links.size(), 5u);  // access + 3 trunks + access
  EXPECT_EQ(links.front(), *f.topo.host_access_link(f.hosts[0]));
  EXPECT_EQ(links.back(), *f.topo.host_access_link(f.hosts[3]));
  // The trunks are the six switch-to-switch links, wired first (ids 0..5):
  // one from each redundant pair, in chain order.
  for (std::size_t i = 1; i <= 3; ++i) {
    EXPECT_EQ(links[i].v / 2, i - 1) << "hop " << i;
  }
  // A route that dead-ends on an unwired port, or leaves bytes over at the
  // destination, yields no links at all.
  EXPECT_TRUE(f.topo.route_links(f.hosts[0], Route{{6}}).empty());
  Route longer = *r;
  longer.ports.push_back(0);
  EXPECT_TRUE(f.topo.route_links(f.hosts[0], longer).empty());
}

TEST(Figure2Fabric, SurvivesSingleTrunkLinkDeath) {
  auto f = make_figure2_fabric(8);
  // Kill one of the two sw8_a - sw16_a trunks (link id 0 by construction).
  f.topo.set_link_up(LinkId{0}, false);
  for (std::size_t j = 1; j < 8; ++j) {
    EXPECT_TRUE(f.topo.shortest_route(f.hosts[0], f.hosts[j]).has_value());
  }
}

TEST(Figure2Fabric, HostCapacityIsEnforced) {
  EXPECT_THROW(make_figure2_fabric(64), std::logic_error);
}

// --- k-ary Clos / fat-tree builder (the 64/128-host scale-out fabrics) -----

TEST(ClosFabric, CanonicalShapeCounts) {
  // k = 8 fully populated: 128 hosts, 32 edge + 32 agg + 16 core switches.
  auto f = make_clos_fabric({});
  EXPECT_EQ(f.cfg.k, 8u);
  EXPECT_EQ(f.cfg.num_hosts, 128u);
  EXPECT_EQ(f.cfg.core_group_size, 4u);
  EXPECT_EQ(f.topo.num_hosts(), 128u);
  EXPECT_EQ(f.cores.size(), 16u);
  EXPECT_EQ(f.aggs.size(), 32u);
  EXPECT_EQ(f.edges.size(), 32u);
  EXPECT_EQ(f.topo.num_switches(), 80u);
  // Links: 128 host access + 8 pods * 16 edge-agg + 32 aggs * 4 core uplinks.
  EXPECT_EQ(f.topo.num_links(), 128u + 8 * 16 + 32 * 4);
  // Core switches are created first so chaos scenarios can address the spine
  // as switch 0.
  EXPECT_EQ(f.cores[0].v, 0u);
}

TEST(ClosFabric, PartialPopulationKeepsSwitchShape) {
  auto f = make_clos_fabric({.k = 8, .num_hosts = 64});
  EXPECT_EQ(f.topo.num_hosts(), 64u);
  EXPECT_EQ(f.topo.num_switches(), 80u);  // fabric shape independent of hosts
  EXPECT_EQ(f.topo.num_links(), 64u + 8 * 16 + 32 * 4);
}

TEST(ClosFabric, SpineRedundancyIsConfigurable) {
  // core_group_size 2 halves the spine: k/2 * 2 = 8 cores, 2 uplinks per agg.
  auto f = make_clos_fabric({.k = 8, .num_hosts = 32, .core_group_size = 2});
  EXPECT_EQ(f.cores.size(), 8u);
  EXPECT_EQ(f.topo.num_switches(), 8u + 32u + 32u);
  EXPECT_EQ(f.topo.num_links(), 32u + 8 * 16 + 32 * 2);
}

TEST(ClosFabric, EveryHostHasAValidAccessLink) {
  auto f = make_clos_fabric({.k = 8, .num_hosts = 64});
  for (auto h : f.hosts) {
    auto l = f.topo.host_access_link(h);
    ASSERT_TRUE(l.has_value()) << "host " << h.v;
    EXPECT_TRUE(f.topo.link_up(*l));
    auto [a, b] = f.topo.link_ends(*l);
    const bool host_end = a.dev == Device::host(h) || b.dev == Device::host(h);
    EXPECT_TRUE(host_end) << "host " << h.v;
    const Port sw_end = a.dev == Device::host(h) ? b : a;
    EXPECT_TRUE(sw_end.dev.is_switch());
    // Hosts sit on edge downlink ports (k/2 and up, below the edge radix).
    EXPECT_GE(sw_end.port, f.cfg.k / 2);
    EXPECT_LT(sw_end.port, f.cfg.k);
  }
}

TEST(ClosFabric, AllPairsReachableAtClosDistances) {
  auto f = make_clos_fabric({.k = 8, .num_hosts = 64});
  for (auto a : f.hosts) {
    for (auto b : f.hosts) {
      if (a == b) continue;
      auto r = f.topo.shortest_route(a, b);
      ASSERT_TRUE(r.has_value()) << a.v << "->" << b.v;
      auto end = f.topo.trace_route(a, *r);
      ASSERT_TRUE(end.has_value()) << a.v << "->" << b.v;
      EXPECT_EQ(*end, Device::host(b));
      // Fat-tree distances are exactly 1 (same edge), 3 (same pod) or
      // 5 (cross-pod) switches.
      EXPECT_TRUE(r->hops() == 1 || r->hops() == 3 || r->hops() == 5)
          << a.v << "->" << b.v << " hops=" << r->hops();
    }
  }
}

TEST(ClosFabric, RoundRobinPlacementSetsExpectedDistances) {
  // Hosts round-robin across the 32 pod-major edges: host 0 and host 32
  // share edge 0 (distance 1); host 1 lands on edge 1, still pod 0
  // (edges 0-3), so 0->1 is the same-pod edge-agg-edge path (distance 3);
  // host 4 lands on edge 4 in pod 1, the cross-pod path through the spine
  // (distance 5). bench_scale relies on exactly these three pairs.
  auto f = make_clos_fabric({.k = 8, .num_hosts = 64});
  EXPECT_EQ(f.topo.shortest_route(f.hosts[0], f.hosts[32])->hops(), 1u);
  EXPECT_EQ(f.topo.shortest_route(f.hosts[0], f.hosts[1])->hops(), 3u);
  EXPECT_EQ(f.topo.shortest_route(f.hosts[0], f.hosts[4])->hops(), 5u);
}

TEST(ClosFabric, SurvivesSingleCoreSwitchDeath) {
  auto f = make_clos_fabric({.k = 8, .num_hosts = 64});
  f.topo.set_switch_up(f.cores[0], false);
  // Cross-pod pairs re-route through the redundant spine.
  for (std::size_t j = 1; j < 8; ++j) {
    auto r = f.topo.shortest_route(f.hosts[0], f.hosts[j]);
    ASSERT_TRUE(r.has_value()) << "0->" << j;
    EXPECT_EQ(*f.topo.trace_route(f.hosts[0], *r), Device::host(f.hosts[j]));
  }
}

TEST(ClosFabric, RejectsBadShapes) {
  EXPECT_THROW(make_clos_fabric({.k = 5}), std::invalid_argument);
  EXPECT_THROW(make_clos_fabric({.k = 8, .core_group_size = 5}),
               std::invalid_argument);
}

TEST(ClosFabric, NamedShapesResolveCanonically) {
  // The named shapes are the contract between tests, benches and scripts:
  // exactly one geometry per label.
  const auto c64 = clos_named_shape("clos-64");
  ASSERT_TRUE(c64.has_value());
  EXPECT_EQ(c64->k, 8u);
  EXPECT_EQ(c64->num_hosts, 64u);
  const auto c128 = clos_named_shape("clos-128");
  ASSERT_TRUE(c128.has_value());
  EXPECT_EQ(c128->k, 8u);
  EXPECT_EQ(c128->num_hosts, 128u);
  const auto c256 = clos_named_shape("clos-256");
  ASSERT_TRUE(c256.has_value());
  EXPECT_EQ(c256->k, 16u);
  EXPECT_EQ(c256->num_hosts, 256u);
  const auto c1024 = clos_named_shape("clos-1024");
  ASSERT_TRUE(c1024.has_value());
  EXPECT_EQ(c1024->k, 16u);
  EXPECT_EQ(c1024->num_hosts, 1024u);
  EXPECT_FALSE(clos_named_shape("clos-42").has_value());
  EXPECT_FALSE(clos_named_shape("").has_value());
}

TEST(ClosFabric, Clos256RadixAndPodShape) {
  // k = 16 quarter-populated: 16 pods of 8 edges + 8 aggs, 64-core spine.
  auto f = make_clos_fabric(*clos_named_shape("clos-256"));
  EXPECT_EQ(f.cfg.core_group_size, 8u);
  EXPECT_EQ(f.topo.num_hosts(), 256u);
  EXPECT_EQ(f.cores.size(), 64u);
  EXPECT_EQ(f.aggs.size(), 128u);
  EXPECT_EQ(f.edges.size(), 128u);
  EXPECT_EQ(f.topo.num_switches(), 320u);
  // 256 access + 16 pods * 64 edge-agg + 128 aggs * 8 core uplinks.
  EXPECT_EQ(f.topo.num_links(), 256u + 16 * 64 + 128 * 8);
  // Cores and aggs run at full radix k = 16; the quarter-populated edges
  // carry 2 hosts + 8 agg uplinks (the spare ports are the headroom
  // clos-1024 fills on the identical switch core).
  for (auto s : f.cores) EXPECT_EQ(f.topo.switch_ports(s), 16u);
  for (auto s : f.aggs) EXPECT_EQ(f.topo.switch_ports(s), 16u);
  for (auto s : f.edges) EXPECT_EQ(f.topo.switch_ports(s), 10u);
  // Round-robin population: host 0 (edge 0, pod 0) to host 8 (edge 8,
  // pod 1) is a cross-pod 5-hop path; host 0 to host 1 stays in pod 0.
  EXPECT_EQ(f.topo.shortest_route(f.hosts[0], f.hosts[8])->hops(), 5u);
  EXPECT_EQ(f.topo.shortest_route(f.hosts[0], f.hosts[1])->hops(), 3u);
}

// --- RouteGolden: every route answer pinned by one FNV-1a digest -----------
//
// Each digest folds the answers of one route query over every ordered host
// pair of a fabric, so a change to the search or the walk that moves any
// byte of any answer fails here. The routes feed every golden and digest
// the benches and perfbench compare, so these constants must not move.

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void byte(std::uint8_t b) { h = (h ^ b) * 0x100000001b3ull; }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void route(const std::optional<Route>& r) {
    if (!r) return byte(0xFF);
    byte(static_cast<std::uint8_t>(r->ports.size()));
    for (const std::uint8_t p : r->ports) byte(p);
  }
  void device(const std::optional<Device>& d) {
    if (!d) return byte(0xFF);
    byte(d->is_host() ? 0 : 1);
    u32(d->index);
  }
};

constexpr std::uint64_t kGoldenSalt = 0x60ddbeefull;

struct GoldenFabric {
  Topology topo;
  std::vector<HostId> hosts;
  LinkId trunk;      // a switch-to-switch link the fault cases take down
  SwitchId victim;   // a switch the fault cases take down
};

GoldenFabric golden_single8() {
  GoldenFabric g;
  const SwitchId sw = g.topo.add_switch(8);
  for (std::uint8_t i = 0; i < 8; ++i) {
    g.hosts.push_back(g.topo.add_host());
    g.topo.connect({Device::host(g.hosts.back()), 0}, {Device::sw(sw), i});
  }
  g.victim = sw;
  return g;
}

GoldenFabric golden_fig2_16() {
  auto f = make_figure2_fabric(16);
  // Link 0 is the first sw8_a - sw16_a trunk; sw16_b sits mid-chain, so
  // its death partitions the fabric and exercises unreachable answers.
  return {std::move(f.topo), std::move(f.hosts), LinkId{0}, f.sw16_b};
}

GoldenFabric golden_clos(ClosConfig cfg) {
  auto f = make_clos_fabric(cfg);
  // The first aggregation switch's first spine uplink, and the first core.
  const auto up = f.topo.peer_of(
      {Device::sw(f.aggs[0]), static_cast<std::uint8_t>(f.cfg.k / 2)});
  return {std::move(f.topo), std::move(f.hosts), up->link, f.cores[0]};
}

GoldenFabric golden_clos16() { return golden_clos({.k = 4}); }
GoldenFabric golden_clos64() { return golden_clos(*clos_named_shape("clos-64")); }

std::uint64_t shortest_digest(const GoldenFabric& g) {
  Fnv1a d;
  for (const HostId a : g.hosts) {
    for (const HostId b : g.hosts) d.route(g.topo.shortest_route(a, b));
  }
  return d.h;
}

std::uint64_t disjoint_digest(const GoldenFabric& g) {
  Fnv1a d;
  for (const HostId a : g.hosts) {
    for (const HostId b : g.hosts) {
      if (a == b) continue;
      const auto alt = g.topo.disjoint_route(
          a, b, *g.topo.shortest_route(a, b), kGoldenSalt);
      d.byte(alt ? static_cast<std::uint8_t>(alt->cls) : 0xFF);
      if (alt) d.route(alt->route);
    }
  }
  return d.h;
}

/// device_after over every prefix of `r`, plus one byte past its end.
void hash_prefixes(Fnv1a& d, const Topology& t, HostId a, const Route& r) {
  Route prefix;
  d.device(t.device_after(a, prefix));
  for (const std::uint8_t p : r.ports) {
    prefix.ports.push_back(p);
    d.device(t.device_after(a, prefix));
  }
  prefix.ports.push_back(0);
  d.device(t.device_after(a, prefix));
}

std::uint64_t prefix_digest(const GoldenFabric& g, bool with_alternates) {
  Fnv1a d;
  for (const HostId a : g.hosts) {
    for (const HostId b : g.hosts) {
      const Route r = *g.topo.shortest_route(a, b);
      hash_prefixes(d, g.topo, a, r);
      if (!with_alternates || a == b) continue;
      if (const auto alt = g.topo.disjoint_route(a, b, r, kGoldenSalt)) {
        hash_prefixes(d, g.topo, a, alt->route);
      }
    }
  }
  return d.h;
}

void trunk_down(GoldenFabric& g) { g.topo.set_link_up(g.trunk, false); }
void switch_down(GoldenFabric& g) { g.topo.set_switch_up(g.victim, false); }

/// trace_route_up of every pair's fault-free shortest route, after `fault`.
std::uint64_t trace_up_digest(GoldenFabric g, void (*fault)(GoldenFabric&)) {
  std::vector<Route> routes;
  for (const HostId a : g.hosts) {
    for (const HostId b : g.hosts) routes.push_back(*g.topo.shortest_route(a, b));
  }
  fault(g);
  Fnv1a d;
  std::size_t i = 0;
  for (const HostId a : g.hosts) {
    for (std::size_t j = 0; j < g.hosts.size(); ++j) {
      d.device(g.topo.trace_route_up(a, routes[i++]));
    }
  }
  return d.h;
}

TEST(RouteGolden, ShortestRouteEveryPair) {
  EXPECT_EQ(shortest_digest(golden_single8()), 0xf7c72bdfaf1cfbcdull);
  EXPECT_EQ(shortest_digest(golden_fig2_16()), 0x50619ba95c8e824dull);
  EXPECT_EQ(shortest_digest(golden_clos16()), 0xbaba2468af83877dull);
  EXPECT_EQ(shortest_digest(golden_clos64()), 0xa416fe3a47149f05ull);
}

TEST(RouteGolden, ShortestRouteAroundFaults) {
  auto faulted = [](GoldenFabric g, void (*fault)(GoldenFabric&)) {
    fault(g);
    return shortest_digest(g);
  };
  EXPECT_EQ(faulted(golden_fig2_16(), trunk_down), 0x2d2cf7311b179d79ull);
  EXPECT_EQ(faulted(golden_fig2_16(), switch_down), 0x32c208fb536221e5ull);
  EXPECT_EQ(faulted(golden_clos64(), trunk_down), 0x276ab6a42cb773d5ull);
  EXPECT_EQ(faulted(golden_clos64(), switch_down), 0x75bbefa405f70305ull);
}

TEST(RouteGolden, DisjointRouteEveryPair) {
  EXPECT_EQ(disjoint_digest(golden_fig2_16()), 0xbf8d72b3b85a00fdull);
  EXPECT_EQ(disjoint_digest(golden_clos64()), 0xe69904a53f49da09ull);
}

TEST(RouteGolden, DeviceAfterEveryPrefix) {
  EXPECT_EQ(prefix_digest(golden_single8(), false), 0xf7784dbed549356dull);
  EXPECT_EQ(prefix_digest(golden_fig2_16(), true), 0x8d7d836af319c30dull);
  EXPECT_EQ(prefix_digest(golden_clos16(), false), 0x7e60fc78924cf5cdull);
  EXPECT_EQ(prefix_digest(golden_clos64(), true), 0xd4667be479b843adull);
}

TEST(RouteGolden, TraceRouteUpWithTrunkDown) {
  EXPECT_EQ(trace_up_digest(golden_fig2_16(), trunk_down),
            0xff6a8bc4eb578e3dull);
  EXPECT_EQ(trace_up_digest(golden_clos64(), trunk_down),
            0x42a9f302ff6988a5ull);
}

TEST(RouteGolden, PopulateAllEqualsPerPairSearch) {
  auto check = [](const GoldenFabric& g) {
    for (const HostId a : g.hosts) {
      firmware::RouteTable table;
      table.populate_all(g.topo, a);
      for (const HostId b : g.hosts) {
        const auto want = a == b ? std::nullopt : g.topo.shortest_route(a, b);
        EXPECT_EQ(table.get(b), want) << a.v << "->" << b.v;
      }
    }
  };
  auto clos = golden_clos64();
  check(clos);
  switch_down(clos);
  check(clos);
  // A partitioned fabric: unreachable hosts stay out of the table.
  auto fig2 = golden_fig2_16();
  switch_down(fig2);
  check(fig2);
}

TEST(ClosFabric, Clos1024RadixAndPodShape) {
  // k = 16 fully populated: k^3/4 = 1024 hosts on the same 320-switch core.
  auto f = make_clos_fabric(*clos_named_shape("clos-1024"));
  EXPECT_EQ(f.topo.num_hosts(), 1024u);
  EXPECT_EQ(f.topo.num_switches(), 320u);
  EXPECT_EQ(f.topo.num_links(), 1024u + 16 * 64 + 128 * 8);
  // Full population saturates every edge downlink: 8 hosts per edge. Edge
  // switch ids are pod-interleaved with the aggs, so count by id.
  std::vector<std::size_t> per_switch(f.topo.num_switches(), 0);
  for (auto h : f.hosts) {
    auto l = f.topo.host_access_link(h);
    ASSERT_TRUE(l.has_value());
    auto [a, b] = f.topo.link_ends(*l);
    const Port sw_end = a.dev.is_switch() ? a : b;
    ++per_switch[sw_end.dev.as_switch().v];
  }
  for (auto e : f.edges) EXPECT_EQ(per_switch[e.v], 8u) << "edge " << e.v;
  for (auto s : f.cores) EXPECT_EQ(per_switch[s.v], 0u);
  for (auto s : f.aggs) EXPECT_EQ(per_switch[s.v], 0u);
}

}  // namespace
}  // namespace sanfault::net
