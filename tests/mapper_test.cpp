// Tests for the on-demand mapper (§4.2) and the full-map baseline:
// cold-start discovery, permanent-failure recovery with generation restart,
// dynamic reconfiguration (node moves), unreachable nodes, and probe
// accounting.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "harness/cluster.hpp"
#include "sim/process.hpp"

namespace sanfault {
namespace {

using harness::Cluster;
using harness::ClusterConfig;
using harness::FirmwareKind;
using harness::MapperKind;
using harness::TopoKind;

struct Drainer {
  std::vector<harness::HostMsg> msgs;
};

sim::Process drain(Cluster& c, std::size_t host, Drainer& d) {
  for (;;) {
    harness::HostMsg m = co_await c.inbox(host).pop(c.sched);
    d.msgs.push_back(std::move(m));
  }
}

ClusterConfig ondemand_cfg(std::size_t hosts, TopoKind topo) {
  ClusterConfig cfg;
  cfg.num_hosts = hosts;
  cfg.topo = topo;
  cfg.fw = FirmwareKind::kReliable;
  cfg.mapper = MapperKind::kOnDemand;
  cfg.preload_routes = false;  // cold start: no routes anywhere
  cfg.rel.fail_threshold = sim::milliseconds(20);
  return cfg;
}

// Probe routes are inline PortLists, so the BFS depth bound is checked
// where the mapper is built rather than overflowing mid-run.
TEST(OnDemandMapper, DepthBoundKeepsProbeRoutesInsideAPortList) {
  using firmware::OnDemandMapper;
  EXPECT_EQ(OnDemandMapper::longest_probe_route(6), 13u);
  EXPECT_LE(OnDemandMapper::longest_probe_route(
                firmware::OnDemandMapperConfig{}.max_depth),
            net::PortList::kCapacity);

  ClusterConfig cfg = ondemand_cfg(4, TopoKind::kFigure2);
  cfg.ondemand.max_depth = 7;  // 15-byte probes: the deepest bound that fits
  EXPECT_NO_THROW(Cluster{cfg});
  cfg.ondemand.max_depth = 8;
  EXPECT_THROW(Cluster{cfg}, std::invalid_argument);
}

TEST(OnDemandMapper, ColdStartDiscoversRouteAndDelivers) {
  Cluster c(ondemand_cfg(2, TopoKind::kSingleSwitch));
  Drainer d;
  drain(c, 1, d);
  c.send(0, 1, std::vector<std::uint8_t>(32, 7));
  c.sched.run_until(sim::seconds(2));
  ASSERT_EQ(d.msgs.size(), 1u);
  EXPECT_EQ(c.mapper(0).stats().mappings_succeeded, 1u);
  EXPECT_GT(c.mapper(0).stats().host_probes_tx, 0u);
  // Route cached in the table now.
  EXPECT_TRUE(c.rel(0).routes().contains(c.hosts[1]));
}

TEST(OnDemandMapper, DiscoveredRouteMatchesTopologyTruth) {
  Cluster c(ondemand_cfg(2, TopoKind::kSingleSwitch));
  Drainer d;
  drain(c, 1, d);
  c.send(0, 1, std::vector<std::uint8_t>(8, 1));
  c.sched.run_until(sim::seconds(2));
  auto r = c.rel(0).routes().get(c.hosts[1]);
  ASSERT_TRUE(r.has_value());
  auto end = c.topo.trace_route(c.hosts[0], *r);
  ASSERT_TRUE(end.has_value());
  EXPECT_EQ(*end, net::Device::host(c.hosts[1]));
}

TEST(OnDemandMapper, MapsAcrossFigure2AtAllDistances) {
  Cluster c(ondemand_cfg(8, TopoKind::kFigure2));
  // hosts 0..3 sit on sw8_a, sw16_a, sw16_b, sw8_b respectively: distances
  // of 1..4 switches from host 4 (also on sw8_a).
  Drainer drains[4];
  for (int t = 0; t < 4; ++t) drain(c, static_cast<std::size_t>(t), drains[t]);
  for (int t = 0; t < 4; ++t) {
    c.send(4, static_cast<std::size_t>(t), std::vector<std::uint8_t>(16, 1));
    c.sched.run_until(c.sched.now() + sim::seconds(5));
  }
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(drains[t].msgs.size(), 1u) << "target " << t;
  }
  EXPECT_EQ(c.mapper(4).stats().mappings_failed, 0u);
}

TEST(OnDemandMapper, SameSwitchMappingNeedsNoSwitchProbesWhenWarm) {
  Cluster c(ondemand_cfg(8, TopoKind::kFigure2));
  Drainer d0, d4;
  drain(c, 0, d0);
  drain(c, 4, d4);
  // Warm-up: host 0 maps to host 4 (same switch) — this discovers the attach
  // port with bounce probes.
  c.send(0, 4, std::vector<std::uint8_t>(8, 1));
  c.sched.run_until(sim::seconds(5));
  ASSERT_EQ(d4.msgs.size(), 1u);
  // Invalidate and re-map while warm: attach port is cached, destination is
  // re-probed => host probes only (Table 3, row 1: 0 switch probes).
  c.rel(0).routes().invalidate(c.hosts[4]);
  c.mapper(0).invalidate_path(c.hosts[4]);  // drop the LRU path-cache entry
  const auto sw_before = c.mapper(0).stats().switch_probes_tx;
  c.mapper(0).request_route(c.hosts[4], [](std::optional<net::Route> r) {
    EXPECT_TRUE(r.has_value());
  });
  c.sched.run_until(c.sched.now() + sim::seconds(5));
  EXPECT_EQ(c.mapper(0).stats().switch_probes_tx, sw_before);
  EXPECT_GT(c.mapper(0).stats().last_host_probes, 0u);
}

TEST(OnDemandMapper, ProbeCountsGrowWithDistance) {
  // Map from host 4 (sw8_a) to targets at increasing switch distance and
  // check the Table-3 shape: probes grow roughly linearly with depth.
  std::vector<std::uint64_t> probes;
  for (std::size_t target = 0; target < 4; ++target) {
    Cluster c(ondemand_cfg(8, TopoKind::kFigure2));
    Drainer d;
    drain(c, target, d);
    c.send(4, target, std::vector<std::uint8_t>(8, 1));
    c.sched.run_until(sim::seconds(30));
    ASSERT_EQ(d.msgs.size(), 1u) << "target " << target;
    probes.push_back(c.mapper(4).stats().host_probes_tx +
                     c.mapper(4).stats().switch_probes_tx);
  }
  // Monotone growth with distance (hosts 0,1,2,3 are 1,2,3,4 switches away).
  EXPECT_LT(probes[0], probes[1]);
  EXPECT_LT(probes[1], probes[2]);
  EXPECT_LT(probes[2], probes[3]);
}

TEST(OnDemandMapper, PermanentTrunkFailureRecoversViaRedundantLink) {
  auto cfg = ondemand_cfg(8, TopoKind::kFigure2);
  cfg.preload_routes = true;  // steady state first
  Cluster c(cfg);
  Drainer d;
  drain(c, 3, d);

  // Steady-state traffic host0 (sw8_a) -> host3 (sw8_b).
  c.send(0, 3, std::vector<std::uint8_t>(16, 1));
  c.sched.run_until(sim::seconds(1));
  ASSERT_EQ(d.msgs.size(), 1u);

  // Kill the first trunk on every segment the preloaded (BFS-shortest) route
  // uses; the redundant second trunks remain.
  c.topo.set_link_up(net::LinkId{0}, false);
  c.topo.set_link_up(net::LinkId{2}, false);
  c.topo.set_link_up(net::LinkId{4}, false);

  const auto gen_before = c.rel(0).tx_channel(c.hosts[3])->generation;
  for (int i = 0; i < 5; ++i) {
    net::UserHeader u;
    u.w0 = static_cast<std::uint64_t>(100 + i);
    c.send(0, 3, std::vector<std::uint8_t>(16, 2), u);
  }
  c.sched.run_until(sim::seconds(60));

  // All five messages delivered exactly once, in order, on the new route.
  ASSERT_EQ(d.msgs.size(), 6u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(d.msgs[static_cast<std::size_t>(i + 1)].user.w0,
              static_cast<std::uint64_t>(100 + i));
  }
  EXPECT_GE(c.rel(0).stats().path_failures, 1u);
  EXPECT_GE(c.mapper(0).stats().mappings_succeeded, 1u);
  // New generation started (§4.2 sequence-number reset).
  EXPECT_GT(c.rel(0).tx_channel(c.hosts[3])->generation, gen_before);
  // Buffers all recovered.
  EXPECT_EQ(c.nic(0).send_pool().free_count(), c.nic(0).send_pool().capacity());
}

TEST(OnDemandMapper, NodeDeathEndsInUnreachableAndDropsPending) {
  auto cfg = ondemand_cfg(4, TopoKind::kSingleSwitch);
  cfg.preload_routes = true;
  cfg.ondemand.max_ports = 8;  // keep the fruitless search short
  Cluster c(cfg);
  // Unplug host 1 completely.
  auto att = c.topo.peer_of({net::Device::host(c.hosts[1]), 0});
  ASSERT_TRUE(att.has_value());
  c.topo.set_link_up(att->link, false);

  for (int i = 0; i < 3; ++i) {
    c.send(0, 1, std::vector<std::uint8_t>(16, 1));
  }
  c.sched.run_until(sim::seconds(120));
  EXPECT_GE(c.mapper(0).stats().mappings_failed, 1u);
  const auto* tx = c.rel(0).tx_channel(c.hosts[1]);
  ASSERT_NE(tx, nullptr);
  EXPECT_TRUE(tx->unreachable);
  EXPECT_EQ(c.rel(0).stats().unreachable_drops, 3u);
  EXPECT_EQ(c.nic(0).send_pool().free_count(), c.nic(0).send_pool().capacity());
}

TEST(OnDemandMapper, DynamicReconfigurationNodeMovesToNewSwitch) {
  // The paper's Table-3 scenario: a node is re-connected at a different
  // location and the first packet exchange triggers re-mapping.
  auto cfg = ondemand_cfg(8, TopoKind::kFigure2);
  cfg.preload_routes = true;
  Cluster c(cfg);
  Drainer d;
  drain(c, 3, d);

  c.send(0, 3, std::vector<std::uint8_t>(16, 1));
  c.sched.run_until(sim::seconds(1));
  ASSERT_EQ(d.msgs.size(), 1u);

  // Move host 3 from sw8_b to a free port on sw16_a.
  auto att = c.topo.peer_of({net::Device::host(c.hosts[3]), 0});
  ASSERT_TRUE(att.has_value());
  c.topo.disconnect(att->link);
  c.topo.connect({net::Device::host(c.hosts[3]), 0},
                 {net::Device::sw(c.switches[1]), 12});

  // Note: host 3's own mapper must rediscover its attach port; flush its
  // cached level-0 knowledge as a real NIC reset on re-cabling would.
  c.mapper(3).flush_cache();

  c.send(0, 3, std::vector<std::uint8_t>(16, 2));
  c.sched.run_until(sim::seconds(60));
  ASSERT_EQ(d.msgs.size(), 2u);
  EXPECT_GE(c.rel(0).stats().path_failures, 1u);
  EXPECT_GE(c.mapper(0).stats().mappings_succeeded, 1u);
}

TEST(OnDemandMapper, ConcurrentRequestsForSameDestinationMerge) {
  Cluster c(ondemand_cfg(2, TopoKind::kSingleSwitch));
  int called = 0;
  for (int i = 0; i < 3; ++i) {
    c.mapper(0).request_route(c.hosts[1],
                              [&called](std::optional<net::Route> r) {
                                EXPECT_TRUE(r.has_value());
                                ++called;
                              });
  }
  c.sched.run_until(sim::seconds(5));
  EXPECT_EQ(called, 3);
  EXPECT_EQ(c.mapper(0).stats().mappings_started, 1u);
}

TEST(OnDemandMapper, MappingSurvivesLossyFabric) {
  auto cfg = ondemand_cfg(2, TopoKind::kSingleSwitch);
  cfg.ondemand.probe_retries = 3;
  Cluster c(cfg);
  c.fabric().link_faults(net::LinkId{0}).loss_prob = 0.2;
  c.fabric().link_faults(net::LinkId{1}).loss_prob = 0.2;
  Drainer d;
  drain(c, 1, d);
  c.send(0, 1, std::vector<std::uint8_t>(16, 1));
  c.sched.run_until(sim::seconds(30));
  EXPECT_EQ(d.msgs.size(), 1u);
  EXPECT_EQ(c.mapper(0).stats().mappings_succeeded, 1u);
}

/// Drive one route request to completion on a quiescent cluster.
std::optional<net::Route> map_now(Cluster& c, std::size_t src,
                                  std::size_t dst) {
  bool done = false;
  std::optional<net::Route> got;
  c.mapper(src).request_route(c.hosts[dst],
                              [&](std::optional<net::Route> r) {
                                got = std::move(r);
                                done = true;
                              });
  while (!done && c.sched.step()) {
  }
  return got;
}

TEST(OnDemandMapper, ProbeBudgetExhaustionFailsTheMapping) {
  auto cfg = ondemand_cfg(8, TopoKind::kFigure2);
  cfg.ondemand.max_probes = 10;  // far below a distance-4 discovery
  Cluster c(cfg);
  const auto r = map_now(c, 4, 3);  // host 3 is 4 switches away
  EXPECT_FALSE(r.has_value());
  EXPECT_EQ(c.mapper(4).stats().probe_budget_exhausted, 1u);
  EXPECT_EQ(c.mapper(4).stats().mappings_failed, 1u);
  // stats count wire transmissions (timed-out probes retransmit once), so
  // the budget of 10 logical probes bounds them at 10 * (1 + retries).
  EXPECT_LE(c.mapper(4).stats().host_probes_tx +
                c.mapper(4).stats().switch_probes_tx,
            10u * 2);
  // The budget is per mapping: a nearby destination still fits inside it.
  const auto near = map_now(c, 4, 0);  // same switch
  EXPECT_TRUE(near.has_value());
}

TEST(OnDemandMapper, MultipathSelectionIsDeterministic) {
  // Two independent clusters with the same seed must discover the same
  // equal-cost route, and a remap inside one cluster must re-pick it: the
  // choice is a function of (salt, src, dst), not probe arrival order.
  auto cfg = ondemand_cfg(64, TopoKind::kClos);
  cfg.ondemand.multipath = true;
  cfg.ondemand.max_probes = std::size_t{1} << 17;
  std::optional<net::Route> first;
  for (int run = 0; run < 2; ++run) {
    Cluster c(cfg);
    const auto r = map_now(c, 0, 1);  // same pod: agg-layer choice exists
    ASSERT_TRUE(r.has_value());
    EXPECT_GT(c.mapper(0).stats().multipath_candidates, 0u);
    if (!first) {
      first = r;
      // Same-cluster remap re-picks the identical route.
      c.rel(0).routes().invalidate(c.hosts[1]);
      c.mapper(0).invalidate_path(c.hosts[1]);
      const auto again = map_now(c, 0, 1);
      ASSERT_TRUE(again.has_value());
      EXPECT_EQ(again->ports, r->ports);
    } else {
      EXPECT_EQ(r->ports, first->ports);
    }
  }
}

TEST(OnDemandMapper, MultipathSaltSteersEqualCostChoice) {
  // Different salts may pick different members of the equal-cost set, but
  // every pick must be a valid shortest route to the destination.
  std::vector<net::Route> picks;
  for (std::uint64_t salt : {0x5ca1ab1eull, 0x0ddba11ull, 0xf00dull}) {
    auto cfg = ondemand_cfg(64, TopoKind::kClos);
    cfg.ondemand.multipath = true;
    cfg.ondemand.multipath_salt = salt;
    cfg.ondemand.max_probes = std::size_t{1} << 17;
    Cluster c(cfg);
    const auto r = map_now(c, 0, 1);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->hops(), 3u);  // same-pod shortest distance
    auto end = c.topo.trace_route(c.hosts[0], *r);
    ASSERT_TRUE(end.has_value());
    EXPECT_EQ(*end, net::Device::host(c.hosts[1]));
    picks.push_back(*r);
  }
}

TEST(OnDemandMapper, PathCacheHitsInvalidationAndLruEviction) {
  auto cfg = ondemand_cfg(8, TopoKind::kFigure2);
  cfg.ondemand.path_cache_capacity = 2;
  cfg.ondemand.cache_discovered_hosts = false;  // only requested dsts cached
  Cluster c(cfg);

  ASSERT_TRUE(map_now(c, 0, 1).has_value());
  ASSERT_TRUE(map_now(c, 0, 2).has_value());  // cache = {2, 1}
  const auto& st = c.mapper(0).stats();
  EXPECT_EQ(st.path_cache_evictions, 0u);
  ASSERT_TRUE(map_now(c, 0, 3).has_value());  // evicts 1 => {3, 2}
  EXPECT_EQ(st.path_cache_evictions, 1u);

  // Cached destinations are served without probing.
  const auto probes_before = st.host_probes_tx + st.switch_probes_tx;
  ASSERT_TRUE(map_now(c, 0, 2).has_value());
  EXPECT_EQ(st.path_cache_hits, 1u);
  EXPECT_EQ(st.host_probes_tx + st.switch_probes_tx, probes_before);

  // The evicted destination must re-probe.
  ASSERT_TRUE(map_now(c, 0, 1).has_value());
  EXPECT_GT(st.host_probes_tx + st.switch_probes_tx, probes_before);

  // Invalidation drops exactly one entry and counts it.
  c.mapper(0).invalidate_path(c.hosts[1]);
  EXPECT_EQ(st.path_cache_invalidations, 1u);
  const auto probes_mid = st.host_probes_tx + st.switch_probes_tx;
  ASSERT_TRUE(map_now(c, 0, 1).has_value());
  EXPECT_GT(st.host_probes_tx + st.switch_probes_tx, probes_mid);

  // flush_cache loses the attach-port knowledge too: the next mapping pays
  // switch probes again, as after a NIC reset.
  c.mapper(0).flush_cache();
  const auto sw_before = st.switch_probes_tx;
  ASSERT_TRUE(map_now(c, 0, 2).has_value());
  EXPECT_GT(st.switch_probes_tx, sw_before);
}

// --- proactive backup paths (docs/ROUTING.md) -------------------------------

ClusterConfig proactive_cfg(std::size_t hosts, TopoKind topo) {
  auto cfg = ondemand_cfg(hosts, topo);
  cfg.preload_routes = true;  // Cluster seeds the cache + backups
  cfg.ondemand.proactive_backup = true;
  return cfg;
}

TEST(ProactiveBackup, PromotionServesFailoverWithZeroProbes) {
  Cluster c(proactive_cfg(8, TopoKind::kFigure2));
  const auto& st = c.mapper(0).stats();
  // Seeding filled both slots: a primary and a disjoint backup (Figure 2's
  // redundant trunk pairs guarantee at least link-disjointness).
  ASSERT_NE(c.mapper(0).cached_route(c.hosts[3]), nullptr);
  const auto* slot = c.mapper(0).cached_backup(c.hosts[3]);
  ASSERT_NE(slot, nullptr);
  ASSERT_TRUE(slot->has_value());
  const net::Route backup = (*slot)->route;
  EXPECT_NE(backup, *c.mapper(0).cached_route(c.hosts[3]));
  EXPECT_GT(st.backup_computed, 0u);

  // A path failure promotes in one step: the backup becomes the primary and
  // the next request is a cache hit — no probe leaves the NIC.
  const auto probes_before = st.host_probes_tx + st.switch_probes_tx;
  EXPECT_TRUE(c.mapper(0).on_path_failure(c.hosts[3]));
  EXPECT_EQ(st.backup_promotions, 1u);
  ASSERT_NE(c.mapper(0).cached_route(c.hosts[3]), nullptr);
  EXPECT_EQ(*c.mapper(0).cached_route(c.hosts[3]), backup);
  const auto r = map_now(c, 0, 3);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, backup);
  EXPECT_EQ(st.path_cache_hits, 1u);
  EXPECT_EQ(st.host_probes_tx + st.switch_probes_tx, probes_before);

  // The emptied backup slot is replenished in the background, verified by
  // one host probe — off the failover critical path.
  c.sched.run_until(c.sched.now() + sim::seconds(1));
  EXPECT_EQ(st.backup_replenish_probes, 1u);
  const auto* refilled = c.mapper(0).cached_backup(c.hosts[3]);
  ASSERT_NE(refilled, nullptr);
  ASSERT_TRUE(refilled->has_value());
  EXPECT_NE((*refilled)->route, backup);  // disjoint from the new primary
}

TEST(ProactiveBackup, StaleBackupIsRejectedAndFallsBackToProbing) {
  Cluster c(proactive_cfg(8, TopoKind::kFigure2));
  const auto& st = c.mapper(0).stats();
  const auto* slot = c.mapper(0).cached_backup(c.hosts[3]);
  ASSERT_NE(slot, nullptr);
  ASSERT_TRUE(slot->has_value());

  // Kill an interior link of the *backup* route: the backup is now as dead
  // as the primary will be. Promotion must refuse it — never deliver over a
  // wrong route — and drop the whole entry instead.
  const auto links = c.topo.route_links(c.hosts[0], (*slot)->route);
  ASSERT_GT(links.size(), 2u);  // host3 is 4 switches away: has interior
  c.topo.set_link_up(links[1], false);

  EXPECT_FALSE(c.mapper(0).on_path_failure(c.hosts[3]));
  EXPECT_EQ(st.backup_stale_rejections, 1u);
  EXPECT_EQ(st.backup_promotions, 0u);
  EXPECT_EQ(c.mapper(0).cached_route(c.hosts[3]), nullptr);

  // The fallback is the ordinary probe path, which routes around the dead
  // link (redundant trunks remain).
  const auto probes_before = st.host_probes_tx + st.switch_probes_tx;
  const auto r = map_now(c, 0, 3);
  ASSERT_TRUE(r.has_value());
  EXPECT_GT(st.host_probes_tx + st.switch_probes_tx, probes_before);
  auto end = c.topo.trace_route_up(c.hosts[0], *r);
  ASSERT_TRUE(end.has_value());
  EXPECT_EQ(*end, net::Device::host(c.hosts[3]));
}

TEST(ProactiveBackup, DisjointnessImpossibleDegradesGracefully) {
  // Single crossbar: the only route between any pair IS the primary, so no
  // backup can exist. The entry stays backup-less and failures fall back to
  // probing — proactive mode must not make the degenerate fabric worse.
  Cluster c(proactive_cfg(4, TopoKind::kSingleSwitch));
  const auto& st = c.mapper(0).stats();
  ASSERT_NE(c.mapper(0).cached_route(c.hosts[1]), nullptr);
  const auto* slot = c.mapper(0).cached_backup(c.hosts[1]);
  ASSERT_NE(slot, nullptr);
  EXPECT_FALSE(slot->has_value());
  EXPECT_EQ(st.backup_computed, 0u);

  EXPECT_FALSE(c.mapper(0).on_path_failure(c.hosts[1]));
  EXPECT_EQ(st.backup_promotions, 0u);
  EXPECT_EQ(st.backup_stale_rejections, 0u);  // absent, not stale
  EXPECT_EQ(c.mapper(0).cached_route(c.hosts[1]), nullptr);
  EXPECT_TRUE(map_now(c, 0, 1).has_value());
}

TEST(ProactiveBackup, PromotionDuringInFlightProbeDoesNotDoubleCache) {
  // A BFS for dst is mid-probe when a path failure is served by promotion
  // (the entry appeared concurrently — an operator seed here; a
  // discovered-in-passing fill in general). The stale BFS result must not
  // overwrite the promoted entry, and the waiting callbacks must get the
  // promoted route, not the poisoned one.
  auto cfg = proactive_cfg(8, TopoKind::kFigure2);
  cfg.preload_routes = false;  // cold: request_route actually probes
  Cluster c(cfg);
  const auto& st = c.mapper(0).stats();

  bool done = false;
  std::optional<net::Route> got;
  c.mapper(0).request_route(c.hosts[3], [&](std::optional<net::Route> r) {
    got = std::move(r);
    done = true;
  });
  // Let the BFS start probing, then install an entry + backup behind its
  // back and declare the path failed.
  c.sched.run_until(c.sched.now() + sim::microseconds(500));
  ASSERT_FALSE(done);
  const auto primary = c.topo.shortest_route(c.hosts[0], c.hosts[3]);
  ASSERT_TRUE(primary.has_value());
  c.mapper(0).seed_cache(c.hosts[3], *primary);
  const auto* slot = c.mapper(0).cached_backup(c.hosts[3]);
  ASSERT_NE(slot, nullptr);
  ASSERT_TRUE(slot->has_value());
  const net::Route backup = (*slot)->route;
  EXPECT_TRUE(c.mapper(0).on_path_failure(c.hosts[3]));

  while (!done && c.sched.step()) {
  }
  ASSERT_TRUE(done);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, backup);  // promoted route answered the callbacks
  ASSERT_NE(c.mapper(0).cached_route(c.hosts[3]), nullptr);
  EXPECT_EQ(*c.mapper(0).cached_route(c.hosts[3]), backup);
  EXPECT_EQ(st.backup_promotions, 1u);
}

TEST(ProactiveBackup, NicResetFlushesBothSlots) {
  Cluster c(proactive_cfg(8, TopoKind::kFigure2));
  ASSERT_NE(c.mapper(0).cached_route(c.hosts[3]), nullptr);
  const auto* slot = c.mapper(0).cached_backup(c.hosts[3]);
  ASSERT_NE(slot, nullptr);
  ASSERT_TRUE(slot->has_value());
  c.mapper(0).on_nic_reset();
  EXPECT_EQ(c.mapper(0).cached_route(c.hosts[3]), nullptr);
  EXPECT_EQ(c.mapper(0).cached_backup(c.hosts[3]), nullptr);
}

TEST(ProactiveBackup, PeerDeathNeverPromotes) {
  // Membership declared the node itself dead: a backup route to a corpse is
  // no failover target. Both slots drop; nothing is promoted.
  Cluster c(proactive_cfg(8, TopoKind::kFigure2));
  const auto& st = c.mapper(0).stats();
  ASSERT_TRUE(c.mapper(0).cached_backup(c.hosts[3]) != nullptr);
  c.mapper(0).on_peer_dead(c.hosts[3]);
  EXPECT_EQ(st.backup_promotions, 0u);
  EXPECT_EQ(c.mapper(0).cached_route(c.hosts[3]), nullptr);
  EXPECT_EQ(c.mapper(0).cached_backup(c.hosts[3]), nullptr);
}

TEST(FullMapper, ServesRoutesAfterModeledRemap) {
  ClusterConfig cfg;
  cfg.num_hosts = 8;
  cfg.topo = TopoKind::kFigure2;
  cfg.mapper = MapperKind::kFull;
  cfg.preload_routes = false;
  Cluster c(cfg);
  Drainer d;
  drain(c, 3, d);
  c.send(0, 3, std::vector<std::uint8_t>(16, 1));
  c.sched.run_until(sim::seconds(5));
  ASSERT_EQ(d.msgs.size(), 1u);
  EXPECT_EQ(c.full_mapper(0).stats().full_maps, 1u);
  EXPECT_GT(c.full_mapper(0).stats().modeled_probes, 0u);
  // The modeled full map probes every port of all four switches.
  EXPECT_EQ(c.full_mapper(0).probes_for_full_map(), 2u * (8 + 16 + 16 + 8) + 8u);
}

TEST(FullMapper, OnDemandMapsOnePairWithFarFewerProbes) {
  // The paper's core argument: on-demand mapping localizes work.
  Cluster od(ondemand_cfg(8, TopoKind::kFigure2));
  Drainer d;
  drain(od, 4, d);
  // host 0 -> host 4: same switch.
  od.send(0, 4, std::vector<std::uint8_t>(8, 1));
  od.sched.run_until(sim::seconds(5));
  ASSERT_EQ(d.msgs.size(), 1u);
  const auto od_probes = od.mapper(0).stats().host_probes_tx +
                         od.mapper(0).stats().switch_probes_tx;

  ClusterConfig fcfg;
  fcfg.num_hosts = 8;
  fcfg.topo = TopoKind::kFigure2;
  fcfg.mapper = MapperKind::kFull;
  fcfg.preload_routes = false;
  Cluster fm(fcfg);
  EXPECT_LT(od_probes, fm.full_mapper(0).probes_for_full_map());
}

}  // namespace
}  // namespace sanfault
