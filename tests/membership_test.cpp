// Tests for the membership subsystem: the pod layout, pod-aware
// shard placement, the SWIM failure detector's state machine (suspect
// timeout, incarnation refutation, indirect-probe rescue), determinism of
// the gossip schedule, the detection-latency bound on clos-64, and the
// idempotency of mapper path-cache invalidation under concurrent failure
// reports.
#include <gtest/gtest.h>

#include <algorithm>

#include "harness/cluster.hpp"
#include "kv/shard_map.hpp"
#include "membership/rig.hpp"
#include "membership/swim.hpp"

namespace sanfault {
namespace {

using harness::Cluster;
using harness::ClusterConfig;
using harness::FirmwareKind;
using harness::MapperKind;
using harness::TopoKind;
using membership::MemberState;
using membership::SwimAgent;
using membership::SwimConfig;
using membership::SwimRig;
using membership::SwimRigConfig;

ClusterConfig cluster_cfg(std::size_t hosts, TopoKind topo) {
  ClusterConfig cfg;
  cfg.num_hosts = hosts;
  cfg.topo = topo;
  cfg.fw = FirmwareKind::kReliable;
  if (topo == TopoKind::kClos) cfg.clos.k = 8;
  return cfg;
}

// --- fault domains ---------------------------------------------------------
// Cluster::host_pods is the pod layout pod-aware placement reads.

std::vector<std::size_t> hosts_per_pod(const Cluster& c) {
  std::vector<std::size_t> n(c.num_pods, 0);
  for (const std::uint32_t p : c.host_pods) {
    EXPECT_LT(p, c.num_pods);
    if (p < c.num_pods) ++n[p];
  }
  return n;
}

TEST(FaultDomains, ClosPodsAreBalancedAndMatchTopology) {
  Cluster c(cluster_cfg(64, TopoKind::kClos));
  ASSERT_EQ(c.host_pods.size(), 64u);
  EXPECT_EQ(c.num_pods, 8u);
  const auto per_pod = hosts_per_pod(c);
  for (std::size_t p = 0; p < per_pod.size(); ++p) {
    EXPECT_EQ(per_pod[p], 8u) << "pod " << p;
  }
  // Hosts stripe pod-major across edges: host i and host i + num_edges hang
  // off the same edge, hence the same pod.
  EXPECT_EQ(c.host_pods[0], c.host_pods[32]);
}

TEST(FaultDomains, Figure2DomainsFollowLeafSwitches) {
  Cluster c(cluster_cfg(16, TopoKind::kFigure2));
  ASSERT_EQ(c.host_pods.size(), 16u);
  EXPECT_GT(c.num_pods, 1u);
  // Every domain is non-empty and the domain sizes sum to the host count.
  std::size_t total = 0;
  for (const std::size_t n : hosts_per_pod(c)) {
    EXPECT_GT(n, 0u);
    total += n;
  }
  EXPECT_EQ(total, 16u);
}

// --- pod-aware placement ---------------------------------------------------

TEST(ShardMapPods, BackupAlwaysInDistinctPod) {
  Cluster c(cluster_cfg(64, TopoKind::kClos));
  const std::size_t num_servers = 32;
  std::vector<net::HostId> servers(c.hosts.begin(),
                                   c.hosts.begin() + num_servers);
  std::vector<std::uint32_t> pods(c.host_pods.begin(),
                                  c.host_pods.begin() + num_servers);
  kv::ShardMap pod_aware(servers, 64, 16, 0x5a4dull, pods);
  kv::ShardMap blind(servers, 64, 16, 0x5a4dull);

  std::size_t colocated_blind = 0;
  for (std::size_t sh = 0; sh < 64; ++sh) {
    EXPECT_NE(pod_aware.primary(sh), pod_aware.backup(sh));
    // Clos hosts are created in id order, so HostId::v == server index here.
    EXPECT_NE(pods[pod_aware.primary(sh).v], pods[pod_aware.backup(sh).v])
        << "shard " << sh << " has both replicas in one pod";
    if (pods[blind.primary(sh).v] == pods[blind.backup(sh).v]) {
      ++colocated_blind;
    }
    // Pod-awareness only redirects the backup; primaries are untouched.
    EXPECT_EQ(pod_aware.primary(sh), blind.primary(sh));
  }
  // The control must actually have co-located replicas, or the chaos
  // experiment comparing the two placements would show nothing.
  EXPECT_GT(colocated_blind, 0u);
}

// --- SWIM state machine ----------------------------------------------------

SwimRigConfig swim_rig_cfg(std::size_t hosts, TopoKind topo = TopoKind::kSingleSwitch) {
  SwimRigConfig cfg;
  cfg.cluster = cluster_cfg(hosts, topo);
  cfg.swim.protocol_period = sim::milliseconds(1);
  cfg.swim.probe_timeout = sim::microseconds(200);
  cfg.swim.suspect_timeout = sim::milliseconds(3);
  return cfg;
}

TEST(Swim, SteadyStateRaisesNoSuspicion) {
  SwimRig r(swim_rig_cfg(8));
  r.c.sched.run_for(sim::milliseconds(50));
  for (auto& a : r.agents) {
    EXPECT_EQ(a->stats().suspects, 0u);
    EXPECT_EQ(a->stats().confirms, 0u);
    EXPECT_GT(a->stats().probe_rounds, 0u);
    EXPECT_GT(a->stats().acks_rx, 0u);
  }
}

TEST(Swim, DeadMemberConfirmedWithinBoundAndHookFiresOnce) {
  SwimRig r(swim_rig_cfg(8));
  const std::size_t victim = 3;
  std::vector<int> hook_fires(r.agents.size(), 0);
  for (std::size_t i = 0; i < r.agents.size(); ++i) {
    r.agents[i]->add_confirm_hook(
        [&, i](net::HostId dead, sim::Time) {
          // The cut victim's own agent legitimately confirms everyone ELSE
          // (from behind the partition the whole world went dark); survivors
          // must only ever confirm the victim.
          if (i != victim) {
            EXPECT_EQ(dead, r.c.hosts[victim]);
          }
          if (dead == r.c.hosts[victim]) ++hook_fires[i];
        });
  }
  r.c.sched.run_for(sim::milliseconds(10));  // warm
  const sim::Time t_kill = r.c.sched.now();
  r.c.fabric().cut_host(r.c.hosts[victim]);

  const sim::Duration bound =
      SwimAgent::detection_bound(r.cfg_.swim, r.c.size());
  r.c.sched.run_for(bound + sim::milliseconds(5));

  for (std::size_t i = 0; i < r.agents.size(); ++i) {
    if (i == victim) continue;
    ASSERT_TRUE(r.agents[i]->confirmed_dead(r.c.hosts[victim]))
        << "agent " << i << " never confirmed";
    EXPECT_EQ(hook_fires[i], 1) << "agent " << i;
    const sim::Time at = r.agents[i]->confirm_time(r.c.hosts[victim]);
    EXPECT_LE(at - t_kill, bound) << "agent " << i << " exceeded the bound";
    // Live members were never harmed in the making of this confirmation.
    for (std::size_t j = 0; j < r.agents.size(); ++j) {
      if (j == victim || j == i) continue;
      EXPECT_EQ(r.agents[i]->state_of(r.c.hosts[j]), MemberState::kAlive);
    }
  }
}

TEST(Swim, TransientPartitionRefutedByIncarnationBump) {
  auto cfg = swim_rig_cfg(6);
  cfg.swim.suspect_timeout = sim::milliseconds(8);
  SwimRig r(cfg);
  const std::size_t victim = 2;
  r.c.sched.run_for(sim::milliseconds(5));
  r.c.fabric().cut_host(r.c.hosts[victim]);
  r.c.sched.run_for(sim::milliseconds(2));  // long enough to be suspected
  r.c.fabric().heal_host(r.c.hosts[victim]);
  r.c.sched.run_for(sim::milliseconds(40));

  std::uint64_t suspects = 0;
  for (std::size_t i = 0; i < r.agents.size(); ++i) {
    suspects += r.agents[i]->stats().suspects;
    EXPECT_EQ(r.agents[i]->stats().confirms, 0u) << "agent " << i;
    if (i != victim) {
      EXPECT_EQ(r.agents[i]->state_of(r.c.hosts[victim]), MemberState::kAlive);
    }
  }
  ASSERT_GT(suspects, 0u) << "partition was never noticed; test proves nothing";
  EXPECT_GE(r.agents[victim]->stats().refutations, 1u);
  EXPECT_GE(r.agents[victim]->incarnation(), 1u);
}

TEST(Swim, IndirectProbesRescueSlowMember) {
  // One member acks only after 800 us — far beyond the 200 us direct window
  // but within the period. With k=3 the relayed ack clears it every round;
  // with k=0 the direct timeout escalates straight to suspicion.
  const std::size_t slow = 5;
  auto make = [&](std::size_t k) {
    auto cfg = swim_rig_cfg(8);
    cfg.swim.protocol_period = sim::milliseconds(5);
    cfg.swim.suspect_timeout = sim::milliseconds(20);
    cfg.swim.k_indirect = k;
    cfg.tweak = [&](std::size_t i, SwimConfig& s) {
      if (i == slow) s.ack_delay = sim::microseconds(800);
    };
    return cfg;
  };

  SwimRig rescued(make(3));
  rescued.c.sched.run_for(sim::milliseconds(120));
  std::uint64_t relayed = 0;
  for (std::size_t i = 0; i < rescued.agents.size(); ++i) {
    EXPECT_EQ(rescued.agents[i]->stats().suspects, 0u) << "agent " << i;
    EXPECT_EQ(rescued.agents[i]->stats().confirms, 0u) << "agent " << i;
    relayed += rescued.agents[i]->stats().indirect_acks_relayed;
  }
  EXPECT_GT(relayed, 0u) << "no indirect ack was ever relayed";

  SwimRig control(make(0));
  control.c.sched.run_for(sim::milliseconds(120));
  std::uint64_t suspects = 0;
  for (auto& a : control.agents) suspects += a->stats().suspects;
  EXPECT_GT(suspects, 0u)
      << "k=0 control never suspected the slow member; ack_delay inert";
}

TEST(Swim, SameSeedRunsAreByteIdentical) {
  auto make = [] {
    auto cfg = swim_rig_cfg(8);
    cfg.swim.log_events = true;
    return SwimRigConfig(cfg);
  };
  auto run = [](SwimRig& r) {
    r.c.sched.run_for(sim::milliseconds(15));
    r.c.fabric().cut_host(r.c.hosts[1]);
    r.c.sched.run_for(sim::milliseconds(40));
  };
  SwimRig a(make());
  SwimRig b(make());
  run(a);
  run(b);
  for (std::size_t i = 0; i < a.agents.size(); ++i) {
    EXPECT_EQ(a.agents[i]->log(), b.agents[i]->log()) << "agent " << i;
    EXPECT_EQ(a.agents[i]->stats().gossip_msgs_tx,
              b.agents[i]->stats().gossip_msgs_tx);
    EXPECT_EQ(a.agents[i]->stats().gossip_bytes_tx,
              b.agents[i]->stats().gossip_bytes_tx);
    EXPECT_EQ(a.agents[i]->stats().updates_rx, b.agents[i]->stats().updates_rx);
  }
}

// Property: on clos-64, every survivor confirms a killed host within
// suspect_timeout + protocol_period * dissemination_rounds(n) of the kill.
TEST(SwimProperty, DetectionLatencyBoundedOnClos64) {
  auto cfg = swim_rig_cfg(64, TopoKind::kClos);
  SwimRig r(cfg);
  const std::size_t victim = 21;
  r.c.sched.run_for(sim::milliseconds(10));
  const sim::Time t_kill = r.c.sched.now();
  r.c.fabric().cut_host(r.c.hosts[victim]);

  const sim::Duration bound =
      SwimAgent::detection_bound(r.cfg_.swim, r.c.size());
  r.c.sched.run_for(bound + sim::milliseconds(2));

  sim::Duration worst = 0;
  for (std::size_t i = 0; i < r.agents.size(); ++i) {
    if (i == victim) continue;
    ASSERT_TRUE(r.agents[i]->confirmed_dead(r.c.hosts[victim]))
        << "agent " << i << " never confirmed within the bound";
    worst = std::max(worst,
                     r.agents[i]->confirm_time(r.c.hosts[victim]) - t_kill);
    // Proactive exclusion reached the firmware (SwimRig wires the hook).
    EXPECT_GE(r.c.rel(i).stats().peer_exclusions, 1u) << "agent " << i;
  }
  EXPECT_LE(worst, bound);
}

// --- mapper invalidation idempotency (regression) --------------------------

ClusterConfig mapper_cfg() {
  ClusterConfig cfg;
  cfg.num_hosts = 2;
  cfg.topo = TopoKind::kSingleSwitch;
  cfg.fw = FirmwareKind::kReliable;
  cfg.mapper = MapperKind::kOnDemand;
  cfg.preload_routes = false;
  return cfg;
}

TEST(MapperInvalidation, DoubleReportCountsOnce) {
  Cluster c(mapper_cfg());
  bool done = false;
  c.mapper(0).request_route(c.hosts[1],
                            [&](std::optional<net::Route> r) {
                              ASSERT_TRUE(r.has_value());
                              done = true;
                            });
  while (!done && c.sched.step()) {
  }
  // Two reporters (membership exclusion + local no-progress detector)
  // converge on the same dead destination: one invalidation, not two.
  c.mapper(0).on_path_failure(c.hosts[1]);
  c.mapper(0).on_path_failure(c.hosts[1]);
  EXPECT_EQ(c.mapper(0).stats().path_cache_invalidations, 1u);
}

TEST(MapperInvalidation, InFlightMappingResultIsNotRecached) {
  Cluster c(mapper_cfg());
  bool done = false;
  c.mapper(0).request_route(c.hosts[1],
                            [&](std::optional<net::Route> r) {
                              EXPECT_TRUE(r.has_value());
                              done = true;
                            });
  // Let the mapping start probing, then report the failure mid-flight.
  c.sched.run_for(sim::microseconds(1));
  ASSERT_FALSE(done) << "mapping finished before the race could be staged";
  c.mapper(0).on_path_failure(c.hosts[1]);
  while (!done && c.sched.step()) {
  }
  const auto& s = c.mapper(0).stats();
  EXPECT_EQ(s.mappings_succeeded, 1u);
  // The poisoned result must not have been cached: a repeat report finds
  // nothing to invalidate (no double count), and a repeat request maps anew
  // instead of hitting the cache.
  c.mapper(0).on_path_failure(c.hosts[1]);
  EXPECT_EQ(s.path_cache_invalidations, 0u);
  bool again = false;
  c.mapper(0).request_route(c.hosts[1],
                            [&](std::optional<net::Route> r) {
                              EXPECT_TRUE(r.has_value());
                              again = true;
                            });
  while (!again && c.sched.step()) {
  }
  EXPECT_EQ(s.mappings_started, 2u);
  EXPECT_EQ(s.path_cache_hits, 0u);
}

}  // namespace
}  // namespace sanfault
