// SwimRig: a cluster running nothing but membership — one vmmc::Endpoint +
// MsgEndpoint + SwimAgent per host, fully meshed. The standalone harness for
// the failure-detector experiments (tests/membership_test.cpp,
// bench/bench_membership.cpp); service deployments get the same wiring from
// kv::KvRig with cfg.membership instead.
#pragma once

#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "harness/cluster.hpp"
#include "membership/swim.hpp"
#include "sim/process.hpp"
#include "vmmc/endpoint.hpp"
#include "vmmc/rpc.hpp"

namespace sanfault::membership {

struct SwimRigConfig {
  harness::ClusterConfig cluster;
  SwimConfig swim;
  /// Gossip messages are tiny; a small per-sender ring partition keeps the
  /// n^2 ring memory of a full mesh affordable at clos-128 scale.
  std::size_t ring_per_peer = 4 * 1024;
  /// Per-host config tweak (host index, config) — e.g. give one member an
  /// ack_delay to model a processing-bound host.
  std::function<void(std::size_t, SwimConfig&)> tweak;
};

class SwimRig {
 public:
  explicit SwimRig(SwimRigConfig cfg) : cfg_(std::move(cfg)), c(cfg_.cluster) {
    const std::size_t n = c.size();
    for (std::size_t i = 0; i < n; ++i) {
      eps.push_back(std::make_unique<vmmc::Endpoint>(c.sched, c.nic(i)));
      msgs.push_back(std::make_unique<vmmc::MsgEndpoint>(
          c.sched, *eps.back(), cfg_.ring_per_peer, /*max_peers=*/n));
    }
    connect_mesh();
    for (std::size_t i = 0; i < n; ++i) {
      SwimConfig s = cfg_.swim;
      if (cfg_.tweak) cfg_.tweak(i, s);
      agents.push_back(
          std::make_unique<SwimAgent>(c.sched, *msgs[i], c.hosts, s));
      // The production integration: a confirm excludes the dead peer at
      // this host's firmware (needs the reliable firmware).
      if (c.config().fw == harness::FirmwareKind::kReliable) {
        agents.back()->add_confirm_hook([this, i](net::HostId dead, sim::Time) {
          c.rel(i).exclude_peer(dead);
        });
      }
    }
    for (auto& a : agents) a->start();
  }

  [[nodiscard]] SwimAgent& agent(std::size_t i) { return *agents.at(i); }

  /// True once every agent other than `dead_idx` has confirmed that host.
  [[nodiscard]] bool all_confirmed(std::size_t dead_idx) const {
    for (std::size_t i = 0; i < agents.size(); ++i) {
      if (i == dead_idx) continue;
      if (!agents[i]->confirmed_dead(c.hosts[dead_idx])) return false;
    }
    return true;
  }

  SwimRigConfig cfg_;
  harness::Cluster c;
  std::vector<std::unique_ptr<vmmc::Endpoint>> eps;
  std::vector<std::unique_ptr<vmmc::MsgEndpoint>> msgs;
  std::vector<std::unique_ptr<SwimAgent>> agents;

 private:
  void connect_mesh() {
    bool done = false;
    bool failed = false;
    [](SwimRig& r, bool& flag, bool& any_failed) -> sim::Process {
      const std::size_t n = r.c.size();
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          if (i == j) continue;
          if (!co_await r.msgs[i]->connect(r.c.hosts[j])) any_failed = true;
        }
      }
      flag = true;
    }(*this, done, failed);
    while (!done && c.sched.step()) {
    }
    if (!done || failed) {
      throw std::logic_error("SwimRig: gossip mesh connect did not complete");
    }
  }
};

}  // namespace sanfault::membership
