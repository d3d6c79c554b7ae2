// KvRig: one-stop assembly of a complete KV service deployment on the
// simulated SAN — cluster (topology, NICs, firmware), one VMMC endpoint and
// message endpoint per host, KvServers on the first `num_servers` hosts,
// KvClientHosts on the next `num_client_hosts`, and the shared ShardMap.
// The constructor also runs the full import-handshake mesh to completion,
// so a freshly built rig is immediately ready to serve.
//
// Benchmarks, tests and examples all build their service runs from this,
// mirroring how harness::Cluster anchors the paper-figure experiments.
#pragma once

#include <memory>
#include <stdexcept>
#include <vector>

#include "ec/placement.hpp"
#include "ec/rs.hpp"
#include "harness/cluster.hpp"
#include "kv/client.hpp"
#include "kv/repair.hpp"
#include "kv/server.hpp"
#include "kv/shard_map.hpp"
#include "kv/striped.hpp"
#include "membership/swim.hpp"
#include "sim/process.hpp"
#include "vmmc/endpoint.hpp"
#include "vmmc/rpc.hpp"

namespace sanfault::kv {

struct KvRigConfig {
  std::size_t num_servers = 4;
  std::size_t num_client_hosts = 4;
  std::size_t num_shards = 32;
  std::uint64_t map_seed = 0x5a4dull;
  /// Per-sender ring partition in every host's message endpoint; one
  /// message (request incl. value) must fit.
  std::size_t ring_per_peer = 64 * 1024;
  /// Cluster knobs; num_hosts is overwritten with servers + client hosts.
  harness::ClusterConfig cluster;

  /// Run a SWIM membership agent on every host (src/membership), gossiping
  /// over the same message endpoints the KV protocol uses. A host's agent
  /// confirming a death proactively excludes the dead peer at its firmware
  /// (flushing the mapper path cache and pending traffic) and lets its KV
  /// clients fail over immediately instead of waiting out timeouts.
  /// Requires reliable firmware (the constructor throws
  /// std::invalid_argument otherwise); implies a full gossip mesh.
  bool membership = false;
  membership::SwimConfig swim;
  /// Place each shard's backup in a different fault domain (pod) than its
  /// primary (harness::Cluster::host_pods feeds the ShardMap). Pure
  /// construction-time policy: only changes placement on multi-pod fabrics.
  bool pod_aware_placement = false;

  /// Run the erasure-coded striped object class (src/ec) alongside the
  /// primary-backup service: a StripedStore + RepairMachine on every server
  /// and a StripedClient on every client host, each adding its own tap to
  /// the shared message endpoints. Degraded reads and on-confirm repair need
  /// `membership` on; without it everything is simply presumed live.
  bool striped = false;
  ec::StripeMapConfig stripe;
  RepairConfig repair;
};

class KvRig {
 public:
  explicit KvRig(KvRigConfig cfg)
      : cfg_(fix(std::move(cfg))), c(cfg_.cluster) {
    const std::size_t n = c.size();
    std::vector<net::HostId> server_hosts(
        c.hosts.begin(),
        c.hosts.begin() + static_cast<std::ptrdiff_t>(cfg_.num_servers));
    std::vector<std::uint32_t> server_pods;
    if (cfg_.pod_aware_placement) {
      server_pods.assign(
          c.host_pods.begin(),
          c.host_pods.begin() + static_cast<std::ptrdiff_t>(cfg_.num_servers));
    }
    map = std::make_unique<ShardMap>(std::move(server_hosts), cfg_.num_shards,
                                     /*vnodes=*/16, cfg_.map_seed,
                                     std::move(server_pods));

    for (std::size_t i = 0; i < n; ++i) {
      eps.push_back(std::make_unique<vmmc::Endpoint>(c.sched, c.nic(i)));
      msgs.push_back(std::make_unique<vmmc::MsgEndpoint>(
          c.sched, *eps.back(), cfg_.ring_per_peer, /*max_peers=*/n));
    }
    for (std::size_t i = 0; i < cfg_.num_servers; ++i) {
      servers.push_back(std::make_unique<KvServer>(c.sched, *msgs[i], *map));
    }
    for (std::size_t i = 0; i < cfg_.num_client_hosts; ++i) {
      clients.push_back(std::make_unique<KvClientHost>(
          c.sched, *msgs[cfg_.num_servers + i], *map));
    }

    if (cfg_.striped) {
      std::vector<net::HostId> stripe_servers(
          c.hosts.begin(),
          c.hosts.begin() + static_cast<std::ptrdiff_t>(cfg_.num_servers));
      std::vector<std::uint32_t> stripe_pods(
          c.host_pods.begin(),
          c.host_pods.begin() + static_cast<std::ptrdiff_t>(cfg_.num_servers));
      stripe_map = std::make_unique<ec::StripeMap>(
          std::move(stripe_servers), std::move(stripe_pods), cfg_.stripe);
      codec = std::make_unique<ec::RsCodec>(cfg_.stripe.k, cfg_.stripe.m);
      for (std::size_t i = 0; i < cfg_.num_servers; ++i) {
        stores.push_back(
            std::make_unique<StripedStore>(c.sched, *msgs[i]));
        repairs.push_back(std::make_unique<RepairMachine>(
            c.sched, *msgs[i], *stores.back(), *stripe_map, *codec,
            cfg_.repair));
      }
      for (std::size_t i = 0; i < cfg_.num_client_hosts; ++i) {
        striped_clients.push_back(std::make_unique<StripedClient>(
            c.sched, *msgs[cfg_.num_servers + i], *stripe_map, *codec));
      }
    }

    connect_mesh();
    for (auto& s : servers) s->start();
    for (auto& ch : clients) ch->start();

    if (cfg_.membership) {
      for (std::size_t i = 0; i < n; ++i) {
        agents.push_back(std::make_unique<membership::SwimAgent>(
            c.sched, *msgs[i], c.hosts, cfg_.swim));
        agents.back()->add_confirm_hook(
            [this, i](net::HostId dead, sim::Time) {
              c.rel(i).exclude_peer(dead);
            });
        if (cfg_.striped && i < cfg_.num_servers) {
          RepairMachine* rm = repairs[i].get();
          agents.back()->add_confirm_hook(
              [rm](net::HostId dead, sim::Time at) {
                rm->on_confirm(dead, at);
              });
        }
      }
      for (std::size_t k = 0; k < clients.size(); ++k) {
        membership::SwimAgent* a = agents[cfg_.num_servers + k].get();
        clients[k]->set_dead_hook(
            [a](net::HostId h) { return a->confirmed_dead(h); });
      }
      if (cfg_.striped) {
        for (std::size_t i = 0; i < cfg_.num_servers; ++i) {
          membership::SwimAgent* a = agents[i].get();
          repairs[i]->set_dead_hook(
              [a](net::HostId h) { return a->confirmed_dead(h); });
        }
        for (std::size_t k = 0; k < striped_clients.size(); ++k) {
          membership::SwimAgent* a = agents[cfg_.num_servers + k].get();
          striped_clients[k]->set_dead_hook(
              [a](net::HostId h) { return a->confirmed_dead(h); });
        }
      }
      for (auto& a : agents) a->start();
    }

    if (cfg_.striped) {
      for (auto& st : stores) st->start();
      for (auto& rm : repairs) rm->start();
      for (auto& sc : striped_clients) sc->start();
    }
  }

  [[nodiscard]] const KvRigConfig& config() const { return cfg_; }
  [[nodiscard]] KvClientHost& client(std::size_t i) { return *clients.at(i); }
  [[nodiscard]] KvServer& server(std::size_t i) { return *servers.at(i); }
  [[nodiscard]] std::vector<const KvServer*> server_view() const {
    std::vector<const KvServer*> v;
    for (const auto& s : servers) v.push_back(s.get());
    return v;
  }
  [[nodiscard]] std::vector<KvClientHost*> client_view() {
    std::vector<KvClientHost*> v;
    for (const auto& ch : clients) v.push_back(ch.get());
    return v;
  }
  /// True once every server has no write awaiting replication and no repair
  /// machine has queued or in-flight work.
  [[nodiscard]] bool servers_idle() const {
    for (const auto& s : servers) {
      if (!s->idle()) return false;
    }
    for (const auto& rm : repairs) {
      if (!rm->idle()) return false;
    }
    return true;
  }

  [[nodiscard]] StripedClient& striped_client(std::size_t i) {
    return *striped_clients.at(i);
  }
  [[nodiscard]] std::vector<const StripedStore*> store_view() const {
    std::vector<const StripedStore*> v;
    for (const auto& st : stores) v.push_back(st.get());
    return v;
  }

  /// Every host's reliable firmware, in host order. Chaos campaigns use
  /// this to bind NIC resets and recovery-event hooks per node.
  [[nodiscard]] std::vector<firmware::ReliableFirmware*> rel_view() {
    std::vector<firmware::ReliableFirmware*> v;
    for (std::size_t i = 0; i < c.size(); ++i) v.push_back(&c.rel(i));
    return v;
  }

  /// Let in-flight replication and retransmission settle: run `settle`, then
  /// keep granting 50 ms slices until every server is idle (bounded by
  /// `max_rounds`), then one final `settle`.
  void quiesce(sim::Duration settle = sim::milliseconds(100),
               int max_rounds = 64) {
    c.sched.run_for(settle);
    for (int i = 0; i < max_rounds && !servers_idle(); ++i) {
      c.sched.run_for(sim::milliseconds(50));
    }
    c.sched.run_for(settle);
  }

  KvRigConfig cfg_;
  harness::Cluster c;
  std::unique_ptr<ShardMap> map;
  std::vector<std::unique_ptr<vmmc::Endpoint>> eps;
  std::vector<std::unique_ptr<vmmc::MsgEndpoint>> msgs;
  std::vector<std::unique_ptr<KvServer>> servers;
  std::vector<std::unique_ptr<KvClientHost>> clients;
  /// One SWIM agent per host, host order (empty unless cfg.membership).
  std::vector<std::unique_ptr<membership::SwimAgent>> agents;
  /// Striped object class (empty unless cfg.striped).
  std::unique_ptr<ec::StripeMap> stripe_map;
  std::unique_ptr<ec::RsCodec> codec;
  std::vector<std::unique_ptr<StripedStore>> stores;     // per server
  std::vector<std::unique_ptr<RepairMachine>> repairs;   // per server
  std::vector<std::unique_ptr<StripedClient>> striped_clients;

 private:
  /// Sizes the cluster, and rejects a config the rig cannot run before any
  /// of it is built.
  static KvRigConfig fix(KvRigConfig cfg) {
    if (cfg.membership && cfg.cluster.fw != harness::FirmwareKind::kReliable) {
      throw std::invalid_argument(
          "KvRig: membership exclusion needs the reliable firmware");
    }
    cfg.cluster.num_hosts = cfg.num_servers + cfg.num_client_hosts;
    return cfg;
  }

  // Servers talk to everyone (replication, forwards, replies); client hosts
  // only ever post to servers — unless membership gossip is on, in which
  // case every host probes every other and the mesh must be full.
  void connect_mesh() {
    bool done = false;
    bool failed = false;
    [](KvRig& r, bool& flag, bool& any_failed) -> sim::Process {
      const std::size_t s = r.cfg_.num_servers;
      const std::size_t n = r.c.size();
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t targets = (i < s || r.cfg_.membership) ? n : s;
        for (std::size_t j = 0; j < targets; ++j) {
          if (i == j) continue;
          if (!co_await r.msgs[i]->connect(r.c.hosts[j])) any_failed = true;
        }
      }
      flag = true;
    }(*this, done, failed);
    while (!done && c.sched.step()) {
    }
    if (!done || failed) {
      throw std::logic_error("KvRig: mesh connect did not complete");
    }
  }
};

}  // namespace sanfault::kv
