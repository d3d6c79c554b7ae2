// Cluster: one-stop experiment rig.
//
// Builds a complete simulated cluster — topology, fabric, one NIC per host,
// and a firmware (reliable or raw) per NIC — from a single config struct.
// Tests, benchmarks and examples all use this, so every experiment in
// EXPERIMENTS.md is reproducible from a handful of knobs that map 1:1 onto
// the paper's Table 1.
#pragma once

#include <algorithm>
#include <cassert>
#include <memory>
#include <vector>

#include "firmware/mapper_full.hpp"
#include "firmware/mapper_ondemand.hpp"
#include "firmware/raw.hpp"
#include "firmware/reliability.hpp"
#include "net/fabric.hpp"
#include "net/topology.hpp"
#include "nic/nic.hpp"
#include "sim/awaitables.hpp"
#include "sim/scheduler.hpp"

namespace sanfault::harness {

enum class FirmwareKind {
  kRaw,       // the paper's "No Fault Tolerance" baseline
  kReliable,  // the paper's retransmission protocol
};

enum class TopoKind {
  kSingleSwitch,  // all hosts on one crossbar (micro-benchmark setup)
  kFigure2,       // the paper's 4-switch redundant tree (mapping setup)
  kClos,          // k-ary fat-tree scale-out fabric (64/128-host experiments)
};

enum class MapperKind {
  kNone,      // static routes only; permanent failure => unreachable
  kOnDemand,  // the paper's lazy BFS probing scheme (§4.2)
  kFull,      // full-network remap + UP*/DOWN* baseline
};

struct ClusterConfig {
  std::size_t num_hosts = 2;
  FirmwareKind fw = FirmwareKind::kReliable;
  TopoKind topo = TopoKind::kSingleSwitch;
  nic::NicConfig nic;
  firmware::ReliabilityConfig rel;
  net::FabricConfig fabric;
  MapperKind mapper = MapperKind::kNone;
  firmware::OnDemandMapperConfig ondemand;
  firmware::FullMapperConfig full;
  /// TopoKind::kClos shape; its num_hosts is overridden by `num_hosts` above
  /// so every topology kind is sized by the same knob.
  net::ClosConfig clos;
  /// Preload full shortest routes into every route table (the static-map
  /// baseline). Disable to start with empty tables for on-demand mapping.
  bool preload_routes = true;
};

/// A message as the host library (or application) receives it.
struct HostMsg {
  sim::Time at = 0;
  net::UserHeader user;
  net::PayloadRef payload;
  net::HostId src;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig cfg) : cfg_(std::move(cfg)) {
    build_topology();
    fabric_ = std::make_unique<net::Fabric>(sched, topo, cfg_.fabric);
    inboxes_.resize(hosts.size());
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      nics_.push_back(
          std::make_unique<nic::Nic>(sched, *fabric_, hosts[i], cfg_.nic));
      if (cfg_.fw == FirmwareKind::kReliable) {
        rel_.push_back(
            std::make_unique<firmware::ReliableFirmware>(*nics_.back(), cfg_.rel));
        if (cfg_.preload_routes) rel_.back()->routes().populate_all(topo, hosts[i]);
        if (cfg_.mapper == MapperKind::kOnDemand) {
          mappers_.push_back(std::make_unique<firmware::OnDemandMapper>(
              *nics_.back(), topo, cfg_.ondemand));
          rel_.back()->set_mapper(mappers_.back().get());
          // Preloaded rigs never probe before the first failure, so the
          // mapper's cache would be cold and the first on_path_failure would
          // find no backup to promote. Seed the cache (and its proactive
          // backups) from the route table just preloaded.
          if (cfg_.preload_routes && cfg_.ondemand.proactive_backup) {
            for (const net::HostId other : hosts) {
              if (auto r = rel_.back()->routes().get(other)) {
                mappers_.back()->seed_cache(other, *r);
              }
            }
          }
        } else if (cfg_.mapper == MapperKind::kFull) {
          full_mappers_.push_back(std::make_unique<firmware::FullMapper>(
              *nics_.back(), topo, cfg_.full));
          rel_.back()->set_mapper(full_mappers_.back().get());
        }
      } else {
        raw_.push_back(std::make_unique<firmware::RawFirmware>(*nics_.back()));
        if (cfg_.preload_routes) raw_.back()->routes().populate_all(topo, hosts[i]);
      }
      inboxes_[i] = std::make_unique<sim::Channel<HostMsg>>();
      nics_[i]->set_host_rx(
          [this, i](net::UserHeader u, net::PayloadRef p, net::HostId src) {
            inboxes_[i]->push(sched,
                              HostMsg{sched.now(), u, std::move(p), src});
          });
    }
  }

  [[nodiscard]] std::size_t size() const { return hosts.size(); }
  [[nodiscard]] net::Fabric& fabric() { return *fabric_; }
  [[nodiscard]] nic::Nic& nic(std::size_t i) { return *nics_.at(i); }
  [[nodiscard]] sim::Channel<HostMsg>& inbox(std::size_t i) {
    return *inboxes_.at(i);
  }
  [[nodiscard]] firmware::ReliableFirmware& rel(std::size_t i) {
    assert(cfg_.fw == FirmwareKind::kReliable);
    return *rel_.at(i);
  }
  [[nodiscard]] firmware::RawFirmware& raw(std::size_t i) {
    assert(cfg_.fw == FirmwareKind::kRaw);
    return *raw_.at(i);
  }
  [[nodiscard]] firmware::RouteTable& routes(std::size_t i) {
    return cfg_.fw == FirmwareKind::kReliable ? rel_.at(i)->routes()
                                              : raw_.at(i)->routes();
  }
  [[nodiscard]] firmware::OnDemandMapper& mapper(std::size_t i) {
    assert(cfg_.mapper == MapperKind::kOnDemand);
    return *mappers_.at(i);
  }
  [[nodiscard]] firmware::FullMapper& full_mapper(std::size_t i) {
    assert(cfg_.mapper == MapperKind::kFull);
    return *full_mappers_.at(i);
  }
  [[nodiscard]] const ClusterConfig& config() const { return cfg_; }

  /// Convenience: submit a payload from host `from` to host `to`.
  void send(std::size_t from, std::size_t to,
            std::vector<std::uint8_t> payload, net::UserHeader user = {},
            sim::InlineFn<void()> on_accepted = {}) {
    nic::SendRequest req;
    req.dst = hosts.at(to);
    req.user = user;
    req.payload = std::move(payload);
    nics_.at(from)->host_submit(std::move(req), std::move(on_accepted));
  }

  sim::Scheduler sched;
  net::Topology topo;
  std::vector<net::HostId> hosts;
  /// Populated for kFigure2 and kClos (creation order; kClos puts the spine
  /// switches first — see net::ClosFabric).
  std::vector<net::SwitchId> switches;
  /// Fault-domain (pod) ordinal per host, parallel to `hosts` — the input to
  /// pod-aware shard and stripe placement. kClos: the fat-tree pod.
  /// kFigure2: the leaf switch the host hangs off. Single switch: one
  /// trivial domain.
  std::vector<std::uint32_t> host_pods;
  std::size_t num_pods = 1;

 private:
  void build_topology() {
    if (cfg_.topo == TopoKind::kSingleSwitch) {
      auto sw = topo.add_switch(static_cast<std::uint8_t>(
          std::min<std::size_t>(cfg_.num_hosts + 2, 250)));
      switches.push_back(sw);
      for (std::size_t i = 0; i < cfg_.num_hosts; ++i) {
        auto h = topo.add_host();
        topo.connect({net::Device::host(h), 0},
                     {net::Device::sw(sw), static_cast<std::uint8_t>(i)});
        hosts.push_back(h);
      }
      host_pods.assign(hosts.size(), 0);
      num_pods = 1;
    } else if (cfg_.topo == TopoKind::kClos) {
      auto clos = cfg_.clos;
      clos.num_hosts = cfg_.num_hosts;
      auto f = net::make_clos_fabric(clos);
      topo = std::move(f.topo);
      hosts = std::move(f.hosts);
      // Creation order (switches[i].v == i): cores, then per pod the aggs
      // followed by the edges.
      switches = std::move(f.cores);
      const std::size_t m = f.cfg.k / 2;
      for (std::size_t pod = 0; pod < f.cfg.k; ++pod) {
        for (std::size_t j = 0; j < m; ++j) {
          switches.push_back(f.aggs[pod * m + j]);
        }
        for (std::size_t e = 0; e < m; ++e) {
          switches.push_back(f.edges[pod * m + e]);
        }
      }
      // Host i hangs off edge (i mod num_edges); edges are pod-major, m per
      // pod — so pods stripe across consecutive host ids.
      const std::size_t num_edges = f.edges.size();
      for (std::size_t i = 0; i < hosts.size(); ++i) {
        host_pods.push_back(static_cast<std::uint32_t>((i % num_edges) / m));
      }
      num_pods = f.cfg.k;
    } else {
      auto f = net::make_figure2_fabric(cfg_.num_hosts);
      topo = std::move(f.topo);
      hosts = std::move(f.hosts);
      switches = {f.sw8_a, f.sw16_a, f.sw16_b, f.sw8_b};
      // Domain = the leaf switch the host is cabled into (round-robin with
      // port-full skipping — read it back from the built topology).
      for (const net::HostId h : hosts) {
        auto att = topo.peer_of({net::Device::host(h), 0});
        assert(att.has_value());
        const net::SwitchId sw = att->peer.dev.as_switch();
        const auto it = std::find(switches.begin(), switches.end(), sw);
        host_pods.push_back(static_cast<std::uint32_t>(it - switches.begin()));
      }
      num_pods = switches.size();
    }
  }

  ClusterConfig cfg_;
  std::unique_ptr<net::Fabric> fabric_;
  std::vector<std::unique_ptr<nic::Nic>> nics_;
  std::vector<std::unique_ptr<firmware::ReliableFirmware>> rel_;
  std::vector<std::unique_ptr<firmware::RawFirmware>> raw_;
  std::vector<std::unique_ptr<firmware::OnDemandMapper>> mappers_;
  std::vector<std::unique_ptr<firmware::FullMapper>> full_mappers_;
  std::vector<std::unique_ptr<sim::Channel<HostMsg>>> inboxes_;
};

}  // namespace sanfault::harness
