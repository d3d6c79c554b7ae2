// Per-NIC source-route table: destination host -> route.
//
// With static mapping the table is preloaded (populate_all) the way the
// Myrinet mapper distributes full routes. With on-demand mapping (§4.2) the
// table starts empty or partial and entries are added/invalidated as the
// mapper discovers and loses paths.
#pragma once

#include <optional>
#include <unordered_map>

#include "net/ids.hpp"
#include "net/route.hpp"
#include "net/topology.hpp"

namespace sanfault::firmware {

class RouteTable {
 public:
  void set(net::HostId dst, net::Route route) {
    routes_[dst] = std::move(route);
  }

  [[nodiscard]] std::optional<net::Route> get(net::HostId dst) const {
    auto it = routes_.find(dst);
    if (it == routes_.end()) return std::nullopt;
    return it->second;
  }

  void invalidate(net::HostId dst) { routes_.erase(dst); }

  /// Drop every route (a NIC reset loses the volatile route cache).
  void clear() { routes_.clear(); }

  [[nodiscard]] bool contains(net::HostId dst) const {
    return routes_.contains(dst);
  }

  [[nodiscard]] std::size_t size() const { return routes_.size(); }

  /// Preload shortest routes from `self` to every other host (the full-map
  /// baseline), all read off one search tree. Unreachable hosts are skipped.
  void populate_all(const net::Topology& topo, net::HostId self) {
    auto routes = topo.shortest_routes(self);
    for (std::uint32_t h = 0; h < routes.size(); ++h) {
      if (h != self.v && routes[h]) set(net::HostId{h}, std::move(*routes[h]));
    }
  }

 private:
  std::unordered_map<net::HostId, net::Route> routes_;
};

}  // namespace sanfault::firmware
