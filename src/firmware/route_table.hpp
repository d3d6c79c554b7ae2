// Per-NIC source-route table: destination host -> route.
//
// With static mapping the table is preloaded (populate_all) the way the
// Myrinet mapper distributes full routes. With on-demand mapping (§4.2) the
// table starts empty or partial and entries are added/invalidated as the
// mapper discovers and loses paths.
//
// Host ids are dense, so the table is one slot per id: every send reads its
// route by index.
#pragma once

#include <optional>
#include <vector>

#include "net/ids.hpp"
#include "net/route.hpp"
#include "net/topology.hpp"

namespace sanfault::firmware {

class RouteTable {
 public:
  void set(net::HostId dst, net::Route route) {
    if (dst.v >= routes_.size()) routes_.resize(dst.v + 1);
    if (!routes_[dst.v]) ++size_;
    routes_[dst.v] = std::move(route);
  }

  [[nodiscard]] std::optional<net::Route> get(net::HostId dst) const {
    if (dst.v >= routes_.size()) return std::nullopt;
    return routes_[dst.v];
  }

  void invalidate(net::HostId dst) {
    if (dst.v >= routes_.size() || !routes_[dst.v]) return;
    routes_[dst.v].reset();
    --size_;
  }

  /// Drop every route (a NIC reset loses the volatile route cache).
  void clear() {
    routes_.clear();
    size_ = 0;
  }

  [[nodiscard]] bool contains(net::HostId dst) const {
    return dst.v < routes_.size() && routes_[dst.v].has_value();
  }

  [[nodiscard]] std::size_t size() const { return size_; }

  /// Preload shortest routes from `self` to every other host (the full-map
  /// baseline), all read off one search tree. Unreachable hosts are skipped.
  void populate_all(const net::Topology& topo, net::HostId self) {
    auto routes = topo.shortest_routes(self);
    for (std::uint32_t h = 0; h < routes.size(); ++h) {
      if (h != self.v && routes[h]) set(net::HostId{h}, std::move(*routes[h]));
    }
  }

 private:
  std::vector<std::optional<net::Route>> routes_;  // indexed by HostId::v
  std::size_t size_ = 0;                           // live slots
};

}  // namespace sanfault::firmware
