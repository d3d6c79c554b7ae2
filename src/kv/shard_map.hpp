// Consistent-hash shard map: keys -> shards -> (primary, backup) servers.
//
// Classic hash-ring construction: every server contributes `vnodes` points
// on a 64-bit ring (SplitMix64 of server id x replica index); a shard's
// point is the hash of its shard index, its primary is the first server
// clockwise from that point and its backup the next *distinct* server.
// Deterministic for a given (servers, seed) — every node and every client
// computes the identical map with no coordination, which is what lets the
// service route purely locally.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/ids.hpp"

namespace sanfault::kv {

namespace detail {
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}
}  // namespace detail

class ShardMap {
 public:
  /// `server_pods` (optional) gives the fault-domain (pod) index of each
  /// server, parallel to `servers`. When present, a shard's backup is the
  /// next ring server in a DIFFERENT pod from its primary, so no single
  /// pod-level fault can hold both replicas of any shard. Falls back to the
  /// classic next-distinct-server rule when every server shares the
  /// primary's pod (degenerate fabrics). Empty = placement is pod-blind.
  /// Throws std::invalid_argument for fewer than two servers or pods that
  /// do not parallel the servers.
  ShardMap(std::vector<net::HostId> servers, std::size_t num_shards = 32,
           std::size_t vnodes = 16, std::uint64_t seed = 0x5a4dull,
           std::vector<std::uint32_t> server_pods = {})
      : servers_(std::move(servers)), num_shards_(num_shards) {
    if (servers_.size() < 2) {
      throw std::invalid_argument(
          "ShardMap: replication needs at least two servers");
    }
    if (!server_pods.empty() && server_pods.size() != servers_.size()) {
      throw std::invalid_argument("ShardMap: server_pods must parallel servers");
    }
    std::vector<std::pair<std::uint64_t, std::size_t>> ring;
    ring.reserve(servers_.size() * vnodes);
    for (std::size_t s = 0; s < servers_.size(); ++s) {
      for (std::size_t v = 0; v < vnodes; ++v) {
        ring.emplace_back(
            detail::mix64(seed ^ detail::mix64(
                              (static_cast<std::uint64_t>(servers_[s].v) << 20) + v)),
            s);
      }
    }
    std::sort(ring.begin(), ring.end());

    primary_.resize(num_shards_);
    backup_.resize(num_shards_);
    for (std::size_t sh = 0; sh < num_shards_; ++sh) {
      const std::uint64_t point = detail::mix64(seed + sh);
      auto it = std::lower_bound(ring.begin(), ring.end(),
                                 std::make_pair(point, std::size_t{0}));
      auto at = [&](std::size_t step) {
        return ring[(static_cast<std::size_t>(it - ring.begin()) + step) %
                    ring.size()]
            .second;
      };
      const std::size_t prim = at(0);
      std::size_t step = 1;
      while (at(step) == prim) ++step;  // terminates: >= 2 distinct servers
      primary_[sh] = prim;
      backup_[sh] = at(step);
      if (!server_pods.empty()) {
        // Pod-aware override: keep walking the ring for a server outside the
        // primary's pod. Bounded by ring.size(); if the walk wraps without
        // finding one (all servers in one pod) the pod-blind backup stands.
        const std::uint32_t prim_pod = server_pods[prim];
        for (std::size_t s2 = step; s2 < ring.size(); ++s2) {
          const std::size_t cand = at(s2);
          if (server_pods[cand] != prim_pod) {
            backup_[sh] = cand;
            break;
          }
        }
      }
    }
  }

  [[nodiscard]] std::size_t num_shards() const { return num_shards_; }
  [[nodiscard]] const std::vector<net::HostId>& servers() const {
    return servers_;
  }

  [[nodiscard]] std::size_t shard_of(std::uint64_t key) const {
    return static_cast<std::size_t>(detail::mix64(key)) % num_shards_;
  }

  [[nodiscard]] net::HostId primary(std::size_t shard) const {
    return servers_[primary_[shard]];
  }
  [[nodiscard]] net::HostId backup(std::size_t shard) const {
    return servers_[backup_[shard]];
  }
  [[nodiscard]] net::HostId primary_of_key(std::uint64_t key) const {
    return primary(shard_of(key));
  }
  [[nodiscard]] net::HostId backup_of_key(std::uint64_t key) const {
    return backup(shard_of(key));
  }

  [[nodiscard]] bool is_primary(net::HostId h, std::size_t shard) const {
    return primary(shard) == h;
  }
  [[nodiscard]] bool is_backup(net::HostId h, std::size_t shard) const {
    return backup(shard) == h;
  }

  /// Shards for which `h` is primary (used by the audit to walk replicas).
  [[nodiscard]] std::vector<std::size_t> shards_owned_by(net::HostId h) const {
    std::vector<std::size_t> out;
    for (std::size_t sh = 0; sh < num_shards_; ++sh) {
      if (primary(sh) == h) out.push_back(sh);
    }
    return out;
  }

 private:
  std::vector<net::HostId> servers_;
  std::size_t num_shards_;
  std::vector<std::size_t> primary_;
  std::vector<std::size_t> backup_;
};

}  // namespace sanfault::kv
