// Stripe placement: parity groups -> ordered unit holders, spread across
// fault domains, with deterministic spare selection after a host death.
//
// Objects hash to one of `num_groups` parity groups; a group's k+m units
// live on k+m DISTINCT servers chosen from a per-group seeded preference
// permutation, greedily round-robining across pods (the PR 6 fault-domain
// tree) so a single pod-level fault costs a stripe at most as many units as
// the pod holds — with enough pods, exactly one.
//
// Liveness is layered on top exactly as ShardMap layers pod-awareness:
// resolve(group, dead) starts from the static base placement and, for each
// unit whose base holder the local membership view has confirmed dead, walks
// the same preference permutation for the first live server that (a) holds
// no other unit of this stripe and (b) sits in a pod no current holder of
// the stripe occupies (dropping (b) when impossible). Surviving units never
// move — only the dead holder's unit is re-homed, which is what makes
// repair O(lost units) instead of O(stripe). Every node computes resolve()
// from its own SWIM view with no coordination; once views agree (confirm
// gossip converges), clients, servers and the repair machine all name the
// same spare.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "net/ids.hpp"
#include "sim/rng.hpp"

namespace sanfault::ec {

struct StripeMapConfig {
  std::size_t k = 4;  // data units per stripe
  std::size_t m = 2;  // parity units per stripe
  std::size_t num_groups = 16;
  std::uint64_t seed = 0xec9d5eedull;
};

class StripeMap {
 public:
  /// True when the local membership view has confirmed `h` dead; a null
  /// oracle means everyone is live (placement-time queries).
  using DeadFn = std::function<bool(net::HostId)>;

  /// `server_pods` parallels `servers` (empty = pod-blind placement).
  /// Throws std::invalid_argument for fewer than k+m servers or pods that
  /// do not parallel the servers.
  StripeMap(std::vector<net::HostId> servers,
            std::vector<std::uint32_t> server_pods, StripeMapConfig cfg)
      : servers_(std::move(servers)),
        pods_(std::move(server_pods)),
        cfg_(cfg) {
    if (servers_.size() < cfg_.k + cfg_.m) {
      throw std::invalid_argument("StripeMap: a stripe needs k+m servers");
    }
    if (!pods_.empty() && pods_.size() != servers_.size()) {
      throw std::invalid_argument(
          "StripeMap: server_pods must parallel servers");
    }
    if (pods_.empty()) pods_.assign(servers_.size(), 0);
    perm_.resize(cfg_.num_groups);
    base_.resize(cfg_.num_groups);
    for (std::size_t g = 0; g < cfg_.num_groups; ++g) {
      perm_[g].resize(servers_.size());
      std::iota(perm_[g].begin(), perm_[g].end(), std::size_t{0});
      sim::Rng rng(cfg_.seed ^ mix(g + 1));
      for (std::size_t i = perm_[g].size(); i > 1; --i) {
        std::swap(perm_[g][i - 1], perm_[g][rng.uniform(i)]);
      }
      base_[g] = pick_base(g);
    }
  }

  [[nodiscard]] std::size_t k() const { return cfg_.k; }
  [[nodiscard]] std::size_t m() const { return cfg_.m; }
  [[nodiscard]] std::size_t n() const { return cfg_.k + cfg_.m; }
  [[nodiscard]] std::size_t num_groups() const { return cfg_.num_groups; }
  [[nodiscard]] const std::vector<net::HostId>& servers() const {
    return servers_;
  }

  [[nodiscard]] std::size_t group_of(std::uint64_t key) const {
    return static_cast<std::size_t>(mix(key ^ cfg_.seed)) % cfg_.num_groups;
  }

  /// Static unit->holder assignment (everyone live), unit order.
  [[nodiscard]] const std::vector<net::HostId>& base(std::size_t group) const {
    return base_[group];
  }

  /// Current holders under the caller's membership view. A unit whose base
  /// holder is live keeps it; a dead holder's unit re-homes to the first
  /// live spare in the group's preference permutation (pod-distinct when
  /// possible). If no live spare exists the dead holder is returned
  /// unchanged — callers must check the oracle before trusting a holder.
  [[nodiscard]] std::vector<net::HostId> resolve(std::size_t group,
                                                 const DeadFn& dead) const {
    std::vector<net::HostId> holders = base_[group];
    if (!dead) return holders;
    std::vector<bool> taken(servers_.size(), false);
    for (const net::HostId h : holders) {
      if (!dead(h)) taken[index_of(h)] = true;
    }
    for (std::size_t u = 0; u < holders.size(); ++u) {
      if (!dead(holders[u])) continue;
      std::size_t found = servers_.size();
      // Pass 1 wants a pod no live holder occupies; pass 2 takes any spare.
      for (int pass = 0; pass < 2 && found == servers_.size(); ++pass) {
        for (const std::size_t cand : perm_[group]) {
          if (taken[cand] || dead(servers_[cand])) continue;
          if (pass == 0 && pod_in_use(holders, dead, pods_[cand])) continue;
          found = cand;
          break;
        }
      }
      if (found == servers_.size()) continue;  // no live spare left
      holders[u] = servers_[found];
      taken[found] = true;
    }
    return holders;
  }

 private:
  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  [[nodiscard]] std::size_t index_of(net::HostId h) const {
    for (std::size_t i = 0; i < servers_.size(); ++i) {
      if (servers_[i] == h) return i;
    }
    assert(false && "holder is not a stripe server");
    return 0;
  }

  [[nodiscard]] bool pod_in_use(const std::vector<net::HostId>& holders,
                                const DeadFn& dead, std::uint32_t pod) const {
    for (const net::HostId h : holders) {
      if (!dead(h) && pods_[index_of(h)] == pod) return true;
    }
    return false;
  }

  /// First n servers of the group's permutation, round-robining pods: take
  /// an unused-pod candidate while one exists, then clear the used set and
  /// go again (so groups larger than the pod count stay maximally spread).
  [[nodiscard]] std::vector<net::HostId> pick_base(std::size_t group) const {
    std::vector<net::HostId> out;
    std::vector<bool> taken(servers_.size(), false);
    std::vector<bool> pod_used(256, false);
    while (out.size() < n()) {
      std::size_t found = servers_.size();
      for (const std::size_t cand : perm_[group]) {
        if (taken[cand] || pod_used[pods_[cand] % 256]) continue;
        found = cand;
        break;
      }
      if (found == servers_.size()) {
        pod_used.assign(256, false);
        for (const std::size_t cand : perm_[group]) {
          if (!taken[cand]) {
            found = cand;
            break;
          }
        }
        if (found == servers_.size()) break;  // fewer servers than n()
      }
      taken[found] = true;
      pod_used[pods_[found] % 256] = true;
      out.push_back(servers_[found]);
    }
    return out;
  }

  std::vector<net::HostId> servers_;
  std::vector<std::uint32_t> pods_;
  StripeMapConfig cfg_;
  std::vector<std::vector<std::size_t>> perm_;  // per-group preference order
  std::vector<std::vector<net::HostId>> base_;  // per-group unit holders
};

}  // namespace sanfault::ec
