// On-demand network mapper (§4.2): the paper's second contribution.
//
// Instead of computing full network maps and deadlock-free UP*/DOWN* routes,
// each NIC lazily BFS-probes the fabric only when it needs a route — at first
// contact with a node, or after the reliability protocol declares a path
// permanently failed. The discovered routes are shortest paths and are *not*
// deadlock-free; deadlock recovery is the retransmission protocol's job.
//
// Probe vocabulary (Table 3's two columns):
//  * host probe   — a kProbeHost packet source-routed down a candidate path;
//    if a host sits at its end, that host's mapper replies along the reverse
//    route. No reply within probe_timeout => no host there.
//  * switch probe — a loop-back (bounce) kProbeSwitch packet: route
//    prefix + [port-under-test, guessed-return-port] + known-way-home. It
//    returns to the prober iff a crossbar sits behind the port and the guess
//    hit the port the packet entered through. Myrinet switches have no
//    identity, so discovering one costs up to radix guesses.
//
// The BFS explores level-by-level and *stops as soon as the destination
// answers*, which is why mapping a same-switch neighbor needs host probes
// only (Table 3, row 1). Probes bypass the send-buffer pool and the
// reliability channels entirely (they are firmware-internal traffic).
#pragma once

#include <cstdint>
#include <deque>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "firmware/mapper.hpp"
#include "net/topology.hpp"
#include "nic/nic.hpp"
#include "sim/awaitables.hpp"
#include "sim/process.hpp"
#include "sim/task.hpp"

namespace sanfault::firmware {

struct OnDemandMapperConfig {
  /// How long to wait for a probe reply before concluding "nothing there".
  sim::Duration probe_timeout = sim::microseconds(300);
  /// Extra attempts per probe (probes themselves can be lost to faults).
  int probe_retries = 1;
  /// Ports 0..max_ports-1 are the candidates where no radix is known: the
  /// search for the port our own cable enters, and a crossbar the fabric
  /// database does not list.
  std::uint8_t max_ports = 16;
  /// BFS depth bound (switches traversed). Redundant fabrics make switches
  /// re-discoverable through parallel paths — switches have no identity — so
  /// the search must be bounded to terminate on cyclic topologies. Probe
  /// routes grow to OnDemandMapper::longest_probe_route(max_depth) bytes,
  /// which must fit a net::PortList: the constructor rejects a deeper bound.
  std::size_t max_depth = 6;
  /// Hard cap on probes per mapping (runaway guard on unreachable targets;
  /// exhausting it fails the mapping and bumps probe_budget_exhausted).
  std::size_t max_probes = 4096;
  /// Also cache hosts discovered *in passing* while mapping some other
  /// destination (the requested destination is always cached while
  /// path_cache_capacity > 0). Entries live in an LRU path cache; the
  /// reliability layer invalidates a destination's entry on path failure
  /// (MapperIface::on_path_failure), so later requests for an unaffected
  /// destination are served without probing.
  bool cache_discovered_hosts = true;
  /// Capacity of the per-destination path cache (0 disables caching; large
  /// fabrics at default capacity never evict — evictions show up in
  /// mapper.path_cache_evictions when they do).
  std::size_t path_cache_capacity = 1024;
  /// Deterministic multipath: instead of returning the first shortest route
  /// the BFS finds, finish probing the destination's BFS level, collect the
  /// equal-cost routes, and pick one with an Rng seeded from
  /// (multipath_salt, self, dst) — stable across runs and across --jobs
  /// orderings. Off by default (Table 3's probe counts assume first-answer
  /// termination).
  bool multipath = false;
  std::uint64_t multipath_salt = 0x5ca1ab1e;
  /// Skip the duplicate-detection comparison probes. Their verdicts come
  /// from the fabric database either way (see the constructor); by default
  /// the probes are still sent, timed and counted, because Table 3's
  /// methodology counts that traffic. Dup probes dominate BFS traffic on
  /// large fabrics (§4.2's "distinguishing new switches from old ones" grows
  /// with the number of known switches), so configured deployments skip
  /// them.
  bool configured_identity = false;
  /// Proactive alternate paths (docs/ROUTING.md): whenever the requested
  /// destination's primary route is installed in the path cache, precompute a
  /// maximally link/node-disjoint backup (net::Topology::disjoint_route,
  /// seeded from multipath_salt ^ (self, dst) so the pick is deterministic
  /// and spread across sources) and store it in the entry's backup slot. A
  /// later on_path_failure then *promotes* the backup in one step — no probe
  /// storm on the critical path — after an up-state validation against the
  /// fabric database (a backup sharing the dead element is rejected and the
  /// mapping falls back to probing). The emptied backup slot is replenished
  /// lazily in the background, verified by a single host probe.
  bool proactive_backup = false;
};

struct OnDemandMapperStats {
  std::uint64_t mappings_started = 0;
  std::uint64_t mappings_succeeded = 0;
  std::uint64_t mappings_failed = 0;
  std::uint64_t host_probes_tx = 0;
  std::uint64_t switch_probes_tx = 0;
  std::uint64_t probe_replies_tx = 0;   // this NIC answering others' probes
  std::uint64_t probe_replies_rx = 0;
  std::uint64_t probe_timeouts = 0;
  /// Total simulated time spent inside mapping runs.
  sim::Duration mapping_time_total = 0;
  /// Duration and probe counts of the most recent completed mapping.
  sim::Duration last_mapping_time = 0;
  std::uint64_t last_host_probes = 0;
  std::uint64_t last_switch_probes = 0;
  /// Path-cache behavior (docs/OBSERVABILITY.md `mapper.*` scale metrics).
  std::uint64_t path_cache_hits = 0;
  std::uint64_t path_cache_evictions = 0;
  std::uint64_t path_cache_invalidations = 0;
  /// Mappings aborted because max_probes ran out.
  std::uint64_t probe_budget_exhausted = 0;
  /// Equal-cost candidate routes considered by multipath selection (summed).
  std::uint64_t multipath_candidates = 0;
  /// Proactive backup paths (docs/ROUTING.md, `mapper.backup_*` metrics).
  std::uint64_t backup_computed = 0;      // backup slots filled (any source)
  std::uint64_t backup_promotions = 0;    // failures served by promote, 0 probes
  std::uint64_t backup_stale_rejections = 0;  // backup dead at promote time
  std::uint64_t backup_replenish_probes = 0;  // verification probes, replenish
  /// Disjointness achieved by computed backups, by class.
  std::uint64_t backup_node_disjoint = 0;
  std::uint64_t backup_link_disjoint = 0;
  std::uint64_t backup_overlapping = 0;
};

class OnDemandMapper final : public MapperIface {
 public:
  /// `topo` is the operator-configured fabric database, as deployed Myrinet
  /// mappers had switch types configured. The mapper reads a discovered
  /// crossbar's radix from it instead of probing max_ports ports (emptiness
  /// of in-radix ports is still discovered by probing), resolves
  /// duplicate-detection verdicts against it (crossbars have no identity,
  /// and the behavioural cycle-probe test false-merges distinct switches at
  /// symmetric positions of regular fabrics), and computes and validates
  /// proactive backups with it.
  /// Throws std::invalid_argument if cfg.max_depth lets probe routes
  /// outgrow net::PortList (see longest_probe_route).
  OnDemandMapper(nic::Nic& nic, const net::Topology& topo,
                 OnDemandMapperConfig cfg = {});
  ~OnDemandMapper() override;

  /// Longest probe route, in bytes, a BFS bounded at `max_depth` sends. A
  /// switch found at depth d has a forward route of d bytes and a way home
  /// of d + 1. Level d sends host probes of d + 1 bytes, duplicate-detection
  /// probes of (d + 1) + (d' + 1) bytes against a known switch at depth
  /// d' <= d + 1, and entry-port bounces of (d + 2) + (d + 1) bytes. The
  /// deepest level is max_depth - 1, so the longest is 2·max_depth + 1.
  [[nodiscard]] static constexpr std::size_t longest_probe_route(
      std::size_t max_depth) {
    return 2 * max_depth + 1;
  }

  // --- MapperIface ---------------------------------------------------------
  void request_route(net::HostId dst, RouteCallback cb) override;
  void on_probe_packet(net::Packet pkt) override;
  /// Idempotent: invalidates the cached path once, no matter how many
  /// reporters converge on the same dead destination (the local no-progress
  /// detector and a membership exclusion often race). If a mapping for `dst`
  /// is in flight, its eventual result is also kept out of the cache — the
  /// discovery raced the failure, so the route it found may already be dead.
  /// With proactive_backup on, a cached entry carrying a live backup is
  /// promoted instead of erased (returns true): the next request_route is a
  /// cache hit on the promoted route, and a background replenish refills the
  /// backup slot. A stale backup (dead per trace_route_up) is rejected and
  /// the whole entry dropped — never deliver over a wrong route.
  bool on_path_failure(net::HostId dst) override;
  void on_peer_dead(net::HostId dst) override;
  void on_nic_reset() override { flush_cache(); }

  [[nodiscard]] const OnDemandMapperStats& stats() const { return stats_; }

  /// Drop the cached route to one destination (its path just failed); the
  /// next request for it re-probes while other cached paths stay warm.
  void invalidate_path(net::HostId dst);

  /// Drop all cached discovery state (e.g. the operator knows the fabric
  /// changed wholesale).
  void flush_cache();

  /// Preinstall a known-good route (an operator-configured static map) into
  /// the path cache, computing its proactive backup when enabled. Rigs that
  /// preload full route tables use this so the *first* failure can promote
  /// instead of paying a cold probe storm.
  void seed_cache(net::HostId dst, const net::Route& r);

  /// Test introspection: non-touching peek at the cached primary / backup.
  [[nodiscard]] const net::Route* cached_route(net::HostId dst) const {
    return path_cache_.peek(dst);
  }
  [[nodiscard]] const std::optional<net::AltRoute>* cached_backup(
      net::HostId dst) const {
    return path_cache_.peek_backup(dst);
  }

  // --- chaos mutation API (src/chaos/corruptor.hpp) ------------------------
  // The only sanctioned outside-mutation path into the mapper's SRAM state
  // (docs/CHAOS.md "State corruption"): mutable access to *existing* cache
  // entries, never creating any. Recency order is untouched. Every mutation
  // made through these is logged in the chaos event log by the corruptor.
  /// Cached destinations in deterministic recency order (MRU first).
  [[nodiscard]] std::vector<net::HostId> chaos_cached_hosts() const {
    return path_cache_.hosts();
  }
  [[nodiscard]] net::Route* chaos_cached_route(net::HostId dst) {
    return path_cache_.primary_mut(dst);
  }
  [[nodiscard]] std::optional<net::AltRoute>* chaos_cached_backup(
      net::HostId dst) {
    return path_cache_.backup_mut(dst);
  }

 private:
  /// A discovered crossbar: how to reach it and how its packets reach us.
  struct KnownSwitch {
    net::Route forward;                  // bytes from us to (into) the switch
    net::PortList reverse;               // bytes from the switch back to us
    std::uint8_t entry_port = 0;         // port we enter it through
    /// The fabric database's device at the end of `forward`, read once at
    /// discovery: radix_of reads the ports to probe from it, and duplicate
    /// detection compares candidates against it.
    std::optional<net::Device> dev;
    /// Equal-length alternative forwards (multipath only; capped).
    std::vector<net::Route> alt_forwards;
  };

  /// LRU map destination -> discovered route, plus an optional precomputed
  /// backup route per entry (proactive_backup). Both slots share one entry:
  /// eviction, invalidation and flush drop them together. Deterministic:
  /// ordering is the explicit recency list, never unordered_map iteration.
  class PathCache {
   public:
    explicit PathCache(std::size_t cap) : cap_(cap) {}
    /// Touches the entry (most-recently-used) and returns it, or nullptr.
    const net::Route* get(net::HostId h);
    /// Installs/overwrites the primary; a changed primary drops the backup
    /// (it was computed to be disjoint from the old one).
    void put(net::HostId h, net::Route r, std::uint64_t* evictions);
    bool erase(net::HostId h);
    [[nodiscard]] bool contains(net::HostId h) const {
      return idx_.contains(h);
    }
    void clear();

    /// Backup slot of an existing entry (no-op when h is absent).
    void set_backup(net::HostId h, net::AltRoute alt);
    /// Backup -> primary in place; the backup slot empties. False if absent.
    bool promote(net::HostId h);

    /// Non-touching lookups (recency order unchanged; nullptr when absent).
    [[nodiscard]] const net::Route* peek(net::HostId h) const;
    [[nodiscard]] const std::optional<net::AltRoute>* peek_backup(
        net::HostId h) const;

    /// Chaos mutation API: cached hosts in recency order (MRU first), and
    /// non-touching *mutable* slot access (nullptr when absent).
    [[nodiscard]] std::vector<net::HostId> hosts() const;
    [[nodiscard]] net::Route* primary_mut(net::HostId h);
    [[nodiscard]] std::optional<net::AltRoute>* backup_mut(net::HostId h);

   private:
    struct Entry {
      net::HostId host;
      net::Route primary;
      std::optional<net::AltRoute> backup;
    };
    std::size_t cap_;
    std::list<Entry> lru_;  // front = most recently used
    std::unordered_map<net::HostId, std::list<Entry>::iterator> idx_;
  };

  /// Radix of `dev` in the fabric database, or max_ports when it is not a
  /// listed crossbar.
  [[nodiscard]] std::uint8_t radix_of(
      const std::optional<net::Device>& dev) const;

  struct PendingRequest {
    net::HostId dst;
    std::vector<RouteCallback> cbs;
  };

  /// Drains the request queue, one BFS at a time (FIFO).
  sim::Process drive();

  /// Core BFS for one destination; counts probes against the budget.
  sim::Task<std::optional<net::Route>> bfs(net::HostId dst,
                                           std::uint64_t* probes_used);

  /// Send one probe and await reply-or-timeout (with retries). Returns true
  /// on reply; for host probes *replier is set to the answering host.
  sim::Task<bool> probe_and_wait_impl(net::PacketType type, net::Route route,
                                      net::HostId* replier);

  void inject_probe(net::Packet pkt);

  // --- proactive backup paths (cfg_.proactive_backup) ----------------------
  /// Salt for disjoint_route tie-breaking: multipath machinery, distinct
  /// stream (backups must not mirror the primary multipath picks).
  [[nodiscard]] std::uint64_t backup_salt(net::HostId dst) const;
  /// Compute + install the backup slot for a just-installed primary.
  void fill_backup(net::HostId dst);
  /// Count `alt` by its disjointness class and store it as dst's backup.
  void install_backup(net::HostId dst, net::AltRoute alt);
  /// Validate (trace_route_up) + promote the backup; true on success.
  bool promote_backup(net::HostId dst);
  /// Background: recompute a backup disjoint from the *new* primary, verify
  /// it with one host probe, install it if the entry is still unchanged.
  sim::Process replenish_backup(net::HostId dst, net::Route primary);

  nic::Nic& nic_;
  const net::Topology& topo_;
  OnDemandMapperConfig cfg_;
  OnDemandMapperStats stats_;

  std::deque<PendingRequest> queue_;
  bool mapping_active_ = false;
  /// Destination of the BFS currently in flight (for request merging).
  std::optional<net::HostId> active_dst_;
  std::vector<RouteCallback>* active_cbs_ = nullptr;
  /// Set when on_path_failure hits the in-flight destination: the result of
  /// the current BFS must not be cached (it may be the failed path).
  bool active_invalidated_ = false;
  /// Set alongside active_invalidated_ when that failure was served by a
  /// backup promotion: the in-flight BFS result is still discarded, but the
  /// promoted cache entry survives and answers the waiting callbacks (no
  /// double-cache — the probe raced the promote and lost).
  bool active_promoted_ = false;
  /// Destinations with a replenish probe in flight (suppress duplicates).
  std::unordered_map<net::HostId, bool> replenishing_;

  /// Probes in flight, by nonce: the host that answered (ourselves for a
  /// switch probe that bounced home).
  sim::Replies<std::uint64_t, net::HostId> replies_;
  std::uint64_t next_nonce_ = 1;

  /// Cached: port of our first-hop switch we attach to (rediscovered when a
  /// mapping that relied on it fails at level 0).
  std::optional<std::uint8_t> attach_port_;
  /// Hosts discovered during any mapping (LRU; see path_cache_capacity).
  PathCache path_cache_;
};

}  // namespace sanfault::firmware
