// Static network structure: hosts, crossbar switches, full-duplex links.
//
// Topology is a pure graph — no simulated time — so it is unit-testable in
// isolation and shared by the fabric (dynamics), the mappers (discovery), and
// the benchmarks (scenario construction). Link and device up/down state lives
// here because both the fabric and the mappers must observe the same truth.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "net/ids.hpp"
#include "net/route.hpp"
#include "sim/time.hpp"

namespace sanfault::net {

/// Physical characteristics of one link. Defaults model Myrinet LAN cables:
/// 1.28 Gbit/s per direction, ~250 ns propagation (cable + SerDes).
struct LinkModel {
  double bandwidth_bps = 160.0e6;       // bytes/second, per direction
  sim::Duration latency = 250;          // ns, head propagation per traversal
};

/// Disjointness achieved by a precomputed backup route relative to its
/// primary. Hosts are single-homed, so the access links and the first/last
/// crossbar are shared by construction; the classes grade the *interior* of
/// the path (everything between the two access switches).
enum class DisjointClass : std::uint8_t {
  kNodeDisjoint,  // no interior switch and no interior link shared
  kLinkDisjoint,  // no interior link shared; interior switches may repeat
  kOverlapping,   // avoids at least one primary link, shares others
};

/// An alternate route plus the disjointness class it achieved.
struct AltRoute {
  Route route;
  DisjointClass cls = DisjointClass::kOverlapping;
};

class Topology {
 public:
  HostId add_host();
  SwitchId add_switch(std::uint8_t num_ports);

  /// Connect two ports with a full-duplex link. Each port can carry at most
  /// one link; reconnecting a used port throws.
  LinkId connect(Port a, Port b, LinkModel model = {});

  /// Remove the link from its ports (models physically unplugging a cable,
  /// used to "move" a node in the dynamic-reconfiguration experiments).
  void disconnect(LinkId l);

  [[nodiscard]] std::size_t num_hosts() const { return hosts_.size(); }
  [[nodiscard]] std::size_t num_switches() const { return switches_.size(); }
  [[nodiscard]] std::size_t num_links() const { return links_.size(); }
  [[nodiscard]] std::uint8_t switch_ports(SwitchId s) const {
    return switches_[s.v].num_ports;
  }

  /// What is plugged into this device's port, if anything.
  struct Attachment {
    Port peer;
    LinkId link;
  };
  [[nodiscard]] std::optional<Attachment> peer_of(Port p) const;

  /// Every connected (non-disconnected) link touching this device, in port
  /// order. The fault-injection layer uses this to take a whole switch's
  /// cabling down or to find a host's access link.
  [[nodiscard]] std::vector<LinkId> links_at(Device d) const;

  /// The single link wiring a host into the fabric, if any. Downing it
  /// cleanly partitions the host (the chaos partition primitive).
  [[nodiscard]] std::optional<LinkId> host_access_link(HostId h) const {
    return hosts_.at(h.v).link;
  }

  [[nodiscard]] const LinkModel& link_model(LinkId l) const {
    return links_[l.v].model;
  }
  [[nodiscard]] std::pair<Port, Port> link_ends(LinkId l) const {
    return {links_[l.v].a, links_[l.v].b};
  }

  // --- failure state -------------------------------------------------------
  void set_link_up(LinkId l, bool up) { links_[l.v].up = up; }
  [[nodiscard]] bool link_up(LinkId l) const {
    return links_[l.v].up && !links_[l.v].disconnected;
  }
  /// A dead switch drops every packet that reaches it.
  void set_switch_up(SwitchId s, bool up) { switches_[s.v].up = up; }
  [[nodiscard]] bool switch_up(SwitchId s) const { return switches_[s.v].up; }

  // --- route helpers -------------------------------------------------------
  // Every query below is one use of a single breadth-first search (`search`)
  // or a single route walk (`walk`); see docs/ROUTING.md.

  /// Shortest route (BFS over *currently up* links/switches) from one host to
  /// another, as the port bytes the packet must carry. nullopt if unreachable.
  [[nodiscard]] std::optional<Route> shortest_route(HostId from,
                                                    HostId to) const;

  /// shortest_route from `from` to every host, indexed by host id, read off
  /// one search tree: element i equals shortest_route(from, HostId{i}).
  [[nodiscard]] std::vector<std::optional<Route>> shortest_routes(
      HostId from) const;

  /// Walk a route from a host; returns the device where the packet ends up
  /// (ignoring up/down state), or nullopt if it falls off the fabric
  /// (unconnected port / exhausted route at a switch / leftover route bytes).
  [[nodiscard]] std::optional<Device> trace_route(HostId from,
                                                  const Route& r) const;

  /// The links the trace_route walk crosses, in path order: the source's
  /// access link, one link per route byte, the destination's access link
  /// last. Empty when the walk falls off the fabric.
  [[nodiscard]] std::vector<LinkId> route_links(HostId from,
                                                const Route& r) const;

  /// Device sitting at the end of a route *prefix* from `from` — unlike
  /// trace_route, running out of route bytes at a switch returns that
  /// switch. The on-demand mapper reads crossbar radices and identities
  /// through this (operators know their fabric; see OnDemandMapper's
  /// constructor).
  [[nodiscard]] std::optional<Device> device_after(HostId from,
                                                   const Route& r) const;

  /// trace_route that additionally requires every traversed link and switch
  /// to be *currently up* — nullopt when the route is broken anywhere along
  /// it. The proactive-backup layer uses this to reject stale backups before
  /// promoting them.
  [[nodiscard]] std::optional<Device> trace_route_up(HostId from,
                                                     const Route& r) const;

  /// Maximally disjoint alternate to `primary` (which must be a valid
  /// from->to route): prefer a route avoiding every interior link AND
  /// interior switch of the primary, then one avoiding only its interior
  /// links, then one avoiding at least one interior link. Ties among
  /// equal-cost choices are broken by a salt-seeded per-switch port-order
  /// permutation, so the pick is deterministic but spread across sources
  /// (the multipath trick). nullopt when the primary walk fails or every
  /// alternate would replay the primary exactly (e.g. both hosts on one
  /// crossbar).
  [[nodiscard]] std::optional<AltRoute> disjoint_route(
      HostId from, HostId to, const Route& primary, std::uint64_t salt) const;

 private:
  struct HostRec {
    std::optional<LinkId> link;  // hosts have exactly one port
  };
  struct SwitchRec {
    std::uint8_t num_ports = 0;
    bool up = true;
    std::vector<std::optional<LinkId>> port_link;
  };
  struct LinkRec {
    Port a, b;
    LinkModel model;
    bool up = true;
    bool disconnected = false;
  };

  std::optional<LinkId>& port_slot(Port p);
  [[nodiscard]] const std::optional<LinkId>* port_slot_const(Port p) const;

  /// What one breadth-first search from a host may cross and when it stops.
  /// Bans are indexed by LinkId / SwitchId; down elements are never crossed.
  struct SearchSpec {
    std::optional<HostId> goal = {};  // stop once reached; none: whole tree
    const std::vector<char>* banned_links = nullptr;
    const std::vector<char>* banned_switches = nullptr;
    /// Seeds a per-switch permutation of the order its ports are expanded
    /// in; nullopt expands them in port order.
    std::optional<std::uint64_t> salt = {};
  };
  /// One device's place in a search tree, whose slots are the hosts and
  /// then the switches: the slot it was first reached from (-1: unreached;
  /// the root is its own parent) and the port that parent sent it out of.
  struct TreeSlot {
    std::int32_t parent = -1;
    std::uint8_t port = 0;
  };
  [[nodiscard]] std::vector<TreeSlot> search(HostId from,
                                             const SearchSpec& spec) const;
  /// The route from the tree's root to `to`, or nullopt if `to` is unreached.
  [[nodiscard]] std::optional<Route> route_in(
      const std::vector<TreeSlot>& tree, HostId to) const;

  /// How one walk of a route ends and what it checks and records.
  struct WalkSpec {
    bool prefix = false;      // exhausting the route at a switch ends there
    bool require_up = false;  // every crossed link and switch must be up
    std::vector<LinkId>* links = nullptr;        // appended in path order
    std::vector<SwitchId>* switches = nullptr;   // appended in path order
  };
  /// Runs `r` from `from`; returns where it ends, or nullopt when it falls
  /// off the fabric, breaks a `require_up`, or ends at a host with route
  /// bytes left over.
  [[nodiscard]] std::optional<Device> walk(HostId from, const Route& r,
                                           const WalkSpec& spec) const;

  std::vector<HostRec> hosts_;
  std::vector<SwitchRec> switches_;
  std::vector<LinkRec> links_;
};

/// Build the paper's Figure-2 evaluation fabric: two 16-port and two 8-port
/// full-crossbar switches in a redundant tree, with `num_hosts` hosts spread
/// across the leaf switches. Returns the switch ids in creation order
/// {sw16_a, sw16_b, sw8_a, sw8_b}.
struct Figure2Fabric {
  Topology topo;
  std::vector<HostId> hosts;
  SwitchId sw16_a, sw16_b, sw8_a, sw8_b;
};
Figure2Fabric make_figure2_fabric(std::size_t num_hosts);

/// k-ary folded-Clos (fat-tree) fabric: k pods of k/2 edge + k/2 aggregation
/// crossbars, with a configurable-size spine layer on top. This is the
/// scale-out fabric the 64/128-host experiments run on — path distances are
/// 1 switch (same edge), 3 (same pod), 5 (cross-pod), and every cross-pod
/// pair has `core_group_size` equal-cost paths per aggregation choice.
struct ClosConfig {
  /// Pod radix; must be even and >= 2. k = 8 yields the canonical 128-host
  /// fat-tree (32 edge + 32 agg + 16 core switches at full redundancy).
  std::size_t k = 8;
  /// Hosts to attach, round-robin across the edge switches (consecutive
  /// host ids land in different pods). 0 = fully populate (k^3 / 4).
  std::size_t num_hosts = 0;
  /// Spine redundancy: cores each aggregation switch uplinks to. Every agg
  /// at pod position j connects to its own group of this many cores, so the
  /// spine has k/2 * core_group_size switches. 0 = k/2 (full fat-tree).
  std::size_t core_group_size = 0;
  LinkModel link = {};
};

/// Switch creation order: all cores first (so SwitchId 0 is a spine switch —
/// chaos scenarios address switches by raw index), then per pod the k/2
/// aggs followed by the k/2 edges. Edge ports [0, k/2) are uplinks; hosts
/// sit on ports k/2 and up.
struct ClosFabric {
  Topology topo;
  std::vector<HostId> hosts;
  std::vector<SwitchId> cores;
  std::vector<SwitchId> aggs;   // pod-major: aggs[pod * k/2 + j]
  std::vector<SwitchId> edges;  // pod-major: edges[pod * k/2 + e]
  ClosConfig cfg;               // normalized (num_hosts/core_group_size set)
};
ClosFabric make_clos_fabric(ClosConfig cfg = {});

/// Canonical benchmark shapes, addressable by name so benches, tests and
/// scripts agree on exactly one geometry per label:
///   clos-64   k=8,  64 hosts   (partially-populated 8-ary tree)
///   clos-128  k=8,  128 hosts  (fully-populated:  k^3/4)
///   clos-256  k=16, 256 hosts  (quarter-populated 16-ary tree, 320 switches)
///   clos-1024 k=16, 1024 hosts (fully-populated 16-ary tree)
/// nullopt for unknown names.
[[nodiscard]] std::optional<ClosConfig> clos_named_shape(std::string_view name);

}  // namespace sanfault::net
