#include "net/topology.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <stdexcept>

#include "sim/rng.hpp"

namespace sanfault::net {

HostId Topology::add_host() {
  hosts_.push_back(HostRec{});
  return HostId{static_cast<std::uint32_t>(hosts_.size() - 1)};
}

SwitchId Topology::add_switch(std::uint8_t num_ports) {
  SwitchRec rec;
  rec.num_ports = num_ports;
  rec.port_link.resize(num_ports);
  switches_.push_back(std::move(rec));
  return SwitchId{static_cast<std::uint32_t>(switches_.size() - 1)};
}

std::optional<LinkId>& Topology::port_slot(Port p) {
  if (p.dev.is_host()) {
    if (p.port != 0) throw std::out_of_range("hosts have only port 0");
    return hosts_.at(p.dev.index).link;
  }
  auto& sw = switches_.at(p.dev.index);
  return sw.port_link.at(p.port);
}

const std::optional<LinkId>* Topology::port_slot_const(Port p) const {
  if (p.dev.is_host()) {
    if (p.port != 0) return nullptr;
    if (p.dev.index >= hosts_.size()) return nullptr;
    return &hosts_[p.dev.index].link;
  }
  if (p.dev.index >= switches_.size()) return nullptr;
  const auto& sw = switches_[p.dev.index];
  if (p.port >= sw.port_link.size()) return nullptr;
  return &sw.port_link[p.port];
}

LinkId Topology::connect(Port a, Port b, LinkModel model) {
  auto& sa = port_slot(a);
  auto& sb = port_slot(b);
  if (sa || sb) throw std::logic_error("Topology::connect: port already wired");
  const LinkId id{static_cast<std::uint32_t>(links_.size())};
  links_.push_back(LinkRec{a, b, model, /*up=*/true, /*disconnected=*/false});
  sa = id;
  sb = id;
  return id;
}

void Topology::disconnect(LinkId l) {
  auto& rec = links_.at(l.v);
  if (rec.disconnected) return;
  rec.disconnected = true;
  port_slot(rec.a).reset();
  port_slot(rec.b).reset();
}

std::vector<LinkId> Topology::links_at(Device d) const {
  std::vector<LinkId> out;
  if (d.is_host()) {
    if (const auto& l = hosts_.at(d.index).link) out.push_back(*l);
    return out;
  }
  for (const auto& slot : switches_.at(d.index).port_link) {
    if (slot) out.push_back(*slot);
  }
  return out;
}

std::optional<Topology::Attachment> Topology::peer_of(Port p) const {
  const auto* slot = port_slot_const(p);
  if (!slot || !*slot) return std::nullopt;
  const LinkRec& rec = links_[(*slot)->v];
  const Port peer = (rec.a == p) ? rec.b : rec.a;
  return Attachment{peer, **slot};
}

std::vector<Topology::TreeSlot> Topology::search(
    HostId from, const SearchSpec& spec) const {
  const auto slot_of = [&](Device d) {
    return static_cast<std::int32_t>(
        d.is_host() ? d.index : hosts_.size() + d.index);
  };
  const auto banned = [](const std::vector<char>* bans, std::uint32_t i) {
    return bans != nullptr && i < bans->size() && (*bans)[i];
  };
  std::vector<TreeSlot> tree(hosts_.size() + switches_.size());
  const std::int32_t start = slot_of(Device::host(from));
  const std::int32_t goal =
      spec.goal ? slot_of(Device::host(*spec.goal)) : std::int32_t{-1};
  tree[start].parent = start;
  std::vector<Device> frontier{Device::host(from)};
  frontier.reserve(tree.size());
  bool found = goal == start;

  // Reach whatever is cabled to port `p` of `d`, unless that crosses a down
  // or banned element or revisits a device.
  const auto expand = [&](Device d, std::uint8_t p) {
    auto att = peer_of(Port{d, p});
    if (!att || !link_up(att->link) ||
        banned(spec.banned_links, att->link.v)) {
      return;
    }
    const Device nbr = att->peer.dev;
    if (nbr.is_switch() && (!switch_up(nbr.as_switch()) ||
                            banned(spec.banned_switches, nbr.index))) {
      return;
    }
    const std::int32_t n = slot_of(nbr);
    if (tree[n].parent != -1) return;
    tree[n] = {slot_of(d), p};
    found = n == goal;
    frontier.push_back(nbr);
  };

  std::array<std::uint8_t, 256> order{};
  for (std::size_t head = 0; head < frontier.size() && !found; ++head) {
    const Device d = frontier[head];
    if (d.is_host()) {
      if (d.index == from.v) expand(d, 0);  // other hosts do not forward
      continue;
    }
    const std::uint8_t radix = switches_[d.index].num_ports;
    std::iota(order.begin(), order.begin() + radix, std::uint8_t{0});
    if (spec.salt) {
      // Salt-seeded per-switch port permutation: among equal-cost choices
      // the first-found shortest path depends on expansion order, so the
      // salt deterministically spreads picks across (source, destination)
      // pairs the same way the mapper's multipath selection does.
      sim::Rng perm(*spec.salt ^ (0x9E3779B97F4A7C15ull * (d.index + 1)));
      for (std::size_t i = radix; i > 1; --i) {
        std::swap(order[i - 1], order[perm.uniform(i)]);
      }
    }
    for (std::size_t i = 0; i < radix && !found; ++i) expand(d, order[i]);
  }
  return tree;
}

std::optional<Route> Topology::route_in(const std::vector<TreeSlot>& tree,
                                        HostId to) const {
  auto cur = static_cast<std::int32_t>(to.v);
  if (tree[cur].parent == -1) return std::nullopt;
  // Walk back from the destination: every switch on the path contributes
  // the port it sent the packet out of.
  const auto num_hosts = static_cast<std::int32_t>(hosts_.size());
  Route route;
  while (tree[cur].parent != cur) {
    if (tree[cur].parent >= num_hosts) route.ports.push_back(tree[cur].port);
    cur = tree[cur].parent;
  }
  std::reverse(route.ports.begin(), route.ports.end());
  return route;
}

std::optional<Route> Topology::shortest_route(HostId from, HostId to) const {
  return route_in(search(from, {.goal = to}), to);
}

std::vector<std::optional<Route>> Topology::shortest_routes(HostId from) const {
  const std::vector<TreeSlot> tree = search(from, {});
  std::vector<std::optional<Route>> routes;
  routes.reserve(hosts_.size());
  for (std::uint32_t h = 0; h < hosts_.size(); ++h) {
    routes.push_back(route_in(tree, HostId{h}));
  }
  return routes;
}

std::optional<Device> Topology::walk(HostId from, const Route& r,
                                     const WalkSpec& spec) const {
  auto att = peer_of(Port{Device::host(from), 0});
  if (!att || (spec.require_up && !link_up(att->link))) return std::nullopt;
  if (spec.links) spec.links->push_back(att->link);
  Device cur = att->peer.dev;
  std::size_t next = 0;
  while (cur.is_switch()) {
    if (spec.require_up && !switch_up(cur.as_switch())) return std::nullopt;
    if (spec.switches) spec.switches->push_back(cur.as_switch());
    if (next >= r.ports.size()) {
      if (spec.prefix) return cur;
      return std::nullopt;  // route exhausted mid-fabric
    }
    const std::uint8_t port = r.ports[next++];
    if (port >= switches_[cur.index].num_ports) return std::nullopt;
    auto hop = peer_of(Port{cur, port});
    // An unconnected port: the packet falls off.
    if (!hop || (spec.require_up && !link_up(hop->link))) return std::nullopt;
    if (spec.links) spec.links->push_back(hop->link);
    cur = hop->peer.dev;
  }
  if (next != r.ports.size()) return std::nullopt;  // leftover bytes corrupt
  return cur;
}

std::optional<Device> Topology::trace_route(HostId from, const Route& r) const {
  return walk(from, r, {});
}

std::vector<LinkId> Topology::route_links(HostId from, const Route& r) const {
  std::vector<LinkId> links;
  if (!walk(from, r, {.links = &links})) links.clear();
  return links;
}

std::optional<Device> Topology::device_after(HostId from,
                                             const Route& r) const {
  return walk(from, r, {.prefix = true});
}

std::optional<Device> Topology::trace_route_up(HostId from,
                                               const Route& r) const {
  return walk(from, r, {.require_up = true});
}

std::optional<AltRoute> Topology::disjoint_route(HostId from, HostId to,
                                                 const Route& primary,
                                                 std::uint64_t salt) const {
  // Walk the primary (ignoring up/down: it may have just failed) collecting
  // every link and switch it traverses, in path order.
  std::vector<LinkId> path_links;
  std::vector<SwitchId> path_switches;
  const auto end = walk(from, primary,
                        {.links = &path_links, .switches = &path_switches});
  if (end != Device::host(to)) return std::nullopt;  // not a from->to walk

  // Interior = everything strictly between the two access switches. Hosts
  // are single-homed: the access links and the first/last crossbar are
  // shared by construction, so they never enter a ban set.
  std::vector<LinkId> interior_links(
      path_links.size() > 2 ? path_links.begin() + 1 : path_links.end(),
      path_links.size() > 2 ? path_links.end() - 1 : path_links.end());
  std::vector<SwitchId> interior_switches(
      path_switches.size() > 2 ? path_switches.begin() + 1
                               : path_switches.end(),
      path_switches.size() > 2 ? path_switches.end() - 1
                               : path_switches.end());
  if (interior_links.empty()) {
    // Same-crossbar pair (or direct cable): the only route IS the primary.
    return std::nullopt;
  }

  auto attempt = [&](const std::vector<LinkId>& ban_links,
                     const std::vector<SwitchId>& ban_switches)
      -> std::optional<Route> {
    std::vector<char> lb(links_.size(), 0);
    std::vector<char> sb(switches_.size(), 0);
    for (const LinkId l : ban_links) lb[l.v] = 1;
    for (const SwitchId s : ban_switches) sb[s.v] = 1;
    auto r = route_in(search(from, {.goal = to,
                                    .banned_links = &lb,
                                    .banned_switches = &sb,
                                    .salt = salt}),
                      to);
    if (r && *r == primary) r.reset();  // replaying the primary is no backup
    return r;
  };

  if (auto r = attempt(interior_links, interior_switches)) {
    return AltRoute{std::move(*r), DisjointClass::kNodeDisjoint};
  }
  if (!interior_switches.empty()) {
    if (auto r = attempt(interior_links, {})) {
      return AltRoute{std::move(*r), DisjointClass::kLinkDisjoint};
    }
  }
  // Progressive relaxation: any route avoiding at least one primary link
  // still survives that link's death. Ban one interior link at a time, in
  // path order, and take the first alternate that appears.
  for (const LinkId l : interior_links) {
    if (auto r = attempt({l}, {})) {
      return AltRoute{std::move(*r), DisjointClass::kOverlapping};
    }
  }
  return std::nullopt;
}

Figure2Fabric make_figure2_fabric(std::size_t num_hosts) {
  Figure2Fabric f;
  f.sw8_a = f.topo.add_switch(8);
  f.sw16_a = f.topo.add_switch(16);
  f.sw16_b = f.topo.add_switch(16);
  f.sw8_b = f.topo.add_switch(8);

  // Chain sw8_a - sw16_a - sw16_b - sw8_b, with a redundant second link on
  // every switch-to-switch segment so a single link death never partitions.
  auto wire = [&](SwitchId x, std::uint8_t px, SwitchId y, std::uint8_t py) {
    f.topo.connect(Port{Device::sw(x), px}, Port{Device::sw(y), py});
  };
  wire(f.sw8_a, 0, f.sw16_a, 0);
  wire(f.sw8_a, 1, f.sw16_a, 1);
  wire(f.sw16_a, 2, f.sw16_b, 2);
  wire(f.sw16_a, 3, f.sw16_b, 3);
  wire(f.sw16_b, 0, f.sw8_b, 0);
  wire(f.sw16_b, 1, f.sw8_b, 1);

  // Hosts round-robin over the four switches, on their free ports; a full
  // switch is skipped (the 8-port crossbars fill before the 16-port ones).
  const SwitchId order[] = {f.sw8_a, f.sw16_a, f.sw16_b, f.sw8_b};
  std::uint8_t next_port[] = {2, 4, 4, 2};
  std::size_t s = 0;
  for (std::size_t i = 0; i < num_hosts; ++i) {
    std::size_t tried = 0;
    while (next_port[s] >= f.topo.switch_ports(order[s])) {
      s = (s + 1) % 4;
      if (++tried == 4) {
        throw std::logic_error("make_figure2_fabric: out of switch ports");
      }
    }
    const HostId h = f.topo.add_host();
    f.topo.connect(Port{Device::host(h), 0},
                   Port{Device::sw(order[s]), next_port[s]++});
    f.hosts.push_back(h);
    s = (s + 1) % 4;
  }
  return f;
}

ClosFabric make_clos_fabric(ClosConfig cfg) {
  if (cfg.k < 2 || cfg.k % 2 != 0) {
    throw std::invalid_argument("make_clos_fabric: k must be even and >= 2");
  }
  const std::size_t m = cfg.k / 2;  // edges/aggs per pod, down-ports per agg
  if (cfg.core_group_size == 0) cfg.core_group_size = m;
  if (cfg.core_group_size > m) {
    throw std::invalid_argument("make_clos_fabric: core_group_size > k/2");
  }
  const std::size_t g = cfg.core_group_size;
  const std::size_t num_edges = cfg.k * m;
  if (cfg.num_hosts == 0) cfg.num_hosts = num_edges * m;  // full: k^3/4
  // Hosts round-robin over edges; the busiest edge carries the ceiling.
  const std::size_t hosts_per_edge =
      (cfg.num_hosts + num_edges - 1) / num_edges;
  if (cfg.k > 250 || m + hosts_per_edge > 250) {
    throw std::invalid_argument("make_clos_fabric: crossbar radix overflow");
  }

  ClosFabric f;
  f.cfg = cfg;
  // Spine first: SwitchId 0 must be a core so chaos scenarios that say
  // "switch_down switch=0" kill a spine, and UP*/DOWN* roots at the top.
  for (std::size_t c = 0; c < m * g; ++c) {
    f.cores.push_back(f.topo.add_switch(static_cast<std::uint8_t>(cfg.k)));
  }
  for (std::size_t pod = 0; pod < cfg.k; ++pod) {
    for (std::size_t j = 0; j < m; ++j) {
      f.aggs.push_back(f.topo.add_switch(static_cast<std::uint8_t>(m + g)));
    }
    for (std::size_t e = 0; e < m; ++e) {
      f.edges.push_back(
          f.topo.add_switch(static_cast<std::uint8_t>(m + hosts_per_edge)));
    }
  }

  auto wire = [&](SwitchId x, std::size_t px, SwitchId y, std::size_t py) {
    f.topo.connect(Port{Device::sw(x), static_cast<std::uint8_t>(px)},
                   Port{Device::sw(y), static_cast<std::uint8_t>(py)},
                   cfg.link);
  };
  for (std::size_t pod = 0; pod < cfg.k; ++pod) {
    // Edge e port j <-> agg j port e: a full bipartite mesh inside the pod.
    for (std::size_t e = 0; e < m; ++e) {
      for (std::size_t j = 0; j < m; ++j) {
        wire(f.edges[pod * m + e], j, f.aggs[pod * m + j], e);
      }
    }
    // Agg j uplinks to its core group; core c's port `pod` serves this pod.
    for (std::size_t j = 0; j < m; ++j) {
      for (std::size_t t = 0; t < g; ++t) {
        wire(f.aggs[pod * m + j], m + t, f.cores[j * g + t], pod);
      }
    }
  }

  for (std::size_t i = 0; i < cfg.num_hosts; ++i) {
    const HostId h = f.topo.add_host();
    const std::size_t e = i % num_edges;
    const std::size_t slot = i / num_edges;
    f.topo.connect(Port{Device::host(h), 0},
                   Port{Device::sw(f.edges[e]),
                        static_cast<std::uint8_t>(m + slot)},
                   cfg.link);
    f.hosts.push_back(h);
  }
  return f;
}

std::optional<ClosConfig> clos_named_shape(std::string_view name) {
  ClosConfig c;
  if (name == "clos-64") {
    c.k = 8;
    c.num_hosts = 64;
  } else if (name == "clos-128") {
    c.k = 8;
    c.num_hosts = 128;
  } else if (name == "clos-256") {
    c.k = 16;
    c.num_hosts = 256;
  } else if (name == "clos-1024") {
    c.k = 16;
    c.num_hosts = 1024;
  } else {
    return std::nullopt;
  }
  return c;
}

}  // namespace sanfault::net
