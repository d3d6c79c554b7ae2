// On-demand mapping walkthrough: watch the BFS prober discover routes on the
// Figure-2 fabric, compare against the full-map UP*/DOWN* baseline, and move
// a node to demonstrate dynamic reconfiguration (§4.2).
//
//   ./build/examples/mapping_demo
#include <cstdio>
#include <optional>

#include "firmware/updown.hpp"
#include "harness/cluster.hpp"

using namespace sanfault;

namespace {

/// True when `r` runs from host `from` to host `to` in the fabric as it is
/// cabled now.
bool ends_at(const harness::Cluster& c, std::size_t from, std::size_t to,
             const std::optional<net::Route>& r) {
  return r && c.topo.trace_route(c.hosts[from], *r) ==
                  net::Device::host(c.hosts[to]);
}

/// Map a route, print it, and check that it reaches its destination.
bool map_and_report(harness::Cluster& c, std::size_t from, std::size_t to) {
  bool done = false;
  std::optional<net::Route> route;
  c.mapper(from).request_route(c.hosts[to], [&](std::optional<net::Route> r) {
    route = std::move(r);
    done = true;
  });
  while (!done && c.sched.step()) {
  }
  const auto& st = c.mapper(from).stats();
  std::printf("  host %zu -> host %zu: route %-12s %3llu host + %3llu switch probes, %7.3f ms\n",
              from, to, route ? route->str().c_str() : "(unreachable)",
              static_cast<unsigned long long>(st.last_host_probes),
              static_cast<unsigned long long>(st.last_switch_probes),
              sim::to_millis(st.last_mapping_time));
  return ends_at(c, from, to, route);
}

}  // namespace

int main() {
  harness::ClusterConfig cfg;
  cfg.num_hosts = 32;  // near-full fabric (probing empty crossbar ports is
                       // what makes switch detection expensive); the two
                       // free ports left on each 16-port switch host the
                       // dynamic-reconfiguration part of the demo
  cfg.topo = harness::TopoKind::kFigure2;
  cfg.fw = harness::FirmwareKind::kReliable;
  cfg.mapper = harness::MapperKind::kOnDemand;
  cfg.preload_routes = false;  // cold start: nobody knows any routes
  harness::Cluster c(cfg);

  std::printf("Figure-2 fabric: sw8_a - sw16_a - sw16_b - sw8_b (redundant trunks)\n");
  std::printf("hosts 0..3 sit on those switches in order; host 4 shares sw8_a.\n\n");

  bool ok = true;
  std::printf("cold-start on-demand mappings from host 4:\n");
  ok &= map_and_report(c, 4, 0);  // 1 switch
  ok &= map_and_report(c, 4, 1);  // 2 switches
  ok &= map_and_report(c, 4, 2);  // 3 switches
  ok &= map_and_report(c, 4, 3);  // 4 switches

  std::printf("\nfull-map baseline for comparison (UP*/DOWN* over the whole fabric):\n");
  firmware::UpDownRouting ud(c.topo);
  for (std::size_t t = 0; t < 4; ++t) {
    auto r = ud.route(c.hosts[4], c.hosts[t]);
    std::printf("  host 4 -> host %zu: UP*/DOWN* route %s\n", t,
                r ? r->str().c_str() : "(none)");
    ok &= ends_at(c, 4, t, r);
  }
  std::printf("  (a full map must probe every switch port: ~%u probes vs the handful above)\n",
              2u * (8 + 16 + 16 + 8) + 8u);

  // Dynamic reconfiguration: move host 3 from sw8_b to sw16_a and remap.
  std::printf("\nmoving host 3 from sw8_b to a free port on sw16_a...\n");
  auto att = c.topo.peer_of({net::Device::host(c.hosts[3]), 0});
  c.topo.disconnect(att->link);
  c.topo.connect({net::Device::host(c.hosts[3]), 0},
                 {net::Device::sw(c.switches[1]), 14});  // a free port
  c.mapper(3).flush_cache();  // the moved NIC rediscovers its attach port
  // Host 4's cached route now falls off the fabric at sw8_b. Its firmware
  // declares that path failed once retransmission gives up; do the same, so
  // the re-map probes for the new location instead of hitting the cache.
  c.mapper(4).on_path_failure(c.hosts[3]);
  ok &= map_and_report(c, 4, 3);
  if (!ok) {
    std::fprintf(stderr,
                 "mapping_demo: a printed route does not reach its host\n");
    return 1;
  }
  return 0;
}
