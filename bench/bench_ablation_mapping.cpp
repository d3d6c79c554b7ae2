// Mapping-scheme ablation (DESIGN.md §7): on-demand (§4.2) vs full-map
// UP*/DOWN* baseline, on the fully-populated Figure-2 fabric.
//
//  * recovery after a permanent trunk failure: time from failure detection
//    to restored delivery, and probes spent;
//  * route quality: hop counts of on-demand shortest routes vs legal
//    UP*/DOWN* routes (the paper notes its scheme "has the potential of
//    improving on the quality of routes");
//  * mapping-cache effect: cold vs warm mapping cost (§4.2 mentions caching
//    as an unexplored improvement).
#include <cstdio>
#include <optional>

#include "firmware/updown.hpp"
#include "harness/cluster.hpp"
#include "harness/table.hpp"
#include "sweep.hpp"

using namespace sanfault;

namespace {

harness::ClusterConfig base_cfg(harness::MapperKind mk) {
  harness::ClusterConfig cfg;
  cfg.num_hosts = 36;
  cfg.topo = harness::TopoKind::kFigure2;
  cfg.fw = harness::FirmwareKind::kReliable;
  cfg.mapper = mk;
  cfg.rel.fail_threshold = sim::milliseconds(20);
  return cfg;
}

struct Recovery {
  double detect_ms = 0;   // failure -> path declared dead
  double restore_ms = 0;  // failure -> next successful delivery
  std::uint64_t probes = 0;
};

Recovery measure_recovery(harness::MapperKind mk) {
  harness::Cluster c(base_cfg(mk));
  // Steady traffic host0 (sw8_a) -> host3 (sw8_b).
  int delivered = 0;
  sim::Time last_delivery = 0;
  c.nic(3).set_host_rx([&](net::UserHeader, net::PayloadRef,
                           net::HostId) {
    ++delivered;
    last_delivery = c.sched.now();
  });
  c.send(0, 3, std::vector<std::uint8_t>(512, 1));
  c.sched.run_until(sim::milliseconds(1));

  // Kill the primary trunks.
  const sim::Time t_fail = c.sched.now();
  c.topo.set_link_up(net::LinkId{0}, false);
  c.topo.set_link_up(net::LinkId{2}, false);
  c.topo.set_link_up(net::LinkId{4}, false);
  for (int i = 0; i < 4; ++i) {
    c.send(0, 3, std::vector<std::uint8_t>(512, 2));
  }
  const int before = delivered;
  const sim::Time cap = c.sched.now() + sim::seconds(120);
  while (delivered < before + 4 && c.sched.now() < cap && c.sched.step()) {
  }

  Recovery r;
  r.restore_ms = sim::to_millis(last_delivery - t_fail);
  if (mk == harness::MapperKind::kOnDemand) {
    r.probes = c.mapper(0).stats().host_probes_tx +
               c.mapper(0).stats().switch_probes_tx;
  } else {
    r.probes = c.full_mapper(0).stats().modeled_probes;
  }
  r.detect_ms = sim::to_millis(sim::Duration{
      c.rel(0).config().fail_threshold});  // detection threshold component
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  if (!bench::parse_flags(argc, argv, {})) return 2;
  std::printf("=== Ablation: on-demand mapping vs full-map UP*/DOWN* ===\n\n");

  std::printf("--- permanent trunk failure recovery (host0 -> host3) ---\n");
  {
    harness::Table t({"Scheme", "Probes spent", "Failure->restored (ms)"});
    auto od = measure_recovery(harness::MapperKind::kOnDemand);
    auto fm = measure_recovery(harness::MapperKind::kFull);
    t.add_row({"on-demand (paper)", std::to_string(od.probes),
               harness::fmt(od.restore_ms, 2)});
    t.add_row({"full map + UP*/DOWN*", std::to_string(fm.probes),
               harness::fmt(fm.restore_ms, 2)});
    t.print();
    std::printf(
        "(both include the ~20 ms transient/permanent detection threshold;\n"
        "the full map re-probes every switch port: %u modeled probes per remap)\n\n",
        2u * (8 + 16 + 16 + 8) + 36u);
  }

  std::printf("--- route quality: hops of shortest vs UP*/DOWN* routes ---\n");
  {
    harness::Cluster c(base_cfg(harness::MapperKind::kNone));
    firmware::UpDownRouting ud(c.topo);
    std::uint64_t sp_hops = 0;
    std::uint64_t ud_hops = 0;
    std::uint64_t worse = 0;
    std::uint64_t pairs = 0;
    for (std::size_t a = 0; a < c.size(); ++a) {
      for (std::size_t b = 0; b < c.size(); ++b) {
        if (a == b) continue;
        auto s = c.topo.shortest_route(c.hosts[a], c.hosts[b]);
        auto u = ud.route(c.hosts[a], c.hosts[b]);
        if (!s || !u) continue;
        sp_hops += s->hops();
        ud_hops += u->hops();
        worse += (u->hops() > s->hops());
        ++pairs;
      }
    }
    std::printf(
        "  %llu pairs: shortest %.3f switches/route, UP*/DOWN* %.3f; "
        "UP*/DOWN* longer on %llu pairs (%.1f%%)\n",
        static_cast<unsigned long long>(pairs),
        static_cast<double>(sp_hops) / static_cast<double>(pairs),
        static_cast<double>(ud_hops) / static_cast<double>(pairs),
        static_cast<unsigned long long>(worse),
        100.0 * static_cast<double>(worse) / static_cast<double>(pairs));
    std::printf(
        "  (on-demand routes need no deadlock-freedom, so they can always\n"
        "   take the shortest path — the paper's unexplored quality benefit)\n\n");
  }

  std::printf("--- mapping cache: cold vs warm on-demand mapping ---\n");
  {
    harness::Cluster c(base_cfg(harness::MapperKind::kOnDemand));
    auto run_one = [&](std::size_t dst) {
      bool done = false;
      c.mapper(4).request_route(c.hosts[dst],
                                [&](std::optional<net::Route>) { done = true; });
      while (!done && c.sched.step()) {
      }
      return sim::to_millis(c.mapper(4).stats().last_mapping_time);
    };
    const double cold = run_one(3);  // cold: attach-port discovery + BFS
    const double warm = run_one(2);  // warm: attach port (and any hosts seen
                                     // during the first BFS) already known
    std::printf("  cold mapping to host 3: %.3f ms\n", cold);
    std::printf("  mapping to host 2 after: %.3f ms (attach port already known)\n",
                warm);
  }
  return 0;
}
