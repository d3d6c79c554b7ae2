// Scale-out mapping sweep: Table 3's probe-count-vs-distance series extended
// from the 4-switch Figure-2 testbed to k-ary Clos fabrics: 64/128 hosts on
// the k=8 tree, 256 on the 320-switch k=16 tree (clos-1024 behind --full).
//
// The paper's claim under test: on-demand mapping cost is a function of the
// *distance* between the two nodes (the BFS stops at the destination's
// level), while the conventional full-map baseline pays for the *size of the
// network* on every remap. Each cell below measures warm re-mapping cost at
// increasing switch distance on one fabric, next to what a full BFS map of
// that same fabric would cost (FullMapper::probes_for_full_map). On the
// 128-host fat-tree the two quantities separate by orders of magnitude at
// distance 1.
//
// Cells are independent simulations (own scheduler / fabric / RNG streams),
// so `--jobs N` output is byte-identical to the serial run for every N.
// Self-checks at the bottom turn the claims into exit codes: probe counts
// must be monotone in distance on clean fabrics, the full-map cost must grow
// with network size, and deterministic multipath must pick the same
// equal-cost route on repeated remaps.
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "harness/cluster.hpp"
#include "harness/table.hpp"
#include "sweep.hpp"

namespace {

using namespace sanfault;
using harness::Cluster;
using harness::ClusterConfig;

struct CellSpec {
  const char* name;
  harness::TopoKind topo;
  std::size_t hosts;
  double loss;     // per-link transient loss probability
  bool multipath;  // deterministic equal-cost selection on
  std::size_t src;
  std::vector<std::size_t> targets;  // in increasing switch distance
  std::vector<int> dists;            // switch distance of each target
  /// Named Clos geometry (net::clos_named_shape); nullptr = default k=8.
  const char* shape = nullptr;
};

struct DistRow {
  int dist = 0;
  std::uint64_t host_probes = 0;
  std::uint64_t switch_probes = 0;
  double time_ms = 0.0;
};

struct CellResult {
  std::vector<DistRow> rows;
  std::uint64_t full_map_probes = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t budget_exhausted = 0;
  std::uint64_t multipath_candidates = 0;
  bool multipath_stable = true;  // same route picked on repeated remaps
  bool all_mapped = true;
  /// Proactive failover (third point on the curve): a declared path failure
  /// answered by backup promotion, and the probes the re-map then cost.
  bool promote_served = false;
  std::uint64_t promote_probes = 0;
  bool promote_route_is_backup = false;
};

ClusterConfig cell_cluster_cfg(const CellSpec& spec) {
  ClusterConfig cfg;
  cfg.num_hosts = spec.hosts;
  cfg.topo = spec.topo;
  if (spec.shape != nullptr) {
    cfg.clos = *net::clos_named_shape(spec.shape);
    // The k=16 fabrics (320 switches, radix 16) make the Table-3 default
    // methodology impractical: a cross-pod BFS is dominated by
    // duplicate-detection probes, each a timeout. Like bench_chaos, the big
    // cells run the mapper in configured-deployment mode — the fabric
    // database answers duplicate verdicts and the probe timeout is sized to
    // the Clos RTT instead of the conservative Figure-2 default.
    cfg.ondemand.configured_identity = true;
    cfg.ondemand.probe_timeout = sim::microseconds(30);
  }
  cfg.fw = harness::FirmwareKind::kReliable;
  cfg.mapper = harness::MapperKind::kOnDemand;
  cfg.preload_routes = false;
  // Cross-pod BFS on the 128-host fat-tree explores most of the 80-switch
  // fabric including duplicate-detection probes; the default 4096 budget is
  // a Figure-2-sized guard, not a fat-tree-sized one. (The k=16 shapes need
  // the headroom even with duplicate probes resolved by the database.)
  cfg.ondemand.max_probes = std::size_t{1} << 17;
  if (spec.loss > 0.0) cfg.ondemand.probe_retries = 3;
  cfg.ondemand.multipath = spec.multipath;
  return cfg;
}

/// Run one route request to completion on a quiescent cluster.
std::optional<net::Route> map_now(Cluster& c, std::size_t src,
                                  std::size_t dst) {
  bool done = false;
  std::optional<net::Route> got;
  c.mapper(src).request_route(c.hosts[dst],
                              [&](std::optional<net::Route> r) {
                                got = std::move(r);
                                done = true;
                              });
  while (!done && c.sched.step()) {
  }
  return got;
}

CellResult run_cell(const CellSpec& spec) {
  CellResult res;
  Cluster c(cell_cluster_cfg(spec));
  if (spec.loss > 0.0) {
    c.fabric().set_link_fault_rates(std::nullopt, spec.loss, 0.0);
  }

  // Warm-up to the farthest target: discovers the mapper's own attach port,
  // the Table-3 "warm" precondition. Measured runs then invalidate both the
  // route table entry and the mapper's path-cache entry, so each row is a
  // genuine re-probe at that distance.
  res.all_mapped &= map_now(c, spec.src, spec.targets.back()).has_value();

  for (std::size_t i = 0; i < spec.targets.size(); ++i) {
    const std::size_t t = spec.targets[i];
    c.rel(spec.src).routes().invalidate(c.hosts[t]);
    c.mapper(spec.src).invalidate_path(c.hosts[t]);
    const auto route = map_now(c, spec.src, t);
    res.all_mapped &= route.has_value();
    const auto& st = c.mapper(spec.src).stats();
    res.rows.push_back(DistRow{spec.dists[i], st.last_host_probes,
                               st.last_switch_probes,
                               sim::to_millis(st.last_mapping_time)});
    if (spec.multipath && route.has_value()) {
      // Deterministic multipath: a second remap of the same pair must pick
      // the same equal-cost route (selection is seeded by (salt, src, dst),
      // not by probe arrival order).
      c.rel(spec.src).routes().invalidate(c.hosts[t]);
      c.mapper(spec.src).invalidate_path(c.hosts[t]);
      const auto again = map_now(c, spec.src, t);
      res.multipath_stable &= again.has_value() && *again == *route;
    }
  }

  // A repeat request without invalidation must be served from the LRU path
  // cache (zero probes); the hit shows up in mapper.path_cache_hits.
  res.all_mapped &= map_now(c, spec.src, spec.targets.front()).has_value();
  res.cache_hits = c.mapper(spec.src).stats().path_cache_hits;
  res.budget_exhausted = c.mapper(spec.src).stats().probe_budget_exhausted;
  res.multipath_candidates = c.mapper(spec.src).stats().multipath_candidates;

  // The conventional baseline on the *same* fabric: probes for one full
  // BFS map (every port of every switch), which any remap must pay.
  ClusterConfig fcfg = cell_cluster_cfg(spec);
  fcfg.mapper = harness::MapperKind::kFull;
  Cluster fc(fcfg);
  res.full_map_probes = fc.full_mapper(0).probes_for_full_map();

  // Proactive backup paths, the third point on the failover-cost curve: one
  // mapping pays the discovery probes and provisions a disjoint backup; a
  // declared path failure is then answered by promotion, and the re-map that
  // follows is a cache hit — zero probes on the critical path.
  ClusterConfig pcfg = cell_cluster_cfg(spec);
  pcfg.ondemand.proactive_backup = true;
  Cluster pc(pcfg);
  const std::size_t far = spec.targets.back();
  res.all_mapped &= map_now(pc, spec.src, far).has_value();
  net::Route backup_route;
  if (const auto* b = pc.mapper(spec.src).cached_backup(pc.hosts[far]);
      b != nullptr && b->has_value()) {
    backup_route = (*b)->route;
  }
  res.promote_served = pc.mapper(spec.src).on_path_failure(pc.hosts[far]);
  const auto promoted_route = map_now(pc, spec.src, far);
  const auto& pst = pc.mapper(spec.src).stats();
  res.promote_probes = pst.last_host_probes + pst.last_switch_probes;
  res.promote_route_is_backup =
      promoted_route.has_value() && *promoted_route == backup_route;
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  bool full = false;
  std::uint64_t jobs = 1;
  if (!bench::parse_flags(argc, argv,
                          {{"--full", full}, {"--jobs", "<N>", jobs}})) {
    return 2;
  }

  // Figure-2 (16 hosts): host 4 sits on sw8_a; targets 0..3 round-robin over
  // sw8_a, sw16_a, sw16_b, sw8_b => 1..4 switches away. Clos (k=8, 32 edge
  // switches): from host 0, host 32 shares its edge (distance 1), host 1 is
  // same-pod (edge-agg-edge, 3), host 4 is cross-pod (edge-agg-core-agg-edge,
  // 5) — identical indices at 64 and 128 hosts since both round-robin over
  // the same 32 edges.
  const std::vector<std::size_t> fig2_targets = {0, 1, 2, 3};
  const std::vector<int> fig2_dists = {1, 2, 3, 4};
  const std::vector<std::size_t> clos_targets = {32, 1, 4};
  const std::vector<int> clos_dists = {1, 3, 5};
  // k=16 shapes round-robin hosts over 128 edges (8 per pod): host 128
  // shares edge 0 (distance 1), host 1 is same-pod (3), host 8 is the first
  // host of pod 1 (cross-spine, 5).
  const std::vector<std::size_t> clos16_targets = {128, 1, 8};
  const std::vector<int> clos16_dists = {1, 3, 5};

  std::vector<CellSpec> specs = {
      {"fig2-16", harness::TopoKind::kFigure2, 16, 0.0, false, 4,
       fig2_targets, fig2_dists},
      {"clos-64", harness::TopoKind::kClos, 64, 0.0, false, 0, clos_targets,
       clos_dists},
      {"clos-128", harness::TopoKind::kClos, 128, 0.0, false, 0, clos_targets,
       clos_dists},
      {"clos-256", harness::TopoKind::kClos, 256, 0.0, false, 0,
       clos16_targets, clos16_dists, "clos-256"},
      {"clos-64/mp", harness::TopoKind::kClos, 64, 0.0, true, 0, clos_targets,
       clos_dists},
  };
  std::size_t idx_c1024 = 0;  // 0 = not present
  if (full) {
    idx_c1024 = specs.size();
    specs.push_back({"clos-1024", harness::TopoKind::kClos, 1024, 0.0, false,
                     0, clos16_targets, clos16_dists, "clos-1024"});
    specs.push_back({"fig2-16/e1e-3", harness::TopoKind::kFigure2, 16, 1e-3,
                     false, 4, fig2_targets, fig2_dists});
    specs.push_back({"clos-64/e1e-3", harness::TopoKind::kClos, 64, 1e-3,
                     false, 0, clos_targets, clos_dists});
    specs.push_back({"clos-128/e1e-3", harness::TopoKind::kClos, 128, 1e-3,
                     false, 0, clos_targets, clos_dists});
  }

  const auto results = bench::run_cells(jobs, specs, run_cell);

  std::printf("=== Scale-out on-demand mapping: probe cost vs distance ===\n");
  std::printf("(Table 3 extended to 64/128-host k=8 fat-trees)\n\n");
  sanfault::harness::Table t({"Fabric", "Dist", "Host", "Switch", "Total",
                              "Time(ms)", "FullMap"});
  for (std::size_t i = 0; i < specs.size(); ++i) {
    for (const auto& r : results[i].rows) {
      t.add_row({specs[i].name, std::to_string(r.dist),
                 std::to_string(r.host_probes),
                 std::to_string(r.switch_probes),
                 std::to_string(r.host_probes + r.switch_probes),
                 sanfault::harness::fmt(r.time_ms, 3),
                 std::to_string(results[i].full_map_probes)});
    }
  }
  t.print();
  std::printf(
      "\nOn-demand cost tracks the distance column; the FullMap column (one\n"
      "full BFS map of the same fabric) tracks network size.\n");

  std::printf(
      "\n=== Failover cost: probes on the critical path after a path "
      "failure ===\n\n");
  sanfault::harness::Table ft({"Fabric", "FullMap", "OnDemand@far",
                               "Proactive", "Promoted", "ServedBackup"});
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& res = results[i];
    const auto& farrow = res.rows.back();
    ft.add_row({specs[i].name, std::to_string(res.full_map_probes),
                std::to_string(farrow.host_probes + farrow.switch_probes),
                std::to_string(res.promote_probes),
                res.promote_served ? "yes" : "no",
                res.promote_route_is_backup ? "yes" : "no"});
  }
  ft.print();
  std::printf(
      "\nFull-map re-probes the fabric, on-demand re-probes to the failed\n"
      "destination's distance, proactive promotes the precomputed backup —\n"
      "zero probes between failure declaration and a usable route.\n");

  // --- self-checks (exit nonzero on violation) -----------------------------
  int rc = 0;
  auto check = [&](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "[ok]" : "[FAIL]", what);
    if (!ok) rc = 1;
  };

  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& res = results[i];
    check(res.all_mapped,
          (std::string(specs[i].name) + ": every mapping succeeded").c_str());
    check(res.budget_exhausted == 0,
          (std::string(specs[i].name) + ": probe budget never exhausted")
              .c_str());
    check(res.cache_hits >= 1,
          (std::string(specs[i].name) + ": repeat request hit the path cache")
              .c_str());
    if (specs[i].loss == 0.0) {
      bool mono = true;
      for (std::size_t j = 1; j < res.rows.size(); ++j) {
        const auto total = [](const DistRow& r) {
          return r.host_probes + r.switch_probes;
        };
        mono &= total(res.rows[j]) >= total(res.rows[j - 1]);
      }
      check(mono, (std::string(specs[i].name) +
                   ": probe count monotone in distance")
                      .c_str());
    }
    check(res.promote_served,
          (std::string(specs[i].name) +
           ": declared path failure served by backup promotion")
              .c_str());
    check(res.promote_probes == 0,
          (std::string(specs[i].name) + ": promoted failover cost 0 probes")
              .c_str());
    check(res.promote_route_is_backup,
          (std::string(specs[i].name) +
           ": promoted route is the precomputed backup")
              .c_str());
    check(res.rows.back().host_probes + res.rows.back().switch_probes > 0,
          (std::string(specs[i].name) +
           ": on-demand re-probe pays probes the promotion avoids")
              .c_str());
    if (specs[i].multipath) {
      check(res.multipath_stable,
            (std::string(specs[i].name) +
             ": multipath picks a stable route across remaps")
                .c_str());
      check(res.multipath_candidates > 0,
            (std::string(specs[i].name) +
             ": multipath considered equal-cost candidates")
                .c_str());
    }
  }
  // Full-map cost grows with network size (clos-64 and clos-128 share the
  // same 80-switch fabric; host ports still make 128 >= 64).
  check(results[0].full_map_probes < results[1].full_map_probes,
        "full-map cost: fig2-16 < clos-64");
  check(results[1].full_map_probes <= results[2].full_map_probes,
        "full-map cost: clos-64 <= clos-128");
  check(results[2].full_map_probes < results[3].full_map_probes,
        "full-map cost: clos-128 < clos-256");
  // The headline separation: a distance-1 remap on the 128-host fabric costs
  // a small fraction of what a full map of that fabric costs.
  check(results[2].rows[0].host_probes + results[2].rows[0].switch_probes <
            results[2].full_map_probes / 4,
        "clos-128 distance-1 remap ≪ full-map cost");
  // Same claim one size up: the 320-switch k=16 fabric widens the gap.
  check(results[3].rows[0].host_probes + results[3].rows[0].switch_probes <
            results[3].full_map_probes / 4,
        "clos-256 distance-1 remap ≪ full-map cost");
  if (idx_c1024 != 0) {
    check(results[3].full_map_probes < results[idx_c1024].full_map_probes,
          "full-map cost: clos-256 < clos-1024");
    check(results[idx_c1024].rows[0].host_probes +
                  results[idx_c1024].rows[0].switch_probes <
              results[idx_c1024].full_map_probes / 4,
          "clos-1024 distance-1 remap ≪ full-map cost");
  }
  return rc;
}
