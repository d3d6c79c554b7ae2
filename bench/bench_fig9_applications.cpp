// Figure 9: execution-time breakdowns for FFT, RadixLocal and WaterNSquared
// on the 4-node / 8-processor cluster, grouped by injected error rate
// (0, 1e-4, 1e-3), with 4 bars per group: r100us-q2, r100us-q32, r1ms-q2,
// r1ms-q32 (retransmission interval x NIC send queue size).
//
// Paper findings to reproduce in shape:
//  * WaterNSquared is insensitive to everything (compute-dominated);
//  * FFT and RadixLocal barely move up to 1e-4;
//  * at 1e-3 and above, performance degrades significantly (> 20%);
//  * within one error rate, parameter choice moves performance by up to ~19%.
//
// Default problem sizes are bench-scale; --paper-sizes switches to Table 2
// (FFT 1M points x 18 iters, Radix 4M keys x 5 iters, Water 4096 molecules
// x 15 steps) — expect a long run.
#include <cstdio>
#include <vector>

#include "apps/fft.hpp"
#include "apps/radix.hpp"
#include "apps/water.hpp"
#include "harness/cluster.hpp"
#include "harness/table.hpp"
#include "sweep.hpp"

namespace {

using namespace sanfault;
using harness::Cluster;
using harness::ClusterConfig;

struct ProtoConfig {
  const char* name;
  sim::Duration interval;
  std::size_t queue;
};

const ProtoConfig kConfigs[] = {
    {"r100us-q2", sim::microseconds(100), 2},
    {"r100us-q32", sim::microseconds(100), 32},
    {"r1ms-q2", sim::milliseconds(1), 2},
    {"r1ms-q32", sim::milliseconds(1), 32},
};

struct ErrorRate {
  const char* name;
  std::uint64_t drop_interval;
};

const ErrorRate kRates[] = {{"0", 0}, {"1e-4", 10000}, {"1e-3", 1000}};

Cluster make_cluster(const ProtoConfig& pc, std::uint64_t drop_interval) {
  ClusterConfig cfg;
  cfg.num_hosts = 4;
  cfg.fw = harness::FirmwareKind::kReliable;
  cfg.nic.send_buffers = pc.queue;
  cfg.rel.retrans_interval = pc.interval;
  cfg.rel.drop_interval = drop_interval;
  cfg.rel.fail_threshold = sim::seconds(30);  // no permanent failures here
  cfg.rel.fail_min_rounds = 1000;
  return Cluster(cfg);
}

void print_app(const char* app_name,
               const std::function<apps::AppResult(Cluster&)>& run) {
  std::printf("--- %s ---\n", app_name);
  harness::Table t({"Error", "Config", "Barrier(ms)", "Lock(ms)", "Data(ms)",
                    "Compute(ms)", "Total(ms)", "Elapsed(ms)", "OK"});
  double base_elapsed = -1;
  for (const auto& rate : kRates) {
    for (const auto& pc : kConfigs) {
      Cluster c = make_cluster(pc, rate.drop_interval);
      apps::AppResult r = run(c);
      const auto agg = r.aggregate();
      if (base_elapsed < 0) base_elapsed = sim::to_millis(r.elapsed);
      t.add_row({rate.name, pc.name, harness::fmt(sim::to_millis(agg.barrier)),
                 harness::fmt(sim::to_millis(agg.lock)),
                 harness::fmt(sim::to_millis(agg.data)),
                 harness::fmt(sim::to_millis(agg.compute)),
                 harness::fmt(sim::to_millis(agg.total())),
                 harness::fmt(sim::to_millis(r.elapsed)),
                 r.verified ? "yes" : "NO"});
    }
  }
  t.print();
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool paper = false;
  if (!bench::parse_flags(argc, argv, {{"--paper-sizes", paper}})) return 2;

  std::printf("=== Figure 9: application execution-time breakdowns ===\n");
  std::printf("(aggregate over 8 processors; 4 bars per error-rate group)\n\n");

  apps::FftConfig fft;
  fft.log2_points = paper ? 20u : 14u;
  fft.iterations = paper ? 18 : 2;
  print_app(paper ? "FFT (1M points, 18 iterations)"
                  : "FFT (16K points, 2 iterations)",
            [&](Cluster& c) { return apps::run_fft(c, fft); });

  apps::RadixConfig radix;
  radix.num_keys = paper ? (4u << 20) : (1u << 16);
  radix.iterations = paper ? 5 : 4;
  print_app(paper ? "RadixLocal (4M keys, 5 iterations)"
                  : "RadixLocal (64K keys, 4 iterations)",
            [&](Cluster& c) { return apps::run_radix(c, radix); });

  apps::WaterConfig water;
  water.num_molecules = paper ? 4096u : 512u;
  water.steps = paper ? 15 : 3;
  print_app(paper ? "WaterNSquared (4096 molecules, 15 steps)"
                  : "WaterNSquared (512 molecules, 3 steps)",
            [&](Cluster& c) { return apps::run_water(c, water); });

  std::printf(
      "Paper reference: Water insensitive everywhere; FFT/Radix flat up to\n"
      "1e-4 (<=19%% spread across configs); >20%% degradation at 1e-3+.\n");
  return 0;
}
