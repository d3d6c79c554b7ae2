// google-benchmark microbenchmarks of the simulator's hot primitives: these
// bound how much simulated traffic the harness can push per wall-second and
// guard against regressions in the event loop and protocol fast paths.
#include <benchmark/benchmark.h>

#include "firmware/raw.hpp"
#include "harness/cluster.hpp"
#include "net/topology.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/server.hpp"

namespace {

using namespace sanfault;

void BM_SchedulerEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler s;
    for (int i = 0; i < 1000; ++i) {
      s.after(static_cast<sim::Duration>(i), [] {});
    }
    s.run();
    benchmark::DoNotOptimize(s.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerEventThroughput);

void BM_SchedulerCascade(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler s;
    int depth = 0;
    std::function<void()> chain = [&] {
      if (++depth < 1000) s.after(1, chain);
    };
    s.after(1, chain);
    s.run();
    benchmark::DoNotOptimize(depth);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerCascade);

void BM_FifoServer(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler s;
    sim::FifoServer srv(s);
    for (int i = 0; i < 1000; ++i) srv.submit(10, [] {});
    s.run();
    benchmark::DoNotOptimize(srv.jobs_served());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_FifoServer);

void BM_RngNext(benchmark::State& state) {
  sim::Rng rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next());
  }
}
BENCHMARK(BM_RngNext);

void BM_ShortestRouteFigure2(benchmark::State& state) {
  auto f = net::make_figure2_fabric(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.topo.shortest_route(f.hosts[0], f.hosts[3]));
  }
}
BENCHMARK(BM_ShortestRouteFigure2);

void BM_EndToEndPacketRaw(benchmark::State& state) {
  // Full stack cost of one delivered 4 KB packet (raw firmware).
  harness::ClusterConfig cfg;
  cfg.num_hosts = 2;
  cfg.fw = harness::FirmwareKind::kRaw;
  harness::Cluster c(cfg);
  std::uint64_t delivered = 0;
  c.nic(1).set_host_rx([&](net::UserHeader, net::PayloadRef,
                           net::HostId) { ++delivered; });
  for (auto _ : state) {
    c.send(0, 1, std::vector<std::uint8_t>(4096, 1));
    c.sched.run();
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EndToEndPacketRaw);

void BM_EndToEndPacketReliable(benchmark::State& state) {
  harness::ClusterConfig cfg;
  cfg.num_hosts = 2;
  cfg.fw = harness::FirmwareKind::kReliable;
  harness::Cluster c(cfg);
  std::uint64_t delivered = 0;
  c.nic(1).set_host_rx([&](net::UserHeader, net::PayloadRef,
                           net::HostId) { ++delivered; });
  for (auto _ : state) {
    c.send(0, 1, std::vector<std::uint8_t>(4096, 1));
    // Drain the current burst (timers re-arm forever; bound the drain).
    c.sched.run_until(c.sched.now() + sim::microseconds(200));
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EndToEndPacketReliable);

}  // namespace

BENCHMARK_MAIN();
