// Quickstart: build a 2-node cluster with the reliable firmware, exchange a
// message through VMMC, inject some faults, and watch the protocol recover.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>
#include <numeric>
#include <string>

#include "harness/cluster.hpp"
#include "obs/metrics.hpp"
#include "sim/process.hpp"
#include "vmmc/endpoint.hpp"

using namespace sanfault;

namespace {

sim::Process run_demo(harness::Cluster& c, vmmc::Endpoint& alice,
                      vmmc::Endpoint& bob, bool& done) {
  // Bob exports 64 KB of receive space; Alice imports it.
  auto exp = bob.export_buffer(64 * 1024);
  auto imp = co_await alice.import(c.hosts[1], exp);
  std::printf("[%8.1f us] import granted: %zu bytes at host %u\n",
              sim::to_micros(c.sched.now()), imp->size, imp->remote.v);

  // Deposit a 20 KB message (segmented at 4 KB by the MCP) at offset 1024.
  std::vector<std::uint8_t> msg(20000);
  std::iota(msg.begin(), msg.end(), std::uint8_t{0});
  co_await alice.send(*imp, 1024, msg, /*tag=*/7);

  auto ev = co_await bob.notifications(exp).pop(c.sched);
  std::printf("[%8.1f us] deposit landed: %llu bytes at offset %llu, tag %llu\n",
              sim::to_micros(ev.at),
              static_cast<unsigned long long>(ev.length),
              static_cast<unsigned long long>(ev.offset),
              static_cast<unsigned long long>(ev.tag));

  const auto buf = bob.buffer(exp);
  bool intact = true;
  for (std::size_t i = 0; i < msg.size(); ++i) {
    intact = intact && buf[1024 + i] == msg[i];
  }
  std::printf("payload intact: %s\n", intact ? "yes" : "NO");
  done = true;
}

}  // namespace

int main() {
  // A cluster: topology, fabric, NICs, and the paper's retransmission
  // firmware — with an aggressive injected error rate of 1e-2 (every 100th
  // data packet is dropped before reaching the wire, §5.1.3).
  harness::ClusterConfig cfg;
  cfg.num_hosts = 2;
  cfg.fw = harness::FirmwareKind::kReliable;
  cfg.rel.retrans_interval = sim::milliseconds(1);
  cfg.rel.drop_interval = 3;  // demo-grade brutality: ~every 3rd packet
  harness::Cluster c(cfg);

  vmmc::Endpoint alice(c.sched, c.nic(0));
  vmmc::Endpoint bob(c.sched, c.nic(1));
  // The packet-lifecycle trace ring every layer emits into (obs/trace.hpp),
  // the firmware's injected drops and go-back-N retransmissions included.
  obs::TraceRing& trace = obs::Registry::of(c.sched).trace();
  trace.enable();

  bool done = false;
  run_demo(c, alice, bob, done);
  while (!done && c.sched.step()) {
  }

  const auto& s = c.rel(0).stats();
  std::printf(
      "\nsender firmware: %llu data packets, %llu injected drops, "
      "%llu retransmissions, %llu go-back-N rounds\n",
      static_cast<unsigned long long>(s.data_tx),
      static_cast<unsigned long long>(s.injected_drops),
      static_cast<unsigned long long>(s.retransmissions),
      static_cast<unsigned long long>(s.retrans_rounds));
  std::printf("transparent recovery: the application never noticed.\n");

  std::printf("\nrecovery timeline (obs::TraceRing, %llu events recorded):\n",
              static_cast<unsigned long long>(trace.recorded()));
  for (const obs::TraceEvent& e : trace.snapshot()) {
    if (e.kind != obs::TraceKind::kInjectedDrop &&
        e.kind != obs::TraceKind::kRetransmit &&
        e.kind != obs::TraceKind::kDeliver) {
      continue;
    }
    std::printf("%12.3f us  %-13s %u->%u seq=%u gen=%u\n", sim::to_micros(e.t),
                std::string(obs::trace_kind_name(e.kind)).c_str(), e.src, e.dst,
                e.seq, e.gen);
  }
  return 0;
}
