// Storage failover: the paper's motivating commercial scenario (§1, §7 cite
// VI-based database storage [33]) — a client streams blocks to a storage
// server over the Figure-2 redundant fabric; mid-stream, the trunk its route
// uses dies permanently. The reliability firmware detects the dead path, the
// on-demand mapper discovers the redundant route, a new sequence-number
// generation starts, and the stream completes without losing a block.
//
//   ./build/examples/storage_failover
#include <cstdio>
#include <vector>

#include "harness/cluster.hpp"
#include "sim/process.hpp"
#include "vmmc/endpoint.hpp"

using namespace sanfault;

namespace {

constexpr int kBlocks = 48;
constexpr std::size_t kBlockBytes = 16 * 1024;

sim::Process client(vmmc::Endpoint& ep, vmmc::Endpoint::Import imp,
                    bool& done) {
  for (int b = 0; b < kBlocks; ++b) {
    std::vector<std::uint8_t> block(kBlockBytes,
                                    static_cast<std::uint8_t>(b + 1));
    co_await ep.send(imp, 0, std::move(block), static_cast<std::uint64_t>(b));
  }
  done = true;
}

// A failover restarts the sequence space, so blocks that were delivered but
// not yet acknowledged are deposited again (VMMC deposits are idempotent:
// same offset, same bytes). Completion therefore means "every distinct block
// arrived", and duplicates are reported, not treated as errors.
sim::Process server(harness::Cluster& c, vmmc::Endpoint& ep,
                    vmmc::ExportId exp, int& distinct, int& duplicates,
                    bool& done) {
  std::vector<bool> seen(kBlocks, false);
  while (distinct < kBlocks) {
    auto ev = co_await ep.notifications(exp).pop(c.sched);
    const auto b = static_cast<std::size_t>(ev.tag);
    if (b < seen.size() && !seen[b]) {
      seen[b] = true;
      ++distinct;
    } else {
      ++duplicates;
    }
  }
  done = true;
}

}  // namespace

int main() {
  harness::ClusterConfig cfg;
  cfg.num_hosts = 36;  // fully-populated fabric (fast on-demand mapping)
  cfg.topo = harness::TopoKind::kFigure2;
  cfg.fw = harness::FirmwareKind::kReliable;
  cfg.mapper = harness::MapperKind::kOnDemand;
  cfg.rel.fail_threshold = sim::milliseconds(20);  // fast failover demo
  harness::Cluster c(cfg);

  // Client on sw8_a (host 0), storage server on sw8_b (host 3): the path
  // crosses all three trunk segments.
  vmmc::Endpoint client_ep(c.sched, c.nic(0));
  vmmc::Endpoint server_ep(c.sched, c.nic(3));
  auto exp = server_ep.export_buffer(kBlockBytes);

  bool setup = false;
  vmmc::Endpoint::Import imp;
  [](harness::Cluster& cc, vmmc::Endpoint& ep, vmmc::ExportId e,
     vmmc::Endpoint::Import& out, bool& ok) -> sim::Process {
    auto i = co_await ep.import(cc.hosts[3], e);
    out = *i;
    ok = true;
  }(c, client_ep, exp, imp, setup);
  while (!setup && c.sched.step()) {
  }

  int distinct = 0;
  int duplicates = 0;
  bool recv_done = false;
  bool send_done = false;
  server(c, server_ep, exp, distinct, duplicates, recv_done);
  client(client_ep, imp, send_done);

  // Kill the primary trunks 2 ms into the stream (the preloaded shortest
  // route uses the first trunk of each redundant pair).
  c.sched.after(sim::milliseconds(2), [&] {
    std::printf("[%8.3f ms] *** primary trunk links fail permanently ***\n",
                sim::to_millis(c.sched.now()));
    c.topo.set_link_up(net::LinkId{0}, false);
    c.topo.set_link_up(net::LinkId{2}, false);
    c.topo.set_link_up(net::LinkId{4}, false);
  });

  while ((!recv_done || !send_done) && c.sched.step()) {
  }

  std::printf(
      "[%8.3f ms] stream complete: %d/%d distinct blocks (%d idempotent "
      "re-deposits across the failover)\n",
      sim::to_millis(c.sched.now()), distinct, kBlocks, duplicates);

  const auto& fw = c.rel(0).stats();
  const auto& mp = c.mapper(0).stats();
  std::printf("\nfailover anatomy (client NIC):\n");
  std::printf("  path failures declared : %llu\n",
              static_cast<unsigned long long>(fw.path_failures));
  std::printf("  re-mapping requests    : %llu\n",
              static_cast<unsigned long long>(fw.remap_requests));
  std::printf("  mappings succeeded     : %llu (last one took %.3f ms, %llu+%llu probes)\n",
              static_cast<unsigned long long>(mp.mappings_succeeded),
              sim::to_millis(mp.last_mapping_time),
              static_cast<unsigned long long>(mp.last_host_probes),
              static_cast<unsigned long long>(mp.last_switch_probes));
  std::printf("  retransmissions        : %llu\n",
              static_cast<unsigned long long>(fw.retransmissions));
  const auto* ch = c.rel(0).tx_channel(c.hosts[3]);
  std::printf("  sequence generation    : %u (a re-map restarts the space)\n",
              ch != nullptr ? ch->generation : 0);
  return distinct == kBlocks ? 0 : 1;
}
