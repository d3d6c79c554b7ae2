// Figure 3: one-way latency breakdown for 4-byte messages, with and without
// the retransmission protocol.
//
// Paper (ICPP 2002, Fig. 3): ~8 us total without fault tolerance, ~10 us
// with; the protocol's ~2 us overhead splits about evenly between the send
// path (retransmission-queue management) and the receive path
// (acknowledgment processing).
//
// The per-stage numbers come from the calibrated cost model (they are the
// model's ground truth); the bottom rows cross-check that the measured
// end-to-end ping-pong latency equals the sum of the stages.
#include <cstdio>

#include "harness/cluster.hpp"
#include "harness/microbench.hpp"
#include "harness/table.hpp"
#include "sweep.hpp"

namespace {

using namespace sanfault;
using harness::Cluster;
using harness::ClusterConfig;
using harness::FirmwareKind;

double measure_latency(FirmwareKind kind) {
  ClusterConfig cfg;
  cfg.num_hosts = 2;
  cfg.fw = kind;
  Cluster c(cfg);
  return harness::run_latency(c, 4, 50).one_way_us();
}

}  // namespace

int main(int argc, char** argv) {
  if (!bench::parse_flags(argc, argv, {})) return 2;
  std::printf("=== Figure 3: 4-byte one-way latency breakdown (us) ===\n\n");

  const nic::NicConfig nic_cfg;
  const auto& h = nic_cfg.host;
  const auto& m = nic_cfg.costs;

  // Stage components for a 4-byte PIO message (see nic/cost_model.hpp).
  const double host_send =
      sim::to_micros(h.send_overhead + h.pio_base +
                     static_cast<sim::Duration>(h.pio_per_byte_ns * 4));
  const double nic_send_raw = sim::to_micros(m.mcp_tx);
  const double nic_send_ft = sim::to_micros(m.mcp_tx + m.mcp_tx_reliable);
  // Wire for a 1-switch path: 2 links x 250 ns + 300 ns fall-through +
  // serialization of the ~29-byte wire packet at 160 MB/s + tail propagation.
  net::Packet probe;
  probe.hdr.route.ports = {1};
  probe.payload.assign(4, 0);
  const double wire =
      sim::to_micros(250 + 300 + sim::transfer_time(probe.wire_bytes(), 160e6) + 250);
  const double nic_recv_raw = sim::to_micros(m.mcp_rx);
  const double nic_recv_ft = sim::to_micros(m.mcp_rx + m.mcp_rx_reliable);
  const double host_recv =
      sim::to_micros(300 + sim::transfer_time(4, h.pci_bandwidth_bps) +
                     h.rx_notify);

  harness::Table t({"Stage", "No Fault Tolerance", "With Fault Tolerance"});
  t.add_row({"Host Send", harness::fmt(host_send), harness::fmt(host_send)});
  t.add_row({"NIC Send", harness::fmt(nic_send_raw), harness::fmt(nic_send_ft)});
  t.add_row({"Wire", harness::fmt(wire), harness::fmt(wire)});
  t.add_row({"NIC Receive", harness::fmt(nic_recv_raw), harness::fmt(nic_recv_ft)});
  t.add_row({"Host Receive", harness::fmt(host_recv), harness::fmt(host_recv)});
  const double total_raw =
      host_send + nic_send_raw + wire + nic_recv_raw + host_recv;
  const double total_ft =
      host_send + nic_send_ft + wire + nic_recv_ft + host_recv;
  t.add_row({"Total (model)", harness::fmt(total_raw), harness::fmt(total_ft)});

  const double meas_raw = measure_latency(FirmwareKind::kRaw);
  const double meas_ft = measure_latency(FirmwareKind::kReliable);
  t.add_row({"Total (measured)", harness::fmt(meas_raw), harness::fmt(meas_ft)});
  t.print();

  std::printf(
      "\nPaper reference: ~8 us -> ~10 us; overhead split ~1 us send-side "
      "(queue management) + ~1 us receive-side (ack processing).\n");
  std::printf("Measured overhead: %.2f us (send-side %.2f, receive-side %.2f).\n",
              meas_ft - meas_raw, nic_send_ft - nic_send_raw,
              nic_recv_ft - nic_recv_raw);
  return 0;
}
