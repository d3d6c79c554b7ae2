#include "nic/nic.hpp"

#include <stdexcept>
#include <string>

namespace sanfault::nic {

namespace {
/// Fixed cost to start the host DMA engine for one transfer.
constexpr sim::Duration kDmaEngineStart = 300;
}  // namespace

Nic::Nic(sim::Scheduler& sched, net::Fabric& fabric, net::HostId self,
         NicConfig cfg)
    : sched_(sched),
      fabric_(fabric),
      self_(self),
      cfg_(cfg),
      cpu_(sched),
      host_dma_(sched),
      pool_(cfg.send_buffers, cfg.costs.buffer_bytes) {
  fabric_.attach(self_, [this](net::Packet&& pkt) { on_fabric_rx(std::move(pkt)); });

  obs::Registry& reg = obs::Registry::of(sched_);
  const std::string node = "{node=" + std::to_string(self_.v) + "}";
  buf_in_use_ = &reg.histogram("nic.send_buffers_in_use" + node, "buffers");
  reg.add_collector(this, [this, &reg, node] {
    const NicStats& s = stats_;
    reg.counter("nic.host_submits" + node, "packets").set(s.host_submits);
    reg.counter("nic.pio_sends" + node, "packets").set(s.pio_sends);
    reg.counter("nic.dma_sends" + node, "packets").set(s.dma_sends);
    reg.counter("nic.wire_tx" + node, "packets").set(s.wire_tx);
    reg.counter("nic.wire_rx" + node, "packets").set(s.wire_rx);
    reg.counter("nic.bytes_tx" + node, "bytes").set(s.bytes_tx);
    reg.counter("nic.bytes_rx" + node, "bytes").set(s.bytes_rx);
    reg.counter("nic.crc_failures" + node, "packets").set(s.crc_failures);
    reg.counter("nic.host_deliveries" + node, "packets")
        .set(s.host_deliveries);
    reg.counter("nic.injection_stalls" + node, "stalls")
        .set(s.injection_stalls);
    reg.counter("nic.cpu_busy_ns" + node, "ns")
        .set(static_cast<std::uint64_t>(cpu_.busy_time()));
    reg.counter("nic.host_dma_busy_ns" + node, "ns")
        .set(static_cast<std::uint64_t>(host_dma_.busy_time()));
    reg.gauge("nic.send_buffers_free" + node, "buffers")
        .set(static_cast<std::int64_t>(pool_.free_count()));
    reg.gauge("nic.send_waiters" + node, "requests")
        .set(static_cast<std::int64_t>(pool_.waiting()));
  });
}

Nic::~Nic() {
  if (auto* r = obs::Registry::find(sched_)) r->remove_collectors(this);
}

void Nic::host_submit(SendRequest req, sim::InlineFn<void()> on_accepted) {
  if (fw_ == nullptr) {
    throw std::logic_error("Nic::host_submit: no firmware loaded on node " +
                           std::to_string(self_.v));
  }
  if (req.payload.size() > cfg_.costs.buffer_bytes) {
    throw std::logic_error(
        "Nic::host_submit: " + std::to_string(req.payload.size()) +
        "-byte payload exceeds one " + std::to_string(cfg_.costs.buffer_bytes) +
        "-byte send buffer (segmentation is the caller's job)");
  }
  ++stats_.host_submits;

  // Host library overhead, then block until a send buffer is free.
  const SubmitHandle h =
      submits_.put(Submission{std::move(req), std::move(on_accepted)});
  sched_.after(cfg_.host.send_overhead, [this, h] {
    buf_in_use_->record(pool_.in_use());
    if (pool_.free_count() == 0) ++stats_.injection_stalls;
    pool_.acquire([this, h] { copy_to_sram(h); });
  });
}

void Nic::copy_to_sram(SubmitHandle h) {
  const std::size_t bytes = submits_[h].req.payload.size();
  if (bytes <= cfg_.host.pio_threshold) {
    // Programmed I/O: the host CPU stores the message into NIC SRAM.
    ++stats_.pio_sends;
    const auto pio = cfg_.host.pio_base +
                     static_cast<sim::Duration>(
                         cfg_.host.pio_per_byte_ns * static_cast<double>(bytes));
    sched_.after(pio, [this, h] { dispatch_to_firmware(h); });
  } else {
    // DMA: host posts a descriptor; the PCI engine moves the data.
    ++stats_.dma_sends;
    sched_.after(cfg_.host.dma_setup, [this, h, bytes] {
      host_dma_.submit(
          kDmaEngineStart +
              sim::transfer_time(bytes, cfg_.host.pci_bandwidth_bps),
          [this, h] { dispatch_to_firmware(h); });
    });
  }
}

void Nic::dispatch_to_firmware(SubmitHandle h) {
  // The completion may submit again (growing submits_), so it runs from a
  // local and the request is looked up afresh afterwards.
  sim::InlineFn<void()> accepted = std::move(submits_[h].on_accepted);
  if (accepted) accepted();
  const sim::Duration cost = fw_->tx_cpu_cost(submits_[h].req);
  cpu_.submit(cost, [this, h] {
    fw_->on_host_packet(submits_.take(h).req);
  });
}

sim::Time Nic::inject(net::Packet pkt) {
  ++stats_.wire_tx;
  stats_.bytes_tx += pkt.payload.size();
  return fabric_.inject(self_, std::move(pkt));
}

void Nic::inject_after_cpu(sim::Duration cpu_cost, net::Packet pkt) {
  cpu_.submit(cpu_cost, [this, h = packets_.put(std::move(pkt))] {
    inject(packets_.take(h));
  });
}

void Nic::on_fabric_rx(net::Packet&& pkt) {
  ++stats_.wire_rx;
  stats_.bytes_rx += pkt.payload.size();
  // Hardware CRC check: the receive DMA checks the arrived bytes on the fly,
  // so this costs no control-processor time. Its verdict is the fabric's
  // corrupt_marker, set by the fault that changed the packet on the wire.
  const bool crc_ok = !pkt.corrupt_marker;
  if (!crc_ok) ++stats_.crc_failures;
  const sim::Duration cost = fw_->rx_cpu_cost(pkt);
  cpu_.submit(cost, [this, h = packets_.put(std::move(pkt)), crc_ok] {
    fw_->on_wire_packet(packets_.take(h), crc_ok);
  });
}

void Nic::deliver_to_host(net::Packet pkt) {
  ++stats_.host_deliveries;
  const std::size_t bytes = pkt.payload.size();
  host_dma_.submit(
      kDmaEngineStart + sim::transfer_time(bytes, cfg_.host.pci_bandwidth_bps),
      [this, h = packets_.put(std::move(pkt))] {
        sched_.after(cfg_.host.rx_notify, [this, h] {
          net::Packet pkt = packets_.take(h);
          if (host_rx_) {
            host_rx_(pkt.hdr.user, std::move(pkt.payload), pkt.hdr.src);
          }
        });
      });
}

}  // namespace sanfault::nic
