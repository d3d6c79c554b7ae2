// The NIC model: SRAM buffer pool, host DMA over PCI, the slow control
// processor, and the attachment point for loadable firmware.
//
// The Nic owns *resources and timing*; all protocol intelligence (sequence
// numbers, retransmission, mapping) lives in a FirmwareIface implementation
// (src/firmware). This split mirrors the real platform, where the LANai runs
// a loadable Myrinet control program.
//
// Send path:   host_submit -> [host overhead] -> acquire send buffer ->
//              [PIO or host-DMA] -> [NIC cpu: tx cost] -> fw->on_host_packet
// Receive path: fabric rx -> [NIC cpu: rx cost] -> fw->on_wire_packet
// Delivery:    fw calls deliver_to_host -> [host-DMA] -> host rx callback
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "net/fabric.hpp"
#include "net/packet.hpp"
#include "nic/buffers.hpp"
#include "nic/cost_model.hpp"
#include "obs/metrics.hpp"
#include "sim/inline_fn.hpp"
#include "sim/scheduler.hpp"
#include "sim/server.hpp"
#include "sim/slot_pool.hpp"
#include "sim/time.hpp"

namespace sanfault::nic {

/// A message (<= one segment) the host asks the NIC to transmit.
struct SendRequest {
  net::HostId dst;
  net::PacketType type = net::PacketType::kData;
  net::UserHeader user;
  net::PayloadRef payload;
};

class Nic;

/// Loadable firmware contract. The Nic charges tx_cpu_cost / rx_cpu_cost on
/// its control processor before invoking the corresponding handler, so each
/// firmware declares the cost of its own fast path.
class FirmwareIface {
 public:
  virtual ~FirmwareIface() = default;

  /// Packet data has reached NIC SRAM and holds one send buffer. The
  /// firmware must eventually release that buffer via Nic::release_send_buffers.
  virtual void on_host_packet(SendRequest req) = 0;

  /// A packet fully arrived from the wire. `crc_ok` is the hardware CRC
  /// verdict of the receive DMA (modelled by Packet::corrupt_marker).
  virtual void on_wire_packet(net::Packet pkt, bool crc_ok) = 0;

  [[nodiscard]] virtual sim::Duration tx_cpu_cost(const SendRequest& req) const = 0;
  [[nodiscard]] virtual sim::Duration rx_cpu_cost(const net::Packet& pkt) const = 0;
};

struct NicConfig {
  std::size_t send_buffers = 32;
  HostCostModel host;
  NicCostModel costs;
};

struct NicStats {
  std::uint64_t host_submits = 0;
  std::uint64_t pio_sends = 0;
  std::uint64_t dma_sends = 0;
  std::uint64_t wire_tx = 0;
  std::uint64_t wire_rx = 0;
  std::uint64_t crc_failures = 0;
  std::uint64_t host_deliveries = 0;
  std::uint64_t bytes_tx = 0;
  std::uint64_t bytes_rx = 0;
  /// Submissions that found the send-buffer pool empty and had to block
  /// (the paper's "lack of send buffers" stall).
  std::uint64_t injection_stalls = 0;
};

class Nic {
 public:
  /// Delivered-message callback into the host library (VMMC): user header,
  /// payload, and source node.
  using HostRx =
      std::function<void(net::UserHeader, net::PayloadRef, net::HostId)>;

  Nic(sim::Scheduler& sched, net::Fabric& fabric, net::HostId self,
      NicConfig cfg);
  ~Nic();

  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  /// Install the firmware. Must be called before any traffic.
  void load_firmware(FirmwareIface* fw) { fw_ = fw; }

  void set_host_rx(HostRx rx) { host_rx_ = std::move(rx); }

  // --- host-facing API (the VMMC library calls this) ----------------------
  /// Submit one segment for transmission. Applies host-side costs, acquires
  /// a send buffer (blocking FIFO if none free), moves the data into SRAM by
  /// PIO or DMA, charges the firmware's tx cost, then hands to firmware.
  /// `on_accepted` (optional) fires when the data has fully reached NIC SRAM —
  /// the moment the blocking library send call returns and the user buffer is
  /// reusable. Throws std::logic_error if no firmware is loaded or the
  /// payload exceeds one send buffer (segmentation is the caller's job).
  void host_submit(SendRequest req, sim::InlineFn<void()> on_accepted = {});

  // --- firmware-facing services -------------------------------------------
  [[nodiscard]] sim::Scheduler& sched() { return sched_; }
  [[nodiscard]] net::HostId self() const { return self_; }
  [[nodiscard]] const NicCostModel& costs() const { return cfg_.costs; }
  [[nodiscard]] const HostCostModel& host_costs() const { return cfg_.host; }
  [[nodiscard]] sim::FifoServer& cpu() { return cpu_; }

  /// Put a packet on the wire (the fabric models the network send DMA).
  /// Returns the send-DMA completion time (see net::Fabric::inject).
  sim::Time inject(net::Packet pkt);

  /// Charge `cpu_cost` on the control processor, then inject `pkt` — a
  /// firmware dispatch that ends in a send (mapper probes and replies).
  void inject_after_cpu(sim::Duration cpu_cost, net::Packet pkt);

  /// DMA a received packet's payload into host memory and notify the host.
  void deliver_to_host(net::Packet pkt);

  /// Return send buffers to the global free queue.
  void release_send_buffers(std::size_t n = 1) { pool_.release(n); }

  [[nodiscard]] BufferPool& send_pool() { return pool_; }
  [[nodiscard]] const NicStats& stats() const { return stats_; }

 private:
  /// A host submission between its stages (host overhead, buffer wait,
  /// PIO/DMA into SRAM, control-processor dispatch).
  struct Submission {
    SendRequest req;
    sim::InlineFn<void()> on_accepted;
  };
  using SubmitHandle = sim::SlotPool<Submission>::Handle;

  void on_fabric_rx(net::Packet&& pkt);
  void copy_to_sram(SubmitHandle h);
  void dispatch_to_firmware(SubmitHandle h);

  sim::Scheduler& sched_;
  net::Fabric& fabric_;
  net::HostId self_;
  NicConfig cfg_;
  FirmwareIface* fw_ = nullptr;
  HostRx host_rx_;

  sim::FifoServer cpu_;       // LANai control processor
  sim::FifoServer host_dma_;  // SRAM <-> host memory over PCI (one engine)
  BufferPool pool_;
  NicStats stats_;

  // Values parked across events, so every closure on the send, receive and
  // delivery paths captures a handle and fits the scheduler's inline buffer.
  sim::SlotPool<Submission> submits_;
  sim::SlotPool<net::Packet> packets_;

  // Observability (src/obs): queue-depth distribution sampled per submit.
  obs::Histogram* buf_in_use_ = nullptr;
};

}  // namespace sanfault::nic
