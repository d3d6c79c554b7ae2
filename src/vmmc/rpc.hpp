// Message-oriented request/reply convenience layer over VMMC deposits.
//
// Raw VMMC is a remote-write primitive: the sender picks the offset, the
// receiver sees a deposit notification. Services want discrete messages with
// an inbox. MsgEndpoint provides that while staying honest to VMMC
// semantics:
//
//  * each MsgEndpoint exports ONE well-known ring (export id 1 — it must be
//    the first export created on its Endpoint), an inbox export statically
//    partitioned per sender host. Senders own their partition, so concurrent
//    peers never collide and no receiver-side allocation protocol is needed;
//    connect() refuses a ring too small to hold this host's partition;
//  * post() writes the message sequentially into the sender's partition
//    (wrapping at the end) and rides the user tag through unchanged;
//  * a pump coroutine takes each complete message from the ring's inbox and
//    offers it to the taps, then to the inbox. A message's bytes are the
//    immutable buffer the inbox export delivered (the payload itself, for a
//    message that fits one NIC buffer), so later traffic reusing ring space
//    cannot alienate a message already delivered, and consumers decode it
//    in place.
//
// Delivery contract: messages from one peer arrive in order (VMMC
// point-to-point ordering over the reliable firmware). Across a
// permanent-path failover the firmware re-sends delivered-but-unacked
// packets under a new generation, so a message can be delivered MORE THAN
// ONCE — receivers needing exactly-once must dedup by tag/request id
// (src/kv does). This is the paper's at-least-once contract surfaced one
// layer up.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "sim/awaitables.hpp"
#include "sim/process.hpp"
#include "vmmc/endpoint.hpp"

namespace sanfault::vmmc {

struct MsgEndpointStats {
  std::uint64_t msgs_tx = 0;
  std::uint64_t msgs_rx = 0;
  std::uint64_t bytes_tx = 0;
  std::uint64_t bytes_rx = 0;
  std::uint64_t connects = 0;
};

class MsgEndpoint {
 public:
  /// The ring is always the first export of the endpoint, so peers can
  /// import it without an out-of-band id exchange.
  static constexpr ExportId kRingExport = 1;

  /// `per_peer_bytes` is one sender's ring partition; a message must fit in
  /// it. `max_peers` bounds the partition count (indexed by sender HostId).
  /// Throws std::logic_error if `ep` already has an export.
  MsgEndpoint(sim::Scheduler& sched, Endpoint& ep,
              std::size_t per_peer_bytes = 64 * 1024,
              std::size_t max_peers = 16);
  ~MsgEndpoint();

  /// Import `remote`'s ring (one control round trip). Must complete before
  /// the first post() to that host. Returns false if the remote has no
  /// MsgEndpoint ring, or one without room for this host's partition
  /// ((self + 1) x per-peer bytes).
  sim::Task<bool> connect(net::HostId remote);
  [[nodiscard]] bool connected(net::HostId remote) const {
    return remote.v < peers_.size() && peers_[remote.v].has_value();
  }

  /// Post one message to a connected remote; resumes when the local NIC has
  /// accepted every segment (source buffer reusable), not when delivered.
  /// Throws, before any simulated work, std::logic_error if `remote` is not
  /// connected and std::length_error if the message exceeds the partition.
  sim::Task<void> post(net::HostId remote, std::vector<std::uint8_t> bytes,
                       std::uint64_t tag = 0);

  /// Inbound messages from all peers, in per-peer order.
  [[nodiscard]] sim::Channel<Msg>& inbox() { return inbox_; }

  /// Pre-inbox intercepts. The pump offers every complete message to the
  /// taps in the order they were added; the first to return true consumes
  /// it, and a message no tap claims goes to the inbox. Lets sideband
  /// protocols (membership gossip, striped units) share a service's ring
  /// without the service's dispatch loop knowing their message types. Taps
  /// are never removed, so what a tap captures must outlive the run.
  using Tap = std::function<bool(const Msg&)>;
  void add_tap(Tap tap) { taps_.push_back(std::move(tap)); }

  [[nodiscard]] net::HostId host() const { return ep_.host(); }
  [[nodiscard]] const MsgEndpointStats& stats() const { return stats_; }

 private:
  struct Peer {
    Endpoint::Import imp;
    std::size_t next_off = 0;  // within this sender's partition
  };

  sim::Task<void> write(Peer& p, std::vector<std::uint8_t> bytes,
                        std::uint64_t tag);
  sim::Process pump();

  sim::Scheduler& sched_;
  Endpoint& ep_;
  std::size_t per_peer_;
  /// By remote HostId::v. A deque, because growing it at the end keeps
  /// every Peer& valid: a write task holds one, and a connect() to a higher
  /// id can grow the table before the task starts.
  std::deque<std::optional<Peer>> peers_;
  sim::Channel<Msg> inbox_;
  std::vector<Tap> taps_;
  MsgEndpointStats stats_;
};

}  // namespace sanfault::vmmc
