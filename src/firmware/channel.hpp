// Per-remote-node protocol state (§4.1.1: "sequence numbers and
// retransmission information are maintained on a per-node basis").
#pragma once

#include <cstdint>
#include <deque>

#include "net/packet.hpp"
#include "sim/time.hpp"

namespace sanfault::firmware {

/// One entry of a per-node retransmission queue: the packet as last sent and
/// when it was last put on the wire (kNever-0 => queued but never sent, e.g.
/// while a re-mapping is in flight).
struct QueuedPacket {
  net::Packet pkt;
  sim::Time last_sent = 0;
  bool sent_once = false;
};

/// Sender side of a node pair.
struct TxChannel {
  std::uint32_t next_seq = 1;
  std::uint16_t generation = 0;
  std::deque<QueuedPacket> retrans_queue;
  /// Data packets sent since the last ACK-request bit (sender feedback).
  std::uint32_t since_ack_request = 0;
  /// Consecutive retransmission rounds with no cumulative-ACK progress.
  std::uint32_t rounds_without_progress = 0;
  /// Last time this path made progress (ack advanced, or the queue went from
  /// empty to non-empty). Drives the transient/permanent failure threshold.
  sim::Time last_progress = 0;
  bool remap_in_flight = false;
  /// When the in-flight remap was requested (remap-latency observability).
  sim::Time remap_started = 0;
  /// The in-flight remap was pre-answered by a backup-path promotion (the
  /// mapper's on_path_failure returned true); propagated into the FwEvents
  /// this remap publishes so observers can attribute recovery latency.
  bool remap_promoted = false;
  bool unreachable = false;
  /// Consecutive scrub passes that found this channel's invariants violated
  /// (self-stabilization hardening, docs/CHAOS.md). Reset on a clean pass;
  /// reaching kScrubStrikeLimit (reliability.cpp) triggers nic_reset as the
  /// last-resort repair.
  std::uint32_t scrub_strikes = 0;
};

/// Receiver side of a node pair.
struct RxChannel {
  std::uint32_t expected_seq = 1;  // next in-order sequence number
  std::uint16_t generation = 0;
  /// In-order packets accepted since the last ACK we sent (explicit or
  /// piggy-backed); bounded by the receiver coalesce safety valve.
  std::uint32_t pending_unacked = 0;
  /// An explicit ACK was required but no route back existed; it is owed and
  /// will be sent as soon as on-demand mapping finds the way home.
  bool ack_owed = false;
  /// Consecutive stale-generation drops since the last accepted packet or
  /// generation adoption. A corrupted receiver generation that ran *ahead* of
  /// the sender would stale-drop everything for up to 2^15 sender restarts;
  /// after kScrubStaleAdoptThreshold (reliability.cpp) consecutive stale
  /// drops with zero acceptances the receiver adopts the incoming generation
  /// instead (wraparound-safe convergence, docs/CHAOS.md).
  std::uint32_t stale_run = 0;
};

/// Wrap-safe "is generation a newer than b".
[[nodiscard]] constexpr bool generation_newer(std::uint16_t a, std::uint16_t b) {
  return static_cast<std::int16_t>(static_cast<std::uint16_t>(a - b)) > 0;
}

}  // namespace sanfault::firmware
