// Per-remote-node protocol state (§4.1.1: "sequence numbers and
// retransmission information are maintained on a per-node basis").
#pragma once

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "sim/time.hpp"

namespace sanfault::firmware {

/// One entry of a per-node retransmission queue: the packet as last sent,
/// when it was last put on the wire, and whether it ever was (`sent_once`
/// is false while the packet is parked awaiting a route, e.g. while a
/// re-mapping is in flight).
struct QueuedPacket {
  net::Packet pkt;
  sim::Time last_sent = 0;
  bool sent_once = false;
};

/// A channel's retransmission queue, oldest packet first: the ends of a
/// chain of PacketSlab slots, and its length. The packets themselves live in
/// the NIC's slab; only the firmware that owns the slab reads them.
struct RetransQueue {
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  std::uint32_t head = kNil;
  std::uint32_t tail = kNil;
  std::uint32_t count = 0;
  [[nodiscard]] bool empty() const { return count == 0; }
  [[nodiscard]] std::size_t size() const { return count; }
};

/// The NIC's send buffers as the retransmission queues hold them (§4.1.1:
/// buffers move between the global free queue, the wire and the per-node
/// retransmission queue without copies). One slot per send buffer, each on
/// the free list or on exactly one channel's queue. A queued packet owns a
/// send buffer until its cumulative ACK, so `capacity` slots bound every
/// queue together (the bounded-capacity channel the scrubber checks), and a
/// slot never moves: a QueuedPacket& stays valid until its packet leaves
/// the queue. The storage is reserved when the NIC is built and a slot is
/// constructed when a push first needs it, so building a NIC writes none.
class PacketSlab {
  struct Slot {
    QueuedPacket qp;
    std::uint32_t next = RetransQueue::kNil;
  };

 public:
  explicit PacketSlab(std::size_t capacity) : capacity_(capacity) {
    slots_.reserve(capacity);
  }

  /// Append `qp` to `q`. Throws std::logic_error when every slot is queued
  /// already: more queued packets than send buffers is a firmware bug.
  QueuedPacket& push_back(RetransQueue& q, QueuedPacket qp) {
    std::uint32_t i = free_;
    if (i == RetransQueue::kNil) {
      if (slots_.size() == capacity_) {
        throw std::logic_error(
            "PacketSlab: more queued packets than send buffers");
      }
      i = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();  // within the reservation: nothing moves
    } else {
      free_ = slots_[i].next;
    }
    Slot& s = slots_[i];
    s.qp = std::move(qp);
    s.next = RetransQueue::kNil;
    if (q.tail == RetransQueue::kNil) {
      q.head = i;
    } else {
      slots_[q.tail].next = i;
    }
    q.tail = i;
    ++q.count;
    return s.qp;
  }
  /// Free `q`'s oldest packet (its payload reference is dropped now).
  void pop_front(RetransQueue& q) {
    const std::uint32_t i = q.head;
    Slot& s = slots_[i];
    q.head = s.next;
    if (q.head == RetransQueue::kNil) q.tail = RetransQueue::kNil;
    --q.count;
    s.qp.pkt.payload.clear();  // the next push overwrites the rest
    s.next = free_;
    free_ = i;
  }
  void clear(RetransQueue& q) {
    while (!q.empty()) pop_front(q);
  }
  [[nodiscard]] QueuedPacket& front(const RetransQueue& q) {
    return slots_[q.head].qp;
  }
  [[nodiscard]] QueuedPacket& back(const RetransQueue& q) {
    return slots_[q.tail].qp;
  }

  /// Walks one queue, oldest first.
  class Iterator {
   public:
    Iterator() = default;
    Iterator(Slot* slots, std::uint32_t i) : slots_(slots), i_(i) {}
    QueuedPacket& operator*() const { return slots_[i_].qp; }
    Iterator& operator++() {
      i_ = slots_[i_].next;
      return *this;
    }
    bool operator==(const Iterator& o) const { return i_ == o.i_; }

   private:
    Slot* slots_ = nullptr;
    std::uint32_t i_ = RetransQueue::kNil;
  };
  struct Range {
    Iterator first;
    [[nodiscard]] Iterator begin() const { return first; }
    [[nodiscard]] Iterator end() const { return {}; }
  };
  /// `for (QueuedPacket& qp : slab.items(q))`, oldest first.
  [[nodiscard]] Range items(const RetransQueue& q) {
    return Range{Iterator{slots_.data(), q.head}};
  }

 private:
  std::size_t capacity_;
  std::vector<Slot> slots_;  // constructed so far; capacity_ reserved
  std::uint32_t free_ = RetransQueue::kNil;  // freed slots, threaded via next
};

/// Sender side of a node pair. 48 bytes: the scrub visits every live one
/// every few milliseconds, so the fields it reads come first.
struct TxChannel {
  std::uint32_t next_seq = 1;
  std::uint16_t generation = 0;
  bool remap_in_flight = false;
  /// The in-flight remap was pre-answered by a backup-path promotion (the
  /// mapper's on_path_failure returned true); propagated into the FwEvents
  /// this remap publishes so observers can attribute recovery latency.
  bool remap_promoted = false;
  bool unreachable = false;
  /// Consecutive scrub passes that found this channel's invariants violated
  /// (self-stabilization hardening, docs/CHAOS.md). Reset on a clean pass;
  /// reaching kScrubStrikeLimit (reliability.cpp) triggers nic_reset as the
  /// last-resort repair.
  std::uint8_t scrub_strikes = 0;
  /// Pending packets, in the firmware's PacketSlab.
  RetransQueue retrans_queue;
  /// Data packets sent since the last ACK-request bit (sender feedback).
  std::uint32_t since_ack_request = 0;
  /// Consecutive retransmission rounds with no cumulative-ACK progress.
  std::uint32_t rounds_without_progress = 0;
  /// Last time this path made progress (ack advanced, or the queue went from
  /// empty to non-empty). Drives the transient/permanent failure threshold.
  sim::Time last_progress = 0;
  /// When the in-flight remap was requested (remap-latency observability).
  sim::Time remap_started = 0;
};
static_assert(sizeof(TxChannel) == 48);

/// Receiver side of a node pair.
struct RxChannel {
  std::uint32_t expected_seq = 1;  // next in-order sequence number
  std::uint16_t generation = 0;
  /// An explicit ACK was required but no route back existed; it is owed and
  /// will be sent as soon as on-demand mapping finds the way home.
  bool ack_owed = false;
  /// In-order packets accepted since the last ACK we sent (explicit or
  /// piggy-backed); bounded by the receiver coalesce safety valve.
  std::uint32_t pending_unacked = 0;
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
