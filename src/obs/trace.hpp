// Structured packet-lifecycle trace ring.
//
// Every protocol-relevant transition of a data packet — host enqueue, wire
// injection, per-hop fabric traversal, delivery, the various drop classes,
// retransmission, ACK motion, timer fires and remap/generation events — is
// recorded as one fixed-size TraceEvent keyed by (src, dst, seq, generation).
// Grepping one key out of a dump therefore reconstructs the complete life of
// one packet across every layer, which is how retransmission episodes are
// debugged (see docs/OBSERVABILITY.md for a worked example).
//
// The ring is bounded and overwrites oldest-first, so tracing is safe to
// leave enabled on long runs; `dropped()` reports how many events were
// overwritten. Disabled (the default) the cost of an emit is one branch.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

namespace sanfault::obs {

class JsonWriter;

/// What happened to the packet. Values are stable — they appear in trace
/// dumps and are documented in docs/OBSERVABILITY.md; append only.
enum class TraceKind : std::uint8_t {
  kHostEnqueue = 0,   // firmware accepted a host send; seq/gen assigned
  kWireInject = 1,    // packet handed to the fabric (first tx or retx)
  kInjectedDrop = 2,  // §5.1.3 error injection ate the injection
  kHopTraverse = 3,   // head crossed a crossbar (node = switch id)
  kDeliver = 4,       // received in order, handed to the host
  kDupDrop = 5,       // receiver: seq below expected (duplicate)
  kOooDrop = 6,       // receiver: gap — go-back-N drops it
  kStaleGenDrop = 7,  // receiver: packet from a superseded generation
  kCorruptDrop = 8,   // receiver: CRC failure
  kFabricDrop = 9,    // the fabric lost it (arg = net::DropReason)
  kRetransmit = 10,   // go-back-N re-injection
  kAckTx = 11,        // explicit ACK sent (seq = cumulative ack)
  kAckRx = 12,        // ACK processed (seq = cumulative ack, arg = freed)
  kTimerFire = 13,    // retransmission timer scan ran (per NIC)
  kPathFail = 14,     // path declared permanently failed
  kRemapStart = 15,   // on-demand mapping requested
  kRemapDone = 16,    // mapping finished (arg: 1 = route found, 0 = failed)
  kGenRestart = 17,   // sequence space restarted (gen = new generation)
};

[[nodiscard]] std::string_view trace_kind_name(TraceKind k);

/// One fixed-size lifecycle record. `node` is the observing device: the NIC's
/// host id for firmware events, the switch id for hop traversals.
struct TraceEvent {
  sim::Time t = 0;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint32_t seq = 0;
  std::uint32_t arg = 0;
  std::uint16_t gen = 0;
  std::uint16_t node = 0;
  TraceKind kind = TraceKind::kHostEnqueue;
};

class TraceRing {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 14;

  /// Start recording. Re-enabling resizes and clears the ring.
  void enable(std::size_t capacity = kDefaultCapacity);
  [[nodiscard]] bool enabled() const { return enabled_; }

  void emit(TraceEvent ev) {
    if (!enabled_) return;
    ring_[head_] = ev;
    head_ = (head_ + 1) % ring_.size();
    if (head_ == 0) wrapped_ = true;
    ++recorded_;
  }

  /// Events in emission order (oldest surviving first).
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }
  /// Events overwritten by ring wraparound.
  [[nodiscard]] std::uint64_t dropped() const {
    return recorded_ > ring_.size() ? recorded_ - ring_.size() : 0;
  }
  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }

  /// Append the trace section (object) to `w`: config, counts, and the
  /// surviving events as an array of objects.
  void to_json(JsonWriter& w) const;

 private:
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;
  bool wrapped_ = false;
  bool enabled_ = false;
  std::uint64_t recorded_ = 0;
};

}  // namespace sanfault::obs
