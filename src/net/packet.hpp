// Wire packet representation.
//
// One struct serves every layer: the fabric reads the route, the reliability
// firmware reads type/seq/ack/generation/flags, and VMMC reads the UserHeader
// words. Payload bytes are carried for real (applications move actual data
// through the simulated network). The CRC the Myrinet network DMA appends is
// modelled by its wire bytes and its verdict, corrupt_marker, not computed.
// A Packet is a flat value: its route and entry-port record are inline
// PortLists and its payload is a refcounted buffer, so copying one never
// allocates.
#pragma once

#include <cstdint>

#include "net/ids.hpp"
#include "net/payload.hpp"
#include "net/route.hpp"

namespace sanfault::net {

enum class PacketType : std::uint8_t {
  kData = 0,       // VMMC data segment
  kAck,            // explicit cumulative acknowledgment
  kProbeHost,      // mapper: "is there a host at the end of this route?"
  kProbeSwitch,    // mapper: loopback probe detecting a switch
  kProbeReply,     // reply to either probe
  kControl,        // SVM/app-level control message (lock, barrier, ...)
};

/// Flag bits in PacketHeader::flags.
enum PacketFlags : std::uint8_t {
  kFlagAckRequest = 1u << 0,  // sender-based feedback: receiver must ACK now
  kFlagPiggyAck = 1u << 1,    // header's ack field is meaningful
  kFlagRetransmit = 1u << 2,  // this is a retransmission (for tracing)
};

/// Four opaque 64-bit words for the layer above the firmware (VMMC puts
/// import id / offset / message id / total length here). The firmware and
/// fabric never interpret them.
struct UserHeader {
  std::uint64_t w0 = 0, w1 = 0, w2 = 0, w3 = 0;
  bool operator==(const UserHeader&) const = default;
};

struct PacketHeader {
  HostId src;
  HostId dst;
  PacketType type = PacketType::kData;
  std::uint8_t flags = 0;
  std::uint32_t seq = 0;        // sender sequence number (per src->dst pair)
  std::uint32_t ack = 0;        // cumulative ack (all seq <= ack received)
  std::uint16_t generation = 0; // route generation of the src->dst direction
  std::uint16_t ack_gen = 0;    // generation the ack field refers to
                                // (the dst->src... i.e. acked direction)
  Route route;
  UserHeader user;
};

/// Fixed wire overhead besides route bytes and payload: type/flags/seq/ack/
/// generation/src (as in the VMMC packet format) plus the 32-bit CRC the
/// network DMA appends.
inline constexpr std::size_t kHeaderWireBytes = 20;
inline constexpr std::size_t kCrcWireBytes = 4;

struct Packet {
  PacketHeader hdr;
  /// Refcounted immutable bytes: copying a Packet (the retransmission
  /// queue, the wire copy) shares the buffer instead of duplicating it.
  PayloadRef payload;

  // --- set by the fabric / injection path ---
  /// The receiving NIC's CRC verdict: set by the fault that changes a packet
  /// on the wire (Fabric::step), cleared at injection. That fault flips one
  /// payload byte — an 8-bit burst, which CRC-32 always detects — or, with
  /// no payload, stands for a garbled header. Either way the hardware check
  /// fails, so the marker is the verdict and no CRC is computed.
  bool corrupt_marker = false;
  /// Ports through which the packet *entered* each switch, appended hop by
  /// hop. Reversing this gives the exact return route — the information the
  /// real Myrinet mapper reconstructs with loop-back probes; recording it on
  /// the packet is a modeling simplification that preserves probe counts and
  /// timing for host probes (switch detection still pays for its guesses).
  PortList in_ports;

  [[nodiscard]] std::size_t payload_bytes() const { return payload.size(); }
  [[nodiscard]] std::size_t wire_bytes() const {
    return kHeaderWireBytes + hdr.route.wire_bytes() + payload.size() +
           kCrcWireBytes;
  }
};

}  // namespace sanfault::net
