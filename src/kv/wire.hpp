// Wire format for the replicated key-value service.
//
// Each message kind rides one vmmc::MsgEndpoint message, first byte = type:
//   kRequest   client -> server        GET/PUT/DEL
//   kReply     server -> client        status + value
//   kReplicate primary -> backup       synchronous replication of a write
//   kReplAck   backup -> primary       replication acknowledged
//   kUnitPut .. kUnitReply             striped object class (src/ec), below
//
// Each struct's fields() list is the layout reference: the type byte, then
// its fields in list order, little-endian, byte strings length-prefixed
// (vmmc/codec.hpp). encode(m) and decode<M>(bytes) are driven by that list
// alone, and tests/kv_test.cpp pins every layout to golden bytes.
//
// Type-byte families sharing one MsgEndpoint ring (its pre-inbox taps claim
// messages by this byte): KV uses 1-8, SWIM gossip 0x21-0x23
// (membership/swim.cpp).
//
// Every request carries an idempotency id (client id, per-client sequence).
// The transport is at-least-once across path-failure generation restarts, so
// servers dedup on that id and replies/replicates may arrive duplicated;
// receivers match on the id, never on arrival count.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "vmmc/codec.hpp"

namespace sanfault::kv {

enum class MsgType : std::uint8_t {
  kRequest = 1,
  kReply = 2,
  kReplicate = 3,
  kReplAck = 4,
  // Erasure-coded striped object class (src/ec): one message pair per stripe
  // unit. Carried on the same rings, intercepted by StripedStore/StripedClient
  // taps before the primary-backup dispatch loop ever sees them.
  kUnitPut = 5,
  kUnitAck = 6,
  kUnitGet = 7,
  kUnitReply = 8,
};

enum class Op : std::uint8_t { kGet = 1, kPut = 2, kDel = 3 };

enum class Status : std::uint8_t {
  kOk = 1,
  kNotFound = 2,   // GET/DEL of an absent key (still a committed outcome)
  kNotOwner = 3,   // receiver is neither primary nor backup of the shard
  kTimeout = 4,    // client-side: all retries exhausted (never on the wire)
};

/// Idempotency key: globally-unique client id + per-client sequence number.
struct RequestId {
  std::uint64_t client = 0;
  std::uint64_t seq = 0;
  auto operator<=>(const RequestId&) const = default;
  /// Packed form used as a hash-map key (client ids stay well under 2^32).
  [[nodiscard]] std::uint64_t packed() const { return (client << 32) | seq; }
  template <class Ar> void fields(Ar& ar) { ar(client, seq); }
};

struct Request {
  static constexpr MsgType kType = MsgType::kRequest;
  Op op = Op::kGet;
  RequestId id;
  std::uint64_t key = 0;
  std::uint32_t reply_to = 0;  // HostId of the client host to answer
  std::vector<std::uint8_t> value;  // PUT payload
  template <class Ar> void fields(Ar& ar) { ar(op, id, key, reply_to, value); }
};

struct Reply {
  static constexpr MsgType kType = MsgType::kReply;
  RequestId id;
  Status status = Status::kOk;
  std::vector<std::uint8_t> value;  // GET result
  template <class Ar> void fields(Ar& ar) { ar(status, id, value); }
};

struct Replicate {
  static constexpr MsgType kType = MsgType::kReplicate;
  RequestId id;      // of the client write being replicated (dedup key)
  std::uint64_t repl_seq = 0;  // primary-chosen, echoed in the ack
  Op op = Op::kPut;
  std::uint64_t key = 0;
  std::vector<std::uint8_t> value;
  template <class Ar> void fields(Ar& ar) { ar(op, id, repl_seq, key, value); }
};

struct ReplAck {
  static constexpr MsgType kType = MsgType::kReplAck;
  std::uint64_t repl_seq = 0;
  template <class Ar> void fields(Ar& ar) { ar(repl_seq); }
};

/// One stripe unit of a striped PUT (client -> holder, or repair -> spare).
/// `id` is the ORIGINAL writer's request id even when the repair machine
/// re-materialises the unit — the exactly-once audit keys on it.
struct UnitPut {
  static constexpr MsgType kType = MsgType::kUnitPut;
  RequestId id;
  std::uint64_t key = 0;
  std::uint8_t unit = 0;
  std::uint32_t object_len = 0;  // pre-encode length; join() needs it
  std::uint32_t reply_to = 0;    // HostId to ack
  std::vector<std::uint8_t> value;
  template <class Ar> void fields(Ar& ar) {
    ar(id, key, unit, object_len, reply_to, value);
  }
};

struct UnitAck {
  static constexpr MsgType kType = MsgType::kUnitAck;
  RequestId id;
  std::uint64_t key = 0;
  std::uint8_t unit = 0;
  Status status = Status::kOk;
  template <class Ar> void fields(Ar& ar) { ar(id, key, unit, status); }
};

/// Fetch one stripe unit (degraded read or repair source read).
struct UnitGet {
  static constexpr MsgType kType = MsgType::kUnitGet;
  RequestId id;  // of the FETCH (reader's id space), not the writer's
  std::uint64_t key = 0;
  std::uint8_t unit = 0;
  std::uint32_t reply_to = 0;
  template <class Ar> void fields(Ar& ar) { ar(id, key, unit, reply_to); }
};

struct UnitReply {
  static constexpr MsgType kType = MsgType::kUnitReply;
  RequestId id;
  std::uint64_t key = 0;
  std::uint8_t unit = 0;
  Status status = Status::kOk;
  RequestId writer;              // original writer id (audit provenance)
  std::uint32_t object_len = 0;
  std::vector<std::uint8_t> value;
  template <class Ar> void fields(Ar& ar) {
    ar(id, key, unit, status, writer, object_len, value);
  }
};

inline MsgType peek_type(std::span<const std::uint8_t> b) {
  return b.empty() ? static_cast<MsgType>(0) : static_cast<MsgType>(b[0]);
}

using vmmc::decode;
using vmmc::encode;

/// A unit reply, or a unit ack read as the UnitReply carrying its id, key,
/// unit and status: the one answer type unit waiters match. nullopt when
/// `b` is malformed or neither message.
inline std::optional<UnitReply> decode_unit_reply(
    std::span<const std::uint8_t> b) {
  if (peek_type(b) == MsgType::kUnitReply) return decode<UnitReply>(b);
  const auto a = decode<UnitAck>(b);
  if (!a) return std::nullopt;
  return UnitReply{a->id, a->key, a->unit, a->status, {}, 0, {}};
}

}  // namespace sanfault::kv
