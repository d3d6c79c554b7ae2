// Erasure-coded striped object class for the KV service.
//
// A striped PUT encodes the object with the shared ec::RsCodec into k data +
// m parity units and writes each unit to the holder the ec::StripeMap names
// for its parity group — k+m distinct servers in distinct fault domains. A
// striped GET fetches the k data units in parallel; when a holder is
// confirmed dead (SWIM oracle) or simply slow, it falls back to a DEGRADED
// read: fetch parity too, reconstruct from any k survivors, and return the
// exact original bytes without waiting for repair.
//
// Two components, both riding the existing vmmc::MsgEndpoint as pre-inbox
// taps (the primary-backup KvServer never sees unit traffic; membership
// gossip is a disjoint message family on its own tap of the same list):
//
//  * StripedStore  — server side. Owns this node's unit store, dedups unit
//    writes per (writer id, unit) so transport retries and repair re-writes
//    stay exactly-once, and answers unit fetches. apply_local() is the
//    repair machine's loopback for units it re-homes onto its own node.
//  * StripedClient — client-host side. put()/get() with per-unit retry
//    workers on the KV backoff (kv/backoff.hpp), plus the degraded-read
//    state machine.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ec/placement.hpp"
#include "ec/rs.hpp"
#include "kv/wire.hpp"
#include "obs/metrics.hpp"
#include "sim/awaitables.hpp"
#include "sim/process.hpp"
#include "sim/task.hpp"
#include "vmmc/rpc.hpp"

namespace sanfault::kv {

/// One stored stripe unit. `writer` is the original client write's id even
/// after repair re-materialises the unit on a spare — the extended
/// exactly-once audit keys provenance on it.
struct UnitRecord {
  RequestId writer;
  std::uint32_t object_len = 0;
  std::vector<std::uint8_t> bytes;
};

struct StripedStoreStats {
  std::uint64_t unit_puts = 0;       // first-time applies
  std::uint64_t dup_unit_puts = 0;   // retries / repair re-writes, re-acked
  std::uint64_t unit_gets = 0;
  std::uint64_t unit_not_found = 0;
  std::uint64_t bad_msgs = 0;
};

class StripedStore {
 public:
  StripedStore(sim::Scheduler& sched, vmmc::MsgEndpoint& msgs);
  ~StripedStore();

  /// Add this store's tap (unit puts and gets) to the endpoint.
  void start();

  /// Apply a unit write originating on this very node (repair loopback) —
  /// same dedup discipline as the wire path, no ack.
  void apply_local(const UnitPut& p);

  [[nodiscard]] net::HostId host() const { return msgs_.host(); }
  [[nodiscard]] const StripedStoreStats& stats() const { return stats_; }

  // --- audit / repair hooks -------------------------------------------------
  /// key -> unit index -> record, every unit this node currently holds.
  using Store = std::unordered_map<std::uint64_t, std::map<std::uint8_t, UnitRecord>>;
  [[nodiscard]] const Store& store() const { return store_; }
  /// Times each (writer id, unit) pair was applied here (dedup makes >1
  /// impossible unless the store itself is buggy — the audit checks).
  [[nodiscard]] const std::unordered_map<std::uint64_t,
                                         std::map<std::uint8_t, std::uint32_t>>&
  apply_counts() const {
    return apply_counts_;
  }

 private:
  bool handle(const vmmc::Msg& m);
  void on_unit_put(UnitPut p);
  sim::Process answer_get(UnitGet g);
  sim::Process post_to(std::uint32_t to, std::vector<std::uint8_t> bytes);

  sim::Scheduler& sched_;
  vmmc::MsgEndpoint& msgs_;
  Store store_;
  std::unordered_map<std::uint64_t, std::map<std::uint8_t, std::uint32_t>>
      apply_counts_;
  StripedStoreStats stats_;
};

/// Waiters for unit acks and unit replies, keyed by (packed request id,
/// unit). An ack is delivered as the UnitReply decode_unit_reply() makes
/// of it.
using UnitReplies =
    sim::Replies<std::pair<std::uint64_t, std::uint8_t>, UnitReply>;

/// Result of one striped call, after all retries.
struct StripedOutcome {
  Status status = Status::kTimeout;
  RequestId id;
  std::vector<std::uint8_t> value;
  bool degraded = false;  // reconstructed from parity
  sim::Time issued_at = 0;
  sim::Time completed_at = 0;
  [[nodiscard]] bool ok() const {
    return status == Status::kOk || status == Status::kNotFound;
  }
  [[nodiscard]] sim::Duration latency() const {
    return completed_at - issued_at;
  }
};

struct StripedClientStats {
  std::uint64_t puts = 0;
  std::uint64_t puts_ok = 0;
  std::uint64_t gets = 0;
  std::uint64_t gets_ok = 0;
  std::uint64_t degraded_reads = 0;  // served via reconstruction
  std::uint64_t failed = 0;          // calls that exhausted all retries
  std::uint64_t unit_posts = 0;
  std::uint64_t unit_timeouts = 0;
  std::uint64_t dead_skips = 0;      // unit targets re-resolved off a corpse
  std::uint64_t stale_replies = 0;
  std::uint64_t bad_msgs = 0;
};

class StripedClient {
 public:
  StripedClient(sim::Scheduler& sched, vmmc::MsgEndpoint& msgs,
                const ec::StripeMap& map, const ec::RsCodec& codec);
  ~StripedClient();

  /// Add this client's tap (unit acks and replies) to the endpoint.
  void start();

  /// Membership oracle, same contract as KvClientHost::set_dead_hook: unit
  /// targets are re-resolved through the StripeMap before every attempt.
  using DeadHook = std::function<bool(net::HostId)>;
  void set_dead_hook(DeadHook dead) { dead_ = std::move(dead); }

  /// Encode `value` and write all k+m units. Commits (kOk) only when EVERY
  /// unit is acked by its holder — the stripe's m-failure tolerance starts
  /// whole. The caller owns id uniqueness.
  sim::Task<StripedOutcome> put(RequestId id, std::uint64_t key,
                                std::vector<std::uint8_t> value);

  /// Read the object; degrades to parity reconstruction when data units are
  /// unreachable. `id` only brands the outcome (unit fetches use an internal
  /// per-host fetch id space).
  sim::Task<StripedOutcome> get(RequestId id, std::uint64_t key);

  [[nodiscard]] net::HostId host() const { return msgs_.host(); }
  [[nodiscard]] const StripedClientStats& stats() const { return stats_; }

 private:
  bool handle(const vmmc::Msg& m);
  /// Re-resolve the holder of `unit` under the current membership view.
  [[nodiscard]] net::HostId holder_of(std::size_t group, std::size_t unit);
  sim::Process put_unit(UnitPut put, char* ok, sim::WaitGroup* wg);
  /// Fetch into `reply`, a slot get() opened and reads after the join.
  sim::Process fetch_unit(std::size_t group, UnitGet get,
                          UnitReplies::Slot* reply, sim::WaitGroup* wg);

  sim::Scheduler& sched_;
  vmmc::MsgEndpoint& msgs_;
  const ec::StripeMap& map_;
  const ec::RsCodec& codec_;
  DeadHook dead_;
  // Put workers key on the writer id, fetch workers on the internal fetch id.
  UnitReplies replies_;
  std::uint64_t fetch_seq_ = 0;
  StripedClientStats stats_;
  obs::Histogram* put_latency_ = nullptr;
  obs::Histogram* get_latency_ = nullptr;
};

}  // namespace sanfault::kv
