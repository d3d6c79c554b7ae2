// KvServer: one node of the sharded, primary-backup replicated key-value
// service. Runs as sim-host coroutines over a vmmc::MsgEndpoint — the
// firmware underneath is the paper's retransmission + on-demand-mapping
// stack, which is exactly what this service exists to exercise.
//
// Roles per shard (from the ShardMap, statically known to everyone):
//  * primary: serves GETs from its store; for PUT/DEL it first replicates
//    synchronously to the shard's backup (retrying with backoff until the
//    backup acks — paths heal via re-mapping, so replication is persistent),
//    then applies locally and replies to the client. Applying only after the
//    backup ack keeps "backup state >= primary state" invariant, so a
//    committed write is always on both replicas;
//  * backup: applies Replicate messages (deduped by request id) and acks
//    every copy; serves GETs from its replica when clients fail over; and
//    proxies PUT/DEL back to the primary so write ordering stays
//    single-writer even when the client's path to the primary is dead.
//
// Exactly-once effect under an at-least-once transport: every request
// carries a RequestId; the primary's dedup table answers retries of
// completed writes with the cached reply and silently drops retries of
// in-flight ones (the client keeps retrying until the cached reply lands).
// The backup's dedup set makes replicate duplicates harmless. Per-request
// apply counts are exposed so the post-run audit can prove no committed
// write was lost or applied twice.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "kv/shard_map.hpp"
#include "kv/wire.hpp"
#include "obs/metrics.hpp"
#include "sim/awaitables.hpp"
#include "sim/process.hpp"
#include "vmmc/rpc.hpp"

namespace sanfault::kv {

struct KvServerStats {
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;
  std::uint64_t dels = 0;
  std::uint64_t backup_reads = 0;      // GETs served from the replica
  std::uint64_t forwards = 0;          // writes proxied backup -> primary
  std::uint64_t not_owner = 0;
  std::uint64_t dup_requests = 0;      // retries of in-flight writes dropped
  std::uint64_t cached_replies = 0;    // retries answered from the dedup table
  std::uint64_t replicates_tx = 0;
  std::uint64_t replicates_rx = 0;
  std::uint64_t dup_replicates = 0;
  std::uint64_t repl_retries = 0;
  std::uint64_t repl_failures = 0;     // replication's runaway guard tripped
  std::uint64_t bad_msgs = 0;
};

class KvServer {
 public:
  KvServer(sim::Scheduler& sched, vmmc::MsgEndpoint& msgs, const ShardMap& map);
  ~KvServer();

  /// Spawn the serve loop. Call once, after the rig connected the mesh.
  void start();

  [[nodiscard]] net::HostId host() const { return msgs_.host(); }
  [[nodiscard]] const KvServerStats& stats() const { return stats_; }

  // --- audit hooks ---------------------------------------------------------
  /// The store (all shards this node holds, as primary or backup).
  [[nodiscard]] const std::unordered_map<std::uint64_t,
                                         std::vector<std::uint8_t>>&
  store() const {
    return store_;
  }
  /// Times each write request (RequestId::packed) was applied on this node.
  [[nodiscard]] const std::unordered_map<std::uint64_t, std::uint32_t>&
  apply_counts() const {
    return apply_counts_;
  }
  /// True when no write is awaiting replication (quiesce check).
  [[nodiscard]] bool idle() const {
    for (const auto& [backup, waiting] : repl_waiting_) {
      if (!waiting.empty()) return false;
    }
    return true;
  }

 private:
  struct DedupEntry {
    bool done = false;
    std::vector<std::uint8_t> reply;  // encoded, cached for retries
  };
  struct PendingRepl {
    sim::Trigger done;
    bool acked = false;    // backup confirmed the apply
    bool applied = false;  // applied locally, in seq order; result is valid
    Status result = Status::kOk;
    Request q;
  };
  /// Inbound replication channel from one primary: replicates are applied in
  /// contiguous repl_seq order; out-of-order arrivals wait in the stash and
  /// are only acked once applied (an ack means "the backup HAS this write").
  struct ReplicaChannel {
    std::uint64_t expected = 1;
    std::map<std::uint64_t, Replicate> stash;
  };

  sim::Process serve_loop();
  void dispatch(vmmc::Msg m);
  sim::Process handle_read(Request q, bool from_replica);
  sim::Process handle_write(Request q);
  sim::Process handle_forward(Request q);
  void on_replicate(net::HostId src, Replicate r);
  void apply_replicate(net::HostId src, Replicate r);
  /// Apply + complete acked writes for `backup` from the smallest seq up to
  /// the first unacked one. Keeping local applies in per-channel seq order
  /// mirrors the backup's apply order, so concurrent writes to one key land
  /// identically on both replicas no matter how acks interleave.
  void drain_acked(net::HostId backup);
  sim::Process send_repl_ack(net::HostId to, std::uint64_t seq);
  sim::Process post_reply(std::uint32_t to, std::vector<std::uint8_t> bytes);

  Status apply(Op op, std::uint64_t key, std::vector<std::uint8_t> value,
               const RequestId& id);

  sim::Scheduler& sched_;
  vmmc::MsgEndpoint& msgs_;
  const ShardMap& map_;

  std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> store_;
  std::unordered_map<std::uint64_t, DedupEntry> dedup_;        // as primary
  std::unordered_set<std::uint64_t> backup_applied_;           // as backup
  std::unordered_map<std::uint64_t, std::uint32_t> apply_counts_;
  // As primary: per-backup channel seq + writes awaiting ack, seq-ordered.
  std::unordered_map<net::HostId, std::uint64_t> next_repl_seq_;
  std::unordered_map<net::HostId, std::map<std::uint64_t, PendingRepl*>>
      repl_waiting_;
  // As backup: one ordered channel per primary.
  std::unordered_map<net::HostId, ReplicaChannel> repl_rx_;
  KvServerStats stats_;
};

}  // namespace sanfault::kv
