// kv::RepairMachine: online SNS-style reconstruction of stripe units lost to
// a confirmed host death (cortx-motr SNS-repair HLD, SNIPPETS.md §2).
//
// One machine runs on every striped server. When the node's SWIM agent
// confirms a death, on_confirm() walks the LOCAL unit store (sorted, for
// deterministic event order): any stripe with a local unit whose placement
// also named the dead host has lost a unit, and the live holder of the
// lowest-numbered surviving unit elects itself repair leader — no
// coordination, every node derives the same leader from the same StripeMap +
// membership view. The leader's worker then, stripe by stripe:
//
//   1. gathers k units (its own from the local store for free, the rest
//      fetched from surviving holders),
//   2. reconstructs the lost unit(s) with the shared RsCodec,
//   3. writes each onto the spare the StripeMap re-homed it to (a live
//      server in a different fault domain), carrying the ORIGINAL writer's
//      request id so the exactly-once audit sees repaired units as the same
//      logical write.
//
// Every fetched and written byte first takes from a token bucket
// (bandwidth_bytes_per_sec, burst_bytes) — repair trickles along under a
// configurable cap instead of stampeding the fabric foreground traffic is
// using; bench_repair sweeps this cap against foreground goodput.
//
// Known limitation (by design, documented in DESIGN.md §13): the leader rule
// re-elects per confirm, but a stripe whose leader dies mid-queue before
// finishing is only re-covered if ANOTHER death triggers re-enumeration;
// tests and benches kill hosts that are not repair leaders of unfinished
// work. Metrics land in the obs registry under ec.repair_*.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "ec/placement.hpp"
#include "ec/rs.hpp"
#include "kv/striped.hpp"
#include "kv/wire.hpp"
#include "obs/metrics.hpp"
#include "sim/awaitables.hpp"
#include "sim/process.hpp"
#include "sim/task.hpp"
#include "vmmc/rpc.hpp"

namespace sanfault::kv {

struct RepairConfig {
  /// Token-bucket rate for repair traffic (fetched + written unit bytes).
  /// 0 = unthrottled.
  std::uint64_t bandwidth_bytes_per_sec = 64ull * 1024 * 1024;
  std::uint64_t burst_bytes = 64ull * 1024;
  /// Record a per-event text log (determinism tests byte-compare it).
  bool log_events = false;
};

struct RepairStats {
  std::uint64_t confirms = 0;          // deaths this node reacted to
  std::uint64_t stripes_enqueued = 0;  // stripes this node led repair for
  std::uint64_t stripes_repaired = 0;
  std::uint64_t stripes_abandoned = 0;
  std::uint64_t units_rebuilt = 0;
  std::uint64_t bytes_fetched = 0;     // survivor units pulled over the wire
  std::uint64_t bytes_written = 0;     // rebuilt units pushed to spares
  std::uint64_t fetch_retries = 0;
  std::uint64_t put_retries = 0;
  std::uint64_t throttle_waits = 0;    // takes that had to sleep
  std::uint64_t throttle_wait_ns = 0;
};

class RepairMachine {
 public:
  RepairMachine(sim::Scheduler& sched, vmmc::MsgEndpoint& msgs,
                StripedStore& store, const ec::StripeMap& map,
                const ec::RsCodec& codec, RepairConfig cfg = {});
  ~RepairMachine();

  /// Add this machine's tap (fetch replies / spare-write acks) to the
  /// endpoint and spawn the repair worker.
  void start();

  /// Membership oracle (same contract as StripedClient's).
  using DeadHook = std::function<bool(net::HostId)>;
  void set_dead_hook(DeadHook dead) { dead_ = std::move(dead); }

  /// SWIM confirm hook: enumerate local stripes that lost a unit on `dead`
  /// and enqueue the ones this node leads. Cheap (bookkeeping only); the
  /// worker does the traffic.
  void on_confirm(net::HostId dead, sim::Time at);

  /// No repair queued, in flight, or awaiting a requeue delay (quiesce /
  /// convergence check).
  [[nodiscard]] bool idle() const {
    return queue_.empty() && !inflight_ && requeues_ == 0;
  }
  [[nodiscard]] net::HostId host() const { return msgs_.host(); }
  [[nodiscard]] const RepairStats& stats() const { return stats_; }
  /// Event log (empty unless cfg.log_events).
  [[nodiscard]] const std::vector<std::string>& log() const { return log_; }

 private:
  struct Job {
    std::uint64_t key = 0;
    net::HostId dead;
    int round = 0;
  };
  bool handle(const vmmc::Msg& m);
  sim::Process worker();
  /// One repair attempt for one stripe; false = retryable failure.
  sim::Task<bool> repair_one(const Job& job);
  /// Fetch `unit` of `key` from `from`; false after all retries.
  sim::Task<bool> fetch_remote(std::uint64_t key, std::uint8_t unit,
                               net::HostId from, UnitReply* out);
  /// Write a rebuilt unit to its (possibly remote) holder.
  sim::Task<bool> write_unit(UnitPut put, net::HostId to);
  /// Take `bytes` from the token bucket, sleeping while it refills.
  sim::Task<void> throttle_take(std::uint64_t bytes);
  void refill();
  sim::Process requeue_later(Job job);
  void note(std::string line);

  sim::Scheduler& sched_;
  vmmc::MsgEndpoint& msgs_;
  StripedStore& store_;
  const ec::StripeMap& map_;
  const ec::RsCodec& codec_;
  RepairConfig cfg_;
  DeadHook dead_;

  std::deque<Job> queue_;
  sim::Trigger work_;
  bool inflight_ = false;
  int requeues_ = 0;  // jobs sleeping before re-entering the queue
  std::uint64_t rpc_seq_ = 0;
  UnitReplies replies_;  // fetch replies and spare-write acks
  // Token bucket; signed so a burst-capped take may drive it into debt.
  std::int64_t tokens_ = 0;
  sim::Time last_refill_ = 0;
  RepairStats stats_;
  std::vector<std::string> log_;
  obs::Gauge* queue_depth_ = nullptr;
  obs::Histogram* stripe_latency_ = nullptr;
};

}  // namespace sanfault::kv
