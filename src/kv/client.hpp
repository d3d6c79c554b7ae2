// KvClientHost: the client-side library for the replicated KV service.
//
// One KvClientHost per physical client host; many logical clients multiplex
// over it (the open-loop traffic engine runs hundreds per host). call()
// implements the full client protocol:
//
//  * route by key through the shared ShardMap to the shard primary;
//  * arm a timeout per attempt; retry on the KV backoff (kv/backoff.hpp)
//    on expiry, up to 12 attempts (the request id never changes, so
//    server-side dedup makes the retries harmless);
//  * after two consecutive timeouts, fail over to the shard's backup —
//    the situation the paper's permanent-failure machinery creates:
//    the path died, the firmware declared it after fail_threshold and bumped
//    the generation, and until re-mapping completes the primary is
//    unreachable. The backup serves reads from its replica and proxies
//    writes, so the service stays available through the outage;
//  * accept whichever reply for the request id arrives first — originals and
//    retries are indistinguishable by design.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "kv/shard_map.hpp"
#include "kv/wire.hpp"
#include "obs/metrics.hpp"
#include "sim/awaitables.hpp"
#include "sim/process.hpp"
#include "sim/task.hpp"
#include "vmmc/rpc.hpp"

namespace sanfault::kv {

/// Result of one logical request, after all retries.
struct Outcome {
  Status status = Status::kTimeout;
  RequestId id;
  std::vector<std::uint8_t> value;  // GET payload
  int attempts = 0;
  int failovers = 0;
  sim::Time issued_at = 0;
  sim::Time completed_at = 0;

  /// kOk and kNotFound are both committed, correct answers.
  [[nodiscard]] bool ok() const {
    return status == Status::kOk || status == Status::kNotFound;
  }
  [[nodiscard]] sim::Duration latency() const { return completed_at - issued_at; }
};

struct KvClientStats {
  std::uint64_t calls = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t posts = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t failovers = 0;
  std::uint64_t stale_replies = 0;  // reply after the call gave up
  std::uint64_t dup_replies = 0;
  std::uint64_t bad_msgs = 0;
  std::uint64_t dead_skips = 0;  // attempts redirected by the dead oracle
};

class KvClientHost {
 public:
  KvClientHost(sim::Scheduler& sched, vmmc::MsgEndpoint& msgs,
               const ShardMap& map);
  ~KvClientHost();

  /// Spawn the reply-dispatch pump. Call once, after mesh connect.
  void start();

  /// Optional membership oracle: returns true when this node's local
  /// membership view has confirmed `h` dead. call() consults it before every
  /// attempt and fails over to the shard backup immediately instead of
  /// burning timeouts against a corpse. Kept as a plain callback so kv
  /// stays ignorant of the membership layer's types.
  using DeadHook = std::function<bool(net::HostId)>;
  void set_dead_hook(DeadHook dead) { dead_ = std::move(dead); }

  /// Issue one request on behalf of logical client `id.client`. The caller
  /// owns id uniqueness (the traffic engine assigns per-client sequences).
  sim::Task<Outcome> call(RequestId id, Op op, std::uint64_t key,
                          std::vector<std::uint8_t> value);

  [[nodiscard]] net::HostId host() const { return msgs_.host(); }
  [[nodiscard]] const KvClientStats& stats() const { return stats_; }

 private:
  sim::Process pump();

  sim::Scheduler& sched_;
  vmmc::MsgEndpoint& msgs_;
  const ShardMap& map_;
  sim::Replies<std::uint64_t, Reply> replies_;  // by RequestId::packed
  DeadHook dead_;
  KvClientStats stats_;
  obs::Histogram* call_latency_ = nullptr;  // committed calls only
};

}  // namespace sanfault::kv
