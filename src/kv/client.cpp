#include "kv/client.hpp"

#include <algorithm>
#include <string>
#include <utility>

namespace sanfault::kv {

KvClientHost::KvClientHost(sim::Scheduler& sched, vmmc::MsgEndpoint& msgs,
                           const ShardMap& map)
    : sched_(sched), msgs_(msgs), map_(map) {
  obs::Registry& reg = obs::Registry::of(sched_);
  const std::string node = "{node=" + std::to_string(msgs_.host().v) + "}";
  call_latency_ = &reg.histogram("kv.call_latency_ns" + node, "ns");
  reg.add_collector(this, [this, &reg, node] {
    const KvClientStats& s = stats_;
    reg.counter("kv.client_calls" + node, "calls").set(s.calls);
    reg.counter("kv.client_ok" + node, "calls").set(s.ok);
    reg.counter("kv.client_failed" + node, "calls").set(s.failed);
    reg.counter("kv.client_posts" + node, "messages").set(s.posts);
    reg.counter("kv.client_timeouts" + node, "attempts").set(s.timeouts);
    reg.counter("kv.client_failovers" + node, "calls").set(s.failovers);
    reg.counter("kv.client_stale_replies" + node, "messages")
        .set(s.stale_replies);
    reg.counter("kv.client_dup_replies" + node, "messages")
        .set(s.dup_replies);
    reg.counter("kv.client_bad_msgs" + node, "messages").set(s.bad_msgs);
    reg.counter("kv.client_dead_skips" + node, "attempts").set(s.dead_skips);
  });
}

KvClientHost::~KvClientHost() {
  if (auto* r = obs::Registry::find(sched_)) r->remove_collectors(this);
}

void KvClientHost::start() { pump(); }

sim::Process KvClientHost::pump() {
  for (;;) {
    vmmc::Msg m = co_await msgs_.inbox().pop(sched_);
    auto rep = decode<Reply>(m.bytes);
    if (!rep) {
      ++stats_.bad_msgs;
      continue;
    }
    auto it = pending_.find(rep->id.packed());
    if (it == pending_.end()) {
      ++stats_.stale_replies;  // the call already gave up
      continue;
    }
    if (it->second->replied) {
      ++stats_.dup_replies;  // retry answered twice; first one won
      continue;
    }
    it->second->replied = true;
    it->second->reply = std::move(*rep);
    it->second->done.fire(sched_);
  }
}

sim::Task<Outcome> KvClientHost::call(RequestId id, Op op, std::uint64_t key,
                                      std::vector<std::uint8_t> value,
                                      const KvRetryPolicy& policy) {
  ++stats_.calls;
  Outcome o;
  o.id = id;
  o.issued_at = sched_.now();

  Request q;
  q.op = op;
  q.id = id;
  q.key = key;
  q.reply_to = host().v;
  q.value = std::move(value);
  const auto wire = encode(q);

  const std::size_t shard = map_.shard_of(key);
  net::HostId target = map_.primary(shard);
  const net::HostId backup = map_.backup(shard);

  PendingCall pc;
  pending_[id.packed()] = &pc;
  sim::Duration timeout = policy.base_timeout;
  int consecutive_timeouts = 0;

  while (!pc.replied && o.attempts < policy.max_attempts) {
    if (dead_ && target != backup && dead_(target)) {
      // Membership already confirmed the target dead — skip straight to the
      // backup rather than discovering the corpse one timeout at a time.
      target = backup;
      ++o.failovers;
      ++stats_.failovers;
      ++stats_.dead_skips;
    }
    ++o.attempts;
    ++stats_.posts;
    co_await msgs_.post(target, wire);
    if (pc.replied) break;  // landed while the post was being accepted
    co_await pc.done.wait_for(sched_, timeout);
    if (pc.replied) break;

    ++stats_.timeouts;
    if (++consecutive_timeouts == policy.failover_after && target != backup) {
      target = backup;
      ++o.failovers;
      ++stats_.failovers;
    }
    timeout = std::min(timeout * 2, policy.max_timeout);
  }
  pending_.erase(id.packed());

  o.completed_at = sched_.now();
  if (pc.replied) {
    o.status = pc.reply.status;
    o.value = std::move(pc.reply.value);
  } else {
    o.status = Status::kTimeout;
  }
  if (o.ok()) {
    ++stats_.ok;
    call_latency_->record(static_cast<std::uint64_t>(o.latency()));
  } else {
    ++stats_.failed;
  }
  co_return o;
}

}  // namespace sanfault::kv
