#include "kv/client.hpp"

#include <string>
#include <utility>

#include "kv/backoff.hpp"

namespace sanfault::kv {

namespace {
constexpr int kMaxAttempts = 12;
/// Consecutive timeouts before switching to the shard backup.
constexpr int kFailoverAfter = 2;
}  // namespace

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
    using Delivery = decltype(replies_)::Delivery;
    const std::uint64_t id = rep->id.packed();
    switch (replies_.deliver(sched_, id, std::move(*rep))) {
      case Delivery::kAccepted:
        break;
      case Delivery::kUnknown:
        ++stats_.stale_replies;  // the call already gave up
        break;
      case Delivery::kRepeat:
        ++stats_.dup_replies;  // retry answered twice; first one won
        break;
    }
  }
}

sim::Task<Outcome> KvClientHost::call(RequestId id, Op op, std::uint64_t key,
                                      std::vector<std::uint8_t> value) {
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

  decltype(replies_)::Slot reply(replies_, id.packed());
  sim::Duration timeout = kFirstTimeout;
  int consecutive_timeouts = 0;

  while (!reply.answered() && o.attempts < kMaxAttempts) {
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
    if (reply.answered()) break;  // landed while the post was being accepted
    co_await reply.wait_for(sched_, timeout);
    if (reply.answered()) break;

    ++stats_.timeouts;
    if (++consecutive_timeouts == kFailoverAfter && target != backup) {
      target = backup;
      ++o.failovers;
      ++stats_.failovers;
    }
    timeout = next_timeout(timeout);
  }

  o.completed_at = sched_.now();
  if (reply.answered()) {
    o.status = reply.reply().status;
    o.value = std::move(reply.reply().value);
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
