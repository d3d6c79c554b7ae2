#include "kv/server.hpp"

#include <string>
#include <utility>

#include "kv/backoff.hpp"

namespace sanfault::kv {

namespace {
/// Replication is persistent (the fabric heals); this is a runaway guard.
constexpr int kReplMaxAttempts = 64;
}  // namespace

KvServer::KvServer(sim::Scheduler& sched, vmmc::MsgEndpoint& msgs,
                   const ShardMap& map)
    : sched_(sched), msgs_(msgs), map_(map) {
  obs::Registry& reg = obs::Registry::of(sched_);
  const std::string node = "{node=" + std::to_string(msgs_.host().v) + "}";
  reg.add_collector(this, [this, &reg, node] {
    const KvServerStats& s = stats_;
    reg.counter("kv.server_gets" + node, "requests").set(s.gets);
    reg.counter("kv.server_puts" + node, "requests").set(s.puts);
    reg.counter("kv.server_dels" + node, "requests").set(s.dels);
    reg.counter("kv.server_backup_reads" + node, "requests")
        .set(s.backup_reads);
    reg.counter("kv.server_forwards" + node, "requests").set(s.forwards);
    reg.counter("kv.server_not_owner" + node, "requests").set(s.not_owner);
    reg.counter("kv.server_dup_requests" + node, "requests")
        .set(s.dup_requests);
    reg.counter("kv.server_cached_replies" + node, "requests")
        .set(s.cached_replies);
    reg.counter("kv.server_replicates_tx" + node, "messages")
        .set(s.replicates_tx);
    reg.counter("kv.server_replicates_rx" + node, "messages")
        .set(s.replicates_rx);
    reg.counter("kv.server_dup_replicates" + node, "messages")
        .set(s.dup_replicates);
    reg.counter("kv.server_repl_retries" + node, "attempts")
        .set(s.repl_retries);
    reg.counter("kv.server_repl_failures" + node, "writes")
        .set(s.repl_failures);
    reg.counter("kv.server_bad_msgs" + node, "messages").set(s.bad_msgs);
  });
}

KvServer::~KvServer() {
  if (auto* r = obs::Registry::find(sched_)) r->remove_collectors(this);
}

void KvServer::start() { serve_loop(); }

sim::Process KvServer::serve_loop() {
  for (;;) {
    vmmc::Msg m = co_await msgs_.inbox().pop(sched_);
    dispatch(std::move(m));
  }
}

// The loop thread must never block on a post (send buffers can be exhausted
// during an outage), so every path that transmits runs as its own Process;
// only bookkeeping (dedup, ack matching, replica apply) happens inline.
void KvServer::dispatch(vmmc::Msg m) {
  switch (peek_type(m.bytes)) {
    case MsgType::kRequest: {
      auto q = decode<Request>(m.bytes);
      if (!q) {
        ++stats_.bad_msgs;
        return;
      }
      const std::size_t shard = map_.shard_of(q->key);
      const net::HostId self = host();
      if (map_.is_primary(self, shard)) {
        if (q->op == Op::kGet) {
          handle_read(std::move(*q), /*from_replica=*/false);
          return;
        }
        const std::uint64_t id = q->id.packed();
        auto it = dedup_.find(id);
        if (it != dedup_.end()) {
          if (it->second.done) {
            ++stats_.cached_replies;
            post_reply(q->reply_to, it->second.reply);
          } else {
            ++stats_.dup_requests;  // original still replicating; drop
          }
          return;
        }
        dedup_.emplace(id, DedupEntry{});
        handle_write(std::move(*q));
        return;
      }
      if (map_.is_backup(self, shard)) {
        if (q->op == Op::kGet) {
          ++stats_.backup_reads;
          handle_read(std::move(*q), /*from_replica=*/true);
        } else {
          ++stats_.forwards;
          handle_forward(std::move(*q));
        }
        return;
      }
      ++stats_.not_owner;
      Reply rep{q->id, Status::kNotOwner, {}};
      post_reply(q->reply_to, encode(rep));
      return;
    }
    case MsgType::kReplicate: {
      auto r = decode<Replicate>(m.bytes);
      if (!r) {
        ++stats_.bad_msgs;
        return;
      }
      on_replicate(m.src, std::move(*r));
      return;
    }
    case MsgType::kReplAck: {
      auto a = decode<ReplAck>(m.bytes);
      if (!a) {
        ++stats_.bad_msgs;
        return;
      }
      auto mit = repl_waiting_.find(m.src);
      if (mit != repl_waiting_.end()) {
        auto it = mit->second.find(a->repl_seq);
        if (it != mit->second.end()) it->second->acked = true;
      }
      drain_acked(m.src);
      return;
    }
    default:
      ++stats_.bad_msgs;
      return;
  }
}

sim::Process KvServer::handle_read(Request q, bool from_replica) {
  (void)from_replica;
  ++stats_.gets;
  Reply rep{q.id, Status::kNotFound, {}};
  auto it = store_.find(q.key);
  if (it != store_.end()) {
    rep.status = Status::kOk;
    rep.value = it->second;
  }
  co_await msgs_.post(net::HostId{q.reply_to}, encode(rep));
}

sim::Process KvServer::handle_write(Request q) {
  const std::uint64_t id = q.id.packed();
  const net::HostId backup = map_.backup(map_.shard_of(q.key));

  Replicate rep;
  rep.id = q.id;
  rep.repl_seq = ++next_repl_seq_[backup];
  rep.op = q.op;
  rep.key = q.key;
  rep.value = q.value;
  const auto wire = encode(rep);

  PendingRepl pr;
  pr.q = std::move(q);
  repl_waiting_[backup][rep.repl_seq] = &pr;
  sim::Duration timeout = kFirstTimeout;
  for (int attempt = 0; attempt < kReplMaxAttempts && !pr.applied;
       ++attempt) {
    if (attempt > 0) ++stats_.repl_retries;
    ++stats_.replicates_tx;
    co_await msgs_.post(backup, wire);
    if (pr.applied) break;
    co_await pr.done.wait_for(sched_, timeout);
    timeout = next_timeout(timeout);
  }

  if (!pr.applied) {
    // Runaway guard tripped: forget the request entirely so a later client
    // retry restarts the write from scratch. Nothing was applied here, and
    // the backup side is idempotent, so correctness is preserved. Erasing
    // our seq releases any later acked writes queued behind it.
    repl_waiting_[backup].erase(rep.repl_seq);
    drain_acked(backup);
    ++stats_.repl_failures;
    dedup_.erase(id);
    co_return;
  }

  // Commit point already happened inside drain_acked (backup acked + local
  // apply in channel order); all that is left is replying to the client.
  Reply out{pr.q.id, pr.result, {}};
  auto encoded = encode(out);
  // dedup_ may have rehashed across the co_awaits above; re-find the entry.
  auto& entry = dedup_[id];
  entry.done = true;
  entry.reply = encoded;
  co_await msgs_.post(net::HostId{pr.q.reply_to}, std::move(encoded));
}

void KvServer::drain_acked(net::HostId backup) {
  auto mit = repl_waiting_.find(backup);
  if (mit == repl_waiting_.end()) return;
  auto& waiting = mit->second;
  while (!waiting.empty() && waiting.begin()->second->acked) {
    PendingRepl* pr = waiting.begin()->second;
    waiting.erase(waiting.begin());
    pr->result =
        apply(pr->q.op, pr->q.key, std::move(pr->q.value), pr->q.id);
    pr->applied = true;
    pr->done.fire(sched_);
  }
}

sim::Process KvServer::handle_forward(Request q) {
  // Proxy the write, unchanged, to the shard primary: the reply goes
  // straight from the primary to the original client (reply_to rides along).
  const net::HostId primary = map_.primary(map_.shard_of(q.key));
  co_await msgs_.post(primary, encode(q));
}

void KvServer::on_replicate(net::HostId src, Replicate r) {
  ++stats_.replicates_rx;
  auto& ch = repl_rx_[src];
  if (r.repl_seq < ch.expected) {
    // Already applied; re-ack — the earlier ack may be what got delayed.
    ++stats_.dup_replicates;
    send_repl_ack(src, r.repl_seq);
    return;
  }
  if (r.repl_seq > ch.expected) {
    // A predecessor is still in flight (its retransmission will arrive).
    // Hold — and do not ack: an ack promises this write has been applied.
    ch.stash.emplace(r.repl_seq, std::move(r));
    return;
  }
  apply_replicate(src, std::move(r));
  ++ch.expected;
  while (!ch.stash.empty() && ch.stash.begin()->first == ch.expected) {
    Replicate next = std::move(ch.stash.begin()->second);
    ch.stash.erase(ch.stash.begin());
    apply_replicate(src, std::move(next));
    ++ch.expected;
  }
}

void KvServer::apply_replicate(net::HostId src, Replicate r) {
  const std::uint64_t id = r.id.packed();
  if (backup_applied_.insert(id).second) {
    apply(r.op, r.key, std::move(r.value), r.id);
  } else {
    ++stats_.dup_replicates;
  }
  send_repl_ack(src, r.repl_seq);
}

sim::Process KvServer::send_repl_ack(net::HostId to, std::uint64_t seq) {
  co_await msgs_.post(to, encode(ReplAck{seq}));
}

Status KvServer::apply(Op op, std::uint64_t key,
                       std::vector<std::uint8_t> value, const RequestId& id) {
  ++apply_counts_[id.packed()];
  switch (op) {
    case Op::kPut:
      ++stats_.puts;
      store_[key] = std::move(value);
      return Status::kOk;
    case Op::kDel:
      ++stats_.dels;
      return store_.erase(key) != 0 ? Status::kOk : Status::kNotFound;
    case Op::kGet:
      break;
  }
  return Status::kNotFound;  // unreachable for writes
}

sim::Process KvServer::post_reply(std::uint32_t to,
                                  std::vector<std::uint8_t> bytes) {
  co_await msgs_.post(net::HostId{to}, std::move(bytes));
}

}  // namespace sanfault::kv
