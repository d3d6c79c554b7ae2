#include "kv/repair.hpp"

#include <algorithm>
#include <utility>

#include "kv/backoff.hpp"

namespace sanfault::kv {

namespace {
constexpr int kRpcMaxAttempts = 24;
/// A stripe that cannot be repaired yet (survivors unreachable) re-queues
/// after kRequeueDelay, up to this many rounds, then counts as abandoned.
constexpr int kStripeMaxRounds = 8;
constexpr sim::Duration kRequeueDelay = sim::milliseconds(5);
}  // namespace

RepairMachine::RepairMachine(sim::Scheduler& sched, vmmc::MsgEndpoint& msgs,
                             StripedStore& store, const ec::StripeMap& map,
                             const ec::RsCodec& codec, RepairConfig cfg)
    : sched_(sched),
      msgs_(msgs),
      store_(store),
      map_(map),
      codec_(codec),
      cfg_(cfg),
      tokens_(static_cast<std::int64_t>(cfg.burst_bytes)) {
  obs::Registry& reg = obs::Registry::of(sched_);
  const std::string node = "{node=" + std::to_string(msgs_.host().v) + "}";
  queue_depth_ = &reg.gauge("ec.repair_queue_depth" + node, "stripes");
  stripe_latency_ = &reg.histogram("ec.repair_stripe_latency_ns" + node, "ns");
  reg.add_collector(this, [this, &reg, node] {
    const RepairStats& s = stats_;
    reg.counter("ec.repair_confirms" + node, "deaths").set(s.confirms);
    reg.counter("ec.repair_stripes_enqueued" + node, "stripes")
        .set(s.stripes_enqueued);
    reg.counter("ec.repair_stripes_repaired" + node, "stripes")
        .set(s.stripes_repaired);
    reg.counter("ec.repair_stripes_abandoned" + node, "stripes")
        .set(s.stripes_abandoned);
    reg.counter("ec.repair_units_rebuilt" + node, "units")
        .set(s.units_rebuilt);
    reg.counter("ec.repair_bytes_fetched" + node, "bytes")
        .set(s.bytes_fetched);
    reg.counter("ec.repair_bytes_written" + node, "bytes")
        .set(s.bytes_written);
    reg.counter("ec.repair_fetch_retries" + node, "attempts")
        .set(s.fetch_retries);
    reg.counter("ec.repair_put_retries" + node, "attempts")
        .set(s.put_retries);
    reg.counter("ec.repair_throttle_waits" + node, "takes")
        .set(s.throttle_waits);
    reg.counter("ec.repair_throttle_wait_ns" + node, "ns")
        .set(s.throttle_wait_ns);
  });
}

RepairMachine::~RepairMachine() {
  if (auto* r = obs::Registry::find(sched_)) r->remove_collectors(this);
}

void RepairMachine::start() {
  msgs_.add_tap([this](const vmmc::Msg& m) { return handle(m); });
  worker();
}

bool RepairMachine::handle(const vmmc::Msg& m) {
  const MsgType t = peek_type(m.bytes);
  if (t != MsgType::kUnitAck && t != MsgType::kUnitReply) return false;
  // Malformed, stale and duplicate answers are all dropped uncounted.
  if (auto rep = decode_unit_reply(m.bytes)) {
    replies_.deliver(sched_, {rep->id.packed(), rep->unit}, std::move(*rep));
  }
  return true;
}

void RepairMachine::note(std::string line) {
  if (!cfg_.log_events) return;
  log_.push_back("t=" + std::to_string(sched_.now()) + " " + std::move(line));
}

void RepairMachine::on_confirm(net::HostId dead, sim::Time) {
  ++stats_.confirms;
  note("confirm dead=" + std::to_string(dead.v));
  const net::HostId self = host();
  // The death's placement effect, before vs after: resolving with the dead
  // host forced alive recovers where units lived just before the confirm.
  const auto now_dead = [this](net::HostId h) { return dead_ && dead_(h); };
  const auto prev_dead = [this, dead](net::HostId h) {
    return h != dead && dead_ && dead_(h);
  };

  std::vector<std::uint64_t> keys;
  keys.reserve(store_.store().size());
  for (const auto& [key, units] : store_.store()) keys.push_back(key);
  std::sort(keys.begin(), keys.end());  // store order is hash order; fix it

  for (const std::uint64_t key : keys) {
    const std::size_t group = map_.group_of(key);
    const auto prev = map_.resolve(group, prev_dead);
    const auto now = map_.resolve(group, now_dead);
    bool lost = false;
    std::size_t leader_unit = map_.n();
    for (std::size_t u = 0; u < prev.size(); ++u) {
      if (prev[u] == dead) {
        lost = true;
        continue;
      }
      // Surviving donor: kept its holder across the death and that holder
      // is live in our view.
      if (now[u] == prev[u] && !now_dead(now[u]) && leader_unit == map_.n()) {
        leader_unit = u;
      }
    }
    if (!lost || leader_unit == map_.n()) continue;
    if (now[leader_unit] != self) continue;  // some other node leads
    ++stats_.stripes_enqueued;
    note("enqueue key=" + std::to_string(key));
    queue_.push_back(Job{key, dead, 0});
    queue_depth_->set(static_cast<std::int64_t>(queue_.size()));
    work_.fire(sched_);
  }
}

sim::Process RepairMachine::worker() {
  for (;;) {
    while (queue_.empty()) {
      co_await work_.wait(sched_);
      work_.reset();
    }
    Job job = queue_.front();
    queue_.pop_front();
    queue_depth_->set(static_cast<std::int64_t>(queue_.size()));
    inflight_ = true;
    const sim::Time t0 = sched_.now();
    const bool ok = co_await repair_one(job);
    if (ok) {
      ++stats_.stripes_repaired;
      stripe_latency_->record(sched_.now() - t0);
      note("repaired key=" + std::to_string(job.key));
    } else if (job.round + 1 < kStripeMaxRounds) {
      Job retry = job;
      ++retry.round;
      requeue_later(retry);
    } else {
      ++stats_.stripes_abandoned;
      note("abandoned key=" + std::to_string(job.key));
    }
    inflight_ = false;
  }
}

sim::Process RepairMachine::requeue_later(Job job) {
  ++requeues_;
  co_await sim::DelayFor{sched_, kRequeueDelay};
  --requeues_;
  queue_.push_back(job);
  queue_depth_->set(static_cast<std::int64_t>(queue_.size()));
  work_.fire(sched_);
}

sim::Task<bool> RepairMachine::repair_one(const Job& job) {
  const net::HostId self = host();
  const std::size_t n = map_.n();
  const std::size_t k = map_.k();
  const auto now_dead = [this](net::HostId h) { return dead_ && dead_(h); };
  const auto prev_dead = [this, d = job.dead](net::HostId h) {
    return h != d && dead_ && dead_(h);
  };
  const std::size_t group = map_.group_of(job.key);
  const auto prev = map_.resolve(group, prev_dead);
  const auto now = map_.resolve(group, now_dead);

  std::vector<std::size_t> lost;
  for (std::size_t u = 0; u < n; ++u) {
    if (prev[u] == job.dead) lost.push_back(u);
  }
  if (lost.empty()) co_return true;

  // The leader is a surviving holder, so it has a local record to size the
  // stripe from. If the local unit vanished the lead was stale — drop.
  const auto kit = store_.store().find(job.key);
  if (kit == store_.store().end() || kit->second.empty()) co_return true;
  const RequestId writer = kit->second.begin()->second.writer;
  const std::uint32_t object_len = kit->second.begin()->second.object_len;
  const std::uint64_t unit_bytes = codec_.unit_len(object_len);

  // Gather k survivors: local units are free, remote ones cost bucket
  // tokens and a fetch RPC each.
  std::vector<std::vector<std::uint8_t>> units(n);
  std::vector<bool> have(n, false);
  std::size_t gathered = 0;
  for (std::size_t u = 0; u < n && gathered < k; ++u) {
    if (prev[u] == job.dead || now[u] != self) continue;
    const auto uit = kit->second.find(static_cast<std::uint8_t>(u));
    if (uit == kit->second.end()) continue;
    units[u] = uit->second.bytes;
    have[u] = true;
    ++gathered;
  }
  for (std::size_t u = 0; u < n && gathered < k; ++u) {
    if (have[u] || prev[u] == job.dead) continue;
    // Only units that stayed put are trustworthy donors; a re-homed unit's
    // spare may not have been written yet.
    if (now[u] != prev[u] || now_dead(now[u]) || now[u] == self) continue;
    co_await throttle_take(unit_bytes);
    UnitReply rep;
    if (!co_await fetch_remote(job.key, static_cast<std::uint8_t>(u), now[u],
                               &rep)) {
      continue;
    }
    stats_.bytes_fetched += rep.value.size();
    units[u] = std::move(rep.value);
    have[u] = true;
    ++gathered;
  }
  if (gathered < k) co_return false;  // survivors unreachable; retry later

  if (!codec_.reconstruct(units, have)) co_return false;

  for (const std::size_t u : lost) {
    const net::HostId target = now[u];
    if (now_dead(target)) co_return false;  // no live spare yet
    UnitPut p;
    p.id = writer;
    p.key = job.key;
    p.unit = static_cast<std::uint8_t>(u);
    p.object_len = object_len;
    p.reply_to = self.v;
    p.value = units[u];
    if (target == self) {
      store_.apply_local(p);
    } else {
      co_await throttle_take(unit_bytes);
      if (!co_await write_unit(std::move(p), target)) co_return false;
      stats_.bytes_written += unit_bytes;
    }
    ++stats_.units_rebuilt;
    note("rebuilt key=" + std::to_string(job.key) + " unit=" +
         std::to_string(u) + " onto=" + std::to_string(target.v));
  }
  co_return true;
}

sim::Task<bool> RepairMachine::fetch_remote(std::uint64_t key,
                                            std::uint8_t unit,
                                            net::HostId from, UnitReply* out) {
  UnitGet g;
  g.id = RequestId{0xEC000000ull | host().v, ++rpc_seq_};
  g.key = key;
  g.unit = unit;
  g.reply_to = host().v;
  const auto wire = encode(g);

  UnitReplies::Slot reply(replies_, {g.id.packed(), unit});
  sim::Duration timeout = kFirstTimeout;
  for (int attempt = 0; attempt < kRpcMaxAttempts && !reply.answered();
       ++attempt) {
    if (dead_ && dead_(from)) break;  // donor died mid-repair
    if (attempt > 0) ++stats_.fetch_retries;
    co_await msgs_.post(from, wire);
    if (reply.answered()) break;
    co_await reply.wait_for(sched_, timeout);
    timeout = next_timeout(timeout);
  }
  if (!reply.answered() || reply.reply().status != Status::kOk) {
    co_return false;
  }
  *out = std::move(reply.reply());
  co_return true;
}

sim::Task<bool> RepairMachine::write_unit(UnitPut put, net::HostId to) {
  UnitReplies::Slot ack(replies_, {put.id.packed(), put.unit});
  const auto wire = encode(put);
  sim::Duration timeout = kFirstTimeout;
  for (int attempt = 0; attempt < kRpcMaxAttempts && !ack.answered();
       ++attempt) {
    if (dead_ && dead_(to)) break;  // spare died; placement will re-home
    if (attempt > 0) ++stats_.put_retries;
    co_await msgs_.post(to, wire);
    if (ack.answered()) break;
    co_await ack.wait_for(sched_, timeout);
    timeout = next_timeout(timeout);
  }
  co_return ack.answered() && ack.reply().status == Status::kOk;
}

void RepairMachine::refill() {
  const sim::Time now = sched_.now();
  sim::Duration dt = now - last_refill_;
  last_refill_ = now;
  // Cap the window so dt * rate cannot overflow; the bucket is full after
  // ~burst/rate seconds of idleness anyway.
  dt = std::min<sim::Duration>(dt, sim::seconds(10));
  const std::uint64_t earned =
      dt * cfg_.bandwidth_bytes_per_sec / 1'000'000'000ull;
  tokens_ = std::min<std::int64_t>(
      tokens_ + static_cast<std::int64_t>(earned),
      static_cast<std::int64_t>(cfg_.burst_bytes));
}

sim::Task<void> RepairMachine::throttle_take(std::uint64_t bytes) {
  if (cfg_.bandwidth_bytes_per_sec == 0 || bytes == 0) co_return;
  refill();
  // A take larger than the burst window drives the bucket into debt, which
  // later takes then have to pay off — large units still average the rate.
  const auto need = static_cast<std::int64_t>(
      std::min<std::uint64_t>(bytes, cfg_.burst_bytes));
  const sim::Time t0 = sched_.now();
  bool waited = false;
  while (tokens_ < need) {
    const auto deficit = static_cast<std::uint64_t>(need - tokens_);
    const sim::Duration wait =
        (deficit * 1'000'000'000ull + cfg_.bandwidth_bytes_per_sec - 1) /
        cfg_.bandwidth_bytes_per_sec;
    waited = true;
    co_await sim::DelayFor{sched_, std::max<sim::Duration>(wait, 1)};
    refill();
  }
  tokens_ -= static_cast<std::int64_t>(bytes);
  if (waited) {
    ++stats_.throttle_waits;
    stats_.throttle_wait_ns += sched_.now() - t0;
  }
}

}  // namespace sanfault::kv
