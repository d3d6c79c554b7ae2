#include "kv/striped.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "kv/backoff.hpp"

namespace sanfault::kv {

namespace {
/// Per unit-write worker; writes are persistent like replication.
constexpr int kPutMaxAttempts = 12;
/// Per unit-fetch budget inside one read round (reads give up on a unit
/// quickly; the degraded path covers for it).
constexpr int kGetAttempts = 4;
/// Full read rounds (fetch data, then parity, reconstruct) before kTimeout.
constexpr int kGetRounds = 3;
}  // namespace

// --- StripedStore -----------------------------------------------------------

StripedStore::StripedStore(sim::Scheduler& sched, vmmc::MsgEndpoint& msgs)
    : sched_(sched), msgs_(msgs) {
  obs::Registry& reg = obs::Registry::of(sched_);
  const std::string node = "{node=" + std::to_string(msgs_.host().v) + "}";
  reg.add_collector(this, [this, &reg, node] {
    const StripedStoreStats& s = stats_;
    reg.counter("ec.store_unit_puts" + node, "units").set(s.unit_puts);
    reg.counter("ec.store_dup_unit_puts" + node, "units").set(s.dup_unit_puts);
    reg.counter("ec.store_unit_gets" + node, "units").set(s.unit_gets);
    reg.counter("ec.store_unit_not_found" + node, "units")
        .set(s.unit_not_found);
    reg.counter("ec.store_bad_msgs" + node, "messages").set(s.bad_msgs);
    std::int64_t held = 0;
    for (const auto& [key, units] : store_) {
      held += static_cast<std::int64_t>(units.size());
    }
    reg.gauge("ec.store_units_held" + node, "units").set(held);
  });
}

StripedStore::~StripedStore() {
  if (auto* r = obs::Registry::find(sched_)) r->remove_collectors(this);
}

void StripedStore::start() {
  msgs_.add_tap([this](const vmmc::Msg& m) { return handle(m); });
}

bool StripedStore::handle(const vmmc::Msg& m) {
  switch (peek_type(m.bytes)) {
    case MsgType::kUnitPut: {
      auto p = decode<UnitPut>(m.bytes);
      if (!p) {
        ++stats_.bad_msgs;
        return true;
      }
      on_unit_put(std::move(*p));
      return true;
    }
    case MsgType::kUnitGet: {
      auto g = decode<UnitGet>(m.bytes);
      if (!g) {
        ++stats_.bad_msgs;
        return true;
      }
      answer_get(std::move(*g));
      return true;
    }
    default:
      return false;
  }
}

void StripedStore::on_unit_put(UnitPut p) {
  UnitAck ack{p.id, p.key, p.unit, Status::kOk};
  auto& count = apply_counts_[p.id.packed()][p.unit];
  if (count > 0) {
    // Transport retry or repair re-write of a unit we already hold: re-ack
    // (the earlier ack may be what got lost) without re-applying.
    ++stats_.dup_unit_puts;
  } else {
    ++count;
    ++stats_.unit_puts;
    store_[p.key][p.unit] = UnitRecord{p.id, p.object_len, std::move(p.value)};
  }
  post_to(p.reply_to, encode(ack));
}

void StripedStore::apply_local(const UnitPut& p) {
  auto& count = apply_counts_[p.id.packed()][p.unit];
  if (count > 0) {
    ++stats_.dup_unit_puts;
    return;
  }
  ++count;
  ++stats_.unit_puts;
  store_[p.key][p.unit] = UnitRecord{p.id, p.object_len, p.value};
}

sim::Process StripedStore::answer_get(UnitGet g) {
  ++stats_.unit_gets;
  UnitReply rep;
  rep.id = g.id;
  rep.key = g.key;
  rep.unit = g.unit;
  rep.status = Status::kNotFound;
  const auto kit = store_.find(g.key);
  if (kit != store_.end()) {
    const auto uit = kit->second.find(g.unit);
    if (uit != kit->second.end()) {
      rep.status = Status::kOk;
      rep.writer = uit->second.writer;
      rep.object_len = uit->second.object_len;
      rep.value = uit->second.bytes;
    }
  }
  if (rep.status == Status::kNotFound) ++stats_.unit_not_found;
  co_await msgs_.post(net::HostId{g.reply_to}, encode(rep));
}

sim::Process StripedStore::post_to(std::uint32_t to,
                                   std::vector<std::uint8_t> bytes) {
  co_await msgs_.post(net::HostId{to}, std::move(bytes));
}

// --- StripedClient ----------------------------------------------------------

StripedClient::StripedClient(sim::Scheduler& sched, vmmc::MsgEndpoint& msgs,
                             const ec::StripeMap& map,
                             const ec::RsCodec& codec)
    : sched_(sched), msgs_(msgs), map_(map), codec_(codec) {
  obs::Registry& reg = obs::Registry::of(sched_);
  const std::string node = "{node=" + std::to_string(msgs_.host().v) + "}";
  put_latency_ = &reg.histogram("ec.striped_put_latency_ns" + node, "ns");
  get_latency_ = &reg.histogram("ec.striped_get_latency_ns" + node, "ns");
  reg.add_collector(this, [this, &reg, node] {
    const StripedClientStats& s = stats_;
    reg.counter("ec.striped_puts" + node, "calls").set(s.puts);
    reg.counter("ec.striped_puts_ok" + node, "calls").set(s.puts_ok);
    reg.counter("ec.striped_gets" + node, "calls").set(s.gets);
    reg.counter("ec.striped_gets_ok" + node, "calls").set(s.gets_ok);
    reg.counter("ec.degraded_reads" + node, "calls").set(s.degraded_reads);
    reg.counter("ec.striped_failed" + node, "calls").set(s.failed);
    reg.counter("ec.unit_posts" + node, "messages").set(s.unit_posts);
    reg.counter("ec.unit_timeouts" + node, "attempts").set(s.unit_timeouts);
    reg.counter("ec.dead_skips" + node, "attempts").set(s.dead_skips);
    reg.counter("ec.stale_replies" + node, "messages").set(s.stale_replies);
    reg.counter("ec.client_bad_msgs" + node, "messages").set(s.bad_msgs);
  });
}

StripedClient::~StripedClient() {
  if (auto* r = obs::Registry::find(sched_)) r->remove_collectors(this);
}

void StripedClient::start() {
  msgs_.add_tap([this](const vmmc::Msg& m) { return handle(m); });
}

bool StripedClient::handle(const vmmc::Msg& m) {
  const MsgType t = peek_type(m.bytes);
  if (t != MsgType::kUnitAck && t != MsgType::kUnitReply) return false;
  auto rep = decode_unit_reply(m.bytes);
  if (!rep) {
    ++stats_.bad_msgs;
    return true;
  }
  const UnitReplies::Delivery d = replies_.deliver(
      sched_, {rep->id.packed(), rep->unit}, std::move(*rep));
  if (d != UnitReplies::Delivery::kAccepted) ++stats_.stale_replies;
  return true;
}

net::HostId StripedClient::holder_of(std::size_t group, std::size_t unit) {
  return map_.resolve(group, dead_)[unit];
}

sim::Task<StripedOutcome> StripedClient::put(RequestId id, std::uint64_t key,
                                             std::vector<std::uint8_t> value) {
  ++stats_.puts;
  StripedOutcome o;
  o.id = id;
  o.issued_at = sched_.now();

  auto units = codec_.split(value);
  codec_.encode(units);
  const auto object_len = static_cast<std::uint32_t>(value.size());

  sim::WaitGroup wg;
  std::vector<char> oks(codec_.n(), 0);
  for (std::size_t u = 0; u < codec_.n(); ++u) {
    UnitPut p;
    p.id = id;
    p.key = key;
    p.unit = static_cast<std::uint8_t>(u);
    p.object_len = object_len;
    p.reply_to = host().v;
    p.value = std::move(units[u]);
    wg.add();
    put_unit(std::move(p), &oks[u], &wg);
  }
  co_await wg.wait(sched_);

  o.completed_at = sched_.now();
  const bool all =
      std::all_of(oks.begin(), oks.end(), [](char c) { return c != 0; });
  o.status = all ? Status::kOk : Status::kTimeout;
  if (all) {
    ++stats_.puts_ok;
    put_latency_->record(static_cast<std::uint64_t>(o.latency()));
  } else {
    ++stats_.failed;
  }
  co_return o;
}

sim::Process StripedClient::put_unit(UnitPut put, char* ok,
                                     sim::WaitGroup* wg) {
  UnitReplies::Slot ack(replies_, {put.id.packed(), put.unit});
  const std::size_t group = map_.group_of(put.key);
  const auto wire = encode(put);

  sim::Duration timeout = kFirstTimeout;
  net::HostId target = holder_of(group, put.unit);
  for (int attempt = 0; attempt < kPutMaxAttempts && !ack.answered();
       ++attempt) {
    const net::HostId now = holder_of(group, put.unit);
    if (now != target) {
      // The holder died and the map re-homed the unit; chase it.
      target = now;
      ++stats_.dead_skips;
    }
    ++stats_.unit_posts;
    co_await msgs_.post(target, wire);
    if (ack.answered()) break;
    co_await ack.wait_for(sched_, timeout);
    if (ack.answered()) break;
    ++stats_.unit_timeouts;
    timeout = next_timeout(timeout);
  }
  *ok = (ack.answered() && ack.reply().status == Status::kOk) ? 1 : 0;
  wg->done(sched_);
}

sim::Task<StripedOutcome> StripedClient::get(RequestId id, std::uint64_t key) {
  ++stats_.gets;
  StripedOutcome o;
  o.id = id;
  o.issued_at = sched_.now();

  const std::size_t group = map_.group_of(key);
  const std::size_t n = codec_.n();
  const std::size_t k = codec_.k();
  // Unit fetches run in a per-host fetch id space so replies can't collide
  // with other calls' units.
  const std::uint64_t fetch_client = 0xEC100000ull | host().v;

  for (int round = 0; round < kGetRounds; ++round) {
    std::vector<UnitReply> got(n);
    std::vector<bool> present(n, false);
    std::size_t found = 0;
    std::size_t not_found = 0;

    // Phase 1: the k data units — a clean read never touches parity.
    // Phase 2 (only if short): every remaining unit, reconstruct.
    for (int phase = 0; phase < 2 && found < k; ++phase) {
      const std::size_t lo = phase == 0 ? 0 : k;
      const std::size_t hi = phase == 0 ? k : n;
      sim::WaitGroup wg;
      // The slots outlive their fetch workers: a reply landing after its
      // worker gave up, while siblings are still fetching, still counts.
      std::vector<std::unique_ptr<UnitReplies::Slot>> fetched;
      for (std::size_t u = lo; u < hi; ++u) {
        UnitGet g;
        g.id = RequestId{fetch_client, ++fetch_seq_};
        g.key = key;
        g.unit = static_cast<std::uint8_t>(u);
        g.reply_to = host().v;
        fetched.push_back(std::make_unique<UnitReplies::Slot>(
            replies_, std::pair{g.id.packed(), g.unit}));
        wg.add();
        fetch_unit(group, std::move(g), fetched.back().get(), &wg);
      }
      co_await wg.wait(sched_);
      for (std::size_t i = 0; i < fetched.size(); ++i) {
        const std::size_t u = lo + i;
        if (!fetched[i]->answered()) continue;
        UnitReply& rep = fetched[i]->reply();
        if (rep.status == Status::kOk) {
          got[u] = std::move(rep);
          present[u] = true;
          ++found;
        } else if (rep.status == Status::kNotFound) {
          ++not_found;
        }
      }
    }

    if (found >= k) {
      std::vector<std::vector<std::uint8_t>> units(n);
      std::vector<bool> have(n, false);
      std::uint32_t object_len = 0;
      bool clean = true;
      for (std::size_t u = 0; u < n; ++u) {
        if (!present[u]) {
          if (u < k) clean = false;
          continue;
        }
        units[u] = std::move(got[u].value);
        have[u] = true;
        object_len = got[u].object_len;
      }
      if (!clean) {
        // Degraded: at least one data unit is missing; rebuild it from the
        // parity we fetched.
        if (!codec_.reconstruct(units, have)) {
          o.completed_at = sched_.now();
          o.status = Status::kTimeout;  // <k usable survivors; shouldn't happen
          ++stats_.failed;
          co_return o;
        }
        ++stats_.degraded_reads;
        o.degraded = true;
      }
      o.value = codec_.join(units, object_len);
      o.status = Status::kOk;
      o.completed_at = sched_.now();
      ++stats_.gets_ok;
      get_latency_->record(static_cast<std::uint64_t>(o.latency()));
      co_return o;
    }

    if (not_found == n) {
      // Every holder answered and none has a unit: the key was never
      // written (a committed outcome, like the primary-backup kNotFound).
      o.status = Status::kNotFound;
      o.completed_at = sched_.now();
      ++stats_.gets_ok;
      co_return o;
    }

    co_await sim::DelayFor{sched_, kFirstTimeout * (1u << round)};
  }

  o.completed_at = sched_.now();
  o.status = Status::kTimeout;
  ++stats_.failed;
  co_return o;
}

sim::Process StripedClient::fetch_unit(std::size_t group, UnitGet get,
                                       UnitReplies::Slot* reply,
                                       sim::WaitGroup* wg) {
  const auto wire = encode(get);
  sim::Duration timeout = kFirstTimeout;
  for (int attempt = 0; attempt < kGetAttempts && !reply->answered();
       ++attempt) {
    const net::HostId target = holder_of(group, get.unit);
    if (dead_ && dead_(target)) {
      // Map says the unit is currently homeless (no live spare, or the view
      // is mid-convergence). Don't post into a corpse; let the round's
      // backoff retry after the map settles.
      ++stats_.dead_skips;
      break;
    }
    ++stats_.unit_posts;
    co_await msgs_.post(target, wire);
    if (reply->answered()) break;
    co_await reply->wait_for(sched_, timeout);
    if (reply->answered()) break;
    ++stats_.unit_timeouts;
    timeout = next_timeout(timeout);
  }
  wg->done(sched_);
}

}  // namespace sanfault::kv
