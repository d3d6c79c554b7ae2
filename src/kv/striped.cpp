#include "kv/striped.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

namespace sanfault::kv {

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
                             const ec::RsCodec& codec, StripedClientConfig cfg)
    : sched_(sched), msgs_(msgs), map_(map), codec_(codec), cfg_(cfg) {
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
  switch (peek_type(m.bytes)) {
    case MsgType::kUnitAck: {
      auto a = decode<UnitAck>(m.bytes);
      if (!a) {
        ++stats_.bad_msgs;
        return true;
      }
      auto it = pending_.find(a->id.packed());
      if (it == pending_.end()) {
        ++stats_.stale_replies;
        return true;
      }
      auto uit = it->second.find(a->unit);
      if (uit == it->second.end() || uit->second->replied) {
        ++stats_.stale_replies;
        return true;
      }
      uit->second->replied = true;
      uit->second->status = a->status;
      uit->second->done.fire(sched_);
      return true;
    }
    case MsgType::kUnitReply: {
      auto rep = decode<UnitReply>(m.bytes);
      if (!rep) {
        ++stats_.bad_msgs;
        return true;
      }
      auto it = pending_.find(rep->id.packed());
      if (it == pending_.end()) {
        ++stats_.stale_replies;
        return true;
      }
      auto uit = it->second.find(rep->unit);
      if (uit == it->second.end() || uit->second->replied) {
        ++stats_.stale_replies;
        return true;
      }
      uit->second->replied = true;
      uit->second->status = rep->status;
      uit->second->reply = std::move(*rep);
      uit->second->done.fire(sched_);
      return true;
    }
    default:
      return false;
  }
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
  const std::uint64_t packed = id.packed();

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
    put_unit(packed, std::move(p), &oks[u], &wg);
  }
  co_await wg.wait(sched_);
  pending_.erase(packed);

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

sim::Process StripedClient::put_unit(std::uint64_t packed_id, UnitPut put,
                                     char* ok, sim::WaitGroup* wg) {
  PendingUnit pu;
  pending_[packed_id][put.unit] = &pu;
  const std::size_t group = map_.group_of(put.key);
  const auto wire = encode(put);

  sim::Duration timeout = cfg_.base_timeout;
  net::HostId target = holder_of(group, put.unit);
  for (int attempt = 0; attempt < cfg_.put_max_attempts && !pu.replied;
       ++attempt) {
    const net::HostId now = holder_of(group, put.unit);
    if (now != target) {
      // The holder died and the map re-homed the unit; chase it.
      target = now;
      ++stats_.dead_skips;
    }
    ++stats_.unit_posts;
    co_await msgs_.post(target, wire);
    if (pu.replied) break;
    co_await pu.done.wait_for(sched_, timeout);
    if (pu.replied) break;
    ++stats_.unit_timeouts;
    timeout = std::min(timeout * 2, cfg_.max_timeout);
  }
  *ok = (pu.replied && pu.status == Status::kOk) ? 1 : 0;
  // The put() parent erases the whole pending_[packed_id] entry after join;
  // deregister just this worker in case siblings are still in flight.
  auto it = pending_.find(packed_id);
  if (it != pending_.end()) it->second.erase(put.unit);
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

  for (int round = 0; round < cfg_.get_rounds; ++round) {
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
      std::vector<std::unique_ptr<PendingUnit>> pus;
      std::vector<std::uint64_t> fetch_ids;
      for (std::size_t u = lo; u < hi; ++u) {
        UnitGet g;
        g.id = RequestId{fetch_client, ++fetch_seq_};
        g.key = key;
        g.unit = static_cast<std::uint8_t>(u);
        g.reply_to = host().v;
        pus.push_back(std::make_unique<PendingUnit>());
        fetch_ids.push_back(g.id.packed());
        wg.add();
        fetch_unit(group, std::move(g), pus.back().get(), &wg);
      }
      co_await wg.wait(sched_);
      for (std::size_t i = 0; i < pus.size(); ++i) {
        pending_.erase(fetch_ids[i]);
        const std::size_t u = lo + i;
        if (pus[i]->replied && pus[i]->status == Status::kOk) {
          got[u] = std::move(pus[i]->reply);
          present[u] = true;
          ++found;
        } else if (pus[i]->replied && pus[i]->status == Status::kNotFound) {
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

    co_await sim::DelayFor{sched_, cfg_.base_timeout * (1u << round)};
  }

  o.completed_at = sched_.now();
  o.status = Status::kTimeout;
  ++stats_.failed;
  co_return o;
}

sim::Process StripedClient::fetch_unit(std::size_t group, UnitGet get,
                                       PendingUnit* pu, sim::WaitGroup* wg) {
  pending_[get.id.packed()][get.unit] = pu;
  const auto wire = encode(get);
  sim::Duration timeout = cfg_.base_timeout;
  for (int attempt = 0; attempt < cfg_.get_attempts && !pu->replied;
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
    if (pu->replied) break;
    co_await pu->done.wait_for(sched_, timeout);
    if (pu->replied) break;
    ++stats_.unit_timeouts;
    timeout = std::min(timeout * 2, cfg_.max_timeout);
  }
  wg->done(sched_);
}

}  // namespace sanfault::kv
