#include "membership/swim.hpp"

#include <algorithm>
#include <cassert>

#include "obs/metrics.hpp"
#include "sim/awaitables.hpp"
#include "vmmc/codec.hpp"

namespace sanfault::membership {

namespace {

// Gossip wire family. Leading type byte is disjoint from kv::MsgType (1..8)
// so both can share one MsgEndpoint ring via its pre-inbox taps. Layout,
// little-endian (vmmc/codec.hpp): type u8, nonce u64, target u32, count u8,
// then `count` updates of (member u32, state u8, incarnation u32).
constexpr std::uint8_t kPingByte = 0x21;
constexpr std::uint8_t kAckByte = 0x22;
constexpr std::uint8_t kPingReqByte = 0x23;

constexpr std::uint64_t kGossipTag = 0x5357494dull;  // "SWIM"

/// Most membership updates piggybacked on one gossip message.
constexpr std::size_t kMaxPiggyback = 8;
/// Each update is re-gossiped kDisseminationMult * ceil(log2(n)) times.
constexpr std::uint32_t kDisseminationMult = 3;

std::uint32_t ceil_log2(std::size_t n) {
  std::uint32_t b = 0;
  while ((std::size_t{1} << b) < n) ++b;
  return b;
}

}  // namespace

std::uint32_t SwimAgent::dissemination_rounds(std::size_t n) {
  return kDisseminationMult * std::max<std::uint32_t>(1, ceil_log2(std::max<std::size_t>(n, 2)));
}

sim::Duration SwimAgent::detection_bound(const SwimConfig& cfg, std::size_t n) {
  return cfg.suspect_timeout +
         cfg.protocol_period *
             static_cast<sim::Duration>(dissemination_rounds(n));
}

SwimAgent::SwimAgent(sim::Scheduler& sched, vmmc::MsgEndpoint& msgs,
                     const std::vector<net::HostId>& members, SwimConfig cfg)
    : sched_(sched),
      msgs_(msgs),
      cfg_(cfg),
      rng_(cfg.seed ^ (0x9e3779b97f4a7c15ull * (msgs.host().v + 1))) {
  for (const net::HostId h : members) {
    if (h == self()) continue;
    members_.emplace(h.v, Member{});
  }

  obs::Registry& reg = obs::Registry::of(sched_);
  const std::string node = "{node=" + std::to_string(self().v) + "}";
  reg.add_collector(this, [this, &reg, node] {
    const SwimStats& s = stats_;
    reg.counter("membership.probe_rounds" + node, "rounds")
        .set(s.probe_rounds);
    reg.counter("membership.pings_tx" + node, "messages").set(s.pings_tx);
    reg.counter("membership.acks_rx" + node, "messages").set(s.acks_rx);
    reg.counter("membership.probe_timeouts" + node, "rounds")
        .set(s.probe_timeouts);
    reg.counter("membership.ping_reqs_tx" + node, "messages")
        .set(s.ping_reqs_tx);
    reg.counter("membership.indirect_acks_relayed" + node, "messages")
        .set(s.indirect_acks_relayed);
    reg.counter("membership.suspects" + node, "transitions").set(s.suspects);
    reg.counter("membership.refutations" + node, "incarnations")
        .set(s.refutations);
    reg.counter("membership.confirms" + node, "members").set(s.confirms);
    reg.counter("membership.updates_rx" + node, "updates").set(s.updates_rx);
    reg.counter("membership.gossip_msgs_tx" + node, "messages")
        .set(s.gossip_msgs_tx);
    reg.counter("membership.gossip_bytes_tx" + node, "bytes")
        .set(s.gossip_bytes_tx);
  });
}

SwimAgent::~SwimAgent() {
  if (auto* r = obs::Registry::find(sched_)) r->remove_collectors(this);
}

void SwimAgent::start() {
  assert(!started_ && "SwimAgent::start() called twice");
  started_ = true;
  msgs_.add_tap([this](const vmmc::Msg& m) { return on_msg(m); });
  period_loop();
}

MemberState SwimAgent::state_of(net::HostId h) const {
  if (h == self()) return MemberState::kAlive;
  auto it = members_.find(h.v);
  return it == members_.end() ? MemberState::kAlive : it->second.state;
}

sim::Time SwimAgent::confirm_time(net::HostId h) const {
  auto it = members_.find(h.v);
  return it == members_.end() ? sim::kNever : it->second.confirmed_at;
}

void SwimAgent::logf(const std::string& line) {
  if (cfg_.log_events) {
    log_.push_back("t=" + std::to_string(sched_.now()) + " " + line);
  }
}

// --- gossip dissemination ---------------------------------------------------

void SwimAgent::enqueue_update(net::HostId h, MemberState st,
                               std::uint32_t inc) {
  gossip_[h.v] = GossipEntry{
      st, inc, dissemination_rounds(members_.size() + 1)};
}

std::vector<std::uint8_t> SwimAgent::encode_msg(std::uint8_t type,
                                                std::uint64_t nonce,
                                                net::HostId target,
                                                net::HostId dst) {
  // Select piggybacked updates: the entry about the destination always rides
  // (budget or not — it is how a suspect learns to refute); the rest go
  // freshest-budget-first, lowest member id breaking ties.
  std::vector<std::pair<std::uint32_t, GossipEntry*>> picked;
  if (auto it = gossip_.find(dst.v); it != gossip_.end()) {
    picked.emplace_back(it->first, &it->second);
  }
  std::vector<std::pair<std::uint32_t, GossipEntry*>> rest;
  for (auto& [hv, e] : gossip_) {
    if (hv == dst.v || e.sends_left == 0) continue;
    rest.emplace_back(hv, &e);
  }
  std::stable_sort(rest.begin(), rest.end(), [](const auto& a, const auto& b) {
    if (a.second->sends_left != b.second->sends_left) {
      return a.second->sends_left > b.second->sends_left;
    }
    return a.first < b.first;
  });
  for (auto& p : rest) {
    if (picked.size() >= kMaxPiggyback) break;
    picked.push_back(p);
  }

  vmmc::Writer w(14 + picked.size() * 9);
  w(type, nonce, target.v, static_cast<std::uint8_t>(picked.size()));
  for (auto& [hv, e] : picked) {
    w(hv, e->state, e->inc);
    if (e->sends_left > 0) --e->sends_left;
  }
  return w.take();
}

sim::Process SwimAgent::post_msg(net::HostId to,
                                 std::vector<std::uint8_t> bytes) {
  if (!msgs_.connected(to)) co_return;  // partial meshes: silently skip
  ++stats_.gossip_msgs_tx;
  stats_.gossip_bytes_tx += bytes.size();
  co_await msgs_.post(to, std::move(bytes), kGossipTag);
}

// --- state machine ----------------------------------------------------------

void SwimAgent::apply_update(net::HostId h, MemberState st,
                             std::uint32_t inc) {
  if (h == self()) {
    // Someone thinks we are suspect/dead. Refute suspicion by outbidding the
    // incarnation it was raised under. A dead verdict about ourselves is not
    // refutable (dead is terminal everywhere); survivors' views of us are
    // beyond repair at that point and rejoin is administrative.
    if (st == MemberState::kSuspect && inc >= my_inc_) {
      my_inc_ = inc + 1;
      ++stats_.refutations;
      logf("refute inc=" + std::to_string(my_inc_));
      enqueue_update(self(), MemberState::kAlive, my_inc_);
    }
    return;
  }
  auto it = members_.find(h.v);
  if (it == members_.end()) return;  // not a member we track
  Member& m = it->second;
  if (m.state == MemberState::kDead) return;  // terminal

  switch (st) {
    case MemberState::kDead:
      confirm_dead(h);
      return;
    case MemberState::kSuspect:
      if (inc > m.inc || (inc == m.inc && m.state == MemberState::kAlive)) {
        m.inc = inc;
        m.state = MemberState::kSuspect;
        if (!m.timer_armed) {
          m.timer_armed = true;
          m.suspect_timer = sched_.after(cfg_.suspect_timeout, [this, h] {
            Member& mm = members_[h.v];
            mm.timer_armed = false;
            if (mm.state == MemberState::kSuspect) confirm_dead(h);
          });
        }
        ++stats_.suspects;
        logf("suspect host=" + std::to_string(h.v) +
             " inc=" + std::to_string(inc));
        enqueue_update(h, MemberState::kSuspect, inc);
      }
      return;
    case MemberState::kAlive:
      if (inc > m.inc) {
        m.inc = inc;
        if (m.state == MemberState::kSuspect) {
          m.state = MemberState::kAlive;
          if (m.timer_armed) {
            sched_.cancel(m.suspect_timer);
            m.timer_armed = false;
          }
          logf("unsuspect host=" + std::to_string(h.v) +
               " inc=" + std::to_string(inc));
        }
        enqueue_update(h, MemberState::kAlive, inc);
      }
      return;
  }
}

void SwimAgent::locally_suspect(net::HostId h) {
  auto it = members_.find(h.v);
  if (it == members_.end() || it->second.state != MemberState::kAlive) return;
  apply_update(h, MemberState::kSuspect, it->second.inc);
}

void SwimAgent::confirm_dead(net::HostId h) {
  Member& m = members_[h.v];
  if (m.state == MemberState::kDead) return;
  if (m.timer_armed) {
    sched_.cancel(m.suspect_timer);
    m.timer_armed = false;
  }
  m.state = MemberState::kDead;
  m.confirmed_at = sched_.now();
  ++stats_.confirms;
  logf("confirm host=" + std::to_string(h.v));
  enqueue_update(h, MemberState::kDead, m.inc);
  for (const auto& hook : confirm_hooks_) hook(h, m.confirmed_at);
}

// --- probe loop -------------------------------------------------------------

bool SwimAgent::next_target(net::HostId* out) {
  // Shuffled round-robin over the non-dead members: every member is probed
  // exactly once per cycle, cycle order re-shuffled with the agent's own
  // seeded Rng (SWIM's bounded-staleness guarantee, deterministically).
  for (std::size_t attempts = 0; attempts < 2; ++attempts) {
    while (rotation_idx_ < rotation_.size()) {
      const net::HostId h = rotation_[rotation_idx_++];
      auto it = members_.find(h.v);
      if (it != members_.end() && it->second.state != MemberState::kDead) {
        *out = h;
        return true;
      }
    }
    rotation_.clear();
    rotation_idx_ = 0;
    for (const auto& [hv, m] : members_) {
      if (m.state != MemberState::kDead) rotation_.push_back(net::HostId{hv});
    }
    for (std::size_t i = rotation_.size(); i > 1; --i) {
      std::swap(rotation_[i - 1], rotation_[rng_.uniform(i)]);
    }
  }
  return false;  // everyone else is dead
}

sim::Process SwimAgent::period_loop() {
  // Stagger the first round by a per-host fraction of a period, so a large
  // cluster's probes spread over the period instead of bursting at t=0.
  co_await sim::DelayFor{
      sched_, cfg_.protocol_period +
                  (cfg_.protocol_period * static_cast<sim::Duration>(self().v % 61)) / 61};
  for (;;) {
    net::HostId target;
    if (next_target(&target)) probe_round(target);
    co_await sim::DelayFor{sched_, cfg_.protocol_period};
  }
}

sim::Process SwimAgent::probe_round(net::HostId target) {
  ++stats_.probe_rounds;
  bool acked = false;
  {
    const std::uint64_t nonce = next_nonce_++;
    const decltype(acks_)::Slot ack(acks_, nonce);
    ++stats_.pings_tx;
    post_msg(target, encode_msg(kPingByte, nonce, target, target));
    co_await sim::DelayFor{sched_, cfg_.probe_timeout};
    acked = ack.answered();
  }
  // The direct window is over; from here only the indirect phase (its own
  // nonce) can still clear the target. A direct ack limping in later is
  // ignored — the suspicion/refutation machinery is the recovery path for
  // genuinely slow members, and the k-indirect rescue stays observable.

  if (!acked) {
    ++stats_.probe_timeouts;
    const std::uint64_t inonce = next_nonce_++;
    const decltype(acks_)::Slot ack(acks_, inonce);
    // Indirect probes: ask k members (not self, not the target) to ping the
    // target and relay its ack under our nonce.
    std::vector<net::HostId> cands;
    for (const auto& [hv, m] : members_) {
      if (hv == target.v || m.state == MemberState::kDead) continue;
      cands.push_back(net::HostId{hv});
    }
    for (std::size_t k = 0; k < cfg_.k_indirect && !cands.empty(); ++k) {
      const std::size_t i = rng_.uniform(cands.size());
      const net::HostId helper = cands[i];
      cands[i] = cands.back();
      cands.pop_back();
      ++stats_.ping_reqs_tx;
      post_msg(helper, encode_msg(kPingReqByte, inonce, target, helper));
    }
    // Wait out the rest of the protocol period (minus slack so the verdict
    // lands before the next round begins).
    sim::Duration wait = cfg_.protocol_period - cfg_.probe_timeout;
    wait -= wait / 10;
    if (wait > 0) co_await sim::DelayFor{sched_, wait};
    acked = ack.answered();
  }

  if (!acked) locally_suspect(target);
}

void SwimAgent::send_ack(net::HostId to, std::uint64_t nonce) {
  ++stats_.acks_tx;
  post_msg(to, encode_msg(kAckByte, nonce, to, to));
}

sim::Process SwimAgent::delayed_ack(net::HostId to, std::uint64_t nonce) {
  co_await sim::DelayFor{sched_, cfg_.ack_delay};
  send_ack(to, nonce);
}

bool SwimAgent::on_msg(const vmmc::Msg& m) {
  vmmc::Reader r(m.bytes);
  std::uint8_t type = 0;
  r(type);
  if (type != kPingByte && type != kAckByte && type != kPingReqByte) {
    return false;  // not ours; falls through to the service inbox
  }
  std::uint64_t nonce = 0;
  net::HostId target;
  std::uint8_t n_updates = 0;
  r(nonce, target.v, n_updates);
  for (std::uint8_t i = 0; i < n_updates && r.ok(); ++i) {
    net::HostId h;
    MemberState st = MemberState::kAlive;
    std::uint32_t inc = 0;
    r(h.v, st, inc);
    if (!r.ok()) break;
    ++stats_.updates_rx;
    apply_update(h, st, inc);
  }
  if (!r.ok()) return true;  // claimed but malformed; drop

  switch (type) {
    case kPingByte:
      ++stats_.pings_rx;
      if (cfg_.ack_delay > 0) {
        delayed_ack(m.src, nonce);
      } else {
        send_ack(m.src, nonce);
      }
      break;
    case kAckByte: {
      ++stats_.acks_rx;
      if (acks_.deliver(sched_, nonce) != decltype(acks_)::Delivery::kUnknown) {
        break;  // our own round's ack (a repeat changes nothing)
      }
      if (auto rl = relays_.find(nonce); rl != relays_.end()) {
        // Ack for a ping we sent on someone else's behalf: relay it home
        // under the requester's nonce.
        ++stats_.indirect_acks_relayed;
        const Relay rel = rl->second;
        relays_.erase(rl);
        send_ack(rel.requester, rel.nonce);
      }
      break;
    }
    case kPingReqByte: {
      ++stats_.ping_reqs_rx;
      if (target == self()) {
        send_ack(m.src, nonce);  // degenerate: we are the target
        break;
      }
      const std::uint64_t relay_nonce = next_nonce_++;
      relays_[relay_nonce] = Relay{m.src, nonce};
      ++stats_.pings_tx;
      post_msg(target, encode_msg(kPingByte, relay_nonce, target, target));
      break;
    }
    default:
      break;
  }
  return true;
}

}  // namespace sanfault::membership
