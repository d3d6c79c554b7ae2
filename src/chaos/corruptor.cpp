#include "chaos/corruptor.hpp"

#include <sstream>
#include <vector>

#include "firmware/mapper_ondemand.hpp"
#include "firmware/reliability.hpp"

namespace sanfault::chaos {

namespace {

std::string route_str(const net::Route& r) {
  std::string out = "[";
  for (std::size_t i = 0; i < r.ports.size(); ++i) {
    if (i) out += ".";
    out += std::to_string(static_cast<unsigned>(r.ports[i]));
  }
  out += "]";
  return out;
}

}  // namespace

StateCorruptor::StateCorruptor(sim::Scheduler& sched, std::uint64_t seed)
    : rng_(seed) {
  auto& reg = obs::Registry::of(sched);
  applied_ctr_ = &reg.counter(
      "chaos.corruptions_applied", "events",
      "state corruptions that rewrote a live protocol field");
  noop_ctr_ = &reg.counter(
      "chaos.corruptions_noop", "events",
      "corrupt events that found nothing live to garble");
}

void StateCorruptor::bind(net::HostId host, firmware::ReliableFirmware* fw,
                          firmware::OnDemandMapper* mapper) {
  bound_[host.v] = Binding{fw, mapper};
}

std::uint32_t StateCorruptor::mutate_u32(CorruptMode mode, std::uint32_t v) {
  switch (mode) {
    case CorruptMode::kFlip:
      return v ^ (std::uint32_t{1} << rng_.uniform(32));
    case CorruptMode::kZero:
      return 0;
    case CorruptMode::kRand:
      return static_cast<std::uint32_t>(rng_.next());
  }
  return v;
}

std::uint16_t StateCorruptor::mutate_u16(CorruptMode mode, std::uint16_t v) {
  switch (mode) {
    case CorruptMode::kFlip:
      return static_cast<std::uint16_t>(v ^
                                        (std::uint16_t{1} << rng_.uniform(16)));
    case CorruptMode::kZero:
      return 0;
    case CorruptMode::kRand:
      return static_cast<std::uint16_t>(rng_.next());
  }
  return v;
}

bool StateCorruptor::mutate_route(CorruptMode mode, net::Route& route) {
  switch (mode) {
    case CorruptMode::kZero:
      if (route.ports.empty()) return false;
      route.ports.clear();
      return true;
    case CorruptMode::kFlip: {
      if (route.ports.empty()) return false;
      auto& byte = route.ports[rng_.uniform(route.ports.size())];
      byte = static_cast<std::uint8_t>(byte ^ (1u << rng_.uniform(8)));
      return true;
    }
    case CorruptMode::kRand: {
      if (route.ports.empty()) return false;
      for (auto& byte : route.ports) {
        byte = static_cast<std::uint8_t>(rng_.next());
      }
      return true;
    }
  }
  return false;
}

std::string StateCorruptor::apply(const ChaosEvent& ev) {
  std::ostringstream os;
  os << "corrupt host=" << ev.target
     << " state=" << corrupt_state_name(ev.state)
     << " mode=" << corrupt_mode_name(ev.mode);
  const auto noop = [&](std::string_view why) {
    ++noops_;
    noop_ctr_->inc();
    os << " noop=" << why;
    return os.str();
  };
  const auto done = [&]() {
    ++applied_;
    applied_ctr_->inc();
    return os.str();
  };

  const auto it = bound_.find(static_cast<std::uint32_t>(ev.target));
  if (it == bound_.end()) return noop("unbound_host");
  firmware::ReliableFirmware* fw = it->second.fw;
  firmware::OnDemandMapper* mapper = it->second.mapper;

  // Resolve peer=-1 to a live peer from the seeded stream; the draw happens
  // in event application order so it is schedule-independent.
  const auto pick_peer =
      [&](const std::vector<net::HostId>& live) -> std::int64_t {
    if (ev.peer >= 0) return ev.peer;
    if (live.empty()) return -1;
    return live[rng_.uniform(live.size())].v;
  };

  switch (ev.state) {
    case CorruptState::kSeq: {
      const std::int64_t p = pick_peer(fw->chaos_tx_peers());
      if (p < 0) return noop("no_tx_channels");
      auto* ch = fw->chaos_tx_channel(net::HostId{
          static_cast<std::uint32_t>(p)});
      if (ch == nullptr) return noop("no_tx_channel");
      const std::uint32_t before = ch->next_seq;
      ch->next_seq = mutate_u32(ev.mode, before);
      if (ch->next_seq == before) return noop("unchanged");
      os << " peer=" << p << " field=next_seq before=" << before
         << " after=" << ch->next_seq;
      return done();
    }
    case CorruptState::kAck: {
      const std::int64_t p = pick_peer(fw->chaos_rx_peers());
      if (p < 0) return noop("no_rx_channels");
      auto* ch = fw->chaos_rx_channel(net::HostId{
          static_cast<std::uint32_t>(p)});
      if (ch == nullptr) return noop("no_rx_channel");
      const std::uint32_t before = ch->expected_seq;
      ch->expected_seq = mutate_u32(ev.mode, before);
      if (ch->expected_seq == before) return noop("unchanged");
      os << " peer=" << p << " field=expected_seq before=" << before
         << " after=" << ch->expected_seq;
      return done();
    }
    case CorruptState::kGen: {
      // A generation lives on both sides of a pair; collect every live one
      // and draw which to garble (logged as tx_/rx_generation).
      struct Cand {
        bool tx;
        net::HostId h;
      };
      std::vector<Cand> cands;
      if (ev.peer >= 0) {
        const net::HostId p{static_cast<std::uint32_t>(ev.peer)};
        if (fw->chaos_tx_channel(p) != nullptr) cands.push_back({true, p});
        if (fw->chaos_rx_channel(p) != nullptr) cands.push_back({false, p});
      } else {
        for (net::HostId h : fw->chaos_tx_peers()) cands.push_back({true, h});
        for (net::HostId h : fw->chaos_rx_peers()) cands.push_back({false, h});
      }
      if (cands.empty()) return noop("no_channels");
      const Cand c = cands[rng_.uniform(cands.size())];
      std::uint16_t before = 0;
      std::uint16_t after = 0;
      if (c.tx) {
        auto* ch = fw->chaos_tx_channel(c.h);
        before = ch->generation;
        ch->generation = mutate_u16(ev.mode, before);
        after = ch->generation;
      } else {
        auto* ch = fw->chaos_rx_channel(c.h);
        before = ch->generation;
        ch->generation = mutate_u16(ev.mode, before);
        after = ch->generation;
      }
      if (after == before) return noop("unchanged");
      os << " peer=" << c.h.v
         << " field=" << (c.tx ? "tx_generation" : "rx_generation")
         << " before=" << before << " after=" << after;
      return done();
    }
    case CorruptState::kRetxQueue: {
      const std::int64_t p = pick_peer(fw->chaos_tx_peers());
      if (p < 0) return noop("no_tx_channels");
      auto* ch = fw->chaos_tx_channel(net::HostId{
          static_cast<std::uint32_t>(p)});
      if (ch == nullptr) return noop("no_tx_channel");
      if (ch->retrans_queue.empty()) return noop("empty_retx_queue");
      // Value corruption only: garble a queued header word, never delete the
      // entry — buffers are owned by the send pool and freed on ack.
      const std::size_t idx = rng_.uniform(ch->retrans_queue.size());
      auto& hdr = fw->chaos_queued(net::HostId{static_cast<std::uint32_t>(p)},
                                   idx)->pkt.hdr;
      if (rng_.uniform(2) == 0) {
        const std::uint32_t before = hdr.seq;
        hdr.seq = mutate_u32(ev.mode, before);
        if (hdr.seq == before) return noop("unchanged");
        os << " peer=" << p << " field=retx[" << idx
           << "].seq before=" << before << " after=" << hdr.seq;
      } else {
        const std::uint16_t before = hdr.generation;
        hdr.generation = mutate_u16(ev.mode, before);
        if (hdr.generation == before) return noop("unchanged");
        os << " peer=" << p << " field=retx[" << idx
           << "].gen before=" << before << " after=" << hdr.generation;
      }
      return done();
    }
    case CorruptState::kPathCache: {
      if (mapper == nullptr) return noop("no_mapper");
      std::int64_t p = ev.peer;
      if (p < 0) {
        const auto hosts = mapper->chaos_cached_hosts();
        if (hosts.empty()) return noop("empty_path_cache");
        p = hosts[rng_.uniform(hosts.size())].v;
      }
      const net::HostId dst{static_cast<std::uint32_t>(p)};
      net::Route* route = mapper->chaos_cached_route(dst);
      if (route == nullptr) return noop("not_cached");
      const std::string before = route_str(*route);
      if (!mutate_route(ev.mode, *route)) return noop("empty_route");
      // Keep the installed route-table entry consistent with the cache —
      // otherwise the cached copy is invalidated before it is ever served
      // again and the corruption is unobservable.
      if (fw->routes().contains(dst)) fw->routes().set(dst, *route);
      os << " peer=" << p << " field=path_cache before=" << before
         << " after=" << route_str(*route);
      return done();
    }
    case CorruptState::kBackupSlot: {
      if (mapper == nullptr) return noop("no_mapper");
      std::int64_t p = ev.peer;
      if (p < 0) {
        const auto hosts = mapper->chaos_cached_hosts();
        if (hosts.empty()) return noop("empty_path_cache");
        p = hosts[rng_.uniform(hosts.size())].v;
      }
      const net::HostId dst{static_cast<std::uint32_t>(p)};
      auto* slot = mapper->chaos_cached_backup(dst);
      if (slot == nullptr) return noop("not_cached");
      if (!slot->has_value()) return noop("no_backup");
      net::Route& route = (*slot)->route;
      const std::string before = route_str(route);
      if (!mutate_route(ev.mode, route)) return noop("empty_route");
      os << " peer=" << p << " field=backup_slot before=" << before
         << " after=" << route_str(route);
      return done();
    }
  }
  return noop("unknown_state");
}

}  // namespace sanfault::chaos
