#include "net/fabric.hpp"

#include <string>
#include <utility>

namespace sanfault::net {

Fabric::Fabric(sim::Scheduler& sched, Topology& topo, FabricConfig cfg)
    : sched_(sched), topo_(&topo), cfg_(cfg) {
  rx_.resize(topo.num_hosts());
  ensure_link_state();

  obs::Registry& reg = obs::Registry::of(sched_);
  trace_ = &reg.trace();
  reg.add_collector(this, [this, &reg] {
    const FabricStats& s = stats_;
    reg.counter("fabric.injected", "packets").set(s.injected);
    reg.counter("fabric.delivered", "packets").set(s.delivered);
    reg.counter("fabric.delivered_corrupt", "packets")
        .set(s.delivered_corrupt);
    reg.counter("fabric.corruptions_injected", "packets")
        .set(s.corruptions_injected);
    reg.counter("fabric.duplicates_injected", "packets")
        .set(s.duplicates_injected);
    reg.counter("fabric.reorders_injected", "packets")
        .set(s.reorders_injected);
    reg.counter("fabric.dropped_link_down", "packets")
        .set(s.dropped_link_down);
    reg.counter("fabric.dropped_switch_dead", "packets")
        .set(s.dropped_switch_dead);
    reg.counter("fabric.dropped_misroute", "packets")
        .set(s.dropped_misroute);
    reg.counter("fabric.dropped_random", "packets").set(s.dropped_random);
    reg.counter("fabric.dropped_path_reset", "packets")
        .set(s.dropped_path_reset);
    reg.counter("fabric.dropped_unattached", "packets")
        .set(s.dropped_unattached);
    reg.counter("fabric.fault_transitions", "events").set(fault_transitions_);
    // Per-link utilization: the FifoServer's exact busy-time accounting,
    // exported per direction so trunk asymmetries are visible.
    for (std::size_t l = 0; l < link_srv_.size(); ++l) {
      const std::string ab = "{link=" + std::to_string(l) + ",dir=ab}";
      const std::string ba = "{link=" + std::to_string(l) + ",dir=ba}";
      reg.counter("fabric.link_busy_ns" + ab, "ns")
          .set(static_cast<std::uint64_t>(link_srv_[l].ab.busy_time()));
      reg.counter("fabric.link_busy_ns" + ba, "ns")
          .set(static_cast<std::uint64_t>(link_srv_[l].ba.busy_time()));
      reg.counter("fabric.link_pkts" + ab, "packets")
          .set(link_srv_[l].ab.jobs_served());
      reg.counter("fabric.link_pkts" + ba, "packets")
          .set(link_srv_[l].ba.jobs_served());
    }
  });
}

Fabric::~Fabric() {
  if (auto* r = obs::Registry::find(sched_)) r->remove_collectors(this);
}

std::string_view fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kLinkDown: return "link_down";
    case FaultKind::kLinkUp: return "link_up";
    case FaultKind::kSwitchDown: return "switch_down";
    case FaultKind::kSwitchUp: return "switch_up";
    case FaultKind::kHostCut: return "host_cut";
    case FaultKind::kHostHeal: return "host_heal";
    case FaultKind::kFaultRates: return "fault_rates";
  }
  return "?";
}

void Fabric::notify_fault(const FaultEvent& ev) {
  ++fault_transitions_;
  if (fault_hook_) fault_hook_(ev);
}

void Fabric::fail_link(LinkId l) {
  topo_->set_link_up(l, false);
  notify_fault(FaultEvent{FaultKind::kLinkDown, l.v});
}

void Fabric::restore_link(LinkId l) {
  topo_->set_link_up(l, true);
  notify_fault(FaultEvent{FaultKind::kLinkUp, l.v});
}

void Fabric::fail_switch(SwitchId s) {
  topo_->set_switch_up(s, false);
  notify_fault(FaultEvent{FaultKind::kSwitchDown, s.v});
}

void Fabric::restore_switch(SwitchId s) {
  topo_->set_switch_up(s, true);
  notify_fault(FaultEvent{FaultKind::kSwitchUp, s.v});
}

void Fabric::cut_host(HostId h) {
  if (auto l = topo_->host_access_link(h)) topo_->set_link_up(*l, false);
  notify_fault(FaultEvent{FaultKind::kHostCut, h.v});
}

void Fabric::heal_host(HostId h) {
  if (auto l = topo_->host_access_link(h)) topo_->set_link_up(*l, true);
  notify_fault(FaultEvent{FaultKind::kHostHeal, h.v});
}

void Fabric::set_link_fault_rates(std::optional<LinkId> l, double loss,
                                  double corrupt) {
  ensure_link_state();
  const std::uint32_t first = l ? l->v : 0;
  const std::uint32_t last =
      l ? l->v + 1 : static_cast<std::uint32_t>(link_faults_.size());
  for (std::uint32_t i = first; i < last; ++i) {
    link_faults_[i].loss_prob = loss;
    link_faults_[i].corrupt_prob = corrupt;
  }
  notify_fault(
      FaultEvent{FaultKind::kFaultRates, l ? l->v : kAllLinks, loss, corrupt});
}

void Fabric::rewire() {
  wiring_ = topo_->wiring_version();
  while (link_srv_.size() < topo_->num_links()) {
    const auto l = static_cast<std::uint64_t>(link_srv_.size());
    link_srv_.emplace_back(sched_);
    link_faults_.emplace_back();
    // Stream seeds are a pure function of (experiment seed, link, direction),
    // so a link's streams do not depend on how many links exist.
    link_rng_.push_back(
        LinkRngs{sim::Rng(cfg_.seed ^ ((2 * l + 1) * 0x9e3779b97f4a7c15ull)),
                 sim::Rng(cfg_.seed ^ ((2 * l + 2) * 0x9e3779b97f4a7c15ull))});
  }
  if (rx_.size() < topo_->num_hosts()) rx_.resize(topo_->num_hosts());

  const auto end_of = [this](Port p) {
    PortEnd e;
    if (const auto att = topo_->peer_of(p)) {
      e.link = att->link.v;
      e.fwd = topo_->link_ends(att->link).first == p;
      e.peer = att->peer.dev;
      e.peer_port = att->peer.port;
    }
    return e;
  };
  ports_.clear();
  switch_base_.clear();
  for (std::uint32_t h = 0; h < topo_->num_hosts(); ++h) {
    ports_.push_back(end_of(Port{Device::host(HostId{h}), 0}));
  }
  for (std::uint32_t s = 0; s < topo_->num_switches(); ++s) {
    switch_base_.push_back(static_cast<std::uint32_t>(ports_.size()));
    const SwitchId sw{s};
    for (std::uint8_t p = 0; p < topo_->switch_ports(sw); ++p) {
      ports_.push_back(end_of(Port{Device::sw(sw), p}));
    }
  }
}

void Fabric::attach(HostId h, RxHandler rx) {
  ensure_link_state();
  rx_.at(h.v) = std::move(rx);
}

sim::Duration Fabric::ser_time(const Packet& pkt, LinkId l) const {
  return sim::transfer_time(pkt.wire_bytes(),
                            topo_->link_model(l).bandwidth_bps);
}

void Fabric::drop(Parked h, DropReason reason) {
  const Packet pkt = in_flight_.take(h);
  switch (reason) {
    case DropReason::kLinkDown: ++stats_.dropped_link_down; break;
    case DropReason::kSwitchDead: ++stats_.dropped_switch_dead; break;
    case DropReason::kMisroute: ++stats_.dropped_misroute; break;
    case DropReason::kRandomLoss: ++stats_.dropped_random; break;
    case DropReason::kPathReset: ++stats_.dropped_path_reset; break;
    case DropReason::kNotAttached: ++stats_.dropped_unattached; break;
  }
  if (trace_->enabled()) {
    trace_->emit(obs::TraceEvent{
        sched_.now(), pkt.hdr.src.v, pkt.hdr.dst.v, pkt.hdr.seq,
        static_cast<std::uint32_t>(reason), pkt.hdr.generation, 0,
        obs::TraceKind::kFabricDrop});
  }
  if (drop_hook_) drop_hook_(pkt, reason);
}

void Fabric::arrive(Parked h, HostId dst, std::size_t route_idx) {
  if (route_idx != in_flight_[h].hdr.route.ports.size()) {
    drop(h, DropReason::kMisroute);
    return;
  }
  if (dst.v >= rx_.size() || !rx_[dst.v]) {
    drop(h, DropReason::kNotAttached);
    return;
  }
  Packet pkt = in_flight_.take(h);
  ++stats_.delivered;
  if (pkt.corrupt_marker) ++stats_.delivered_corrupt;
  if (delivery_hook_) delivery_hook_(pkt, dst);
  rx_[dst.v](std::move(pkt));
}

sim::Time Fabric::inject(HostId src, Packet pkt) {
  pkt.corrupt_marker = false;
  ++stats_.injected;
  last_departure_ = sched_.now();  // drops before the wire depart "now"
  step(in_flight_.put(std::move(pkt)), Device::host(src), 0);
  return last_departure_;
}

// Precondition: the head of the packet parked under `h` is at `at` and ready
// to leave it now. The packet stays parked until it is delivered or dropped;
// a reference into in_flight_ dies at the next put, so none is held across
// one.
void Fabric::step(Parked h, Device at, std::size_t route_idx) {
  ensure_link_state();
  const PortEnd* out;
  if (at.is_host()) {
    if (at.index >= topo_->num_hosts()) {
      drop(h, DropReason::kMisroute);
      return;
    }
    out = &ports_[at.index];
  } else {
    const SwitchId sw = at.as_switch();
    if (!topo_->switch_up(sw)) {
      drop(h, DropReason::kSwitchDead);
      return;
    }
    const PortList& route = in_flight_[h].hdr.route.ports;
    if (route_idx >= route.size()) {
      drop(h, DropReason::kMisroute);
      return;
    }
    const std::uint8_t p = route[route_idx++];
    if (p >= topo_->switch_ports(sw)) {
      drop(h, DropReason::kMisroute);
      return;
    }
    out = &ports_[switch_base_[sw.v] + p];
  }

  if (out->link == PortEnd::kUnwired) {
    drop(h, DropReason::kMisroute);
    return;
  }
  const LinkId l{out->link};
  if (!topo_->link_up(l)) {
    drop(h, DropReason::kLinkDown);
    return;
  }

  const LinkModel& model = topo_->link_model(l);
  sim::FifoServer& srv = out->fwd ? link_srv_[l.v].ab : link_srv_[l.v].ba;
  // Fault draws come from this direction's own stream, in traversal order —
  // independent of how unrelated events and other links' draws interleave.
  sim::Rng& rng = out->fwd ? link_rng_[l.v].ab : link_rng_[l.v].ba;
  const Device peer = out->peer;

  LinkFaults& lf = link_faults_[l.v];
  if (lf.blocked) {
    // Wormhole blocking: the packet head sits in the fabric until the
    // hardware deadlock timer fires and the path reset flushes it.
    sched_.after(cfg_.deadlock_timeout,
                 [this, h] { drop(h, DropReason::kPathReset); });
    return;
  }
  if (lf.loss_prob > 0.0 && rng.bernoulli(lf.loss_prob)) {
    drop(h, DropReason::kRandomLoss);
    return;
  }
  if (lf.corrupt_prob > 0.0 && rng.bernoulli(lf.corrupt_prob)) {
    Packet& pkt = in_flight_[h];
    if (!pkt.payload.empty()) {
      // Copy-on-write: payload buffers are shared between the wire copy and
      // the sender's retransmission queue, so corrupt a private copy.
      pkt.payload =
          pkt.payload.corrupted(rng.uniform(pkt.payload.size()), 0x5A);
    }
    // The marker is the receiving NIC's CRC verdict; it reads nothing else.
    // Any fault that changes a packet on the wire must set it. With no
    // payload it stands for a garbled header or route. A header the chaos
    // StateCorruptor garbles in a retransmission queue is different: it is
    // rewritten before injection, so that packet passes the check, as it
    // would pass a hardware CRC computed at injection.
    pkt.corrupt_marker = true;
    ++stats_.corruptions_injected;
  }

  // Duplication / reordering injection (property-test fault knobs). Guarded
  // on the probabilities so zero-prob links draw nothing — existing seeded
  // runs stay byte-identical.
  int copies = 1;
  if (lf.dup_prob > 0.0 && rng.bernoulli(lf.dup_prob)) {
    copies = 2;
    ++stats_.duplicates_injected;
  }
  sim::Duration reorder_extra = 0;
  if (lf.reorder_prob > 0.0 && rng.bernoulli(lf.reorder_prob)) {
    reorder_extra = lf.reorder_delay;
    ++stats_.reorders_injected;
  }

  for (int ci = 0; ci < copies; ++ci) {
    // The duplicate occupies the link for its own serialization slot and
    // then traverses independently (re-drawing downstream faults). Parking
    // it may move every parked packet, so the copy's reference is taken
    // after the put.
    const Parked ph = (ci + 1 < copies) ? in_flight_.put(in_flight_[h]) : h;
    Packet& p = in_flight_[ph];
    const sim::Duration ser = ser_time(p, l);
    const sim::Time completion = srv.submit(ser);  // tail leaves this link
    const sim::Time start = completion - ser;      // head entered the link
    if (at.is_host() && ci == 0) {
      last_departure_ = completion;  // send-DMA finish time
    }

    if (peer.is_host()) {
      // Tail arrival: last byte propagates `latency` after leaving the link.
      const sim::Time tail_arrival =
          sim::time_add(sim::time_add(completion, model.latency),
                        reorder_extra);
      sched_.at(tail_arrival, [this, ph, peer, route_idx] {
        arrive(ph, peer.as_host(), route_idx);
      });
    } else {
      // Head arrival at the next crossbar, plus its fall-through delay. Record
      // the port the packet enters through (see Packet::in_ports). The
      // enabled() guard keeps the per-hop cost of disabled tracing to one
      // predictable branch — this is the hottest emit site in the simulator.
      if (trace_->enabled()) {
        trace_->emit(obs::TraceEvent{
            sched_.now(), p.hdr.src.v, p.hdr.dst.v, p.hdr.seq,
            out->peer_port, p.hdr.generation,
            static_cast<std::uint16_t>(peer.as_switch().v),
            obs::TraceKind::kHopTraverse});
      }
      p.in_ports.push_back(out->peer_port);
      const sim::Time head_arrival =
          sim::time_add(sim::time_add(sim::time_add(start, model.latency),
                                      cfg_.switch_delay),
                        reorder_extra);
      sched_.at(head_arrival, [this, ph, peer, route_idx] {
        step(ph, peer, route_idx);
      });
    }
  }
}

}  // namespace sanfault::net
