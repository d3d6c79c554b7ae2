#include "firmware/reliability.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace sanfault::firmware {

using net::HostId;
using net::Packet;
using net::PacketType;

namespace {
// Self-stabilization scrubber (Dolev et al., docs/CHAOS.md).
/// Run a state sanity pass over every channel each kScrubEvery
/// retransmission-timer fires. The pass checks bounded-capacity invariants
/// (queue sequence numbers strictly consecutive, queue generation uniform,
/// next_seq anchored at back()+1 and never 0) and repairs violations with a
/// forced generation restart (the §4.2 renumber-and-resend machinery).
constexpr std::uint32_t kScrubEvery = 4;
/// Receiver-side generation wraparound handling: after this many
/// consecutive stale-generation drops with no accepted packet, adopt the
/// incoming packet's generation (a corrupted local generation running
/// "ahead" of the sender is otherwise indistinguishable from stale wire
/// traffic and would deadlock the channel for up to 2^15 restarts).
constexpr std::uint32_t kScrubStaleAdoptThreshold = 64;
/// After this many consecutive dirty scrub passes on one channel the
/// scrubber concludes local repair is not converging and escalates to
/// nic_reset (last resort).
constexpr std::uint32_t kScrubStrikeLimit = 3;
}  // namespace

ReliableFirmware::ReliableFirmware(nic::Nic& nic, ReliabilityConfig cfg)
    : nic_(nic),
      cfg_(cfg),
      policy_(cfg.ack),
      slab_(nic.send_pool().capacity()),
      next_drop_in_(cfg.drop_interval),
      drop_rng_(cfg.drop_seed ^ (nic.self().v * 0x9e3779b97f4a7c15ull)) {
  nic_.load_firmware(this);
  register_metrics();
  arm_timer();
}

ReliableFirmware::~ReliableFirmware() {
  if (auto* r = obs::Registry::find(nic_.sched())) r->remove_collectors(this);
}

void ReliableFirmware::register_metrics() {
  obs_ = &obs::Registry::of(nic_.sched());
  trace_ = &obs_->trace();
  const std::string node = "{node=" + std::to_string(nic_.self().v) + "}";
  queue_depth_ = &obs_->histogram("firmware.retrans_queue_depth" + node,
                                  "packets");
  remap_latency_ = &obs_->histogram("firmware.remap_latency_ns" + node, "ns");
  free_bufs_ = &obs_->gauge("firmware.send_buffers_free" + node, "buffers");
  // Counters mirror ReliabilityStats via a pull-collector: the protocol fast
  // path keeps its plain struct increments, the registry syncs before every
  // export (and one final time from the destructor).
  obs_->add_collector(this, [this, node] {
    obs::Registry& r = *obs_;
    const ReliabilityStats& s = stats_;
    r.counter("firmware.data_tx" + node, "packets").set(s.data_tx);
    r.counter("firmware.retransmissions" + node, "packets")
        .set(s.retransmissions);
    r.counter("firmware.retrans_rounds" + node, "rounds")
        .set(s.retrans_rounds);
    r.counter("firmware.injected_drops" + node, "packets")
        .set(s.injected_drops);
    r.counter("firmware.data_rx_in_order" + node, "packets")
        .set(s.data_rx_in_order);
    r.counter("firmware.dup_drops" + node, "packets").set(s.dup_drops);
    r.counter("firmware.ooo_drops" + node, "packets").set(s.ooo_drops);
    r.counter("firmware.stale_gen_drops" + node, "packets")
        .set(s.stale_gen_drops);
    r.counter("firmware.corrupt_drops" + node, "packets")
        .set(s.corrupt_drops);
    r.counter("firmware.acks_explicit_tx" + node, "packets")
        .set(s.acks_explicit_tx);
    r.counter("firmware.acks_rx" + node, "packets").set(s.acks_rx);
    r.counter("firmware.ack_advances" + node, "acks").set(s.ack_advances);
    r.counter("firmware.timer_fires" + node, "fires").set(s.timer_fires);
    r.counter("firmware.path_failures" + node, "paths").set(s.path_failures);
    r.counter("firmware.remap_requests" + node, "requests")
        .set(s.remap_requests);
    r.counter("firmware.generation_restarts" + node, "restarts")
        .set(s.generation_restarts);
    r.counter("firmware.unreachable_drops" + node, "packets")
        .set(s.unreachable_drops);
    r.counter("firmware.no_route_drops" + node, "packets")
        .set(s.no_route_drops);
    r.counter("firmware.nic_resets" + node, "resets").set(s.nic_resets);
    r.counter("firmware.peer_exclusions" + node, "peers")
        .set(s.peer_exclusions);
    r.counter("firmware.scrub_passes" + node, "passes").set(s.scrub_passes);
    r.counter("firmware.scrub_tx_repairs" + node, "repairs")
        .set(s.scrub_tx_repairs);
    r.counter("firmware.scrub_rx_repairs" + node, "repairs")
        .set(s.scrub_rx_repairs);
    r.counter("firmware.scrub_gen_adoptions" + node, "adoptions")
        .set(s.scrub_gen_adoptions);
    r.counter("firmware.scrub_bogus_acks" + node, "acks")
        .set(s.scrub_bogus_acks);
    r.counter("firmware.scrub_resets" + node, "resets").set(s.scrub_resets);
    r.counter("firmware.misroute_drops" + node, "packets")
        .set(s.misroute_drops);
    free_bufs_->set(static_cast<std::int64_t>(nic_.send_pool().free_count()));
  });
}

void ReliableFirmware::trace_ch(obs::TraceKind kind, HostId peer,
                                std::uint32_t seq, std::uint16_t gen,
                                std::uint32_t arg) {
  if (!trace_->enabled()) return;
  trace_->emit(obs::TraceEvent{nic_.sched().now(), nic_.self().v, peer.v, seq,
                               arg, gen,
                               static_cast<std::uint16_t>(nic_.self().v),
                               kind});
}

bool ReliableFirmware::should_drop_now() {
  if (cfg_.drop_interval == 0) return false;
  if (burst_left_ > 0) {
    --burst_left_;
    ++stats_.injected_drops;
    return true;
  }
  if (--next_drop_in_ > 0) return false;
  // Re-arm with +-25% jitter, at least +-1 (see
  // ReliabilityConfig::drop_interval — with zero jitter a tiny interval can
  // phase-lock with a same-sized go-back-N round and starve one packet).
  const std::uint64_t n = cfg_.drop_interval;
  const std::uint64_t jit = n >= 2 ? std::max<std::uint64_t>(1, n / 4) : 0;
  next_drop_in_ = n - jit + (jit != 0 ? drop_rng_.uniform(2 * jit + 1) : 0);
  if (next_drop_in_ == 0) next_drop_in_ = 1;
  if (cfg_.drop_burst > 1) burst_left_ = cfg_.drop_burst - 1;
  ++stats_.injected_drops;
  return true;
}

const TxChannel* ReliableFirmware::tx_channel(HostId h) const {
  return tx_.find(h);
}

const RxChannel* ReliableFirmware::rx_channel(HostId h) const {
  return rx_.find(h);
}

void ReliableFirmware::BusySet::set(HostId h, bool busy) {
  if (h.v / 64 >= words_.size()) {
    if (!busy) return;
    words_.resize(h.v / 64 + 1);
  }
  std::uint64_t& w = words_[h.v / 64];
  const std::uint64_t bit = std::uint64_t{1} << (h.v % 64);
  if (((w & bit) != 0) == busy) return;
  w ^= bit;
  if (busy) {
    ++count_;
  } else {
    --count_;
  }
}

std::uint32_t ReliableFirmware::BusySet::next(std::uint32_t from) const {
  std::size_t i = from / 64;
  if (i >= words_.size()) return kNone;
  std::uint64_t w = words_[i] & (~std::uint64_t{0} << (from % 64));
  while (w == 0) {
    if (++i == words_.size()) return kNone;
    w = words_[i];
  }
  return static_cast<std::uint32_t>(i * 64 + std::countr_zero(w));
}

sim::Duration ReliableFirmware::tx_cpu_cost(const nic::SendRequest&) const {
  return nic_.costs().mcp_tx + nic_.costs().mcp_tx_reliable;
}

sim::Duration ReliableFirmware::rx_cpu_cost(const Packet& pkt) const {
  switch (pkt.hdr.type) {
    case PacketType::kAck:
      return nic_.costs().mcp_ack_process;
    case PacketType::kProbeHost:
    case PacketType::kProbeSwitch:
    case PacketType::kProbeReply:
      return nic_.costs().probe_process;
    default:
      return nic_.costs().mcp_rx + nic_.costs().mcp_rx_reliable;
  }
}

// ---------------------------------------------------------------------------
// Send path
// ---------------------------------------------------------------------------

void ReliableFirmware::on_host_packet(nic::SendRequest req) {
  const HostId dst = req.dst;
  TxChannel& ch = tx(dst);

  if (ch.unreachable) {
    if (mapper_ == nullptr) {
      ++stats_.unreachable_drops;
      nic_.release_send_buffers();
      return;
    }
    // A send to an unreachable node retries discovery: the node may have
    // been re-attached elsewhere (dynamic reconfiguration, §4.2).
    ch.unreachable = false;
  }

  // Build the packet. Sequence numbers are assigned here so retransmission
  // order equals submission order.
  Packet pkt;
  pkt.hdr.src = nic_.self();
  pkt.hdr.dst = dst;
  pkt.hdr.type = req.type;
  pkt.hdr.user = req.user;
  pkt.payload = std::move(req.payload);
  pkt.hdr.seq = ch.next_seq++;
  pkt.hdr.generation = ch.generation;

  // Piggy-back the cumulative ACK for the reverse direction on every data
  // packet (§4.1.2, first optimization).
  RxChannel& rxch = rx(dst);
  pkt.hdr.ack = rxch.expected_seq - 1;
  pkt.hdr.ack_gen = rxch.generation;
  pkt.hdr.flags |= net::kFlagPiggyAck;
  rxch.pending_unacked = 0;

  // Sender-based ACK-frequency feedback (§4.1.2, third optimization).
  if (policy_.should_request(nic_.send_pool().free_count(),
                             nic_.send_pool().capacity(),
                             ch.since_ack_request)) {
    pkt.hdr.flags |= net::kFlagAckRequest;
    ch.since_ack_request = 0;
  } else {
    ++ch.since_ack_request;
  }

  if (ch.retrans_queue.empty()) ch.last_progress = nic_.sched().now();

  // Self-stabilization guard (O(1), always on): the sequence counter must
  // continue the queue tail exactly. A corrupted next_seq caught here is
  // re-anchored before the new packet inherits the bogus number — a full
  // queue repair, if the queue itself is garbled, is the scrubber's job.
  if (!ch.retrans_queue.empty() &&
      pkt.hdr.seq != slab_.back(ch.retrans_queue).pkt.hdr.seq + 1) {
    ++stats_.scrub_tx_repairs;
    pkt.hdr.seq = slab_.back(ch.retrans_queue).pkt.hdr.seq + 1;
    ch.next_seq = pkt.hdr.seq + 1;
    publish(FwEvent{FwEvent::Kind::kScrubRepair, nic_.self(), dst,
                    ch.generation, false,
                    static_cast<std::uint32_t>(ch.retrans_queue.size())});
  }

  trace_pkt(obs::TraceKind::kHostEnqueue, pkt);

  const auto route = routes_.get(dst);
  if (!route) {
    if (mapper_ == nullptr) {
      // Without a mapper this is a hard error: drop and recycle. The depth
      // sample counts the packet as if it had been parked.
      queue_depth_->record(ch.retrans_queue.size() + 1);
      ++stats_.no_route_drops;
      nic_.release_send_buffers();
      return;
    }
    // No route known. Park the packet (it already owns its send buffer) and
    // discover one on demand.
    slab_.push_back(ch.retrans_queue, QueuedPacket{std::move(pkt), 0, false});
    busy_.set(dst, true);
    queue_depth_->record(ch.retrans_queue.size());
    begin_remap(dst, ch);
    return;
  }

  pkt.hdr.route = *route;
  QueuedPacket& qp =
      slab_.push_back(ch.retrans_queue, QueuedPacket{std::move(pkt), 0, false});
  busy_.set(dst, true);
  queue_depth_->record(ch.retrans_queue.size());
  ++stats_.data_tx;
  put_on_wire(dst, qp, /*is_retransmit=*/false);
}

void ReliableFirmware::put_on_wire(HostId /*h*/, QueuedPacket& qp,
                                   bool is_retransmit) {
  qp.sent_once = true;
  // §5.1.3 error injection: every ~Nth data packet is "inserted in the
  // retransmission queue without actually transmitting it onto the network".
  if (should_drop_now()) {
    qp.last_sent = nic_.sched().now();
    trace_pkt(obs::TraceKind::kInjectedDrop, qp.pkt);
    return;
  }
  if (is_retransmit) {
    ++stats_.retransmissions;
    trace_pkt(obs::TraceKind::kRetransmit, qp.pkt);
  } else {
    trace_pkt(obs::TraceKind::kWireInject, qp.pkt);
  }
  // Stamp with the send-DMA completion time: the retransmission timer then
  // measures "unacknowledged since it actually left", which self-clocks the
  // protocol to wire drainage under load.
  qp.last_sent = nic_.inject(qp.pkt);
}

// ---------------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------------

void ReliableFirmware::on_wire_packet(Packet pkt, bool crc_ok) {
  if (!crc_ok) {
    // Corrupt contents cannot be trusted — not even the ACK fields.
    ++stats_.corrupt_drops;
    trace_pkt(obs::TraceKind::kCorruptDrop, pkt);
    return;
  }
  // Misroute guard: a data or ACK packet whose destination field names some
  // other host reached us over a wrong route (a corrupted path-cache entry,
  // or a stale route racing a reconfiguration). Processing it would pollute
  // an innocent channel — worse, deliver payload to the wrong application.
  // Probes are exempt: the mapper's BFS *intends* to land on unknown hosts.
  if (pkt.hdr.dst != nic_.self() && (pkt.hdr.type == PacketType::kData ||
                                     pkt.hdr.type == PacketType::kControl ||
                                     pkt.hdr.type == PacketType::kAck)) {
    ++stats_.misroute_drops;
    trace_pkt(obs::TraceKind::kCorruptDrop, pkt);
    return;
  }
  switch (pkt.hdr.type) {
    case PacketType::kAck:
      ++stats_.acks_rx;
      process_ack(pkt.hdr.src, pkt.hdr.ack, pkt.hdr.ack_gen);
      return;
    case PacketType::kProbeHost:
    case PacketType::kProbeSwitch:
    case PacketType::kProbeReply:
      if (mapper_ != nullptr) mapper_->on_probe_packet(std::move(pkt));
      return;
    default:
      handle_data(std::move(pkt));
      return;
  }
}

void ReliableFirmware::handle_data(Packet pkt) {
  const HostId src = pkt.hdr.src;
  RxChannel& rxch = rx(src);

  if (pkt.hdr.generation != rxch.generation) {
    if (generation_newer(pkt.hdr.generation, rxch.generation)) {
      // The sender re-mapped and restarted its sequence space (§4.2).
      rxch.generation = pkt.hdr.generation;
      rxch.expected_seq = 1;
      rxch.pending_unacked = 0;
    } else if (++rxch.stale_run >= kScrubStaleAdoptThreshold) {
      // Generation wraparound handling (self-stabilization, docs/CHAOS.md):
      // a long unbroken run of "stale" traffic with zero acceptances means
      // OUR generation is the corrupt one — a real stale burst is finite
      // (bounded by the network's packet capacity) and interleaves with
      // current-generation traffic. Adopt the sender's generation and
      // resynchronize; any mismatch left over resolves through the sender's
      // own no-progress restart.
      ++stats_.scrub_gen_adoptions;
      rxch.generation = pkt.hdr.generation;
      rxch.expected_seq = 1;
      rxch.pending_unacked = 0;
      rxch.stale_run = 0;
      publish(FwEvent{FwEvent::Kind::kScrubRepair, nic_.self(), src,
                      rxch.generation, false, 0});
    } else {
      ++stats_.stale_gen_drops;
      trace_pkt(obs::TraceKind::kStaleGenDrop, pkt);
      return;
    }
  }
  rxch.stale_run = 0;

  if (pkt.hdr.flags & net::kFlagPiggyAck) {
    process_ack(src, pkt.hdr.ack, pkt.hdr.ack_gen);
  }

  const bool ack_requested = (pkt.hdr.flags & net::kFlagAckRequest) != 0;
  // ACKs can always be routed along the reverse of the path the data packet
  // just took (links are full duplex), even before any route to `src` has
  // been mapped — the same mechanism probe replies use.
  net::Route back;
  back.ports.assign(pkt.in_ports.rbegin(), pkt.in_ports.rend());

  if (pkt.hdr.seq == rxch.expected_seq) {
    ++rxch.expected_seq;
    ++rxch.pending_unacked;
    ++stats_.data_rx_in_order;
    trace_pkt(obs::TraceKind::kDeliver, pkt);
    const bool force_ack =
        rxch.pending_unacked >= policy_.config().receiver_coalesce_max;
    nic_.deliver_to_host(std::move(pkt));
    if (ack_requested || force_ack) send_explicit_ack(src, std::move(back));
  } else if (pkt.hdr.seq < rxch.expected_seq) {
    // Duplicate (our ACK was probably lost). Re-ACK when asked so the
    // sender stops retransmitting.
    ++stats_.dup_drops;
    trace_pkt(obs::TraceKind::kDupDrop, pkt, rxch.expected_seq);
    if (ack_requested) send_explicit_ack(src, std::move(back));
  } else {
    // Gap: go-back-N receivers drop everything until the expected sequence
    // number arrives (a simple dequeue, no buffering).
    ++stats_.ooo_drops;
    trace_pkt(obs::TraceKind::kOooDrop, pkt, rxch.expected_seq);
    if (ack_requested) send_explicit_ack(src, std::move(back));
  }
}

void ReliableFirmware::process_ack(HostId from, std::uint32_t ack,
                                   std::uint16_t ack_gen) {
  TxChannel& ch = tx(from);
  if (ack_gen != ch.generation) return;  // stale generation
  // Bounded-capacity guard (self-stabilization, docs/CHAOS.md): a cumulative
  // ACK can never exceed the highest sequence number ever sent, next_seq-1.
  // One that does means sender or receiver state is corrupt; honoring it
  // would silently free — i.e. permanently lose — undelivered messages. The
  // channel stalls instead, and the no-progress restart resynchronizes.
  if (ack >= ch.next_seq) {
    ++stats_.scrub_bogus_acks;
    return;
  }
  std::size_t freed = 0;
  RetransQueue& q = ch.retrans_queue;
  // Pop only a prefix that is strictly consecutive, nonzero, and ends
  // EXACTLY at `ack`. A legitimate cumulative ACK always acknowledges the
  // head of the unacknowledged window, so the freed run must land on the
  // ACK value precisely; any shortfall or gap means a queue entry's header
  // seq was corrupted, and honoring the ACK would free — i.e. permanently
  // lose — a message that was never delivered. Free nothing and leave the
  // queue for the scrubber to renumber instead.
  std::size_t cover = 0;
  std::uint32_t run = 0;
  bool bogus = false;
  for (const QueuedPacket& qp : slab_.items(q)) {
    const std::uint32_t s = qp.pkt.hdr.seq;
    if (s > ack) break;  // scanned past the acknowledged window
    if (s == 0 || (run != 0 && s != run + 1)) {
      bogus = true;
      break;
    }
    run = s;
    ++cover;
  }
  if (bogus || (cover > 0 && run != ack)) {
    ++stats_.scrub_bogus_acks;
  } else {
    for (std::size_t i = 0; i < cover; ++i) slab_.pop_front(q);
    freed = cover;
    if (q.empty()) busy_.set(from, false);
  }
  if (freed > 0) {
    // One cumulative ACK frees a whole prefix — "a single operation".
    nic_.release_send_buffers(freed);
    ch.rounds_without_progress = 0;
    ch.last_progress = nic_.sched().now();
    ++stats_.ack_advances;
    trace_ch(obs::TraceKind::kAckRx, from, ack, ack_gen,
             static_cast<std::uint32_t>(freed));
  }
}

void ReliableFirmware::send_explicit_ack(HostId to,
                                         std::optional<net::Route> reverse_hint) {
  // Prefer the reverse of the path the triggering packet just took: it is
  // known-good as of right now, whereas the table route may be the very
  // path whose failure caused the sender to retransmit (links are full
  // duplex, so the reverse direction works iff the forward one did).
  auto route = std::move(reverse_hint);
  if (!route) route = routes_.get(to);
  if (!route) {
    // Needing to ACK *is* needing to communicate: trigger on-demand mapping
    // (§4.2) and send the ACK once a route home exists. Without a mapper the
    // peer's retransmission timer carries the cost until routes appear.
    if (mapper_ != nullptr) {
      rx(to).ack_owed = true;
      begin_remap(to, tx(to));
    }
    return;
  }
  nic_.cpu().submit(nic_.costs().mcp_ack_build, [this, to, route = *route] {
    RxChannel& rxch = rx(to);
    Packet a;
    a.hdr.src = nic_.self();
    a.hdr.dst = to;
    a.hdr.type = PacketType::kAck;
    a.hdr.ack = rxch.expected_seq - 1;
    a.hdr.ack_gen = rxch.generation;
    a.hdr.route = route;
    rxch.pending_unacked = 0;
    ++stats_.acks_explicit_tx;
    trace_ch(obs::TraceKind::kAckTx, to, a.hdr.ack, a.hdr.ack_gen);
    nic_.inject(std::move(a));
  });
}

// ---------------------------------------------------------------------------
// Retransmission timer (one per NIC, §4.1.1)
// ---------------------------------------------------------------------------

void ReliableFirmware::arm_timer() {
  nic_.sched().after(cfg_.retrans_interval, [this] { on_timer(); });
}

void ReliableFirmware::on_timer() {
  ++stats_.timer_fires;

  const std::size_t non_empty = busy_.size();
  // Idle scans are not lifecycle events; tracing them would flood the ring
  // on long runs (the timer never stops ticking).
  if (non_empty > 0) {
    trace_ch(obs::TraceKind::kTimerFire, nic_.self(), 0, 0,
             static_cast<std::uint32_t>(non_empty));
  }
  const sim::Duration scan_cost =
      nic_.costs().timer_scan_base +
      non_empty * nic_.costs().timer_scan_per_queue;

  nic_.cpu().submit(scan_cost, [this] {
    // Periodic state-sanity scrub (self-stabilization): piggy-backed on the
    // timer scan so it shares the control processor's serialization — the
    // pass never races packet processing, exactly like the real firmware's
    // single control loop.
    if (++scrub_countdown_ >= kScrubEvery) {
      scrub_countdown_ = 0;
      scrub_pass();
    }
    const sim::Time now = nic_.sched().now();
    for_each_busy([&](HostId h, TxChannel& ch) {
      if (ch.remap_in_flight || ch.unreachable) return;
      const QueuedPacket& oldest = slab_.front(ch.retrans_queue);
      if (!oldest.sent_once) return;  // parked awaiting a route
      // last_sent can be in the future (send-DMA completion time of a
      // packet still draining onto the wire): not timed out.
      if (oldest.last_sent >= now ||
          now - oldest.last_sent < cfg_.retrans_interval) {
        return;
      }

      if (ch.rounds_without_progress >= cfg_.fail_min_rounds &&
          now - ch.last_progress >= cfg_.fail_threshold) {
        declare_path_failure(h, ch);
      } else {
        retransmit_channel(h, ch);
      }
    });
    // Re-arm only now: the timer handler runs on the single control
    // processor, so an overloaded MCP stretches the effective timer period
    // instead of piling up unbounded retransmission work — as the real
    // firmware's one control loop does.
    arm_timer();
  });
}

void ReliableFirmware::retransmit_channel(HostId h, TxChannel& ch) {
  ++stats_.retrans_rounds;
  ++ch.rounds_without_progress;
  const sim::Time now = nic_.sched().now();
  std::size_t n = ch.retrans_queue.size();
  if (cfg_.retransmit_window != 0) {
    n = std::min<std::size_t>(n, cfg_.retransmit_window);
  }
  const std::uint16_t gen = ch.generation;
  std::size_t i = 0;
  for (QueuedPacket& qp : slab_.items(ch.retrans_queue)) {
    if (i == n) break;
    ++i;
    // Provisional stamp so the next scan does not double-fire this round;
    // the real send-DMA completion time replaces it at injection.
    qp.last_sent = now;
    const std::uint32_t seq = qp.pkt.hdr.seq;
    const bool is_last = (i == n);
    // Each retransmission is queue motion plus a send-DMA setup on the slow
    // control processor; the packet bytes are already in SRAM (no copy). The
    // packet is looked up by (generation, seq) at execution time — it may
    // have been cumulatively acknowledged (and freed) meanwhile.
    nic_.cpu().submit(nic_.costs().retransmit_per_packet,
                      [this, h, gen, seq, is_last] {
                        retransmit_one(h, gen, seq, is_last);
                      });
  }
}

void ReliableFirmware::retransmit_one(HostId h, std::uint16_t gen,
                                      std::uint32_t seq, bool is_last) {
  TxChannel& ch = tx(h);
  if (ch.generation != gen) return;  // re-mapped meanwhile
  for (QueuedPacket& qp : slab_.items(ch.retrans_queue)) {
    if (qp.pkt.hdr.seq != seq) continue;
    // Refresh the piggy-backed cumulative ACK to the current value.
    RxChannel& rxch = rx(h);
    qp.pkt.hdr.flags |= net::kFlagRetransmit | net::kFlagPiggyAck;
    qp.pkt.hdr.ack = rxch.expected_seq - 1;
    qp.pkt.hdr.ack_gen = rxch.generation;
    if (is_last) qp.pkt.hdr.flags |= net::kFlagAckRequest;  // resync promptly
    put_on_wire(h, qp, /*is_retransmit=*/true);
    return;
  }
  // Already acknowledged and freed: nothing to do.
}

// ---------------------------------------------------------------------------
// Permanent failures and on-demand re-mapping (§4.2)
// ---------------------------------------------------------------------------

void ReliableFirmware::declare_path_failure(HostId h, TxChannel& ch) {
  ++stats_.path_failures;
  trace_ch(obs::TraceKind::kPathFail, h, 0, ch.generation,
           static_cast<std::uint32_t>(ch.retrans_queue.size()));
  publish(FwEvent{FwEvent::Kind::kPathFail, nic_.self(), h, ch.generation,
                  false, static_cast<std::uint32_t>(ch.retrans_queue.size())});
  routes_.invalidate(h);
  if (mapper_ == nullptr) {
    ch.unreachable = true;
    drop_pending(h, ch);
    return;
  }
  // The mapper's cached path to h is the one that just failed; drop it so
  // the remap below re-probes instead of re-serving the dead route. A mapper
  // with proactive backups may promote the precomputed alternate instead
  // (returns true) — the remap below is then a one-step cache hit.
  ch.remap_promoted = mapper_->on_path_failure(h);
  begin_remap(h, ch);
}

void ReliableFirmware::begin_remap(HostId h, TxChannel& ch) {
  if (ch.remap_in_flight) return;
  ch.remap_in_flight = true;
  ch.remap_started = nic_.sched().now();
  ++stats_.remap_requests;
  trace_ch(obs::TraceKind::kRemapStart, h, 0, ch.generation);
  publish(FwEvent{FwEvent::Kind::kRemapStart, nic_.self(), h, ch.generation,
                  false, static_cast<std::uint32_t>(ch.retrans_queue.size()),
                  ch.remap_promoted});
  mapper_->request_route(h, [this, h](std::optional<net::Route> route) {
    finish_remap(h, std::move(route));
  });
}

void ReliableFirmware::finish_remap(HostId h, std::optional<net::Route> route) {
  TxChannel& ch = tx(h);
  ch.remap_in_flight = false;
  remap_latency_->record(nic_.sched().now() - ch.remap_started);
  trace_ch(obs::TraceKind::kRemapDone, h, 0, ch.generation,
           route.has_value() ? 1 : 0);
  publish(FwEvent{FwEvent::Kind::kRemapDone, nic_.self(), h, ch.generation,
                  route.has_value(),
                  static_cast<std::uint32_t>(ch.retrans_queue.size()),
                  ch.remap_promoted});
  if (!route) {
    // "If no alternative route to a node exists, the node is labeled as
    // unreachable and any pending packets are dropped."
    ch.remap_promoted = false;
    ch.unreachable = true;
    drop_pending(h, ch);
    return;
  }
  routes_.set(h, *route);
  restart_generation(h, ch, *route);

  // Pay any ACK debt toward this node now that we can reach it.
  RxChannel& rxch = rx(h);
  if (rxch.ack_owed) {
    rxch.ack_owed = false;
    send_explicit_ack(h);
  }
}

void ReliableFirmware::restart_generation(HostId h, TxChannel& ch,
                                          const net::Route& route) {
  // New generation: restart the sequence space and renumber everything that
  // is still pending, so stale packets in the network are recognizably old.
  ++ch.generation;
  std::uint32_t seq = 1;
  const RxChannel& rxch = rx(h);
  for (QueuedPacket& qp : slab_.items(ch.retrans_queue)) {
    qp.pkt.hdr.seq = seq++;
    qp.pkt.hdr.generation = ch.generation;
    qp.pkt.hdr.route = route;
    qp.pkt.hdr.ack = rxch.expected_seq - 1;
    qp.pkt.hdr.ack_gen = rxch.generation;
    qp.pkt.hdr.flags |= net::kFlagAckRequest;  // re-sync fast
  }
  ch.next_seq = seq;
  ch.rounds_without_progress = 0;
  ch.last_progress = nic_.sched().now();
  ++stats_.generation_restarts;
  trace_ch(obs::TraceKind::kGenRestart, h, ch.next_seq, ch.generation,
           static_cast<std::uint32_t>(ch.retrans_queue.size()));
  publish(FwEvent{FwEvent::Kind::kGenRestart, nic_.self(), h, ch.generation,
                  true, static_cast<std::uint32_t>(ch.retrans_queue.size()),
                  ch.remap_promoted});
  ch.remap_promoted = false;  // one remap consumed the promotion

  // Resume: send every pending packet in order on `route`.
  const std::uint16_t gen = ch.generation;
  const std::size_t n = ch.retrans_queue.size();
  std::size_t i = 0;
  for (QueuedPacket& qp : slab_.items(ch.retrans_queue)) {
    ++i;
    qp.last_sent = nic_.sched().now();
    qp.sent_once = true;
    ++stats_.data_tx;
    const std::uint32_t rseq = qp.pkt.hdr.seq;
    const bool is_last = (i == n);
    nic_.cpu().submit(nic_.costs().retransmit_per_packet,
                      [this, h, gen, rseq, is_last] {
                        retransmit_one(h, gen, rseq, is_last);
                      });
  }
}

void ReliableFirmware::nic_reset() {
  ++stats_.nic_resets;
  routes_.clear();
  publish(FwEvent{FwEvent::Kind::kNicReset, nic_.self(), nic_.self(), 0, false,
                  0});
  if (mapper_ == nullptr) return;
  // A firmware restart loses the mapper's volatile SRAM state too (path
  // cache, attach-port knowledge) — everything below rediscovers cold.
  mapper_->on_nic_reset();
  for_each_busy([&](HostId h, TxChannel& ch) {
    if (ch.unreachable) return;
    // Channels with work in flight rediscover their path immediately; the
    // resulting generation restart renumbers and resends the queue, so the
    // reset is invisible to the layers above (modulo latency).
    begin_remap(h, ch);
  });
}

void ReliableFirmware::exclude_peer(HostId peer) {
  TxChannel& ch = tx(peer);
  if (ch.unreachable) return;  // already down (local detector won the race)
  ++stats_.peer_exclusions;
  publish(FwEvent{FwEvent::Kind::kPeerExcluded, nic_.self(), peer,
                  ch.generation, false,
                  static_cast<std::uint32_t>(ch.retrans_queue.size())});
  routes_.invalidate(peer);
  // The *node* is dead, not just the path: the mapper drops both cache slots
  // (a backup route to a corpse must never be promoted).
  if (mapper_ != nullptr) mapper_->on_peer_dead(peer);
  ch.unreachable = true;
  ch.rounds_without_progress = 0;
  drop_pending(peer, ch);
}

// ---------------------------------------------------------------------------
// State-sanity scrubbing (self-stabilization, docs/CHAOS.md)
// ---------------------------------------------------------------------------

void ReliableFirmware::scrub_pass() {
  ++stats_.scrub_passes;
  // Every live channel, idle ones included: the corruptor can garble an idle
  // channel's next_seq, and the bounded-capacity invariants must hold on
  // every channel, not only on the busy ones.
  bool escalated = false;
  tx_.for_each([&](HostId h, TxChannel& ch) {
    if (busy_.contains(h) == ch.retrans_queue.empty()) {
      throw std::logic_error("ReliableFirmware: busy set disagrees with the "
                             "retransmission queue toward host " +
                             std::to_string(h.v));
    }
    if (ch.unreachable || ch.remap_in_flight) return true;
    // Bounded-capacity invariants of a healthy sender channel: sequence
    // numbers start at 1 (0 is unassignable), the retransmission queue is a
    // strictly consecutive run of the current generation, and next_seq
    // continues the queue tail.
    bool bad = ch.next_seq == 0;
    if (!bad && !ch.retrans_queue.empty()) {
      const RetransQueue& q = ch.retrans_queue;
      std::uint32_t expect = slab_.front(q).pkt.hdr.seq;
      if (expect == 0) bad = true;
      for (const QueuedPacket& qp : slab_.items(q)) {
        if (bad) break;
        if (qp.pkt.hdr.generation != ch.generation ||
            qp.pkt.hdr.seq != expect++) {
          bad = true;
        }
      }
      if (!bad && slab_.back(q).pkt.hdr.seq + 1 != ch.next_seq) bad = true;
    }
    if (!bad) {
      ch.scrub_strikes = 0;
      return true;
    }
    // A repair that escalated to nic_reset re-entered every channel into
    // remapping: stop the pass, rx side included.
    escalated = repair_tx(h, ch);
    return !escalated;
  });
  if (escalated) return;
  rx_.for_each([&](HostId h, RxChannel& rxch) {
    if (rxch.expected_seq == 0) {
      // expected_seq 0 makes every piggy-backed ack underflow to 2^32-1
      // (which the peer's bogus-ack guard rejects, stalling the reverse
      // direction). Re-anchor at 1; the sender's generation restart
      // resynchronizes whatever the true position was.
      ++stats_.scrub_rx_repairs;
      rxch.expected_seq = 1;
      rxch.pending_unacked = 0;
      publish(FwEvent{FwEvent::Kind::kScrubRepair, nic_.self(), h,
                      rxch.generation, false, 0});
    }
    return true;
  });
}

bool ReliableFirmware::repair_tx(HostId h, TxChannel& ch) {
  ++stats_.scrub_tx_repairs;
  ++ch.scrub_strikes;
  trace_ch(obs::TraceKind::kPathFail, h, ch.next_seq, ch.generation,
           static_cast<std::uint32_t>(ch.retrans_queue.size()));
  publish(FwEvent{FwEvent::Kind::kScrubRepair, nic_.self(), h, ch.generation,
                  false, static_cast<std::uint32_t>(ch.retrans_queue.size())});
  if (ch.scrub_strikes >= kScrubStrikeLimit) {
    // Local repair is not converging (state is being re-corrupted faster
    // than the renumber machinery stabilizes it): last resort is a full
    // firmware restart, which rebuilds every channel through §4.2 remapping.
    ch.scrub_strikes = 0;
    ++stats_.scrub_resets;
    nic_reset();
    return true;
  }
  const auto route = routes_.get(h);
  if (!route) {
    // No route to resend over: let the remap machinery do the restart (its
    // finish_remap renumbers the queue exactly like the repair below).
    if (mapper_ != nullptr) {
      begin_remap(h, ch);
    } else {
      ch.unreachable = true;
      drop_pending(h, ch);
    }
    return false;
  }
  // Forced generation restart on the current route: corrupted headers (seq,
  // generation, stale piggy-ack fields) are all rewritten, so a single pass
  // repairs any combination of queue-entry corruption.
  restart_generation(h, ch, *route);
  return false;
}

TxChannel* ReliableFirmware::chaos_tx_channel(HostId h) { return tx_.find(h); }

RxChannel* ReliableFirmware::chaos_rx_channel(HostId h) { return rx_.find(h); }

QueuedPacket* ReliableFirmware::chaos_queued(HostId h, std::size_t i) {
  TxChannel* ch = tx_.find(h);
  if (ch == nullptr) return nullptr;
  for (QueuedPacket& qp : slab_.items(ch->retrans_queue)) {
    if (i-- == 0) return &qp;
  }
  return nullptr;
}

std::vector<HostId> ReliableFirmware::chaos_tx_peers() const {
  return tx_.ids();
}

std::vector<HostId> ReliableFirmware::chaos_rx_peers() const {
  return rx_.ids();
}

void ReliableFirmware::drop_pending(HostId h, TxChannel& ch) {
  const std::size_t n = ch.retrans_queue.size();
  if (n > 0) {
    stats_.unreachable_drops += n;
    slab_.clear(ch.retrans_queue);
    busy_.set(h, false);
    nic_.release_send_buffers(n);
  }
}

}  // namespace sanfault::firmware
