// ReliableFirmware: the paper's firmware-level retransmission protocol (§4.1)
// plus the hooks for on-demand re-mapping (§4.2).
//
// Protocol summary (all of it implemented here, on the simulated NIC):
//  * go-back-N with per-remote-node sequence numbers and retransmission
//    queues; buffers move between the global free queue, the wire, and the
//    per-node retransmission queue — no copies;
//  * a single periodic retransmission timer per NIC scans the non-empty
//    queues, in ascending peer id; a queue whose oldest packet has been
//    unacknowledged for one full interval is retransmitted in order;
//  * cumulative ACKs (one ACK frees every buffer up to its sequence number),
//    no NACKs, no receiver buffering: out-of-order packets are dropped;
//  * piggy-backed ACKs on reverse data traffic, explicit ACKs only when the
//    sender's feedback bit requests one (AckPolicy) or the receiver's
//    coalesce safety valve trips;
//  * a path with `fail_threshold_rounds` consecutive fruitless
//    retransmission rounds is declared permanently failed: with a mapper
//    attached the route is invalidated and re-discovered on demand, the
//    sequence space restarts as a new generation, and pending packets are
//    renumbered and resent; without a mapper the node is marked unreachable
//    and pending packets are dropped (§4.2).
//
// Error injection (§5.1.3): `drop_plan` reproduces the paper's methodology —
// every Nth data packet is moved to the retransmission queue without ever
// touching the wire.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "firmware/ack_policy.hpp"
#include "firmware/channel.hpp"
#include "firmware/mapper.hpp"
#include "firmware/route_table.hpp"
#include "nic/nic.hpp"
#include "obs/metrics.hpp"
#include "sim/rng.hpp"

namespace sanfault::firmware {

struct ReliabilityConfig {
  /// The retransmission timer interval (Table 1 sweeps 10 us .. 1 s).
  sim::Duration retrans_interval = sim::milliseconds(1);
  /// The paper's transient/permanent threshold: a path with no successful
  /// delivery for this long — and at least `fail_min_rounds` go-back-N
  /// rounds attempted — is declared permanently failed. The default is
  /// deliberately conservative: even a 30% transient loss rate with a 10 ms
  /// timer virtually never produces 8 fruitless rounds spanning 200 ms.
  sim::Duration fail_threshold = sim::milliseconds(200);
  std::uint32_t fail_min_rounds = 8;
  AckPolicyConfig ack;
  /// Paper §5.1.3: drop every Nth data packet on the send side, before wire
  /// injection (0 = no injected errors). The dropped packet sits in the
  /// retransmission queue until the timer recovers it. The first drop is
  /// exactly at the Nth injection; later gaps are jittered +-25% (seeded,
  /// deterministic) so the drop pattern cannot phase-lock with go-back-N
  /// rounds — a strictly periodic pattern can re-drop the same sequence
  /// number forever when the queue length is a multiple of N.
  std::uint64_t drop_interval = 0;
  std::uint64_t drop_seed = 0x5eedull;
  /// Ablation (the paper explicitly skipped bursty errors): each drop event
  /// discards this many consecutive data packets (1 = the paper's uniform
  /// scheme). The long-run drop *rate* stays drop_burst/drop_interval.
  std::uint32_t drop_burst = 1;
  /// Ablation: cap on packets re-sent per go-back-N round (0 = whole queue,
  /// the paper's scheme). 1 approximates stop-and-wait recovery; the paper
  /// attributes Figure 8's q128 collapse to the absence of selective
  /// retransmission, which this knob lets you quantify.
  std::uint32_t retransmit_window = 0;
};

struct ReliabilityStats {
  std::uint64_t data_tx = 0;             // first transmissions
  std::uint64_t retransmissions = 0;     // packets re-injected
  std::uint64_t retrans_rounds = 0;      // go-back-N rounds
  std::uint64_t injected_drops = 0;      // §5.1.3 simulated errors
  std::uint64_t data_rx_in_order = 0;
  std::uint64_t dup_drops = 0;
  std::uint64_t ooo_drops = 0;
  std::uint64_t stale_gen_drops = 0;
  std::uint64_t corrupt_drops = 0;
  std::uint64_t acks_explicit_tx = 0;
  std::uint64_t acks_rx = 0;
  std::uint64_t ack_advances = 0;        // cumulative ACKs that freed >=1 pkt
  std::uint64_t timer_fires = 0;
  std::uint64_t path_failures = 0;
  std::uint64_t remap_requests = 0;
  std::uint64_t generation_restarts = 0; // successful remaps (new seq space)
  std::uint64_t unreachable_drops = 0;   // packets discarded, no path
  std::uint64_t no_route_drops = 0;      // no route and no mapper attached
  std::uint64_t nic_resets = 0;          // chaos-injected firmware restarts
  std::uint64_t peer_exclusions = 0;     // membership-driven exclusions
  // Self-stabilization scrubber (docs/CHAOS.md "State corruption").
  std::uint64_t scrub_passes = 0;        // periodic/forced sanity passes
  std::uint64_t scrub_tx_repairs = 0;    // tx invariant violations repaired
  std::uint64_t scrub_rx_repairs = 0;    // rx invariant violations repaired
  std::uint64_t scrub_gen_adoptions = 0; // stale-run generation adoptions
  std::uint64_t scrub_bogus_acks = 0;    // acks beyond next_seq-1 rejected
  std::uint64_t scrub_resets = 0;        // strike-limit nic_reset escalations
  std::uint64_t misroute_drops = 0;      // data/ack landed on the wrong host
};

/// A protocol-level recovery transition, published synchronously to an
/// optional observer (ReliableFirmware::set_event_hook). The chaos layer's
/// RecoveryMonitor consumes these to measure remap convergence and to prove
/// sequence generations never regress; the packet-lifecycle trace ring
/// records the same transitions for offline debugging.
struct FwEvent {
  enum class Kind : std::uint8_t {
    kPathFail,    // path declared permanently failed
    kRemapStart,  // on-demand mapping requested
    kRemapDone,   // mapping finished (ok = route found)
    kGenRestart,  // sequence space restarted under generation `gen`
    kNicReset,    // firmware restarted; route cache lost
    kPeerExcluded,  // membership confirmed the peer dead; channel flushed
    kScrubRepair,   // state-sanity scrubber repaired corrupted channel state
  };
  Kind kind;
  net::HostId self;  // the NIC observing the transition
  net::HostId peer;  // the remote node of the affected channel
  std::uint16_t gen = 0;
  bool ok = false;         // kRemapDone only
  std::uint32_t pending = 0;  // queued packets affected, where meaningful
  /// kRemapStart/kRemapDone/kGenRestart: this remap was served by a
  /// proactive backup-path promotion (MapperIface::on_path_failure returned
  /// true) — no probe storm ran. RecoveryMonitor splits TTFR by this bit.
  bool promoted = false;
};

class ReliableFirmware final : public nic::FirmwareIface {
 public:
  explicit ReliableFirmware(nic::Nic& nic, ReliabilityConfig cfg = {});
  ~ReliableFirmware() override;

  [[nodiscard]] RouteTable& routes() { return routes_; }
  [[nodiscard]] const ReliabilityStats& stats() const { return stats_; }
  [[nodiscard]] const ReliabilityConfig& config() const { return cfg_; }

  void set_mapper(MapperIface* mapper) { mapper_ = mapper; }

  /// Observe recovery transitions (path failure, remap, generation restart).
  /// One hook per firmware; called synchronously at the transition instant.
  using EventHook = std::function<void(const FwEvent&)>;
  void set_event_hook(EventHook hook) { event_hook_ = std::move(hook); }

  /// Chaos primitive: model a firmware/NIC reset that loses the volatile
  /// route cache. Every known route is dropped and each channel with pending
  /// traffic immediately re-enters on-demand mapping (generation restart on
  /// success), so in-flight work survives the reset via the §4.2 machinery.
  /// Without a mapper the routes simply vanish; later sends are no-route
  /// drops, as a statically-mapped network would behave.
  void nic_reset();

  /// Proactive exclusion: cluster membership (SWIM, src/membership) has
  /// confirmed `peer` dead, typically well before this NIC's own no-progress
  /// threshold would fire. Invalidates the route and the mapper's cached
  /// path, drops pending traffic (freeing its send buffers) and marks the
  /// channel unreachable so nothing further is retried against the corpse.
  /// Idempotent: repeat calls — and calls racing the local failure detector —
  /// are no-ops once the channel is already down.
  void exclude_peer(net::HostId peer);

  /// Introspection for tests: sender/receiver channel state toward `h`.
  [[nodiscard]] const TxChannel* tx_channel(net::HostId h) const;
  [[nodiscard]] const RxChannel* rx_channel(net::HostId h) const;

  // --- chaos mutation API (src/chaos/corruptor.hpp) ------------------------
  // The ONLY sanctioned way to mutate live protocol state from outside the
  // protocol: the StateCorruptor uses these to model in-SRAM state corruption
  // (docs/CHAOS.md "State corruption"). They expose *existing* channels
  // mutably and never create state, so a corruption campaign cannot
  // accidentally widen the protocol's reachable-state space — it can only
  // garble what is genuinely live. Every mutation made through these is
  // logged in the chaos event log by the corruptor.
  [[nodiscard]] TxChannel* chaos_tx_channel(net::HostId h);
  [[nodiscard]] RxChannel* chaos_rx_channel(net::HostId h);
  /// Peers with live channel state, in ascending host id.
  [[nodiscard]] std::vector<net::HostId> chaos_tx_peers() const;
  [[nodiscard]] std::vector<net::HostId> chaos_rx_peers() const;

  // --- FirmwareIface -------------------------------------------------------
  void on_host_packet(nic::SendRequest req) override;
  void on_wire_packet(net::Packet pkt, bool crc_ok) override;
  [[nodiscard]] sim::Duration tx_cpu_cost(const nic::SendRequest&) const override;
  [[nodiscard]] sim::Duration rx_cpu_cost(const net::Packet&) const override;

 private:
  /// Per-peer state, one std::optional slot per HostId::v (host ids are
  /// dense). A slot comes alive on first use and stays alive; find() of a
  /// never-used id is nullptr. The deque keeps references to live slots
  /// valid while the table grows: a TxChannel& is held across calls into
  /// the mapper.
  template <class T>
  class PeerTable {
   public:
    T& operator[](net::HostId h) {
      if (T* t = find(h)) return *t;
      return emplace(h);
    }
    [[nodiscard]] T* find(net::HostId h) {
      return h.v < slots_.size() && slots_[h.v] ? &*slots_[h.v] : nullptr;
    }
    [[nodiscard]] const T* find(net::HostId h) const {
      return h.v < slots_.size() && slots_[h.v] ? &*slots_[h.v] : nullptr;
    }
    /// One past the highest id ever used: sweeps run over [0, extent()).
    [[nodiscard]] std::uint32_t extent() const {
      return static_cast<std::uint32_t>(slots_.size());
    }
    /// Live ids, ascending.
    [[nodiscard]] std::vector<net::HostId> ids() const {
      std::vector<net::HostId> out;
      for (std::uint32_t v = 0; v < extent(); ++v) {
        if (slots_[v]) out.push_back(net::HostId{v});
      }
      return out;
    }

   private:
    T& emplace(net::HostId h) {
      if (h.v >= slots_.size()) slots_.resize(h.v + 1);
      return slots_[h.v].emplace();
    }

    std::deque<std::optional<T>> slots_;
  };

  /// The busy set: the peers whose tx retransmission queue is non-empty, one
  /// bit per HostId::v, and their count. It changes only where a queue goes
  /// between empty and non-empty (on_host_packet's pushes and its no-mapper
  /// pop, process_ack's pops, drop_pending's clear), so the timer counts and
  /// scans the busy channels without visiting idle ones.
  class BusySet {
   public:
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};
    void set(net::HostId h, bool busy);
    [[nodiscard]] bool contains(net::HostId h) const {
      return h.v / 64 < words_.size() && (words_[h.v / 64] >> (h.v % 64) & 1);
    }
    [[nodiscard]] std::size_t size() const { return count_; }
    /// The smallest member >= `from`, or kNone.
    [[nodiscard]] std::uint32_t next(std::uint32_t from) const;

   private:
    std::vector<std::uint64_t> words_;
    std::size_t count_ = 0;
  };

  TxChannel& tx(net::HostId h) { return tx_[h]; }
  RxChannel& rx(net::HostId h) { return rx_[h]; }
  /// Visit the busy channels in ascending id, re-reading membership at each
  /// step: `f` may empty its own queue or fill a higher one, and the scan
  /// sees that as an in-order walk over every channel would.
  template <class F>
  void for_each_busy(F&& f) {
    for (std::uint32_t v = busy_.next(0); v != BusySet::kNone;
         v = busy_.next(v + 1)) {
      f(net::HostId{v}, *tx_.find(net::HostId{v}));
    }
  }

  void arm_timer();
  void on_timer();
  void retransmit_channel(net::HostId h, TxChannel& ch);
  /// Executes one queued retransmission on the control processor; looks the
  /// packet up by (generation, seq) since it may have been acked meanwhile.
  void retransmit_one(net::HostId h, std::uint16_t gen, std::uint32_t seq,
                      bool is_last);
  void process_ack(net::HostId from, std::uint32_t ack, std::uint16_t ack_gen);
  /// `reverse_hint`: route derived from the triggering packet's recorded
  /// trace, usable when no table route to `to` exists (symmetric fabric).
  void send_explicit_ack(net::HostId to,
                         std::optional<net::Route> reverse_hint = std::nullopt);
  void handle_data(net::Packet pkt);
  void declare_path_failure(net::HostId h, TxChannel& ch);
  void begin_remap(net::HostId h, TxChannel& ch);
  void finish_remap(net::HostId h, std::optional<net::Route> route);
  /// §4.2 generation restart toward `h`: bump the generation, renumber the
  /// pending queue from 1 onto `route` and resend it in order. Shared by a
  /// successful remap and the scrubber's repair.
  void restart_generation(net::HostId h, TxChannel& ch,
                          const net::Route& route);
  void drop_pending(net::HostId h, TxChannel& ch);
  /// One scrub pass over every live channel, idle ones included, run every
  /// kScrubEvery timer fires. Repairs are published as kScrubRepair events
  /// and counted in scrub_* stats. Throws std::logic_error if a tx channel's
  /// busy-set membership disagrees with its queue (a firmware bug, never a
  /// corruption: the corruptor never changes a queue's length).
  void scrub_pass();
  /// Repair a tx channel whose bounded-capacity invariants failed: forced
  /// generation restart (restart_generation on the current route) or,
  /// past the strike limit, a nic_reset escalation. Returns true when the
  /// repair escalated to nic_reset (the caller's channel iteration must
  /// stop — every channel was just re-entered into remapping).
  bool repair_tx(net::HostId h, TxChannel& ch);
  /// Send one queued packet to the wire (or count an injected drop).
  void put_on_wire(net::HostId h, QueuedPacket& qp, bool is_retransmit);
  /// §5.1.3 drop-plan decision for the next data injection.
  bool should_drop_now();

  /// Register this firmware's metrics + collector with the simulation's
  /// observability registry (src/obs); see docs/OBSERVABILITY.md.
  void register_metrics();
  /// Lifecycle trace event derived from a packet header. The enabled() check
  /// comes first so a disabled trace costs one predictable branch per emit
  /// site — the TraceEvent is never materialized (this is on the per-packet
  /// fast path: every data packet emits 2-3 of these).
  void trace_pkt(obs::TraceKind kind, const net::Packet& pkt,
                 std::uint32_t arg = 0) {
    if (!trace_->enabled()) return;
    trace_->emit(obs::TraceEvent{nic_.sched().now(), pkt.hdr.src.v,
                                 pkt.hdr.dst.v, pkt.hdr.seq, arg,
                                 pkt.hdr.generation,
                                 static_cast<std::uint16_t>(nic_.self().v),
                                 kind});
  }
  /// Lifecycle trace event for channel-level transitions (remap, timer...).
  void trace_ch(obs::TraceKind kind, net::HostId peer, std::uint32_t seq,
                std::uint16_t gen, std::uint32_t arg = 0);

  nic::Nic& nic_;
  ReliabilityConfig cfg_;
  AckPolicy policy_;
  RouteTable routes_;
  MapperIface* mapper_ = nullptr;
  EventHook event_hook_;
  // Every walk over these (timer scan, scrub, reset, chaos peer lists) runs
  // in ascending host id, so the simulation is deterministic.
  PeerTable<TxChannel> tx_;
  PeerTable<RxChannel> rx_;
  BusySet busy_;  // exactly the tx_ channels with a non-empty queue
  ReliabilityStats stats_;
  std::uint32_t scrub_countdown_ = 0;  // timer fires until the next scrub
  std::uint64_t next_drop_in_ = 0;  // §5.1.3 countdown to the next drop
  std::uint32_t burst_left_ = 0;    // remaining drops of the current burst
  sim::Rng drop_rng_;

  // Observability (src/obs): cached handles into the per-simulation registry.
  obs::Registry* obs_ = nullptr;
  obs::TraceRing* trace_ = nullptr;
  obs::Histogram* queue_depth_ = nullptr;  // retrans-queue depth at enqueue
  obs::Histogram* remap_latency_ = nullptr;  // request_route -> answer, ns
  obs::Gauge* free_bufs_ = nullptr;        // send-buffer feedback signal

  void publish(const FwEvent& ev) {
    if (event_hook_) event_hook_(ev);
  }
};

}  // namespace sanfault::firmware
