// Fabric: the dynamic transport over a Topology.
//
// Models Myrinet-style source-routed wormhole transport as virtual
// cut-through: a packet occupies each directed link for its serialization
// time (so contention on shared links is accounted exactly), while its head
// races ahead one hop per (link latency + switch fall-through). Total
// uncontended transfer time is therefore
//     sum_hops(latency + switch_delay) + serialization_once
// which is the wormhole pipeline formula.
//
// Failure surface (what §3.3 of the paper enumerates):
//  * hardware packet corruption  -> per-link corrupt probability; the
//    corrupted packet carries Packet::corrupt_marker, the receiving NIC's
//    CRC verdict
//  * hardware packet loss        -> per-link loss probability
//  * blocked path / deadlock     -> a Blocked link holds the packet for the
//    hardware deadlock-timeout, then the path reset drops it
//  * permanent failures          -> downed links / dead switches drop packets
// Send-side deterministic dropping (the paper's §5.1.3 error-injection
// methodology) lives in the firmware layer, not here.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>
#include <vector>

#include "net/packet.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/server.hpp"
#include "sim/slot_pool.hpp"
#include "sim/time.hpp"

namespace sanfault::net {

struct FabricConfig {
  /// Per-switch head fall-through latency (full crossbar).
  sim::Duration switch_delay = 300;
  /// Myrinet's user-configurable deadlock/blocked-path timer (62.5 ms - 4 s);
  /// a packet entering a Blocked link is dropped after this long.
  sim::Duration deadlock_timeout = sim::milliseconds(62);
  /// Seed for the fabric's fault RNG stream.
  std::uint64_t seed = 1;
};

/// Why a packet never reached its destination (for stats and tracing).
enum class DropReason : std::uint8_t {
  kLinkDown,
  kSwitchDead,
  kMisroute,       // fell off the fabric: bad port / route size mismatch
  kRandomLoss,     // transient hardware loss
  kPathReset,      // blocked path, dropped by the hardware deadlock timer
  kNotAttached,    // destination host has no receiver attached
};

struct FabricStats {
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t delivered_corrupt = 0;  // delivered with corrupt_marker set
  std::uint64_t corruptions_injected = 0;  // link fault flipped payload bits
  std::uint64_t duplicates_injected = 0;   // link fault cloned a traversal
  std::uint64_t reorders_injected = 0;     // link fault delayed a traversal
  std::uint64_t dropped_link_down = 0;
  std::uint64_t dropped_switch_dead = 0;
  std::uint64_t dropped_misroute = 0;
  std::uint64_t dropped_random = 0;
  std::uint64_t dropped_path_reset = 0;
  std::uint64_t dropped_unattached = 0;

  [[nodiscard]] std::uint64_t dropped_total() const {
    return dropped_link_down + dropped_switch_dead + dropped_misroute +
           dropped_random + dropped_path_reset + dropped_unattached;
  }
};

/// Transient fault knobs, per link. Probabilities are evaluated once per
/// packet per link traversal — and only when nonzero, so enabling a knob on
/// one link never perturbs the RNG sequence other links observe.
struct LinkFaults {
  double corrupt_prob = 0.0;
  double loss_prob = 0.0;
  /// Duplication: a second identical copy follows the first down this link
  /// and the two traverse the rest of the fabric independently (models
  /// retry-capable link layers re-sending an already-delivered frame).
  double dup_prob = 0.0;
  /// Reordering: this traversal's arrival is delayed by reorder_delay, so
  /// packets serialized behind it overtake it.
  double reorder_prob = 0.0;
  sim::Duration reorder_delay = sim::microseconds(10);
  bool blocked = false;  // wormhole-blocked (e.g. deadlocked path)
};

/// A fault-state transition applied through the fabric's fault API below.
/// The chaos campaign engine (src/chaos) drives these; observers (recovery
/// monitors, tests) subscribe via Fabric::set_fault_hook.
enum class FaultKind : std::uint8_t {
  kLinkDown,
  kLinkUp,
  kSwitchDown,
  kSwitchUp,
  kHostCut,    // host's access link downed (network partition of that host)
  kHostHeal,
  kFaultRates, // per-link loss/corrupt probabilities changed
};

[[nodiscard]] std::string_view fault_kind_name(FaultKind k);

/// FaultEvent::id value meaning "every link" for kFaultRates.
inline constexpr std::uint32_t kAllLinks = 0xffffffffu;

struct FaultEvent {
  FaultKind kind;
  std::uint32_t id = 0;    // link / switch / host index, per kind
  double loss = 0.0;       // kFaultRates only
  double corrupt = 0.0;    // kFaultRates only
};

class Fabric {
 public:
  using RxHandler = std::function<void(Packet&&)>;
  using DropHook = std::function<void(const Packet&, DropReason)>;

  Fabric(sim::Scheduler& sched, Topology& topo, FabricConfig cfg = {});
  ~Fabric();

  /// Register the receive handler for a host NIC. Called with fully-arrived
  /// packets (tail on the wire has arrived); CRC checking is the NIC's job.
  void attach(HostId h, RxHandler rx);

  /// Inject a packet from `src`'s NIC. The packet must carry its route.
  /// Injection clears corrupt_marker: the network send-DMA appends a CRC of
  /// the bytes it sends now, so only faults on the wire can fail the check.
  /// Returns the time the packet's tail leaves the first link — i.e. when
  /// the send DMA finishes, including queueing behind earlier injections.
  /// Protocols use this as the send timestamp so that retransmission timers
  /// self-clock to actual wire drainage (real MCPs block on the send DMA).
  /// Packets dropped before reaching the wire return now().
  sim::Time inject(HostId src, Packet pkt);

  /// Optional observer for every drop (tracing / tests).
  void set_drop_hook(DropHook hook) { drop_hook_ = std::move(hook); }

  /// Optional observer for every delivery, invoked just before the receive
  /// handler (tracing / tests).
  using DeliveryHook = std::function<void(const Packet&, HostId)>;
  void set_delivery_hook(DeliveryHook hook) { delivery_hook_ = std::move(hook); }

  [[nodiscard]] const FabricStats& stats() const { return stats_; }
  [[nodiscard]] Topology& topology() { return *topo_; }

  LinkFaults& link_faults(LinkId l) { return link_faults_[l.v]; }

  // --- fault surface -------------------------------------------------------
  // Coordinated fault-state mutations (the chaos campaign engine drives
  // them): each applies the change to the topology (or the per-link fault
  // knobs) and notifies the fault hook, so every observer sees the same
  // transition at the same simulated instant. Packets already in flight are
  // unaffected until they next touch the failed element — exactly how a
  // dying cable behaves.
  void set_fault_hook(std::function<void(const FaultEvent&)> hook) {
    fault_hook_ = std::move(hook);
  }
  void fail_link(LinkId l);
  void restore_link(LinkId l);
  /// A dead switch drops every packet that reaches it (all its routes die).
  void fail_switch(SwitchId s);
  void restore_switch(SwitchId s);
  /// Partition a host: down its single access link. heal_host reverses it.
  void cut_host(HostId h);
  void heal_host(HostId h);
  /// Set transient loss/corruption rates on one link, or on every link when
  /// `l` is nullopt (the error-rate-ramp primitive).
  void set_link_fault_rates(std::optional<LinkId> l, double loss,
                            double corrupt);
  /// Fault transitions applied through this API (not per-packet faults).
  [[nodiscard]] std::uint64_t fault_transitions() const {
    return fault_transitions_;
  }

  /// Occupancy server for one direction of a link (exposed for tests and
  /// utilization reporting). dir 0: a->b, dir 1: b->a.
  [[nodiscard]] const sim::FifoServer& link_server(LinkId l, int dir) const {
    return dir == 0 ? link_srv_[l.v].ab : link_srv_[l.v].ba;
  }

 private:
  struct LinkServers {
    sim::FifoServer ab;
    sim::FifoServer ba;
    explicit LinkServers(sim::Scheduler& s) : ab(s), ba(s) {}
  };

  void ensure_link_state();
  void notify_fault(const FaultEvent& ev);
  void step(Packet pkt, Device at, std::size_t route_idx);
  void drop(const Packet& pkt, DropReason reason);
  void deliver(Packet&& pkt, HostId dst);

  /// Returns the serialization duration of `pkt` on a link.
  [[nodiscard]] sim::Duration ser_time(const Packet& pkt, LinkId l) const;

  sim::Scheduler& sched_;
  Topology* topo_;
  FabricConfig cfg_;
  /// One fault-RNG stream per link *direction*, derived from (seed, link,
  /// dir). Draws on one link never perturb another link's sequence, nor the
  /// opposite direction's: a fault knob set on one link leaves every other
  /// link's drop and corruption pattern exactly as it was.
  struct LinkRngs {
    sim::Rng ab;
    sim::Rng ba;
  };
  std::vector<LinkRngs> link_rng_;
  std::vector<RxHandler> rx_;
  std::vector<LinkServers> link_srv_;
  std::vector<LinkFaults> link_faults_;
  FabricStats stats_;
  DropHook drop_hook_;
  DeliveryHook delivery_hook_;
  std::function<void(const FaultEvent&)> fault_hook_;
  std::uint64_t fault_transitions_ = 0;
  obs::TraceRing* trace_ = nullptr;  // packet-lifecycle hop/drop events
  /// Packets between hops: each hop, tail-arrival and path-reset event
  /// captures a handle into this pool instead of the packet, so its closure
  /// stays inside the scheduler's inline buffer.
  sim::SlotPool<Packet> in_flight_;
  /// Set by step() on the injection hop (hosts do not forward, so the first
  /// synchronous step call is the only host-originated one).
  sim::Time last_departure_ = 0;
};

}  // namespace sanfault::net
