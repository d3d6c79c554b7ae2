// SWIM-style gossip failure detector (Das/Gupta/Motivala, adapted to the
// simulated SAN), the cluster-level complement to the paper's per-NIC
// no-progress thresholds. DAOS runs the same split: SWIM detects, fault
// domains place, exclusion reacts (SNIPPETS.md §1).
//
// One SwimAgent per member host, riding the host's vmmc::MsgEndpoint as a
// sideband message family (a pre-inbox tap claims gossip messages by their
// leading type byte, so a KV server, its striped store and its membership
// agent share one ring). Every protocol period the agent:
//
//  * probes one member (shuffled round-robin, seeded Rng — deterministic);
//  * on direct-ack timeout, asks k other members to probe indirectly
//    (probe-req) and relay the ack — a slow-but-alive member rescued by any
//    relay is never suspected;
//  * with no ack by period end, marks the target *suspected* and gossips
//    that. A suspect that hears about itself refutes by bumping its
//    incarnation number and gossiping alive(inc+1), which overrides the
//    suspicion everywhere;
//  * a suspicion that survives `suspect_timeout` is *confirmed*: the member
//    is declared dead, the confirm hook fires (mapper-cache exclusion, shard
//    failover), and dead state gossips out. Dead is terminal — rejoining is
//    an administrative act, as in DAOS, not a protocol transition.
//
// Dissemination is piggybacked: every ping/ack/probe-req carries up to 8
// membership updates, each retransmitted a budgeted 3 * ceil(log2(n))
// times, freshest-first (kMaxPiggyback and kDisseminationMult in swim.cpp).
// An update about the message's destination is always included, so a
// suspected member learns of its suspicion on the next probe it receives.
//
// Everything is scheduler-time and seeded-Rng driven: two same-seed runs
// produce byte-identical event logs (tests/membership_test.cpp compares
// them), and detection latency is bounded by
//   suspect_timeout + protocol_period * dissemination_rounds(n)
// (the property test checks the bound on clos-64).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "net/ids.hpp"
#include "sim/awaitables.hpp"
#include "sim/process.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"
#include "vmmc/rpc.hpp"

namespace sanfault::membership {

enum class MemberState : std::uint8_t { kAlive = 0, kSuspect = 1, kDead = 2 };

struct SwimConfig {
  /// One probe round is launched per period; also the dissemination clock.
  sim::Duration protocol_period = sim::milliseconds(1);
  /// Direct-ack wait before escalating to indirect probes.
  sim::Duration probe_timeout = sim::microseconds(200);
  /// Suspicion age at which a member is confirmed dead (unless refuted).
  sim::Duration suspect_timeout = sim::milliseconds(3);
  /// Indirect probe fan-out after a direct-ack timeout.
  std::size_t k_indirect = 3;
  /// Artificial delay before this agent acks a ping — models a member whose
  /// host is processing-bound (the indirect-probe rescue scenario in tests).
  sim::Duration ack_delay = 0;
  std::uint64_t seed = 0x5357494dull;
  /// Record a per-agent human-readable event log (determinism tests).
  bool log_events = false;
};

struct SwimStats {
  std::uint64_t probe_rounds = 0;
  std::uint64_t pings_tx = 0;
  std::uint64_t pings_rx = 0;
  std::uint64_t acks_tx = 0;
  std::uint64_t acks_rx = 0;
  std::uint64_t probe_timeouts = 0;   // direct ack missed
  std::uint64_t ping_reqs_tx = 0;
  std::uint64_t ping_reqs_rx = 0;
  std::uint64_t indirect_acks_relayed = 0;
  std::uint64_t suspects = 0;         // local suspicion transitions
  std::uint64_t refutations = 0;      // own incarnation bumps
  std::uint64_t confirms = 0;         // members this node declared dead
  std::uint64_t updates_rx = 0;       // piggybacked updates applied
  std::uint64_t gossip_msgs_tx = 0;
  std::uint64_t gossip_bytes_tx = 0;
};

class SwimAgent {
 public:
  /// `members` is the full membership (self included or not — self is
  /// filtered). All members must be mesh-connected on `msgs` before start().
  SwimAgent(sim::Scheduler& sched, vmmc::MsgEndpoint& msgs,
            const std::vector<net::HostId>& members, SwimConfig cfg = {});
  ~SwimAgent();

  /// Add the gossip tap to the endpoint and spawn the probe loop.
  void start();

  /// Fires exactly once per member this node confirms dead (whether by its
  /// own suspicion timer or by receiving dead gossip). Multiple hooks run in
  /// installation order — firmware exclusion and the EC repair machine both
  /// listen without knowing about each other.
  using ConfirmHook = std::function<void(net::HostId dead, sim::Time at)>;
  void add_confirm_hook(ConfirmHook hook) {
    confirm_hooks_.push_back(std::move(hook));
  }

  [[nodiscard]] net::HostId self() const { return msgs_.host(); }
  [[nodiscard]] MemberState state_of(net::HostId h) const {
    const Member* m = member(h);
    return m == nullptr ? MemberState::kAlive : m->state;
  }
  [[nodiscard]] bool confirmed_dead(net::HostId h) const {
    return state_of(h) == MemberState::kDead;
  }
  /// When this node confirmed `h` dead; sim::kNever if it has not.
  [[nodiscard]] sim::Time confirm_time(net::HostId h) const;
  [[nodiscard]] std::uint32_t incarnation() const { return my_inc_; }
  [[nodiscard]] const SwimStats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<std::string>& log() const { return log_; }
  [[nodiscard]] const SwimConfig& config() const { return cfg_; }

  /// Updates-per-gossip budget: how many times each state change is
  /// re-transmitted before it stops riding outgoing messages.
  [[nodiscard]] static std::uint32_t dissemination_rounds(std::size_t n);
  /// The detection-latency bound the property tests gate on:
  /// suspect_timeout + protocol_period * dissemination_rounds(n).
  [[nodiscard]] static sim::Duration detection_bound(const SwimConfig& cfg,
                                                     std::size_t n);

 private:
  struct Member {
    bool tracked = false;  // a member of this agent's view
    MemberState state = MemberState::kAlive;
    std::uint32_t inc = 0;
    bool timer_armed = false;
    sim::EventHandle suspect_timer;
    sim::Time confirmed_at = sim::kNever;
  };
  struct GossipEntry {
    bool pending = false;  // an update about this host exists
    MemberState state = MemberState::kAlive;
    std::uint32_t inc = 0;
    std::uint32_t sends_left = 0;
  };
  bool on_msg(const vmmc::Msg& m);
  sim::Process period_loop();
  sim::Process probe_round(net::HostId target);
  sim::Process post_msg(net::HostId to, std::vector<std::uint8_t> bytes);
  sim::Process delayed_ack(net::HostId to, std::uint64_t nonce);
  void send_ack(net::HostId to, std::uint64_t nonce);

  /// `h`'s state if it is a tracked member, else nullptr.
  [[nodiscard]] const Member* member(net::HostId h) const {
    return h.v < members_.size() && members_[h.v].tracked ? &members_[h.v]
                                                         : nullptr;
  }
  [[nodiscard]] Member* member(net::HostId h) {
    return const_cast<Member*>(std::as_const(*this).member(h));
  }
  bool next_target(net::HostId* out);
  void apply_update(net::HostId h, MemberState st, std::uint32_t inc);
  void locally_suspect(net::HostId h);
  void confirm_dead(net::HostId h);
  void enqueue_update(net::HostId h, MemberState st, std::uint32_t inc);
  /// Pop up to kMaxPiggyback updates (the destination's entry rides first).
  std::vector<std::uint8_t> encode_msg(std::uint8_t type, std::uint64_t nonce,
                                       net::HostId target, net::HostId dst);
  void logf(const std::string& line);

  sim::Scheduler& sched_;
  vmmc::MsgEndpoint& msgs_;
  SwimConfig cfg_;
  sim::Rng rng_;
  std::uint32_t my_inc_ = 0;
  // Both indexed by HostId::v, sized to the largest member id (and self);
  // every walk over them runs in ascending id.
  std::vector<Member> members_;
  std::size_t member_count_ = 0;
  std::vector<GossipEntry> gossip_;  // pending dissemination
  std::vector<net::HostId> rotation_;
  std::size_t rotation_idx_ = 0;
  std::uint64_t next_nonce_ = 1;
  /// Probe rounds' acks, by ping or probe-req nonce. A round reads its slot
  /// once its window closes; nothing waits on it.
  sim::Replies<std::uint64_t> acks_;
  struct Relay {
    net::HostId requester;
    std::uint64_t nonce = 0;  // the requester's probe-req nonce
  };
  std::map<std::uint64_t, Relay> relays_;  // our ping nonce -> who asked
  std::vector<ConfirmHook> confirm_hooks_;
  SwimStats stats_;
  std::vector<std::string> log_;
  bool started_ = false;
};

}  // namespace sanfault::membership
