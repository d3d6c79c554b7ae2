// RecoveryMonitor: measures how the stack recovers from injected faults, and
// the invariant checker campaigns gate on.
//
// The monitor is a passive observer wired into three event streams, which
// watch() binds on a harness::Cluster:
//  * net::Fabric fault hook      — when each fault/heal transition happened;
//  * net::Fabric delivery hook   — every packet handed to a receiver;
//  * firmware::FwEvent hook      — path failures, remaps, generation
//                                  restarts, NIC resets (one hook per node).
//
// From those it derives the recovery metrics docs/CHAOS.md defines:
//  * time-to-first-redelivery  — disruptive fault -> first delivered packet
//    carrying kFlagRetransmit (the protocol demonstrably recovering);
//  * remap convergence         — generation restart -> first delivered data
//    packet of that (src, dst, generation) (the re-mapped path carrying
//    traffic again);
//  * retransmission amplification — retransmitted deliveries per delivered
//    data packet;
//  * goodput dip area          — delivered-packet deficit vs the pre-fault
//    per-window baseline, summed over all post-fault windows.
//
// Everything is keyed off simulated time, so two same-seed runs produce
// identical reports. finalize() publishes the report as chaos.* metrics
// (docs/OBSERVABILITY.md) for the golden-file gate in scripts/verify.sh.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "firmware/reliability.hpp"
#include "harness/cluster.hpp"
#include "net/fabric.hpp"
#include "obs/metrics.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace sanfault::chaos {

struct RecoveryReport {
  // Fault-surface accounting.
  std::uint64_t disruptive_faults = 0;  // link/switch kills, host cuts
  std::uint64_t heals = 0;
  sim::Time first_disruption_at = sim::kNever;
  sim::Time last_heal_at = sim::kNever;

  // Time-to-first-redelivery (one sample per disruption burst).
  std::uint64_t ttfr_samples = 0;
  sim::Duration ttfr_first = 0;  // the first burst's recovery time
  sim::Duration ttfr_max = 0;

  // Per-destination time-to-first-redelivery: within a burst, every (src,
  // dst) pair samples its *own* first retransmitted delivery against the
  // burst start. The single global sample above stops at whichever channel
  // recovers first — typically one served from the mapper's path cache —
  // which masked slow destinations entirely (see docs/CHAOS.md).
  std::uint64_t ttfr_dest_samples = 0;
  sim::Duration ttfr_dest_max = 0;
  std::vector<sim::Duration> ttfr_dest;  // all samples (bench medians)

  // Remap convergence (one sample per observed generation restart).
  std::uint64_t gen_restarts = 0;
  std::uint64_t remap_convergences = 0;
  std::uint64_t remap_unconverged = 0;  // restarts with no later delivery
  sim::Duration remap_conv_max = 0;
  /// Convergence measured from the fault transition that caused the restart
  /// (not from the restart itself): a restart pre-answered from the path
  /// cache converges "instantly" by the restart-relative clock while the
  /// application still waited out the whole detection threshold.
  sim::Duration remap_conv_from_fault_max = 0;
  /// Convergences split by how the remap was answered (FwEvent::promoted):
  /// backup-path promotion vs a fresh probe run.
  std::uint64_t remap_conv_promoted = 0;
  std::uint64_t remap_conv_probed = 0;
  bool gen_regressed = false;  // a generation number moved backwards

  // Firmware recovery machinery totals (summed over nodes).
  std::uint64_t path_failures = 0;
  std::uint64_t remap_starts = 0;
  std::uint64_t remap_failures = 0;  // remap finished with no route
  std::uint64_t nic_resets = 0;
  std::uint64_t peer_exclusions = 0;  // membership-driven channel shutdowns

  // Scrub-to-recovery: a kScrubRepair event opens a clock on its channel
  // pair; the next data delivery on that pair (either direction) closes it.
  // Measures how long a scrubber intervention takes to restore real traffic.
  std::uint64_t scrub_repairs = 0;
  std::uint64_t scrub_recovery_samples = 0;
  sim::Duration scrub_recovery_max = 0;

  // Delivery accounting.
  std::uint64_t data_deliveries = 0;
  std::uint64_t retrans_deliveries = 0;
  sim::Time last_delivery_at = sim::kNever;

  // Goodput dip: baseline = mean data deliveries per window before the
  // first disruption; dip area = sum over later windows of the deficit.
  double goodput_baseline = 0.0;  // deliveries per window
  double goodput_dip_area = 0.0;  // total delivered-packet deficit

  /// retrans_deliveries / data_deliveries (0 when idle).
  [[nodiscard]] double retrans_amplification() const {
    return data_deliveries == 0
               ? 0.0
               : static_cast<double>(retrans_deliveries) /
                     static_cast<double>(data_deliveries);
  }
};

class RecoveryMonitor {
 public:
  explicit RecoveryMonitor(sim::Scheduler& sched,
                           sim::Duration window = sim::milliseconds(1));
  RecoveryMonitor(const RecoveryMonitor&) = delete;  // the hooks hold `this`
  RecoveryMonitor& operator=(const RecoveryMonitor&) = delete;

  /// Bind the event sinks below to `c`: its fabric's fault and delivery
  /// hooks and every host's firmware event hook. Each replaces the hook's
  /// previous subscriber, and the monitor must outlive the cluster's run.
  /// (Inline, so a binary that never calls it carries no code for it.)
  void watch(harness::Cluster& c) {
    c.fabric().set_fault_hook(
        [this](const net::FaultEvent& ev) { on_fault(ev); });
    c.fabric().set_delivery_hook(
        [this](const net::Packet& pkt, net::HostId dst) {
          on_delivery(pkt, dst);
        });
    for (std::size_t i = 0; i < c.size(); ++i) {
      c.rel(i).set_event_hook(
          [this](const firmware::FwEvent& ev) { on_fw_event(ev); });
    }
  }

  // --- event sinks (watch() binds them to the hooks) -----------------------
  void on_fault(const net::FaultEvent& ev);
  void on_delivery(const net::Packet& pkt, net::HostId dst);
  void on_fw_event(const firmware::FwEvent& ev);

  /// Compute the derived metrics (goodput dip, unconverged remaps) and
  /// publish the whole report as chaos.* metrics. Call once, after the
  /// workload has quiesced; report() is valid afterwards.
  void finalize();

  [[nodiscard]] const RecoveryReport& report() const { return report_; }

 private:
  sim::Scheduler& sched_;
  sim::Duration window_;
  RecoveryReport report_;
  bool finalized_ = false;
  bool awaiting_redelivery_ = false;
  bool any_burst_ = false;     // a disruption burst has ever started
  sim::Time disruption_at_ = 0;
  sim::Time last_fault_at_ = 0;  // most recent disruptive transition
  /// (src, dst) pairs that already produced their per-destination TTFR
  /// sample for the current burst; reset when a new burst starts.
  std::set<std::pair<std::uint32_t, std::uint32_t>> dest_recovered_;
  std::vector<std::uint64_t> window_counts_;  // data deliveries per window
  struct PendingGen {
    sim::Time restarted_at;
    sim::Time fault_at = 0;  // the disruption this restart recovers from
    bool promoted = false;   // answered by backup promotion, not probing
  };
  // (src, dst) channel -> generation restarts awaiting their first delivery.
  std::map<std::pair<std::uint32_t, std::uint32_t>,
           std::map<std::uint16_t, PendingGen>>
      pending_gens_;
  /// (self, peer) scrub repairs awaiting the next delivery on the pair; the
  /// earliest open repair's clock wins (repair bursts measure end-to-end).
  std::map<std::pair<std::uint32_t, std::uint32_t>, sim::Time>
      pending_scrubs_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint16_t> last_gen_;
};

/// What the workload knows at the end of a campaign cell; feeds the
/// invariant checker. The chaos layer stays ignorant of KV/traffic types —
/// the campaign runner distills them to these counts.
struct InvariantInput {
  bool audit_clean = true;          // exactly-once application audit passed
  std::uint64_t ops_expected = 0;   // operations issued by the workload
  std::uint64_t ops_completed = 0;  // operations that finished
  bool require_redelivery = false;  // scenario kills a loaded path
  bool require_remap = false;       // scenario forces a generation restart

  /// Replica-quorum verdict for placement-policy cells (-1 = not evaluated).
  /// 1: every shard must have kept a live replica (pod-aware placement under
  /// a whole-domain kill); 0: the cell is a control expected to LOSE quorum
  /// (seeded-random placement under the same kill) — the checker flags the
  /// control surviving, since that would mean the experiment shows nothing.
  int quorum_expected = -1;
  bool quorum_held = true;            // measured by the campaign runner
  std::uint64_t shards_no_live_replica = 0;
};

/// Check the campaign invariants; returns one human-readable line per
/// violation (empty = all invariants hold):
///  * exactly-once: the application audit is clean;
///  * no sequence-generation regression on any channel;
///  * eventual progress: every issued op completed, and traffic flowed
///    after the last heal whenever anything was healed;
///  * finite recovery: redelivery / remap convergence observed when the
///    scenario demands them.
[[nodiscard]] std::vector<std::string> check_invariants(
    const RecoveryReport& r, const InvariantInput& in);

}  // namespace sanfault::chaos
