#include "chaos/recovery.hpp"

#include <algorithm>
#include <cmath>

namespace sanfault::chaos {

namespace {

bool is_disruptive(net::FaultKind k) {
  return k == net::FaultKind::kLinkDown || k == net::FaultKind::kSwitchDown ||
         k == net::FaultKind::kHostCut;
}

bool is_heal(net::FaultKind k) {
  return k == net::FaultKind::kLinkUp || k == net::FaultKind::kSwitchUp ||
         k == net::FaultKind::kHostHeal;
}

}  // namespace

RecoveryMonitor::RecoveryMonitor(sim::Scheduler& sched, sim::Duration window)
    : sched_(sched), window_(window == 0 ? sim::milliseconds(1) : window) {}

void RecoveryMonitor::on_fault(const net::FaultEvent& ev) {
  const sim::Time now = sched_.now();
  if (is_disruptive(ev.kind)) {
    ++report_.disruptive_faults;
    if (report_.first_disruption_at == sim::kNever) {
      report_.first_disruption_at = now;
    }
    last_fault_at_ = now;
    // One time-to-first-redelivery sample per disruption burst: the clock
    // starts at the first kill and stops at the first retransmitted
    // delivery; further kills before that delivery extend the same burst.
    // Per-destination sampling is burst-relative too: a new burst opens a
    // fresh recovery ledger for every channel.
    if (!awaiting_redelivery_) {
      awaiting_redelivery_ = true;
      any_burst_ = true;
      disruption_at_ = now;
      dest_recovered_.clear();
    }
  } else if (is_heal(ev.kind)) {
    ++report_.heals;
    report_.last_heal_at = now;
  }
}

void RecoveryMonitor::on_delivery(const net::Packet& pkt, net::HostId) {
  const sim::Time now = sched_.now();
  if (pkt.hdr.type == net::PacketType::kData) {
    ++report_.data_deliveries;
    report_.last_delivery_at = now;
    const auto idx = static_cast<std::size_t>(now / window_);
    if (window_counts_.size() <= idx) window_counts_.resize(idx + 1, 0);
    ++window_counts_[idx];

    // A data delivery on a scrub-repaired pair (the repair may sit on
    // either end, so both orientations close the clock) is the channel
    // demonstrably carrying traffic again.
    for (const auto& skey : {std::make_pair(pkt.hdr.src.v, pkt.hdr.dst.v),
                            std::make_pair(pkt.hdr.dst.v, pkt.hdr.src.v)}) {
      if (auto s = pending_scrubs_.find(skey); s != pending_scrubs_.end()) {
        ++report_.scrub_recovery_samples;
        report_.scrub_recovery_max =
            std::max(report_.scrub_recovery_max, now - s->second);
        pending_scrubs_.erase(s);
      }
    }

    const auto key = std::make_pair(pkt.hdr.src.v, pkt.hdr.dst.v);
    if (auto ch = pending_gens_.find(key); ch != pending_gens_.end()) {
      if (auto g = ch->second.find(pkt.hdr.generation);
          g != ch->second.end()) {
        const sim::Duration conv = now - g->second.restarted_at;
        ++report_.remap_convergences;
        report_.remap_conv_max = std::max(report_.remap_conv_max, conv);
        report_.remap_conv_from_fault_max = std::max(
            report_.remap_conv_from_fault_max, now - g->second.fault_at);
        if (g->second.promoted) {
          ++report_.remap_conv_promoted;
        } else {
          ++report_.remap_conv_probed;
        }
        ch->second.erase(g);
        if (ch->second.empty()) pending_gens_.erase(ch);
      }
    }
  }
  if ((pkt.hdr.flags & net::kFlagRetransmit) != 0) {
    ++report_.retrans_deliveries;
    if (awaiting_redelivery_) {
      awaiting_redelivery_ = false;
      const sim::Duration ttfr = now - disruption_at_;
      if (report_.ttfr_samples == 0) report_.ttfr_first = ttfr;
      report_.ttfr_max = std::max(report_.ttfr_max, ttfr);
      ++report_.ttfr_samples;
    }
    // Per-destination: each (src, dst) pair's first retransmitted delivery
    // since the burst start is its own sample, so one fast channel (e.g.
    // one whose remap was served from the path cache) cannot absorb the
    // whole burst's measurement and hide slower destinations.
    if (any_burst_ && now >= disruption_at_) {
      const auto key = std::make_pair(pkt.hdr.src.v, pkt.hdr.dst.v);
      if (dest_recovered_.insert(key).second) {
        const sim::Duration ttfr = now - disruption_at_;
        ++report_.ttfr_dest_samples;
        report_.ttfr_dest_max = std::max(report_.ttfr_dest_max, ttfr);
        report_.ttfr_dest.push_back(ttfr);
      }
    }
  }
}

void RecoveryMonitor::on_fw_event(const firmware::FwEvent& ev) {
  switch (ev.kind) {
    case firmware::FwEvent::Kind::kPathFail:
      ++report_.path_failures;
      break;
    case firmware::FwEvent::Kind::kRemapStart:
      ++report_.remap_starts;
      break;
    case firmware::FwEvent::Kind::kRemapDone:
      if (!ev.ok) ++report_.remap_failures;
      break;
    case firmware::FwEvent::Kind::kGenRestart: {
      ++report_.gen_restarts;
      const auto key = std::make_pair(ev.self.v, ev.peer.v);
      if (auto it = last_gen_.find(key); it != last_gen_.end()) {
        if (ev.gen <= it->second) report_.gen_regressed = true;
      }
      last_gen_[key] = ev.gen;
      // Anchor the fault-relative convergence clock at the most recent
      // disruptive transition (a restart with no fault observed — e.g. a
      // pure drop-plan run — anchors at the restart itself).
      const sim::Time fault_at =
          last_fault_at_ == 0 ? sched_.now() : last_fault_at_;
      pending_gens_[key][ev.gen] = PendingGen{sched_.now(), fault_at,
                                              ev.promoted};
      break;
    }
    case firmware::FwEvent::Kind::kNicReset:
      ++report_.nic_resets;
      break;
    case firmware::FwEvent::Kind::kPeerExcluded:
      ++report_.peer_exclusions;
      break;
    case firmware::FwEvent::Kind::kScrubRepair: {
      ++report_.scrub_repairs;
      const auto key = std::make_pair(ev.self.v, ev.peer.v);
      pending_scrubs_.try_emplace(key, sched_.now());
      break;
    }
  }
}

void RecoveryMonitor::finalize() {
  if (finalized_) return;
  finalized_ = true;

  for (const auto& [key, gens] : pending_gens_) {
    report_.remap_unconverged += gens.size();
  }

  // Goodput dip: mean deliveries/window before the first disruption is the
  // baseline; every later window up to the last delivery contributes its
  // deficit. Windows after traffic drained are not charged.
  if (report_.first_disruption_at != sim::kNever && !window_counts_.empty()) {
    const auto fault_idx =
        static_cast<std::size_t>(report_.first_disruption_at / window_);
    std::uint64_t pre = 0;
    for (std::size_t i = 0; i < fault_idx && i < window_counts_.size(); ++i) {
      pre += window_counts_[i];
    }
    if (fault_idx > 0) {
      report_.goodput_baseline =
          static_cast<double>(pre) / static_cast<double>(fault_idx);
    }
    const auto last_idx = report_.last_delivery_at == sim::kNever
                              ? 0
                              : static_cast<std::size_t>(
                                    report_.last_delivery_at / window_);
    for (std::size_t i = fault_idx;
         i < window_counts_.size() && i <= last_idx; ++i) {
      const double deficit =
          report_.goodput_baseline - static_cast<double>(window_counts_[i]);
      if (deficit > 0.0) report_.goodput_dip_area += deficit;
    }
  }

  auto& reg = obs::Registry::of(sched_);
  const auto c = [&reg](const char* name, const char* unit,
                        std::uint64_t v) { reg.counter(name, unit).set(v); };
  c("chaos.disruptive_faults", "events", report_.disruptive_faults);
  c("chaos.heals", "events", report_.heals);
  c("chaos.ttfr_samples", "events", report_.ttfr_samples);
  c("chaos.ttfr_first_ns", "ns", report_.ttfr_first);
  c("chaos.ttfr_max_ns", "ns", report_.ttfr_max);
  c("chaos.ttfr_dest_samples", "events", report_.ttfr_dest_samples);
  c("chaos.ttfr_dest_max_ns", "ns", report_.ttfr_dest_max);
  c("chaos.remap_conv_from_fault_max_ns", "ns",
    report_.remap_conv_from_fault_max);
  c("chaos.remap_conv_promoted", "events", report_.remap_conv_promoted);
  c("chaos.remap_conv_probed", "events", report_.remap_conv_probed);
  c("chaos.gen_restarts", "events", report_.gen_restarts);
  c("chaos.remap_convergences", "events", report_.remap_convergences);
  c("chaos.remap_unconverged", "events", report_.remap_unconverged);
  c("chaos.remap_conv_max_ns", "ns", report_.remap_conv_max);
  c("chaos.gen_regressions", "events", report_.gen_regressed ? 1 : 0);
  c("chaos.path_failures", "events", report_.path_failures);
  c("chaos.remap_starts", "events", report_.remap_starts);
  c("chaos.remap_failures", "events", report_.remap_failures);
  c("chaos.nic_resets", "events", report_.nic_resets);
  c("chaos.peer_exclusions", "events", report_.peer_exclusions);
  c("chaos.scrub_repairs", "events", report_.scrub_repairs);
  c("chaos.scrub_recovery_samples", "events",
    report_.scrub_recovery_samples);
  c("chaos.scrub_recovery_max_ns", "ns", report_.scrub_recovery_max);
  c("chaos.data_deliveries", "packets", report_.data_deliveries);
  c("chaos.retrans_deliveries", "packets", report_.retrans_deliveries);
  c("chaos.retrans_amplification_milli", "milli",
    static_cast<std::uint64_t>(
        std::llround(report_.retrans_amplification() * 1000.0)));
  c("chaos.goodput_baseline_milli", "milli",
    static_cast<std::uint64_t>(
        std::llround(report_.goodput_baseline * 1000.0)));
  c("chaos.goodput_dip_area_milli", "milli",
    static_cast<std::uint64_t>(
        std::llround(report_.goodput_dip_area * 1000.0)));
}

std::vector<std::string> check_invariants(const RecoveryReport& r,
                                          const InvariantInput& in) {
  std::vector<std::string> fails;
  if (!in.audit_clean) {
    fails.emplace_back("exactly-once audit failed");
  }
  if (r.gen_regressed) {
    fails.emplace_back("sequence generation regressed on some channel");
  }
  if (in.ops_completed < in.ops_expected) {
    fails.push_back("eventual progress violated: " +
                    std::to_string(in.ops_completed) + "/" +
                    std::to_string(in.ops_expected) + " ops completed");
  }
  if (r.heals > 0 && r.last_heal_at != sim::kNever &&
      (r.last_delivery_at == sim::kNever ||
       r.last_delivery_at <= r.last_heal_at)) {
    fails.emplace_back("no delivery observed after the last heal");
  }
  if (in.require_redelivery && r.ttfr_samples == 0) {
    fails.emplace_back(
        "no time-to-first-redelivery sample (expected a recovery)");
  }
  if (in.require_remap &&
      (r.gen_restarts == 0 || r.remap_convergences == 0)) {
    fails.emplace_back(
        "no converged generation restart (expected a remap)");
  }
  if (in.quorum_expected == 1 && !in.quorum_held) {
    fails.push_back("replica quorum lost: " +
                    std::to_string(in.shards_no_live_replica) +
                    " shard(s) with no live replica");
  }
  if (in.quorum_expected == 0 && in.quorum_held) {
    fails.emplace_back(
        "control placement unexpectedly kept quorum (experiment shows "
        "nothing)");
  }
  return fails;
}

}  // namespace sanfault::chaos
