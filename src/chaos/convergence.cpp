#include "chaos/convergence.hpp"

#include <sstream>
#include <utility>

#include "chaos/corruptor.hpp"
#include "chaos/engine.hpp"
#include "obs/metrics.hpp"
#include "sim/rng.hpp"

namespace sanfault::chaos {

ConvergenceResult run_convergence_case(harness::TopoKind topo,
                                       std::size_t num_hosts, CorruptState cls,
                                       std::uint64_t seed, bool want_metrics) {
  ConvergenceResult out;
  const std::string_view cls_name = corrupt_state_name(cls);
  sim::Rng knobs(seed ^ 0x5E1F57ABull);
  harness::ClusterConfig cfg;
  cfg.num_hosts = num_hosts;
  cfg.topo = topo;
  cfg.fw = harness::FirmwareKind::kReliable;
  cfg.mapper = harness::MapperKind::kOnDemand;
  cfg.ondemand.proactive_backup = true;  // backup_slot needs a live slot
  cfg.ondemand.probe_retries = 6;
  cfg.ondemand.probe_timeout = sim::milliseconds(2);
  cfg.rel.fail_threshold = sim::milliseconds(10);
  cfg.rel.fail_min_rounds = 8;
  cfg.nic.send_buffers = 64;
  cfg.fabric.seed = seed;
  harness::Cluster c(cfg);

  // Pick the first destination whose route crosses >= 2 trunks, so killing
  // the first trunk leaves the redundant rest of the fabric to remap over.
  std::size_t dsti = 0;
  std::vector<net::LinkId> plinks;
  for (std::size_t h = 1; h < c.hosts.size(); ++h) {
    auto r = c.topo.shortest_route(c.hosts[0], c.hosts[h]);
    if (!r.has_value()) continue;
    auto links = c.topo.route_links(c.hosts[0], *r);
    if (links.size() >= 4) {
      dsti = h;
      plinks = std::move(links);
      break;
    }
  }
  if (dsti == 0) {
    out.violations.emplace_back("no multi-trunk destination in topology");
    return out;
  }
  // Background link noise: light loss and duplication everywhere.
  for (std::uint32_t l = 0; l < c.topo.num_links(); ++l) {
    auto& lf = c.fabric().link_faults(net::LinkId{l});
    lf.loss_prob = 0.02 * knobs.uniform_double();
    lf.dup_prob = 0.02 * knobs.uniform_double();
  }

  // Three corruptions mid-Phase-A cycling all rewrite modes, then a trunk
  // kill. `ack` garbles the receiver cursor, so it targets dst; `gen` hits
  // either end by seed; everything else is sender-side state. retx_queue
  // kills the trunk FIRST so the queue is guaranteed non-empty (no acks
  // drain it) when the corruptions land. `path_cache` pins every event to
  // the traffic peer: a flip on an idle entry (or onto a parallel trunk
  // that still reaches dst) is semantically harmless and would leave no
  // repair to witness, so the final rewrite must land on the live route.
  const bool dst_side = cls == CorruptState::kAck ||
                        (cls == CorruptState::kGen && seed % 2 == 1);
  const std::uint32_t chost = dst_side ? c.hosts[dsti].v : c.hosts[0].v;
  const std::uint32_t cpeer = dst_side ? c.hosts[0].v : c.hosts[dsti].v;
  const bool pin_peer = cls == CorruptState::kPathCache;
  const auto mode = [seed](std::uint64_t k) {
    return corrupt_mode_name(static_cast<CorruptMode>((seed + k) % 3));
  };
  std::ostringstream sc;
  sc << "scenario soak-" << cls_name << "-" << seed << "\nseed " << seed
     << "\n"
     << "at 2ms corrupt host=" << chost << " state=" << cls_name
     << " mode=" << mode(0)
     << (pin_peer ? " peer=" + std::to_string(cpeer) : "") << "\n"
     << "at 2600us corrupt host=" << chost << " state=" << cls_name
     << " mode=" << mode(1) << " peer=" << cpeer << "\n"
     << "at 3200us corrupt host=" << chost << " state=" << cls_name
     << " mode=" << mode(2)
     << (pin_peer ? " peer=" + std::to_string(cpeer) : "") << "\n"
     << "at " << (cls == CorruptState::kRetxQueue ? "1500us" : "4ms")
     << " link_down link=" << plinks[1].v << "\n";
  out.dsl = sc.str();

  ChaosEngine eng(c.sched, c.fabric(), Scenario::parse(out.dsl));
  StateCorruptor corr(c.sched, seed ^ 0xC0DE5EEDull);
  for (std::size_t i = 0; i < c.size(); ++i) {
    corr.bind(c.hosts[i], &c.rel(i), &c.mapper(i));
  }
  eng.set_corruptor(&corr);
  eng.arm();

  // Witness: recovery machinery demonstrably fired at/after the first
  // corruption (the trunk kill guarantees a generation restart even when a
  // corruption lands benignly, e.g. on an entry acked before any scrub).
  std::uint64_t witness_events = 0;
  const auto witness_hook = [&](const firmware::FwEvent& ev) {
    const bool counts = ev.kind == firmware::FwEvent::Kind::kScrubRepair ||
                        ev.kind == firmware::FwEvent::Kind::kGenRestart ||
                        ev.kind == firmware::FwEvent::Kind::kNicReset;
    if (counts && c.sched.now() >= sim::milliseconds(2)) ++witness_events;
  };
  c.rel(0).set_event_hook(witness_hook);
  c.rel(dsti).set_event_hook(witness_hook);

  constexpr std::uint64_t kPhaseA = 40;
  constexpr std::uint64_t kPhaseB = 20;
  constexpr std::uint64_t kBTag = 100;  // Phase B tags: 100..119
  std::vector<std::uint64_t> tags;
  c.nic(dsti).set_host_rx([&](net::UserHeader u, net::PayloadRef,
                              net::HostId) { tags.push_back(u.w0); });
  const auto send_burst = [&c, dsti](std::uint64_t n, std::uint64_t tag0) {
    for (std::uint64_t i = 0; i < n; ++i) {
      c.sched.after(static_cast<sim::Duration>(i) * sim::microseconds(300),
                    [&c, dsti, i, tag0] {
                      net::UserHeader u;
                      u.w0 = tag0 + i;
                      c.send(0, dsti,
                             std::vector<std::uint8_t>(
                                 96, static_cast<std::uint8_t>(i)),
                             u);
                    });
    }
  };
  send_burst(kPhaseA, 0);

  // Phase A horizon: converged when the sender's channel has drained and no
  // remap is in flight (receiver-cursor corruption can forfeit deliveries,
  // so "all 40 arrived" is not the convergence signal).
  const auto drained = [&] {
    if (c.sched.now() < sim::milliseconds(13)) return false;
    const firmware::TxChannel* ch = c.rel(0).chaos_tx_channel(c.hosts[dsti]);
    return ch != nullptr && ch->retrans_queue.empty() &&
           !ch->remap_in_flight && !ch->unreachable;
  };
  while (!drained() && c.sched.now() < sim::seconds(120) && c.sched.step()) {
  }
  c.sched.run_until(c.sched.now() + sim::milliseconds(20));  // settle dups

  out.applied = corr.applied();
  out.witness = witness_events;
  if (out.applied == 0) {
    out.violations.emplace_back("no corruption rewrote live state");
  }
  if (witness_events == 0) {
    out.violations.emplace_back(
        "corruption repaired with no scrub/restart witness");
  }

  // Phase A: first deliveries in submission order; silent loss only from
  // the receiver-cursor class, bounded by the in-flight window. That class
  // is also exempt from the ordering check: a forward-jumped expected_seq
  // dup-drops in-flight messages whose replay (after the generation restart)
  // then lands *after* tags the jumped cursor already admitted.
  const bool ack = cls == CorruptState::kAck;
  std::vector<char> seen_a(kPhaseA, 0);
  std::uint64_t prev_first = 0;
  bool have_first = false;
  std::size_t distinct_a = 0;
  for (std::uint64_t t : tags) {
    if (t >= kPhaseA || seen_a[t] != 0) continue;
    seen_a[t] = 1;
    ++distinct_a;
    if (have_first && !ack && t <= prev_first) {
      out.violations.push_back("phase A first deliveries reordered: " +
                               std::to_string(t) + " after " +
                               std::to_string(prev_first));
    }
    prev_first = t;
    have_first = true;
  }
  if (ack ? distinct_a < kPhaseA - 12 : distinct_a != kPhaseA) {
    out.violations.push_back("phase A silent loss: " +
                             std::to_string(distinct_a) + "/" +
                             std::to_string(kPhaseA) + " delivered");
  }

  // Phase B: past the scrub horizon, exactly-once in order again.
  const std::size_t b_start = tags.size();
  send_burst(kPhaseB, kBTag);
  std::vector<char> seen_b(kPhaseB, 0);
  const auto b_done = [&] {
    std::size_t d = 0;
    for (std::size_t i = b_start; i < tags.size(); ++i) {
      const std::uint64_t t = tags[i];
      if (t >= kBTag && t < kBTag + kPhaseB) seen_b[t - kBTag] = 1;
    }
    for (char s : seen_b) d += (s != 0) ? 1 : 0;
    return d >= kPhaseB;
  };
  const sim::Time b_deadline = c.sched.now() + sim::seconds(60);
  while (!b_done() && c.sched.now() < b_deadline && c.sched.step()) {
  }
  c.sched.run_until(c.sched.now() + sim::milliseconds(20));  // trailing dups

  std::vector<std::uint64_t> b_tags;
  for (std::size_t i = b_start; i < tags.size(); ++i) {
    if (tags[i] >= kBTag && tags[i] < kBTag + kPhaseB) {
      b_tags.push_back(tags[i]);
    }
  }
  if (b_tags.size() != kPhaseB) {
    out.violations.push_back("phase B not exactly-once: " +
                             std::to_string(b_tags.size()) + "/" +
                             std::to_string(kPhaseB) + " deliveries");
  } else {
    for (std::uint64_t i = 0; i < kPhaseB; ++i) {
      if (b_tags[i] != kBTag + i) {
        out.violations.push_back("phase B out of order at index " +
                                 std::to_string(i));
        break;
      }
    }
  }

  const auto& s0 = c.rel(0).stats();
  const auto& sd = c.rel(dsti).stats();
  out.fw_stats =
      "scrub_passes=" + std::to_string(s0.scrub_passes + sd.scrub_passes) +
      " tx_repairs=" +
      std::to_string(s0.scrub_tx_repairs + sd.scrub_tx_repairs) +
      " rx_repairs=" +
      std::to_string(s0.scrub_rx_repairs + sd.scrub_rx_repairs) +
      " gen_adoptions=" +
      std::to_string(s0.scrub_gen_adoptions + sd.scrub_gen_adoptions) +
      " bogus_acks=" +
      std::to_string(s0.scrub_bogus_acks + sd.scrub_bogus_acks) +
      " misroute_drops=" +
      std::to_string(s0.misroute_drops + sd.misroute_drops) +
      " gen_restarts=" +
      std::to_string(s0.generation_restarts + sd.generation_restarts);
  out.chaos_log = eng.log_text();
  if (want_metrics) {
    out.metrics_json = obs::Registry::of(c.sched).to_json();
  }
  return out;
}

}  // namespace sanfault::chaos
