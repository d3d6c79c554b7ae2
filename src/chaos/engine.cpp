#include "chaos/engine.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "chaos/corruptor.hpp"

namespace sanfault::chaos {

namespace {

std::string num_str(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

}  // namespace

ChaosEngine::ChaosEngine(sim::Scheduler& sched, net::Fabric& fabric,
                         Scenario scenario)
    : sched_(sched),
      fabric_(fabric),
      scenario_(std::move(scenario)),
      rng_(scenario_.seed) {
  ops_applied_ = &obs::Registry::of(sched).counter(
      "chaos.ops_applied", "events",
      "fault actions applied by the chaos campaign engine");
}

void ChaosEngine::note(std::string action) {
  ++applied_;
  ops_applied_->inc();
  log_.push_back("t=" + std::to_string(sched_.now()) + " " +
                 std::move(action));
}

std::string ChaosEngine::log_text() const {
  std::string out;
  for (const std::string& line : log_) {
    out += line;
    out += '\n';
  }
  return out;
}

void ChaosEngine::arm() {
  if (armed_) return;
  armed_ = true;
  const sim::Time now = sched_.now();
  for (const ChaosEvent& ev : scenario_.events) {
    if (!ev.phase.empty()) continue;
    schedule_event(ev, ev.at > now ? ev.at - now : 0);
  }
}

void ChaosEngine::fire_phase(std::string_view phase) {
  if (std::find(fired_phases_.begin(), fired_phases_.end(), phase) !=
      fired_phases_.end()) {
    return;
  }
  fired_phases_.emplace_back(phase);
  for (const ChaosEvent& ev : scenario_.events) {
    if (ev.phase != phase) continue;
    schedule_event(ev, ev.at);
  }
}

void ChaosEngine::schedule_event(const ChaosEvent& ev, sim::Duration delay) {
  // `ev` lives in scenario_.events, which is immutable after construction,
  // so the pointer stays valid for the engine's lifetime.
  const ChaosEvent* evp = &ev;
  ++pending_;
  sched_.after(delay, [this, evp] {
    --pending_;
    apply(*evp);
  });
}

void ChaosEngine::apply(const ChaosEvent& ev) {
  switch (ev.op) {
    case ChaosOp::kLinkDown:
      fabric_.fail_link(net::LinkId{static_cast<std::uint32_t>(ev.target)});
      note("link_down link=" + std::to_string(ev.target));
      break;
    case ChaosOp::kLinkUp:
      fabric_.restore_link(net::LinkId{static_cast<std::uint32_t>(ev.target)});
      note("link_up link=" + std::to_string(ev.target));
      break;
    case ChaosOp::kSwitchDown:
      fabric_.fail_switch(
          net::SwitchId{static_cast<std::uint32_t>(ev.target)});
      note("switch_down switch=" + std::to_string(ev.target));
      break;
    case ChaosOp::kSwitchUp:
      fabric_.restore_switch(
          net::SwitchId{static_cast<std::uint32_t>(ev.target)});
      note("switch_up switch=" + std::to_string(ev.target));
      break;
    case ChaosOp::kNicReset:
      if (nic_reset_fn_) {
        nic_reset_fn_(static_cast<std::uint32_t>(ev.target));
      }
      note("nic_reset host=" + std::to_string(ev.target));
      break;
    case ChaosOp::kFlap:
      note("flap link=" + std::to_string(ev.target) +
           " count=" + std::to_string(ev.count));
      expand_flap(ev);
      break;
    case ChaosOp::kErrorRamp:
      expand_ramp(ev);
      break;
    case ChaosOp::kPartition: {
      std::string who;
      for (std::uint32_t h : ev.hosts) {
        fabric_.cut_host(net::HostId{h});
        if (!who.empty()) who += ",";
        who += std::to_string(h);
      }
      note("partition hosts=" + who);
      break;
    }
    case ChaosOp::kHeal: {
      std::string who;
      for (std::uint32_t h : ev.hosts) {
        fabric_.heal_host(net::HostId{h});
        if (!who.empty()) who += ",";
        who += std::to_string(h);
      }
      note("heal hosts=" + who);
      break;
    }
    case ChaosOp::kCorrupt:
      if (corruptor_ != nullptr) {
        note(corruptor_->apply(ev));
      } else {
        note("corrupt host=" + std::to_string(ev.target) +
             " noop=no_corruptor");
      }
      break;
  }
}

void ChaosEngine::expand_flap(const ChaosEvent& ev) {
  const net::LinkId link{static_cast<std::uint32_t>(ev.target)};
  // Draw all jitter up front, in cycle order, so RNG consumption does not
  // depend on how the scheduled down/up actions interleave with anything
  // else — the flap timing is a pure function of (seed, scenario).
  sim::Duration start = 0;
  for (std::uint32_t i = 0; i < ev.count; ++i) {
    double scale = 1.0;
    if (ev.jitter > 0.0) {
      scale += ev.jitter * (2.0 * rng_.uniform_double() - 1.0);
    }
    const auto period =
        static_cast<sim::Duration>(static_cast<double>(ev.period) * scale);
    const auto down_len =
        static_cast<sim::Duration>(static_cast<double>(period) * ev.duty);
    const std::uint32_t cycle = i;
    ++pending_;
    sched_.after(start, [this, link, cycle] {
      --pending_;
      fabric_.fail_link(link);
      note("flap_down link=" + std::to_string(link.v) +
           " cycle=" + std::to_string(cycle));
    });
    ++pending_;
    sched_.after(start + down_len, [this, link, cycle] {
      --pending_;
      fabric_.restore_link(link);
      note("flap_up link=" + std::to_string(link.v) +
           " cycle=" + std::to_string(cycle));
    });
    start += period;
  }
}

void ChaosEngine::expand_ramp(const ChaosEvent& ev) {
  std::optional<net::LinkId> link;
  if (ev.target >= 0) {
    link = net::LinkId{static_cast<std::uint32_t>(ev.target)};
  }
  for (std::uint32_t k = 1; k <= ev.steps; ++k) {
    const double frac = static_cast<double>(k) / ev.steps;
    const double loss = ev.loss * frac;
    const double corrupt = ev.corrupt * frac;
    const sim::Duration delay =
        ev.steps == 1 ? 0 : ev.over * (k - 1) / (ev.steps - 1);
    ++pending_;
    sched_.after(delay, [this, link, loss, corrupt, k] {
      --pending_;
      fabric_.set_link_fault_rates(link, loss, corrupt);
      note("error_ramp step=" + std::to_string(k) + " loss=" + num_str(loss) +
           " corrupt=" + num_str(corrupt) +
           (link ? " link=" + std::to_string(link->v) : std::string()));
    });
  }
}

}  // namespace sanfault::chaos
