// The benchmark's own derived metrics: each is a pure function of counts the
// workloads collect, so selftest.cpp can check it on hand-built inputs.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace perfbench {

/// Outage from per-window committed counts (traffic::TrafficStats::windows,
/// window i covers simulated [i*w, (i+1)*w)).
///
/// Baseline: mean committed count of the windows that lie wholly inside
/// [t_start, t_fault). Candidates: the window holding the fault up to, but
/// not including, the window holding the last arrival — after that the
/// open-loop generator has stopped and low counts are the drain, not an
/// outage. A candidate below half the baseline adds one window to the outage.
struct OutageResult {
  double outage_ms = 0;
  double baseline = 0;          // committed requests per pre-fault window
  std::size_t pre_windows = 0;  // windows in the baseline
  std::size_t candidates = 0;   // post-fault windows examined
  std::size_t below = 0;        // candidates under half the baseline
};

inline OutageResult outage(const std::vector<std::uint64_t>& committed,
                           const std::vector<std::uint64_t>& issued,
                           sanfault::sim::Duration w,
                           sanfault::sim::Time t_start,
                           sanfault::sim::Time t_fault) {
  OutageResult r;
  const std::size_t first_pre = static_cast<std::size_t>((t_start + w - 1) / w);
  const std::size_t fault_win = static_cast<std::size_t>(t_fault / w);
  std::size_t last_arrival = 0;
  for (std::size_t i = 0; i < issued.size(); ++i) {
    if (issued[i] > 0) last_arrival = i;
  }
  double sum = 0;
  for (std::size_t i = first_pre; i < fault_win && i < committed.size(); ++i) {
    sum += static_cast<double>(committed[i]);
    ++r.pre_windows;
  }
  if (r.pre_windows == 0) return r;
  r.baseline = sum / static_cast<double>(r.pre_windows);
  for (std::size_t i = fault_win; i < last_arrival; ++i) {
    ++r.candidates;
    const double c = i < committed.size() ? static_cast<double>(committed[i]) : 0;
    if (c < 0.5 * r.baseline) ++r.below;
  }
  r.outage_ms = static_cast<double>(r.below) * sanfault::sim::to_millis(w);
  return r;
}

/// Samples strictly beyond the p99.9 rank of `n` samples, using the rank
/// rule of sim::HdrHistogram::quantile (target = round(0.999 n), min 1).
inline std::uint64_t p999_tail_samples(std::uint64_t n) {
  if (n == 0) return 0;
  std::uint64_t target =
      static_cast<std::uint64_t>(0.999 * static_cast<double>(n) + 0.5);
  if (target < 1) target = 1;
  return n - target;
}

/// A p99.9 is reported only when at least this many samples lie beyond it.
inline constexpr std::uint64_t kMinTailSamples = 10;

/// Confirms of hosts the benchmark knows are alive. `confirms` lists
/// (observer, confirmed) pairs; a dead observer's view is not counted, since
/// a cut-off host legitimately loses sight of everyone else.
inline std::uint64_t false_confirms(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& confirms,
    const std::vector<std::uint32_t>& killed) {
  auto dead = [&killed](std::uint32_t h) {
    for (const std::uint32_t k : killed) {
      if (k == h) return true;
    }
    return false;
  };
  std::uint64_t n = 0;
  for (const auto& [observer, target] : confirms) {
    if (!dead(observer) && !dead(target)) ++n;
  }
  return n;
}

/// busy / span, or -1 when the ratio is not a utilisation (no span, or busy
/// time exceeding the span it was measured over).
inline double utilisation(std::uint64_t busy_ns, sanfault::sim::Duration span) {
  if (span <= 0) return -1;
  const double u = static_cast<double>(busy_ns) / static_cast<double>(span);
  return u > 1.0 ? -1 : u;
}

/// failed / issued, or -1 when the base is invalid (nothing issued, or more
/// failures than requests).
inline double failed_fraction(std::uint64_t failed, std::uint64_t issued) {
  if (issued == 0 || failed > issued) return -1;
  return static_cast<double>(failed) / static_cast<double>(issued);
}

/// Checks every function above on hand-built inputs; returns one line per
/// failed check (empty = all pass).
std::vector<std::string> self_test();

}  // namespace perfbench
