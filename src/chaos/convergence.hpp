// The self-stabilization convergence cell (docs/CHAOS.md "State
// corruption"): the one scenario behind the SelfStabilization battery
// (tests/property_test.cpp), `bench_chaos --corrupt-smoke` and the nightly
// `bench_chaos --soak`.
//
// One case garbles one class of live protocol state three times mid-stream
// through the chaos DSL (all three rewrite modes, seed-rotated) under light
// link noise, kills a trunk on the primary route for good measure, and then
// checks the Dolev-style convergence property:
//  * Phase A (under corruption): first deliveries in submission order, no
//    silent loss except from receiver-cursor (`ack`) corruption, which can
//    forfeit at most the in-flight window;
//  * a witness: at least one scrub repair, generation restart or NIC reset
//    at/after the first corruption — corrupted state is repaired, never
//    silently tolerated;
//  * Phase B (after the scrub horizon): a fresh message burst delivered
//    exactly once, in order.
//
// Violations come back as data; each caller reports them its own way.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/scenario.hpp"
#include "harness/cluster.hpp"

namespace sanfault::chaos {

struct ConvergenceResult {
  std::string dsl;            // exact scenario text — the replay recipe
  std::string chaos_log;      // engine log incl. corruption audit lines
  std::string fw_stats;       // endpoint scrub/restart counters
  std::uint64_t applied = 0;  // corruptions that rewrote live state
  std::uint64_t witness = 0;  // repair events at/after the first corruption
  std::string metrics_json;   // registry dump, when asked for
  std::vector<std::string> violations;  // empty == converged
  [[nodiscard]] bool converged() const { return violations.empty(); }
};

/// Run one case on a `num_hosts`-host `topo` fabric; the link noise, the
/// corruptions and the fabric all derive from `seed`. The scenario is named
/// `soak-<class>-<seed>` (a name seeds nothing; it only reaches the DSL).
ConvergenceResult run_convergence_case(harness::TopoKind topo,
                                       std::size_t num_hosts, CorruptState cls,
                                       std::uint64_t seed,
                                       bool want_metrics = false);

}  // namespace sanfault::chaos
