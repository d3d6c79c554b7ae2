// The four benchmark workloads. Each repeat builds its rig from scratch, runs
// one serial simulation and checks its own output; main.cpp repeats it for
// the measured time and aggregates.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tracer.hpp"

namespace perfbench {

/// The committed default workload seed, and a second seed that was never
/// used while the benchmark was tuned: later changes can check that a gain
/// also holds on it.
inline constexpr std::uint64_t kDefaultSeed = 42;
inline constexpr std::uint64_t kHeldOutSeed = 20021;

/// Simulated-time width of a traffic window (outage windows, trace spans).
inline constexpr sanfault::sim::Duration kWindow = sanfault::sim::milliseconds(10);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string base;  // what a ratio or rank was computed from, for printing
};

struct RepeatResult {
  // Host CPU seconds (see HostTimer), and the wall seconds beside them.
  double setup_s = 0;  // rig build, mesh connect, preload
  double run_s = 0;    // traffic start until quiesced
  double setup_wall_s = 0;
  double run_wall_s = 0;
  /// Simulated service outcome; identical on every repeat of one seed.
  std::vector<Metric> sim;
  /// Scheduler events executed from traffic start to the end of the run.
  std::uint64_t events = 0;
  /// FNV-1a of the registry JSON (see registry_digest()).
  std::uint64_t digest = 0;
  std::vector<std::string> violations;
  /// Traced repeats only: per-layer values by name, and the spans.
  std::map<std::string, double> layers;
  std::vector<Span> spans;
};

/// A workload by name. BENCHMARK.json records why each gated one is there,
/// perfbench/run.py why the others are left out of it.
struct Workload {
  const char* name;
  RepeatResult (*run)(std::uint64_t seed, bool traced);
};

[[nodiscard]] const std::vector<Workload>& workloads();

/// Every per-layer metric, in report order, with the end-to-end metric and
/// workload it is expected to move.
struct LayerDef {
  const char* name;
  const char* unit;
  const char* moves;
};
[[nodiscard]] const std::vector<LayerDef>& layer_defs();

/// Gauges whose value a collector copies from a stats struct: their
/// high-watermark depends on how often the registry is collected, which the
/// traced run does once per window. Their "max" is left out of the digest.
[[nodiscard]] const std::vector<std::string>& digest_excluded_gauge_max();

/// FNV-1a 64 over a registry JSON export, minus the excluded gauge maxima.
[[nodiscard]] std::uint64_t registry_digest(const std::string& json,
                                            std::uint64_t h);

}  // namespace perfbench
