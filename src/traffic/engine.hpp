// Open-loop traffic engine for service workloads.
//
// Unlike the closed-loop micro-benchmarks (next request only after the
// previous reply), an open-loop population keeps issuing on its arrival
// process no matter how the system is doing — which is what makes tail
// latency and outage behavior visible: requests that arrive during a path
// failure pile up and their queueing shows in p99/p99.9, exactly the view a
// production service has of the paper's mechanisms.
//
//  * arrivals: Poisson (exponential gaps) or fixed-rate, aggregate across
//    `num_clients` logical clients multiplexed over the rig's client hosts;
//  * key popularity: uniform or Zipfian (theta > 0) over `num_keys`;
//  * op mix: GET / PUT / DEL by configured ratios; PUT values carry the
//    writer's RequestId (audit provenance) and a sampled size;
//  * recording: HDR-style latency histogram (p50..p99.9), per-window
//    issued/completed/retry counters, total retry/failover/timeout counts,
//    a ShadowMap of issued+committed writes for the post-run audit, and an
//    optional full request trace for determinism tests.
//
// Everything is driven by one seeded sim::Rng, so a (config, seed) pair
// replays to an identical trace and histogram.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "kv/audit.hpp"
#include "kv/client.hpp"
#include "kv/shard_map.hpp"
#include "obs/metrics.hpp"
#include "sim/awaitables.hpp"
#include "sim/process.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"

namespace sanfault::traffic {

struct TrafficConfig {
  std::size_t num_clients = 1000;
  std::uint64_t total_requests = 10000;
  /// Aggregate arrival rate, requests per simulated second.
  double rate_rps = 100000.0;
  bool poisson = true;  // false = fixed-rate arrivals
  double get_ratio = 0.50;
  double del_ratio = 0.05;  // remainder is PUT
  std::size_t num_keys = 4096;
  /// 0 = uniform; > 0 = Zipfian with this exponent (1.0 ~ classic web skew).
  double zipf_theta = 0.0;
  std::size_t value_min = 64;
  std::size_t value_max = 512;
  std::uint64_t seed = 1;
  sim::Duration window = sim::milliseconds(10);
  bool record_trace = false;
};

struct TraceEntry {
  sim::Time at = 0;
  std::uint64_t client = 0;
  kv::Op op = kv::Op::kGet;
  std::uint64_t key = 0;
  std::uint32_t value_bytes = 0;
  auto operator<=>(const TraceEntry&) const = default;
};

struct WindowCounters {
  std::uint64_t issued = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;
};

struct TrafficStats {
  sim::HdrHistogram latency;  // ns, successful requests only
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;   // retries exhausted (unavailability)
  std::uint64_t retries = 0;  // re-posts beyond the first attempt
  std::uint64_t failovers = 0;
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;
  std::uint64_t dels = 0;
  std::vector<WindowCounters> windows;
  std::vector<TraceEntry> trace;

  [[nodiscard]] double availability() const {
    return completed ? static_cast<double>(ok) / static_cast<double>(completed)
                     : 1.0;
  }
};

/// Zipfian rank sampler: P(rank r) proportional to 1/(r+1)^theta, via a
/// precomputed CDF + binary search. theta == 0 degenerates to uniform.
class ZipfSampler {
 public:
  /// Throws std::invalid_argument when `n` is 0.
  ZipfSampler(std::size_t n, double theta);
  std::uint64_t sample(sim::Rng& rng) const;

 private:
  std::size_t n_;
  std::vector<double> cdf_;  // empty for uniform
};

class TrafficEngine {
 public:
  /// Logical client c issues through hosts[c % hosts.size()]. Throws
  /// std::invalid_argument when `hosts` is empty or the config has no
  /// logical clients or no keys.
  TrafficEngine(sim::Scheduler& sched, std::vector<kv::KvClientHost*> hosts,
                TrafficConfig cfg);
  ~TrafficEngine();

  /// Spawn the arrival generator; requests fan out as their own processes.
  void start();

  /// All generated requests have completed (successfully or not).
  [[nodiscard]] bool done() const {
    return stats_.completed == cfg_.total_requests;
  }

  /// Workload phase announcements: "p25"/"p50"/"p75" as the generator
  /// crosses 25/50/75% of total_requests issued, and "drained" when the
  /// last request completes. Each phase fires exactly once; the chaos
  /// campaign engine (src/chaos) anchors phase-triggered fault events here.
  using PhaseHook = std::function<void(std::string_view)>;
  void set_phase_hook(PhaseHook hook) { phase_hook_ = std::move(hook); }

  [[nodiscard]] const TrafficStats& stats() const { return stats_; }
  [[nodiscard]] const kv::ShadowMap& shadow() const { return shadow_; }
  [[nodiscard]] const TrafficConfig& config() const { return cfg_; }

 private:
  sim::Process generate();
  sim::Process run_op(std::uint64_t client, kv::RequestId id, kv::Op op,
                      std::uint64_t key, std::vector<std::uint8_t> value);
  WindowCounters& window_at(sim::Time t);
  void announce_phase(std::string_view phase) {
    if (phase_hook_) phase_hook_(phase);
  }

  sim::Scheduler& sched_;
  std::vector<kv::KvClientHost*> hosts_;
  TrafficConfig cfg_;
  sim::Rng rng_;
  ZipfSampler keys_;
  std::vector<std::uint64_t> next_seq_;  // per logical client
  TrafficStats stats_;
  kv::ShadowMap shadow_;
  PhaseHook phase_hook_;
  bool drained_announced_ = false;
  obs::Histogram* req_latency_ = nullptr;  // successful requests only
};

}  // namespace sanfault::traffic
