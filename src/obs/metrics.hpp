// Low-overhead metrics registry: the observability substrate every layer of
// the stack reports into (see docs/OBSERVABILITY.md for the full schema).
//
// Three metric kinds:
//  * Counter   — monotonic uint64 (events since simulation start);
//  * Gauge     — int64 level with a high-watermark (queue depths, free
//                buffer counts);
//  * Histogram — sim::HdrHistogram of uint64 samples (latencies, depths),
//                exported as count/mean/max + p50/p90/p99/p99.9.
//
// Instrumented name scheme: `<layer>.<metric>{label=value,...}` — e.g.
// `firmware.retransmissions{node=3}`. The part before `{` is the metric's
// schema name; labels distinguish instances. Export aggregates nothing: one
// entry per instance, consumers (scripts/metrics_diff.py) aggregate by
// stripping labels.
//
// Hot-path cost: an increment through a cached Counter* is one add; after
// registration only a histogram allocates, when a sample reaches a new
// highest bucket. Components that already keep a cheap stats struct
// register a *collector* instead — a callback run just before every export
// that copies the struct into registry counters — so their fast paths stay
// untouched (pull model, as Prometheus collectors do it). Collectors
// are keyed by an owner pointer and MUST be removed in the owner's
// destructor (remove_collectors runs them one last time, so final values
// survive into the teardown export).
//
// One Registry exists per simulation: `Registry::of(sched)` creates it on
// first use and ties its lifetime to the scheduler via the teardown hook.
// If SANFAULT_METRICS_JSON names a file, the registry writes its full JSON
// there at scheduler teardown; SANFAULT_TRACE=<capacity> enables the
// packet-lifecycle trace ring (obs/trace.hpp) from the environment.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "sim/stats.hpp"

namespace sanfault::sim {
class Scheduler;
}

namespace sanfault::obs {

class JsonWriter;

/// Monotonic event counter. set() is for collectors mirroring an existing
/// stats struct and never moves the value backwards.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_ += n; }
  void set(std::uint64_t v) {
    if (v > v_) v_ = v;
  }
  [[nodiscard]] std::uint64_t value() const { return v_; }

 private:
  std::uint64_t v_ = 0;
};

/// Instantaneous level plus the highest level ever seen.
class Gauge {
 public:
  void set(std::int64_t v) {
    v_ = v;
    if (v > max_) max_ = v;
  }
  void add(std::int64_t d) { set(v_ + d); }
  [[nodiscard]] std::int64_t value() const { return v_; }
  [[nodiscard]] std::int64_t max() const { return max_; }

 private:
  std::int64_t v_ = 0;
  std::int64_t max_ = 0;
};

/// Windowed distribution over the whole run (sim::HdrHistogram: ~3% relative
/// error; recording allocates only when a sample reaches a new highest
/// bucket).
class Histogram {
 public:
  void record(std::uint64_t v) { h_.add(v); }
  [[nodiscard]] const sim::HdrHistogram& hist() const { return h_; }

 private:
  sim::HdrHistogram h_;
};

class Registry {
 public:
  using Collector = std::function<void()>;

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Per-simulation registry, created on first use and destroyed (after an
  /// optional final JSON export) when `sched` is destroyed.
  static Registry& of(sim::Scheduler& sched);

  /// The registry for `sched` if one exists, else nullptr. Component
  /// destructors use this so deregistration is safe regardless of whether
  /// the scheduler (and with it the registry) died first.
  static Registry* find(const sim::Scheduler& sched);

  // Lookup-or-create. `name` is the full instance name including labels;
  // `unit` and `help` are recorded on first creation (later calls may pass
  // empty strings). Returned references are stable for the registry's life.
  // A name already registered as another kind throws std::logic_error.
  Counter& counter(const std::string& name, std::string unit = {},
                   std::string help = {});
  Gauge& gauge(const std::string& name, std::string unit = {},
               std::string help = {});
  Histogram& histogram(const std::string& name, std::string unit = {},
                       std::string help = {});

  /// Register a pull-collector owned by `owner`. Collectors run, in
  /// registration order, before every export/snapshot.
  void add_collector(const void* owner, Collector fn);

  /// Run `owner`'s collectors one final time, then drop them. Must be called
  /// from the owner's destructor (the registry outlives components).
  void remove_collectors(const void* owner);

  /// Run all collectors now (tests use this to observe live counters).
  void collect();

  [[nodiscard]] TraceRing& trace() { return trace_; }

  /// All metric instance names, sorted (export order).
  [[nodiscard]] std::vector<std::string> names() const;

  /// Read a counter's current value; 0 if absent. Does not collect.
  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const;

  /// collect() + serialize the full registry (metrics + trace ring) as one
  /// JSON object.
  std::string to_json();

  /// to_json() into `path`; false on I/O failure.
  bool write_json(const std::string& path);

  /// Where the teardown export goes ("" = no automatic export).
  void set_export_path(std::string path) { export_path_ = std::move(path); }
  [[nodiscard]] const std::string& export_path() const { return export_path_; }

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

  struct Metric {
    Kind kind;
    std::string unit;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  struct CollectorRec {
    const void* owner;
    Collector fn;
  };

  Metric& get_or_create(const std::string& name, Kind kind, std::string unit,
                        std::string help);

  // std::map: export iterates it; sorted order keeps every JSON dump (and
  // thus golden-file comparisons) deterministic.
  std::map<std::string, Metric> metrics_;
  std::vector<CollectorRec> collectors_;
  TraceRing trace_;
  std::string export_path_;
};

}  // namespace sanfault::obs
