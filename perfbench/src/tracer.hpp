// Span recording for the benchmark's traced run.
//
// Everything here observes the simulator from outside: spans wrap the
// benchmark's own calls into each layer's public API, and per-window counter
// deltas come from obs::Registry reads. Nothing in src/ is instrumented.
//
// A span has a name, a parent, host start/end (seconds since the repeat
// began) and simulated start/end. Spans are kept in memory and serialised
// once, after the repeat, so tracing never writes files mid-run.
#pragma once

#include <chrono>
#include <ctime>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds consumed by the calling thread.
inline double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Host cost of one phase. The simulation is single-threaded, so its CPU
/// time equals its wall time on an idle machine; unlike wall time it does
/// not grow while other tenants of a shared machine hold the core.
class HostTimer {
 public:
  HostTimer() : wall0_(Clock::now()), cpu0_(thread_cpu_s()) {}
  [[nodiscard]] double cpu_s() const { return thread_cpu_s() - cpu0_; }
  [[nodiscard]] double wall_s() const { return seconds_since(wall0_); }

 private:
  Clock::time_point wall0_;
  double cpu0_;
};

/// Schema name of a registry instance: `fabric.link_pkts{link=3,dir=ab}` ->
/// `fabric.link_pkts`.
inline std::string schema_of(const std::string& name) {
  return name.substr(0, name.find('{'));
}

/// Every counter of the registry, by full instance name (after collect()).
using CounterSnapshot = std::map<std::string, std::uint64_t>;

inline CounterSnapshot snapshot_counters(sanfault::obs::Registry& reg) {
  reg.collect();
  CounterSnapshot s;
  for (const std::string& name : reg.names()) {
    s.emplace(name, reg.counter_value(name));
  }
  return s;
}

/// Sum of `b - a` over every instance of `schema`.
inline std::uint64_t schema_delta(const CounterSnapshot& a,
                                  const CounterSnapshot& b,
                                  const std::string& schema) {
  std::uint64_t sum = 0;
  for (auto it = b.lower_bound(schema); it != b.end(); ++it) {
    if (it->first.compare(0, schema.size(), schema) != 0) break;
    if (it->first.size() != schema.size() && it->first[schema.size()] != '{') {
      continue;
    }
    const auto prev = a.find(it->first);
    sum += it->second - (prev == a.end() ? 0 : prev->second);
  }
  return sum;
}

/// Largest per-instance `b - a` over the instances of `schema`.
inline std::uint64_t schema_delta_max(const CounterSnapshot& a,
                                      const CounterSnapshot& b,
                                      const std::string& schema) {
  std::uint64_t best = 0;
  for (auto it = b.lower_bound(schema); it != b.end(); ++it) {
    if (it->first.compare(0, schema.size(), schema) != 0) break;
    if (it->first.size() != schema.size() && it->first[schema.size()] != '{') {
      continue;
    }
    const auto prev = a.find(it->first);
    const std::uint64_t d = it->second - (prev == a.end() ? 0 : prev->second);
    if (d > best) best = d;
  }
  return best;
}

struct Span {
  std::string name;
  int parent = -1;
  double host_t0 = 0, host_t1 = 0;  // seconds since the repeat began
  sanfault::sim::Time sim_t0 = 0, sim_t1 = 0;
  bool instant = false;
  std::vector<std::pair<std::string, double>> attrs;
};

/// In-memory span list. When off, open() returns -1 and every call is a
/// no-op, so the untraced run pays one branch per call site.
class Tracer {
 public:
  Tracer(bool on, Clock::time_point t0) : on_(on), t0_(t0) {}

  [[nodiscard]] bool on() const { return on_; }

  int open(std::string name, int parent, sanfault::sim::Time sim_now) {
    if (!on_) return -1;
    Span s;
    s.name = std::move(name);
    s.parent = parent;
    s.host_t0 = seconds_since(t0_);
    s.sim_t0 = sim_now;
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
  }

  void close(int id, sanfault::sim::Time sim_now) {
    if (id < 0) return;
    spans_[id].host_t1 = seconds_since(t0_);
    spans_[id].sim_t1 = sim_now;
  }

  void instant(std::string name, int parent, sanfault::sim::Time sim_now,
               std::vector<std::pair<std::string, double>> attrs = {}) {
    const int id = open(std::move(name), parent, sim_now);
    if (id < 0) return;
    spans_[id].instant = true;
    spans_[id].host_t1 = spans_[id].host_t0;
    spans_[id].sim_t1 = sim_now;
    spans_[id].attrs = std::move(attrs);
  }

  /// Append a fully built span; returns its id (-1 when off).
  int push(Span s) {
    if (!on_) return -1;
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
  }

  [[nodiscard]] double now_s() const { return seconds_since(t0_); }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
};

inline void write_spans(sanfault::obs::JsonWriter& w,
                        const std::vector<Span>& spans) {
  w.begin_array();
  for (const Span& s : spans) {
    w.begin_object();
    w.key("name").value(s.name);
    w.key("parent").value(static_cast<std::int64_t>(s.parent));
    w.key("start_ns").value(static_cast<std::uint64_t>(s.host_t0 * 1e9));
    w.key("end_ns").value(static_cast<std::uint64_t>(s.host_t1 * 1e9));
    w.key("sim_start_ns").value(static_cast<std::uint64_t>(s.sim_t0));
    w.key("sim_end_ns").value(static_cast<std::uint64_t>(s.sim_t1));
    if (s.instant) w.key("instant").value(true);
    if (!s.attrs.empty()) {
      w.key("attrs").begin_object();
      for (const auto& [k, v] : s.attrs) w.key(k).value(v);
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
}

/// A self-rescheduling event every `window` of simulated time. It runs in
/// the untraced run as well, so both runs execute the same event sequence;
/// only the traced run records a span per window, carrying the events
/// executed, the scheduler's pending-event count and the registry counter
/// deltas (summed per schema) of that window. The tick reads state and
/// never changes it, so the simulated outcome does not depend on tracing.
class WindowTicker {
 public:
  WindowTicker(sanfault::sim::Scheduler& sched, Tracer& tr, int parent,
               sanfault::sim::Duration window)
      : sched_(sched), tr_(tr), parent_(parent), window_(window) {}
  WindowTicker(const WindowTicker&) = delete;
  WindowTicker& operator=(const WindowTicker&) = delete;
  ~WindowTicker() { sched_.cancel(handle_); }

  void start() {
    last_t_ = sched_.now();
    last_events_ = sched_.events_executed();
    if (tr_.on()) {
      last_sums_ = schema_sums(sanfault::obs::Registry::of(sched_));
      last_host_ = tr_.now_s();
    }
    arm();
  }

  /// Cancel the tick and close the last (partial) window.
  void stop() {
    sched_.cancel(handle_);
    if (tr_.on() && sched_.now() > last_t_) record();
  }

  [[nodiscard]] std::size_t pending_max() const { return pending_max_; }

 private:
  static std::map<std::string, std::uint64_t> schema_sums(
      sanfault::obs::Registry& reg) {
    reg.collect();
    std::map<std::string, std::uint64_t> sums;
    for (const std::string& name : reg.names()) {
      const std::uint64_t v = reg.counter_value(name);
      if (v != 0) sums[schema_of(name)] += v;
    }
    return sums;
  }

  void arm() {
    handle_ = sched_.after(window_, [this] {
      if (tr_.on()) record();
      arm();
    });
  }

  void record() {
    const std::size_t pending = sched_.pending_events();
    if (pending > pending_max_) pending_max_ = pending;
    auto sums = schema_sums(sanfault::obs::Registry::of(sched_));
    Span s;
    s.name = "run.window";
    s.parent = parent_;
    s.host_t0 = last_host_;
    s.host_t1 = tr_.now_s();
    s.sim_t0 = last_t_;
    s.sim_t1 = sched_.now();
    s.attrs.emplace_back(
        "events",
        static_cast<double>(sched_.events_executed() - last_events_));
    s.attrs.emplace_back("pending", static_cast<double>(pending));
    for (const auto& [schema, v] : sums) {
      const auto it = last_sums_.find(schema);
      const std::uint64_t prev = it == last_sums_.end() ? 0 : it->second;
      if (v != prev) s.attrs.emplace_back(schema, static_cast<double>(v - prev));
    }
    tr_.push(std::move(s));
    last_sums_ = std::move(sums);
    last_t_ = sched_.now();
    last_events_ = sched_.events_executed();
    // The registry walk above is tracing cost; start the next window after it.
    last_host_ = tr_.now_s();
  }

  sanfault::sim::Scheduler& sched_;
  Tracer& tr_;
  int parent_;
  sanfault::sim::Duration window_;
  sanfault::sim::EventHandle handle_;
  sanfault::sim::Time last_t_ = 0;
  std::uint64_t last_events_ = 0;
  std::map<std::string, std::uint64_t> last_sums_;
  std::size_t pending_max_ = 0;
  double last_host_ = 0;
};

}  // namespace perfbench
