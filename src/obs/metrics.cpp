#include "obs/metrics.hpp"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "obs/json.hpp"
#include "sim/scheduler.hpp"

namespace sanfault::obs {

namespace {

/// Registries alive in this process, keyed by their scheduler. Entries are
/// erased by the scheduler's teardown hook, so address reuse across
/// consecutive simulations (tests, bench sweeps) cannot alias registries.
/// The map is the one piece of cross-scheduler shared state in the process,
/// so it is mutex-guarded: the bench cell runner (bench::run_cells in
/// bench/sweep.hpp) creates and destroys schedulers concurrently. A
/// Registry itself is still owned by exactly one simulation thread and is
/// not internally synchronized.
std::unordered_map<const sim::Scheduler*, std::unique_ptr<Registry>>&
registry_map() {
  static std::unordered_map<const sim::Scheduler*, std::unique_ptr<Registry>>
      map;
  return map;
}

std::mutex& registry_mutex() {
  static std::mutex m;
  return m;
}

}  // namespace

Registry& Registry::of(sim::Scheduler& sched) {
  std::lock_guard<std::mutex> lock(registry_mutex());
  auto& map = registry_map();
  auto it = map.find(&sched);
  if (it == map.end()) {
    auto reg = std::make_unique<Registry>();
    if (const char* p = std::getenv("SANFAULT_METRICS_JSON")) {
      if (*p != '\0') reg->set_export_path(p);
    }
    if (const char* t = std::getenv("SANFAULT_TRACE")) {
      const long cap = std::atol(t);
      reg->trace().enable(cap > 0 ? static_cast<std::size_t>(cap)
                                  : TraceRing::kDefaultCapacity);
    }
    Registry* raw = reg.get();
    sched.at_teardown([&sched, raw] {
      // Export outside the lock: write_json only touches this registry.
      if (!raw->export_path().empty()) raw->write_json(raw->export_path());
      std::lock_guard<std::mutex> teardown_lock(registry_mutex());
      registry_map().erase(&sched);
    });
    it = map.emplace(&sched, std::move(reg)).first;
  }
  return *it->second;
}

Registry* Registry::find(const sim::Scheduler& sched) {
  std::lock_guard<std::mutex> lock(registry_mutex());
  auto& map = registry_map();
  auto it = map.find(&sched);
  return it == map.end() ? nullptr : it->second.get();
}

Registry::Metric& Registry::get_or_create(const std::string& name, Kind kind,
                                          std::string unit, std::string help) {
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    Metric m;
    m.kind = kind;
    m.unit = std::move(unit);
    m.help = std::move(help);
    switch (kind) {
      case Kind::kCounter: m.counter = std::make_unique<Counter>(); break;
      case Kind::kGauge: m.gauge = std::make_unique<Gauge>(); break;
      case Kind::kHistogram: m.histogram = std::make_unique<Histogram>(); break;
    }
    it = metrics_.emplace(name, std::move(m)).first;
  }
  if (it->second.kind != kind) {
    throw std::logic_error("obs::Registry: metric '" + name +
                           "' re-registered with another kind");
  }
  return it->second;
}

Counter& Registry::counter(const std::string& name, std::string unit,
                           std::string help) {
  return *get_or_create(name, Kind::kCounter, std::move(unit), std::move(help))
              .counter;
}

Gauge& Registry::gauge(const std::string& name, std::string unit,
                       std::string help) {
  return *get_or_create(name, Kind::kGauge, std::move(unit), std::move(help))
              .gauge;
}

Histogram& Registry::histogram(const std::string& name, std::string unit,
                               std::string help) {
  return *get_or_create(name, Kind::kHistogram, std::move(unit),
                        std::move(help))
              .histogram;
}

void Registry::add_collector(const void* owner, Collector fn) {
  collectors_.push_back(CollectorRec{owner, std::move(fn)});
}

void Registry::remove_collectors(const void* owner) {
  // Final sync: the owner is about to die; capture its last counter values.
  for (auto& c : collectors_) {
    if (c.owner == owner) c.fn();
  }
  std::erase_if(collectors_, [owner](const CollectorRec& c) {
    return c.owner == owner;
  });
}

void Registry::collect() {
  // Collectors may register metrics but must not add/remove collectors.
  for (auto& c : collectors_) c.fn();
}

std::vector<std::string> Registry::names() const {
  std::vector<std::string> out;
  out.reserve(metrics_.size());
  for (const auto& [name, m] : metrics_) out.push_back(name);
  return out;
}

std::uint64_t Registry::counter_value(const std::string& name) const {
  auto it = metrics_.find(name);
  if (it == metrics_.end() || it->second.kind != Kind::kCounter) return 0;
  return it->second.counter->value();
}

std::string Registry::to_json() {
  collect();
  JsonWriter w;
  w.begin_object();
  w.key("metrics").begin_object();
  for (const auto& [name, m] : metrics_) {
    w.key(name).begin_object();
    switch (m.kind) {
      case Kind::kCounter:
        w.key("type").value("counter");
        if (!m.unit.empty()) w.key("unit").value(m.unit);
        w.key("value").value(m.counter->value());
        break;
      case Kind::kGauge:
        w.key("type").value("gauge");
        if (!m.unit.empty()) w.key("unit").value(m.unit);
        w.key("value").value(m.gauge->value());
        w.key("max").value(m.gauge->max());
        break;
      case Kind::kHistogram: {
        const sim::HdrHistogram& h = m.histogram->hist();
        w.key("type").value("histogram");
        if (!m.unit.empty()) w.key("unit").value(m.unit);
        w.key("count").value(h.count());
        w.key("mean").value(h.mean());
        w.key("max").value(h.max());
        w.key("p50").value(h.quantile(0.50));
        w.key("p90").value(h.quantile(0.90));
        w.key("p99").value(h.quantile(0.99));
        w.key("p999").value(h.quantile(0.999));
        break;
      }
    }
    w.end_object();
  }
  w.end_object();
  w.key("trace");
  trace_.to_json(w);
  w.end_object();
  return w.take();
}

bool Registry::write_json(const std::string& path) {
  const std::string json = to_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  return ok;
}

}  // namespace sanfault::obs
