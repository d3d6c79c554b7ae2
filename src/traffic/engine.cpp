#include "traffic/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sanfault::traffic {

ZipfSampler::ZipfSampler(std::size_t n, double theta) : n_(n) {
  if (n == 0) throw std::invalid_argument("ZipfSampler: no keys");
  if (theta <= 0.0) return;  // uniform
  cdf_.resize(n);
  double sum = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), theta);
    cdf_[r] = sum;
  }
  for (auto& c : cdf_) c /= sum;
}

std::uint64_t ZipfSampler::sample(sim::Rng& rng) const {
  if (cdf_.empty()) return rng.uniform(n_);
  const double u = rng.uniform_double();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::uint64_t>(it - cdf_.begin());
}

TrafficEngine::TrafficEngine(sim::Scheduler& sched,
                             std::vector<kv::KvClientHost*> hosts,
                             TrafficConfig cfg)
    : sched_(sched),
      hosts_(std::move(hosts)),
      cfg_(cfg),
      rng_(cfg.seed),
      keys_(cfg.num_keys, cfg.zipf_theta),
      next_seq_(cfg.num_clients, 0) {
  if (hosts_.empty()) {
    throw std::invalid_argument("TrafficEngine: no client hosts");
  }
  if (cfg_.num_clients == 0) {
    throw std::invalid_argument("TrafficEngine: no logical clients");
  }

  obs::Registry& reg = obs::Registry::of(sched_);
  req_latency_ = &reg.histogram("traffic.request_latency_ns", "ns");
  reg.add_collector(this, [this, &reg] {
    const TrafficStats& s = stats_;
    reg.counter("traffic.issued", "requests").set(s.issued);
    reg.counter("traffic.completed", "requests").set(s.completed);
    reg.counter("traffic.ok", "requests").set(s.ok);
    reg.counter("traffic.failed", "requests").set(s.failed);
    reg.counter("traffic.retries", "attempts").set(s.retries);
    reg.counter("traffic.failovers", "calls").set(s.failovers);
    reg.counter("traffic.gets", "requests").set(s.gets);
    reg.counter("traffic.puts", "requests").set(s.puts);
    reg.counter("traffic.dels", "requests").set(s.dels);
  });
}

TrafficEngine::~TrafficEngine() {
  if (auto* r = obs::Registry::find(sched_)) r->remove_collectors(this);
}

void TrafficEngine::start() { generate(); }

WindowCounters& TrafficEngine::window_at(sim::Time t) {
  const auto idx = static_cast<std::size_t>(t / cfg_.window);
  if (idx >= stats_.windows.size()) stats_.windows.resize(idx + 1);
  return stats_.windows[idx];
}

sim::Process TrafficEngine::generate() {
  const double mean_gap_ns = 1e9 / cfg_.rate_rps;
  for (std::uint64_t i = 0; i < cfg_.total_requests; ++i) {
    // Open loop: the next arrival is scheduled regardless of outstanding
    // work. Poisson gaps are -ln(U) * mean; fixed-rate gaps are the mean.
    double gap = mean_gap_ns;
    if (cfg_.poisson) {
      const double u = std::max(rng_.uniform_double(), 1e-12);
      gap = -std::log(u) * mean_gap_ns;
    }
    co_await sim::DelayFor{sched_, static_cast<sim::Duration>(gap)};

    const std::uint64_t client = rng_.uniform(cfg_.num_clients);
    const std::uint64_t key = keys_.sample(rng_);
    const double roll = rng_.uniform_double();
    kv::Op op = kv::Op::kPut;
    if (roll < cfg_.get_ratio) {
      op = kv::Op::kGet;
    } else if (roll < cfg_.get_ratio + cfg_.del_ratio) {
      op = kv::Op::kDel;
    }
    const kv::RequestId id{client, ++next_seq_[client]};
    std::vector<std::uint8_t> value;
    if (op == kv::Op::kPut) {
      const std::size_t size =
          cfg_.value_min +
          static_cast<std::size_t>(
              rng_.uniform(cfg_.value_max - cfg_.value_min + 1));
      value = kv::make_value(id, size);
    }
    if (cfg_.record_trace) {
      stats_.trace.push_back(TraceEntry{
          sched_.now(), client, op, key,
          static_cast<std::uint32_t>(value.size())});
    }
    run_op(client, id, op, key, std::move(value));

    // Quartile phase announcements, each exactly once, in issue order.
    const std::uint64_t issued = i + 1;
    const std::uint64_t total = cfg_.total_requests;
    if (issued == (total + 3) / 4) {
      announce_phase("p25");
    } else if (issued == (total + 1) / 2) {
      announce_phase("p50");
    } else if (issued == (total * 3 + 3) / 4) {
      announce_phase("p75");
    }
  }
}

sim::Process TrafficEngine::run_op(std::uint64_t client, kv::RequestId id,
                                   kv::Op op, std::uint64_t key,
                                   std::vector<std::uint8_t> value) {
  kv::KvClientHost& host = *hosts_[client % hosts_.size()];
  ++stats_.issued;
  ++window_at(sched_.now()).issued;
  switch (op) {
    case kv::Op::kGet: ++stats_.gets; break;
    case kv::Op::kPut: ++stats_.puts; break;
    case kv::Op::kDel: ++stats_.dels; break;
  }
  const bool is_write = op != kv::Op::kGet;
  if (is_write) shadow_.record_issued_write(id, key);

  kv::Outcome o = co_await host.call(id, op, key, std::move(value));

  ++stats_.completed;
  stats_.retries += static_cast<std::uint64_t>(std::max(o.attempts - 1, 0));
  stats_.failovers += static_cast<std::uint64_t>(o.failovers);
  WindowCounters& w = window_at(o.completed_at);
  w.retries += static_cast<std::uint64_t>(std::max(o.attempts - 1, 0));
  if (o.ok()) {
    ++stats_.ok;
    ++w.ok;
    stats_.latency.add(o.latency());
    req_latency_->record(static_cast<std::uint64_t>(o.latency()));
    if (is_write) shadow_.record_committed(id);
  } else {
    ++stats_.failed;
    ++w.failed;
  }
  if (done() && !drained_announced_) {
    drained_announced_ = true;
    announce_phase("drained");
  }
}

}  // namespace sanfault::traffic
