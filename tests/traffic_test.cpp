// Tests for the open-loop traffic engine and the HDR histogram behind its
// latency reporting: percentile accuracy bounds, merge/equality semantics,
// Zipfian skew, and bit-for-bit deterministic replay of a full service run.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "kv/rig.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "traffic/engine.hpp"

namespace sanfault {
namespace {

// --- HdrHistogram ----------------------------------------------------------

TEST(HdrHistogram, BucketBoundsAreConsistent) {
  // Every value must land in a bucket whose upper bound is >= the value and
  // within the advertised 1/32 relative error of it.
  for (const std::uint64_t v :
       {0ull, 1ull, 31ull, 32ull, 33ull, 63ull, 64ull, 100ull, 1023ull,
        1024ull, 4097ull, 123456789ull, 1ull << 40, (1ull << 40) + 12345,
        ~0ull >> 1, 1ull << 63, ~0ull}) {
    const std::size_t b = sim::HdrHistogram::bucket_of(v);
    const std::uint64_t ub = sim::HdrHistogram::upper_bound(b);
    ASSERT_GE(ub, v);
    if (b > 0) {
      ASSERT_LT(sim::HdrHistogram::upper_bound(b - 1), v)
          << "v=" << v << " fits an earlier bucket";
    }
    EXPECT_LE(static_cast<double>(ub - v),
              static_cast<double>(v) / 32.0 + 1.0)
        << "bucket too coarse for v=" << v;
  }
}

TEST(HdrHistogram, SmallValuesAreExact) {
  sim::HdrHistogram h;
  for (std::uint64_t v = 0; v < 32; ++v) h.add(v);
  for (double q : {0.1, 0.25, 0.5, 0.75, 1.0}) {
    const auto exact = static_cast<std::uint64_t>(
        std::max(0.0, q * 32.0 + 0.5 - 1.0));
    EXPECT_EQ(h.quantile(q), std::min<std::uint64_t>(exact, 31));
  }
}

TEST(HdrHistogram, PercentilesWithinRelativeErrorBound) {
  // 1..100000 inserted in shuffled order; quantiles must bracket the exact
  // answer from above within one sub-bucket (~3.2% relative).
  std::vector<std::uint64_t> vals(100000);
  for (std::size_t i = 0; i < vals.size(); ++i) vals[i] = i + 1;
  sim::Rng rng(99);
  for (std::size_t i = vals.size(); i > 1; --i) {
    std::swap(vals[i - 1], vals[rng.uniform(i)]);
  }
  sim::HdrHistogram h;
  for (const auto v : vals) h.add(v);

  EXPECT_EQ(h.count(), vals.size());
  EXPECT_EQ(h.max(), 100000u);
  for (const double q : {0.50, 0.90, 0.99, 0.999}) {
    const double exact = q * 100000.0;
    const auto got = static_cast<double>(h.quantile(q));
    EXPECT_GE(got, exact - 1.0) << "q=" << q;
    EXPECT_LE(got, exact * (1.0 + 1.0 / 32.0) + 1.0) << "q=" << q;
  }
  EXPECT_EQ(h.quantile(1.0), 100000u);
  EXPECT_NEAR(h.mean(), 50000.5, 1e-6);
}

TEST(HdrHistogram, MergeMatchesCombinedStream) {
  sim::HdrHistogram a, b, all;
  sim::Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = rng.uniform(1u << 20);
    if (i % 2 == 0) {
      a.add(v);
    } else {
      b.add(v);
    }
    all.add(v);
  }
  a.merge(b);
  EXPECT_TRUE(a == all);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_EQ(a.quantile(0.99), all.quantile(0.99));

  // Ranges that differ: values below 32 (the exact buckets) and 2^20-scale
  // values, merged in both orders, equal the histogram fed both streams.
  sim::HdrHistogram small, large, both;
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t v = rng.uniform(32);
    small.add(v);
    both.add(v);
  }
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = (1u << 20) + rng.uniform(1u << 20);
    large.add(v);
    both.add(v);
  }
  sim::HdrHistogram small_then_large = small;
  small_then_large.merge(large);
  sim::HdrHistogram large_then_small = large;
  large_then_small.merge(small);
  for (const sim::HdrHistogram* h : {&small_then_large, &large_then_small}) {
    EXPECT_TRUE(*h == both);
    EXPECT_EQ(h->count(), 4000u);
    EXPECT_EQ(h->max(), both.max());
    for (const double q : {0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0}) {
      EXPECT_EQ(h->quantile(q), both.quantile(q)) << "q=" << q;
    }
  }
  // p50 is one of the small values and p90 one of the large ones.
  EXPECT_LT(both.quantile(0.5), 32u);
  EXPECT_GE(both.quantile(0.9), 1u << 20);
  // An empty histogram merges in either direction without changing a thing.
  sim::HdrHistogram empty;
  sim::HdrHistogram with_empty = small;
  with_empty.merge(empty);
  EXPECT_TRUE(with_empty == small);
  empty.merge(small);
  EXPECT_TRUE(empty == small);

  // The same values fed in a different order give an equal histogram.
  std::vector<std::uint64_t> vals;
  for (int i = 0; i < 2000; ++i) {
    vals.push_back(i % 3 == 0 ? rng.uniform(32) : rng.uniform(1u << 20));
  }
  sim::HdrHistogram forward, backward;
  for (const auto v : vals) forward.add(v);
  for (auto it = vals.rbegin(); it != vals.rend(); ++it) backward.add(*it);
  EXPECT_TRUE(forward == backward);
  EXPECT_FALSE(forward == small);
}

TEST(HdrHistogram, RecordsTheTopOfTheRange) {
  sim::HdrHistogram h;
  h.add(1);
  h.add(~0ull);
  EXPECT_EQ(h.quantile(0.5), 1u);
  EXPECT_EQ(h.quantile(1.0), ~0ull);
  EXPECT_EQ(h.max(), ~0ull);
}

// --- samplers --------------------------------------------------------------

TEST(ZipfSampler, UniformWhenThetaZero) {
  traffic::ZipfSampler z(100, 0.0);
  sim::Rng rng(3);
  std::vector<std::uint64_t> counts(100, 0);
  for (int i = 0; i < 100000; ++i) ++counts[z.sample(rng)];
  const auto [lo, hi] = std::minmax_element(counts.begin(), counts.end());
  EXPECT_GT(*lo, 700u);   // expect ~1000 each
  EXPECT_LT(*hi, 1300u);
}

TEST(ZipfSampler, SkewConcentratesOnLowRanks) {
  traffic::ZipfSampler z(1000, 0.99);
  sim::Rng rng(3);
  std::uint64_t top10 = 0;
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    if (z.sample(rng) < 10) ++top10;
  }
  // Under uniform the top-10 ranks would see ~1% of draws; Zipf(0.99) over
  // 1000 keys gives them roughly a third.
  EXPECT_GT(top10, kDraws / 10);
}

// --- deterministic replay --------------------------------------------------

traffic::TrafficStats run_once(std::uint64_t seed) {
  kv::KvRigConfig rc;
  rc.num_servers = 2;
  rc.num_client_hosts = 2;
  rc.cluster.rel.drop_interval = 5000;  // some retransmission activity
  kv::KvRig rig(rc);

  traffic::TrafficConfig tc;
  tc.num_clients = 20;
  tc.total_requests = 500;
  tc.rate_rps = 100000;
  tc.zipf_theta = 0.8;
  tc.seed = seed;
  tc.record_trace = true;
  traffic::TrafficEngine engine(rig.c.sched, rig.client_view(), tc);
  engine.start();
  const sim::Time cap = sim::seconds(60);
  while (!engine.done() && rig.c.sched.now() < cap && rig.c.sched.step()) {
  }
  EXPECT_TRUE(engine.done());
  return engine.stats();
}

TEST(TrafficEngine, RejectsNoClientHosts) {
  // Without a host, the first arrival would divide by zero picking one.
  sim::Scheduler sched;
  EXPECT_THROW(traffic::TrafficEngine(sched, {}, traffic::TrafficConfig{}),
               std::invalid_argument);
}

TEST(TrafficEngine, RejectsNoLogicalClients) {
  // With no logical client, the first arrival would index an empty
  // per-client sequence table.
  kv::KvRigConfig rc;
  rc.num_servers = 2;
  rc.num_client_hosts = 1;
  kv::KvRig rig(rc);
  traffic::TrafficConfig tc;
  tc.num_clients = 0;
  EXPECT_THROW(traffic::TrafficEngine(rig.c.sched, rig.client_view(), tc),
               std::invalid_argument);
}

TEST(TrafficEngine, RejectsNoKeys) {
  // With no key, every request would silently go to key 0.
  kv::KvRigConfig rc;
  rc.num_servers = 2;
  rc.num_client_hosts = 1;
  kv::KvRig rig(rc);
  traffic::TrafficConfig tc;
  tc.num_keys = 0;
  EXPECT_THROW(traffic::TrafficEngine(rig.c.sched, rig.client_view(), tc),
               std::invalid_argument);
  EXPECT_THROW(traffic::ZipfSampler(0, 0.99), std::invalid_argument);
  EXPECT_THROW(traffic::ZipfSampler(0, 0.0), std::invalid_argument);
}

TEST(TrafficEngine, SameSeedReplaysIdentically) {
  const auto a = run_once(1234);
  const auto b = run_once(1234);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  EXPECT_EQ(a.trace, b.trace);           // same arrivals, clients, ops, keys
  EXPECT_TRUE(a.latency == b.latency);   // same latencies, bucket for bucket
  EXPECT_EQ(a.issued, b.issued);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.retries, b.retries);
}

TEST(TrafficEngine, DifferentSeedsDiverge) {
  const auto a = run_once(1);
  const auto b = run_once(2);
  EXPECT_NE(a.trace, b.trace);
}

TEST(TrafficEngine, OpMixAndArrivalsFollowConfig) {
  kv::KvRigConfig rc;
  rc.num_servers = 2;
  rc.num_client_hosts = 1;
  kv::KvRig rig(rc);

  traffic::TrafficConfig tc;
  tc.num_clients = 10;
  tc.total_requests = 1000;
  tc.rate_rps = 200000;
  tc.get_ratio = 0.6;
  tc.del_ratio = 0.1;
  tc.poisson = false;  // fixed-rate: arrivals span exactly total/rate seconds
  tc.seed = 5;
  traffic::TrafficEngine engine(rig.c.sched, rig.client_view(), tc);
  const sim::Time start = rig.c.sched.now();
  engine.start();
  const sim::Time cap = sim::seconds(60);
  while (!engine.done() && rig.c.sched.now() < cap && rig.c.sched.step()) {
  }
  ASSERT_TRUE(engine.done());

  const auto& s = engine.stats();
  EXPECT_EQ(s.issued, 1000u);
  EXPECT_EQ(s.gets + s.puts + s.dels, 1000u);
  EXPECT_NEAR(static_cast<double>(s.gets), 600.0, 60.0);
  EXPECT_NEAR(static_cast<double>(s.dels), 100.0, 40.0);
  // 1000 arrivals at 200k/s = 5 ms of generation; completion trails by only
  // the last RPCs' latency.
  const double gen_ms = sim::to_millis(rig.c.sched.now() - start);
  EXPECT_GT(gen_ms, 4.9);
  EXPECT_LT(gen_ms, 50.0);
  EXPECT_GE(s.windows.size(), 1u);
  std::uint64_t windowed = 0;
  for (const auto& w : s.windows) windowed += w.issued;
  EXPECT_EQ(windowed, s.issued);
}

}  // namespace
}  // namespace sanfault
