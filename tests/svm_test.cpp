// Tests for the home-based SVM runtime: page fetch/write-back correctness,
// barrier and lock semantics, time-category accounting, and survival under
// injected network errors.
#include <gtest/gtest.h>

#include <vector>

#include "harness/cluster.hpp"
#include "svm/runtime.hpp"

namespace sanfault {
namespace {

using harness::Cluster;
using harness::ClusterConfig;
using harness::FirmwareKind;

ClusterConfig cluster_cfg(std::size_t nodes = 4) {
  ClusterConfig cfg;
  cfg.num_hosts = nodes;
  cfg.fw = FirmwareKind::kReliable;
  return cfg;
}

TEST(Svm, SetupCreatesProcsAcrossNodes) {
  Cluster c(cluster_cfg());
  svm::Runtime rt(c, {}, 2);
  EXPECT_EQ(rt.num_procs(), 8);
  EXPECT_EQ(rt.proc(0).node(), 0u);
  EXPECT_EQ(rt.proc(1).node(), 0u);
  EXPECT_EQ(rt.proc(2).node(), 1u);
  EXPECT_EQ(rt.proc(7).node(), 3u);
}

TEST(Svm, HomeDistributionCoversAllNodes) {
  Cluster c(cluster_cfg());
  svm::Runtime rt(c, {}, 2);
  auto r = rt.create_region(16 * 4096);
  std::vector<int> counts(4, 0);
  for (std::uint32_t p = 0; p < 16; ++p) {
    ++counts[rt.home_of_page(r, p)];
  }
  for (int n = 0; n < 4; ++n) EXPECT_EQ(counts[n], 4) << "node " << n;
}

TEST(Svm, RemoteWriteThenReadSeesData) {
  Cluster c(cluster_cfg());
  svm::Runtime rt(c, {}, 2);
  auto r = rt.create_region(16 * 4096);
  // Proc 0 (node 0) writes a pattern into pages homed on node 3, then all
  // barrier; proc 6 (node 3) verifies.
  bool verified = false;
  rt.run([&](svm::Proc& p) -> sim::Task<void> {
    if (p.id() == 0) {
      auto span = co_await p.acquire(r, 12 * 4096, 4096);
      for (std::size_t i = 0; i < 4096; ++i) {
        span[i] = static_cast<std::uint8_t>(i * 3);
      }
      p.mark_dirty(r, 12 * 4096, 4096);
    }
    co_await p.barrier();
    if (p.id() == 6) {
      auto span = co_await p.acquire(r, 12 * 4096, 4096);
      bool ok = true;
      for (std::size_t i = 0; i < 4096; ++i) {
        ok = ok && span[i] == static_cast<std::uint8_t>(i * 3);
      }
      verified = ok;
    }
    co_await p.barrier();
  });
  EXPECT_TRUE(verified);
  EXPECT_GT(rt.stats().page_fetches, 0u);
  EXPECT_GT(rt.stats().write_backs, 0u);
}

TEST(Svm, BarrierIsABarrier) {
  Cluster c(cluster_cfg());
  svm::Runtime rt(c, {}, 2);
  std::vector<sim::Time> before(8), after(8);
  rt.run([&](svm::Proc& p) -> sim::Task<void> {
    // Stagger arrivals.
    co_await p.compute(sim::microseconds(static_cast<std::uint64_t>(
        10 * (p.id() + 1))));
    before[static_cast<std::size_t>(p.id())] = c.sched.now();
    co_await p.barrier();
    after[static_cast<std::size_t>(p.id())] = c.sched.now();
  });
  const sim::Time max_before = *std::max_element(before.begin(), before.end());
  const sim::Time min_after = *std::min_element(after.begin(), after.end());
  EXPECT_GE(min_after, max_before);
}

TEST(Svm, BarriersAreReusable) {
  Cluster c(cluster_cfg(2));
  svm::Runtime rt(c, {}, 2);
  int rounds_done = 0;
  rt.run([&](svm::Proc& p) -> sim::Task<void> {
    for (int i = 0; i < 5; ++i) {
      co_await p.barrier();
      if (p.id() == 0) ++rounds_done;
    }
  });
  EXPECT_EQ(rounds_done, 5);
  EXPECT_EQ(rt.stats().barriers, 5u);
}

TEST(Svm, LocksProvideMutualExclusion) {
  Cluster c(cluster_cfg());
  svm::Runtime rt(c, {}, 2);
  bool in_cs = false;
  bool violation = false;
  int entries = 0;
  rt.run([&](svm::Proc& p) -> sim::Task<void> {
    for (int i = 0; i < 4; ++i) {
      co_await p.lock(7);
      if (in_cs) violation = true;
      in_cs = true;
      ++entries;
      co_await p.compute(sim::microseconds(5));
      in_cs = false;
      co_await p.unlock(7);
    }
  });
  EXPECT_FALSE(violation);
  EXPECT_EQ(entries, 32);
}

TEST(Svm, ManyLocksAreIndependent) {
  Cluster c(cluster_cfg());
  svm::Runtime rt(c, {}, 2);
  // Each proc uses its own lock: no contention, all complete quickly.
  rt.run([&](svm::Proc& p) -> sim::Task<void> {
    for (int i = 0; i < 8; ++i) {
      co_await p.lock(static_cast<std::uint32_t>(100 + p.id()));
      co_await p.unlock(static_cast<std::uint32_t>(100 + p.id()));
    }
  });
  EXPECT_EQ(rt.stats().lock_requests, 64u);
}

TEST(Svm, PageCachingAvoidsRefetchUntilBarrier) {
  Cluster c(cluster_cfg());
  svm::Runtime rt(c, {}, 2);
  auto r = rt.create_region(16 * 4096);
  rt.run([&](svm::Proc& p) -> sim::Task<void> {
    if (p.id() == 0) {
      (void)co_await p.acquire(r, 12 * 4096, 4096);  // remote: fetch
      (void)co_await p.acquire(r, 12 * 4096, 4096);  // cached: no fetch
    }
    co_await p.barrier();
    if (p.id() == 0) {
      (void)co_await p.acquire(r, 12 * 4096, 4096);  // invalidated: fetch
    }
    co_await p.barrier();
  });
  EXPECT_EQ(rt.stats().page_fetches, 2u);
  EXPECT_GE(rt.stats().local_page_hits, 1u);
}

TEST(Svm, TimeCategoriesAccumulateWhereExpected) {
  Cluster c(cluster_cfg());
  svm::Runtime rt(c, {}, 2);
  auto r = rt.create_region(16 * 4096);
  rt.run([&](svm::Proc& p) -> sim::Task<void> {
    co_await p.compute(sim::microseconds(50));
    if (p.node() != 3) {
      (void)co_await p.acquire(r, 13 * 4096, 4096);  // homed on node 3
    }
    co_await p.lock(1);
    co_await p.unlock(1);
    co_await p.barrier();
  });
  for (int i = 0; i < 8; ++i) {
    auto& t = rt.proc(i).times();
    EXPECT_GE(t.compute, sim::microseconds(50)) << "proc " << i;
    EXPECT_GT(t.barrier, 0u) << "proc " << i;
    EXPECT_GT(t.lock, 0u) << "proc " << i;
    if (rt.proc(i).node() != 3) {
      EXPECT_GT(t.data, 0u) << "proc " << i;
    }
  }
}

TEST(Svm, SurvivesInjectedDropsWithCorrectData) {
  auto cfg = cluster_cfg();
  cfg.rel.drop_interval = 10;
  Cluster c(cfg);
  svm::Runtime rt(c, {}, 2);
  auto r = rt.create_region(32 * 4096);
  bool all_ok = true;
  rt.run([&](svm::Proc& p) -> sim::Task<void> {
    // Each proc fills its slice (4 pages), everyone barriers, then each
    // proc verifies the next proc's slice.
    const std::size_t slice = 4 * 4096;
    const std::size_t mine = static_cast<std::size_t>(p.id()) * slice;
    auto span = co_await p.acquire(r, mine, slice);
    for (std::size_t i = 0; i < slice; ++i) {
      span[i] = static_cast<std::uint8_t>(i + static_cast<std::size_t>(p.id()));
    }
    p.mark_dirty(r, mine, slice);
    co_await p.barrier();
    const auto nxt = static_cast<std::size_t>((p.id() + 1) % 8);
    auto peer = co_await p.acquire(r, nxt * slice, slice);
    for (std::size_t i = 0; i < slice; ++i) {
      if (peer[i] != static_cast<std::uint8_t>(i + nxt)) {
        all_ok = false;
        break;
      }
    }
    co_await p.barrier();
  });
  EXPECT_TRUE(all_ok);
  EXPECT_GT(c.rel(0).stats().injected_drops +
                c.rel(1).stats().injected_drops +
                c.rel(2).stats().injected_drops +
                c.rel(3).stats().injected_drops,
            0u);
}

TEST(Svm, ContendedRemoteLockQueuesFairly) {
  Cluster c(cluster_cfg(2));
  svm::Runtime rt(c, {}, 1);
  std::vector<int> order;
  rt.run([&](svm::Proc& p) -> sim::Task<void> {
    // Lock 1 homed on node 1; both procs contend 3 times each.
    for (int i = 0; i < 3; ++i) {
      co_await p.lock(1);
      order.push_back(p.id());
      co_await p.compute(sim::microseconds(20));
      co_await p.unlock(1);
      co_await p.compute(sim::microseconds(1));
    }
  });
  EXPECT_EQ(order.size(), 6u);
  EXPECT_GT(rt.stats().remote_lock_requests, 0u);
}

}  // namespace
}  // namespace sanfault
