// Semantics tests for the performance-oriented scheduler internals: lazy
// cancellation, slot/generation reuse, heap compaction, the inline-capture
// (spill) budget of the packet hot path, and the determinism contract the
// parallel sweep runner (bench/parallel_sweep.hpp) relies on. The basics
// (ordering, FIFO ties, cancel visibility) live in sim_scheduler_test.cpp;
// these tests drive the edges the lazy representation introduces.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness/cluster.hpp"
#include "harness/microbench.hpp"
#include "kv/rig.hpp"
#include "obs/metrics.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/server.hpp"
#include "traffic/engine.hpp"

namespace sanfault {
namespace {

// --- lazy cancellation -----------------------------------------------------

TEST(SchedLazyCancel, CancelledEventNeverFiresEvenAmongLiveTies) {
  sim::Scheduler s;
  std::vector<int> fired;
  // Three events at the same timestamp; cancel the middle one. FIFO order of
  // the survivors must hold and the cancelled one must be skipped silently.
  s.at(10, [&] { fired.push_back(0); });
  auto h = s.at(10, [&] { fired.push_back(1); });
  s.at(10, [&] { fired.push_back(2); });
  EXPECT_TRUE(s.cancel(h));
  s.run();
  EXPECT_EQ(fired, (std::vector<int>{0, 2}));
}

TEST(SchedLazyCancel, PendingReflectsCancelImmediately) {
  sim::Scheduler s;
  auto h = s.at(5, [] {});
  EXPECT_TRUE(s.pending(h));
  EXPECT_TRUE(s.cancel(h));
  // Lazy cancellation leaves the heap entry in place; pending() must still
  // report dead instantly, and pending_events() must not count it.
  EXPECT_FALSE(s.pending(h));
  EXPECT_EQ(s.pending_events(), 0u);
  EXPECT_FALSE(s.cancel(h));
  s.run();
  EXPECT_EQ(s.events_executed(), 0u);
}

TEST(SchedLazyCancel, CancelReleasesCallableResourcesImmediately) {
  sim::Scheduler s;
  auto token = std::make_shared<int>(42);
  std::weak_ptr<int> watch = token;
  auto h = s.at(5, [token = std::move(token)] { (void)*token; });
  EXPECT_FALSE(watch.expired());
  EXPECT_TRUE(s.cancel(h));
  // The callable (and anything it captured) must be destroyed at cancel
  // time, not when the dead heap entry is eventually skimmed.
  EXPECT_TRUE(watch.expired());
  s.run();
}

TEST(SchedLazyCancel, RunUntilIgnoresCancelledTopEntry) {
  sim::Scheduler s;
  bool late_fired = false;
  auto h = s.at(10, [] {});
  s.at(100, [&] { late_fired = true; });
  EXPECT_TRUE(s.cancel(h));
  // A cancelled entry at t=10 sits on top of the heap. run_until(50) must
  // neither fire the live t=100 event nor let the dead entry's timestamp
  // decide the horizon.
  s.run_until(50);
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(s.now(), 50u);
  s.run();
  EXPECT_TRUE(late_fired);
}

// --- slot/generation reuse -------------------------------------------------

TEST(SchedGeneration, StaleHandleCannotTouchRecycledSlot) {
  sim::Scheduler s;
  int first = 0;
  int second = 0;
  auto h1 = s.at(1, [&] { ++first; });
  s.run();
  EXPECT_EQ(first, 1);
  // h1's slot is now free. Schedule a new event — with one live slot the
  // pool will reuse it — and check the stale handle cannot cancel it.
  auto h2 = s.at(2, [&] { ++second; });
  EXPECT_FALSE(s.pending(h1));
  EXPECT_FALSE(s.cancel(h1));
  EXPECT_TRUE(s.pending(h2));
  s.run();
  EXPECT_EQ(second, 1);
}

TEST(SchedGeneration, HeavyReuseKeepsHandlesUnambiguous) {
  sim::Scheduler s;
  sim::Rng rng(7);
  // Stress slot recycling: many rounds of schedule/cancel/execute. Track
  // what must fire and what must not; any generation aliasing shows up as a
  // cancelled event firing or a live one getting killed by a stale handle.
  std::uint64_t expected = 0;
  std::vector<sim::EventHandle> stale;
  for (int round = 0; round < 200; ++round) {
    std::vector<sim::EventHandle> mine;
    for (int i = 0; i < 8; ++i) {
      mine.push_back(s.after(1 + rng.uniform(5), [] {}));
    }
    // Cancel a random half; stale handles from prior rounds must all miss.
    for (int i = 0; i < 4; ++i) {
      const auto& h = mine[rng.uniform(mine.size())];
      if (s.pending(h)) {
        EXPECT_TRUE(s.cancel(h));
      }
    }
    for (const auto& h : stale) {
      EXPECT_FALSE(s.cancel(h)) << "stale handle cancelled a recycled slot";
    }
    for (const auto& h : mine) {
      if (s.pending(h)) ++expected;
    }
    stale = std::move(mine);
    s.run();
  }
  EXPECT_EQ(s.events_executed(), expected);
}

// --- compaction ------------------------------------------------------------

TEST(SchedCompaction, MassCancelStillRunsSurvivorsInOrder) {
  sim::Scheduler s;
  // Push well past the compaction threshold (64 cancelled, > half the heap),
  // cancel all but every 10th event, and check the survivors execute in
  // exact time order. Compaction rebuilds the heap; a bug there shows up as
  // misordered or lost events.
  std::vector<sim::EventHandle> handles;
  std::vector<std::uint64_t> fired;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    handles.push_back(s.at(1000 + i, [&fired, i] { fired.push_back(i); }));
  }
  std::vector<std::uint64_t> survivors;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    if (i % 10 == 0) {
      survivors.push_back(i);
    } else {
      EXPECT_TRUE(s.cancel(handles[i]));
    }
  }
  EXPECT_EQ(s.pending_events(), survivors.size());
  // pending() must stay truthful across compaction's slot shuffling.
  for (std::uint64_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(s.pending(handles[i]), i % 10 == 0);
  }
  s.run();
  EXPECT_EQ(fired, survivors);
  EXPECT_EQ(s.events_executed(), survivors.size());
}

TEST(SchedCompaction, CancelDuringExecutionWindow) {
  sim::Scheduler s;
  // Cancelling from inside a running event, targeting both earlier-armed and
  // later-armed events at the same and later times.
  std::vector<int> fired;
  sim::EventHandle victim_same_t;
  sim::EventHandle victim_later;
  s.at(10, [&] {
    fired.push_back(0);
    EXPECT_TRUE(s.cancel(victim_same_t));
    EXPECT_TRUE(s.cancel(victim_later));
  });
  victim_same_t = s.at(10, [&] { fired.push_back(1); });
  victim_later = s.at(20, [&] { fired.push_back(2); });
  s.at(30, [&] { fired.push_back(3); });
  s.run();
  EXPECT_EQ(fired, (std::vector<int>{0, 3}));
}

// --- order golden ----------------------------------------------------------

// A seeded mix of schedules whose run order is folded into an FNV-1a digest.
// Each round schedules at now(), onto one shared tie time, near now() (more
// ties) and at random future times; cancels past the compaction threshold;
// and runs part of the queue, so freed slots are reused while earlier ties
// are still pending and a later event often holds a lower slot than an
// earlier one at the same time. Running events schedule children at now().
class OrderMix {
 public:
  explicit OrderMix(std::uint64_t seed) : rng_(seed) {}

  void rounds(int n) {
    for (int r = 0; r < n; ++r) round();
  }

  void drain() { s_.run(); }

  // Drain the queue, then schedule and run no-op events one at a time until
  // `seq` schedules have been made in all, so the mix that follows hands out
  // sequence numbers from there.
  void advance_seq_to(std::uint64_t seq) {
    drain();
    for (; scheduled_ < seq; ++scheduled_) {
      s_.after(0, [] {});
      s_.step();
    }
  }

  [[nodiscard]] std::uint64_t digest() const { return digest_; }
  [[nodiscard]] std::uint64_t ran() const { return ran_; }
  [[nodiscard]] std::uint64_t scheduled() const { return scheduled_; }

 private:
  void round() {
    const sim::Time tie = s_.now() + 1 + rng_.uniform(50);
    std::vector<sim::EventHandle> armed;
    for (int i = 0; i < 200; ++i) {
      switch (rng_.uniform(4)) {
        case 0: armed.push_back(schedule(s_.now())); break;
        case 1: armed.push_back(schedule(tie)); break;
        case 2: armed.push_back(schedule(s_.now() + rng_.uniform(8))); break;
        default:
          armed.push_back(schedule(s_.now() + rng_.uniform(100000)));
          break;
      }
    }
    // Cancel three in four: well past the 64-entry compaction threshold.
    for (const sim::EventHandle& h : armed) {
      if (rng_.uniform(4) != 0) s_.cancel(h);
    }
    for (std::uint64_t n = rng_.uniform(100); n > 0 && s_.step(); --n) {
    }
  }

  sim::EventHandle schedule(sim::Time t) {
    const std::uint64_t id = scheduled_++;
    return s_.at(t, [this, id] {
      fold(id);
      ++ran_;
      if (rng_.uniform(8) == 0) schedule(s_.now());
    });
  }

  void fold(std::uint64_t id) {
    for (int b = 0; b < 8; ++b) {
      digest_ = (digest_ ^ ((id >> (8 * b)) & 0xff)) * 0x100000001b3ull;
    }
  }

  sim::Scheduler s_;
  sim::Rng rng_;
  std::uint64_t scheduled_ = 0;  // every at() so far: the next event's seq
  std::uint64_t ran_ = 0;
  std::uint64_t digest_ = 0xcbf29ce484222325ull;
};

// The heap key packs (time, seq, slot) into one 128-bit value; this pins the
// order it yields. The second half of the mix runs across seq 2^24, so a key that
// kept fewer seq bits, or that ordered ties by slot, changes the digest.
TEST(SchedOrderGolden, SeededMixRunsInTheSameOrder) {
  OrderMix mix(2002);
  mix.rounds(40);
  mix.advance_seq_to((std::uint64_t{1} << 24) - 3000);
  mix.rounds(40);
  mix.drain();
  EXPECT_GT(mix.scheduled(), std::uint64_t{1} << 24);
  EXPECT_EQ(mix.ran(), 4689u);
  EXPECT_EQ(mix.digest(), 0xa48e30c2ecd31e4full);
}

// --- re-arm pattern (the reliability firmware's per-delivery shape) --------

TEST(SchedReArm, CancelThenReArmKeepsOneLiveTimer) {
  sim::Scheduler s;
  int timer_fired = 0;
  sim::EventHandle timer;
  // 100 deliveries, each cancels the pending timer and arms a fresh one.
  // Only the last armed timer may fire.
  for (int d = 0; d < 100; ++d) {
    s.at(static_cast<sim::Time>(d), [&s, &timer, &timer_fired] {
      if (timer.valid() && s.pending(timer)) {
        EXPECT_TRUE(s.cancel(timer));
      }
      timer = s.after(1000, [&timer_fired] { ++timer_fired; });
    });
  }
  s.run();
  EXPECT_EQ(timer_fired, 1);
}

// --- inline spills ---------------------------------------------------------

TEST(SchedInlineSpills, CountsOnlyOversizedCaptures) {
  sim::Scheduler s;
  const std::array<char, 64> big{};
  int small = 0;
  s.after(1, [&small] { ++small; });
  s.after(1, [big] { (void)big; });
  sim::FifoServer srv(s);
  srv.submit(1, [&small] { ++small; });
  srv.submit(1, [big] { (void)big; });  // arrives as a built EventFn
  EXPECT_EQ(s.inline_spills(), 2u);
  s.run();
  EXPECT_EQ(small, 2);
  EXPECT_EQ(s.inline_spills(), 2u);
}

// The packet hot path's bound on a service workload: fewer than 5% of the
// events a KV run executes may heap-allocate their callable — here with
// the on-demand mapper (probe injection) and SWIM gossip on as well.
TEST(SchedInlineSpills, KvServiceOnFigure2SpillsUnderFivePercent) {
  kv::KvRigConfig rc;
  rc.cluster.topo = harness::TopoKind::kFigure2;
  rc.cluster.mapper = harness::MapperKind::kOnDemand;
  rc.membership = true;
  kv::KvRig rig(rc);
  traffic::TrafficConfig tc;
  tc.num_clients = 64;
  tc.total_requests = 3000;
  tc.rate_rps = 50000;
  tc.seed = 5;
  traffic::TrafficEngine engine(rig.c.sched, rig.client_view(), tc);
  engine.start();
  const sim::Time cap = sim::seconds(60);
  while (!engine.done() && rig.c.sched.now() < cap && rig.c.sched.step()) {
  }
  ASSERT_TRUE(engine.done());
  const std::uint64_t events = rig.c.sched.events_executed();
  const std::uint64_t spills = rig.c.sched.inline_spills();
  EXPECT_GT(events, 100000u);
  EXPECT_LT(spills * 20, events) << spills << " of " << events << " events";
}

// bench_simcore's end-to-end ring (4 KB segments, reliable firmware, injected
// drops and retransmissions): every hop, receive, delivery, submission and
// ACK closure fits the inline buffer. Its wire packets and events are pinned
// exactly, so a hop or queue change that adds, drops or moves an event fails
// here and not only in a benchmark.
TEST(SchedInlineSpills, ReliableRingNeverSpills) {
  const harness::RingResult r = harness::run_reliable_ring(1000);
  EXPECT_EQ(r.wire_tx, 4528u);
  EXPECT_EQ(r.events, 38672u);
  EXPECT_EQ(r.inline_spills, 0u) << "of " << r.events << " events";
}

// --- determinism under the parallel sweep runner ---------------------------

// One simulation cell: a 2-host reliable cluster streaming messages with
// injected drops, returning the full metrics registry dump. Equal JSON
// across serial and concurrent executions is the byte-identical-output
// contract bench/parallel_sweep.hpp promises for --jobs N.
std::string run_reference_cell() {
  harness::ClusterConfig cfg;
  cfg.num_hosts = 2;
  cfg.fw = harness::FirmwareKind::kReliable;
  cfg.rel.drop_interval = 50;
  cfg.rel.fail_threshold = sim::seconds(30);
  cfg.rel.fail_min_rounds = 100000;
  harness::Cluster c(cfg);
  int received = 0;
  c.nic(1).set_host_rx(
      [&received](net::UserHeader, net::PayloadRef, net::HostId) {
        ++received;
      });
  for (int i = 0; i < 200; ++i) {
    c.send(0, 1, std::vector<std::uint8_t>(512, static_cast<std::uint8_t>(i)));
  }
  c.sched.run_until(sim::seconds(10));
  EXPECT_EQ(received, 200);
  return obs::Registry::of(c.sched).to_json();
}

TEST(SchedDeterminism, SerialAndParallelCellsProduceIdenticalMetrics) {
  const std::string serial = run_reference_cell();
  ASSERT_FALSE(serial.empty());

  // Same cell on 4 threads at once (the --jobs 4 shape): every run must
  // reproduce the serial registry dump byte for byte.
  std::vector<std::string> parallel(4);
  {
    std::vector<std::thread> pool;
    pool.reserve(parallel.size());
    for (auto& out : parallel) {
      pool.emplace_back([&out] { out = run_reference_cell(); });
    }
    for (auto& t : pool) t.join();
  }
  for (const auto& json : parallel) {
    EXPECT_EQ(json, serial);
  }
}

}  // namespace
}  // namespace sanfault
