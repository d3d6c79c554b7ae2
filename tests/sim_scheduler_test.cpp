// Unit tests for the discrete-event scheduler and FifoServer.
#include <gtest/gtest.h>

#include <vector>

#include "sim/scheduler.hpp"
#include "sim/server.hpp"
#include "sim/time.hpp"

namespace sanfault::sim {
namespace {

TEST(Scheduler, StartsAtTimeZero) {
  Scheduler s;
  EXPECT_EQ(s.now(), 0u);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.at(30, [&] { order.push_back(3); });
  s.at(10, [&] { order.push_back(1); });
  s.at(20, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30u);
}

TEST(Scheduler, SameTimeEventsRunFifo) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) s.at(5, [&, i] { order.push_back(i); });
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Scheduler, AfterSchedulesRelativeToNow) {
  Scheduler s;
  Time seen = kNever;
  s.at(100, [&] { s.after(50, [&] { seen = s.now(); }); });
  s.run();
  EXPECT_EQ(seen, 150u);
}

TEST(Scheduler, SchedulingInThePastThrows) {
  Scheduler s;
  s.at(100, [&] {
    EXPECT_THROW(s.at(99, [] {}), std::logic_error);
  });
  s.run();
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool ran = false;
  EventHandle h = s.at(10, [&] { ran = true; });
  EXPECT_TRUE(s.pending(h));
  EXPECT_TRUE(s.cancel(h));
  EXPECT_FALSE(s.pending(h));
  s.run();
  EXPECT_FALSE(ran);
}

TEST(Scheduler, CancelAfterFireIsNoop) {
  Scheduler s;
  EventHandle h = s.at(10, [] {});
  s.run();
  EXPECT_FALSE(s.cancel(h));
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Scheduler, DoubleCancelIsNoop) {
  Scheduler s;
  EventHandle h = s.at(10, [] {});
  EXPECT_TRUE(s.cancel(h));
  EXPECT_FALSE(s.cancel(h));
}

TEST(Scheduler, DefaultHandleIsInert) {
  Scheduler s;
  EventHandle h;
  EXPECT_FALSE(h.valid());
  EXPECT_FALSE(s.cancel(h));
  EXPECT_FALSE(s.pending(h));
}

TEST(Scheduler, RunUntilAdvancesClockEvenWithoutEvents) {
  Scheduler s;
  s.run_until(12345);
  EXPECT_EQ(s.now(), 12345u);
}

TEST(Scheduler, RunUntilStopsAtBoundary) {
  Scheduler s;
  bool late = false;
  bool early = false;
  s.at(10, [&] { early = true; });
  s.at(20, [&] { late = true; });
  s.run_until(15);
  EXPECT_TRUE(early);
  EXPECT_FALSE(late);
  EXPECT_EQ(s.now(), 15u);
  s.run();
  EXPECT_TRUE(late);
}

TEST(Scheduler, RunForIsRelative) {
  Scheduler s;
  s.run_until(100);
  s.run_for(50);
  EXPECT_EQ(s.now(), 150u);
}

TEST(Scheduler, EventsExecutedCounts) {
  Scheduler s;
  for (int i = 0; i < 7; ++i) s.at(static_cast<Time>(i), [] {});
  EventHandle h = s.at(100, [] {});
  s.cancel(h);
  s.run();
  EXPECT_EQ(s.events_executed(), 7u);
}

TEST(Scheduler, CascadingEventsKeepDeterministicOrder) {
  Scheduler s;
  std::vector<int> order;
  s.at(10, [&] {
    order.push_back(1);
    s.after(0, [&] { order.push_back(3); });
  });
  s.at(10, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// --- edges of the two-part queue (bucket ring + far heap) ------------------

TEST(Scheduler, EventsAtNeverAndJustBeforeRunInOrder) {
  Scheduler s;
  std::vector<int> order;
  s.at(kNever, [&] { order.push_back(2); });
  s.at(kNever - 1, [&] { order.push_back(1); });
  s.run_until(kNever - 1);
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(s.now(), kNever - 1);
  // Now both times are near: the new event is filed beside the one queued
  // from time 0, and must still run after it.
  s.at(kNever, [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), kNever);
  s.after(5, [&] { order.push_back(4); });  // saturates at kNever
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(s.now(), kNever);
}

TEST(Scheduler, ScheduleBetweenRunUntilHorizonAndNextEvent) {
  // One gap inside the ring's 131 us window, one far past it.
  for (const Time gap : {Time{1'000}, milliseconds(10)}) {
    Scheduler s;
    std::vector<int> order;
    s.at(gap, [&] { order.push_back(3); });
    s.run_until(gap / 2);
    EXPECT_TRUE(order.empty()) << gap;
    EXPECT_EQ(s.now(), gap / 2);
    s.at(gap, [&] { order.push_back(4); });  // ties the pending one: FIFO
    s.at(gap - 1, [&] { order.push_back(2); });
    s.at(gap / 2, [&] { order.push_back(1); });  // at the horizon itself
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4})) << gap;
    EXPECT_EQ(s.now(), gap);
  }
}

TEST(Scheduler, NearAndFarCancelsCompactTogether) {
  Scheduler s;
  std::vector<int> fired;
  std::vector<EventHandle> near;
  std::vector<EventHandle> far;
  // Near events 200 ns apart (one per 128-ns ring bucket), far ones 1 ms out,
  // past the ring's window.
  for (int i = 0; i < 40; ++i) {
    near.push_back(s.at(static_cast<Time>(200 * (i + 1)),
                        [&fired, i] { fired.push_back(i); }));
    far.push_back(s.at(milliseconds(1) + static_cast<Time>(i),
                       [&fired, i] { fired.push_back(100 + i); }));
  }
  // Alternate near and far cancels: the 64th (64 >= the minimum of 64, and
  // more than half of 80) compacts, with 32 of each part dead.
  for (std::size_t i = 0; i < 35; ++i) {
    EXPECT_TRUE(s.cancel(near[i]));
    EXPECT_TRUE(s.cancel(far[i]));
  }
  EXPECT_EQ(s.pending_events(), 10u);
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_EQ(s.pending(near[i]), i >= 35) << i;
    EXPECT_EQ(s.pending(far[i]), i >= 35) << i;
  }
  // New events take the freed slots and must land in order among the rest.
  s.at(100, [&fired] { fired.push_back(-1); });
  s.at(milliseconds(1) + 36, [&fired] { fired.push_back(200); });
  s.run();
  EXPECT_EQ(fired, (std::vector<int>{-1, 35, 36, 37, 38, 39, 135, 136, 200,
                                     137, 138, 139}));
  EXPECT_EQ(s.events_executed(), 12u);
}

TEST(Scheduler, ThreeBucketsWorthAtOneTimeRunFifo) {
  // 12 = three times a ring bucket's capacity of four keys, at now() and at
  // one later time, with one cancel among them.
  constexpr int kSameTime = 12;
  Scheduler s;
  s.run_until(1'000);
  std::vector<int> order;
  EventHandle victim;
  for (int i = 0; i < kSameTime; ++i) {
    s.at(5'000, [&order, i] { order.push_back(100 + i); });
    const EventHandle h = s.at(1'000, [&order, i] { order.push_back(i); });
    if (i == 5) victim = h;
  }
  EXPECT_TRUE(s.cancel(victim));
  s.run();
  std::vector<int> want;
  for (int i = 0; i < kSameTime; ++i) {
    if (i != 5) want.push_back(i);
  }
  for (int i = 0; i < kSameTime; ++i) want.push_back(100 + i);
  EXPECT_EQ(order, want);
}

TEST(TimeHelpers, UnitsCompose) {
  EXPECT_EQ(microseconds(1), 1000u);
  EXPECT_EQ(milliseconds(1), 1'000'000u);
  EXPECT_EQ(seconds(1), 1'000'000'000u);
  EXPECT_EQ(time_add(kNever, 5), kNever);
  EXPECT_EQ(time_add(10, 5), 15u);
}

TEST(TimeHelpers, TransferTimeRoundsUp) {
  // 1 byte at 1 GB/s = 1 ns exactly.
  EXPECT_EQ(transfer_time(1, 1e9), 1u);
  // 100 bytes at 160 MB/s = 625 ns.
  EXPECT_EQ(transfer_time(100, 160e6), 625u);
  EXPECT_EQ(transfer_time(0, 160e6), 0u);
}

TEST(FifoServer, IdleServerServesImmediately) {
  Scheduler s;
  FifoServer srv(s);
  Time done = 0;
  s.at(100, [&] { srv.submit(50, [&] { done = s.now(); }); });
  s.run();
  EXPECT_EQ(done, 150u);
}

TEST(FifoServer, BackToBackJobsQueue) {
  Scheduler s;
  FifoServer srv(s);
  std::vector<Time> done;
  s.at(0, [&] {
    srv.submit(10, [&] { done.push_back(s.now()); });
    srv.submit(10, [&] { done.push_back(s.now()); });
    srv.submit(10, [&] { done.push_back(s.now()); });
  });
  s.run();
  EXPECT_EQ(done, (std::vector<Time>{10, 20, 30}));
  EXPECT_EQ(srv.busy_time(), 30u);
  EXPECT_EQ(srv.jobs_served(), 3u);
}

TEST(FifoServer, GapsLeaveServerIdle) {
  Scheduler s;
  FifoServer srv(s);
  Time d1 = 0;
  Time d2 = 0;
  s.at(0, [&] { srv.submit(10, [&] { d1 = s.now(); }); });
  s.at(100, [&] { srv.submit(10, [&] { d2 = s.now(); }); });
  s.run();
  EXPECT_EQ(d1, 10u);
  EXPECT_EQ(d2, 110u);
  EXPECT_DOUBLE_EQ(srv.utilization(200), 0.1);
}

TEST(FifoServer, BusyNowReflectsOccupancy) {
  Scheduler s;
  FifoServer srv(s);
  s.at(0, [&] {
    srv.submit(10);
    EXPECT_TRUE(srv.busy_now());
  });
  s.run();
  s.run_until(10);  // advance the clock past the job's completion
  EXPECT_FALSE(srv.busy_now());
}

}  // namespace
}  // namespace sanfault::sim
