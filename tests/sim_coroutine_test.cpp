// Unit tests for sim::Process coroutines and the awaitable primitives.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "sim/awaitables.hpp"
#include "sim/process.hpp"
#include "sim/scheduler.hpp"

namespace sanfault::sim {
namespace {

Process sleeper(Scheduler& s, Duration d, Time& woke) {
  co_await DelayFor{s, d};
  woke = s.now();
}

TEST(Coroutine, DelayResumesAtRightTime) {
  Scheduler s;
  Time woke = kNever;
  sleeper(s, microseconds(5), woke);
  s.run();
  EXPECT_EQ(woke, microseconds(5));
}

Process chained_sleeper(Scheduler& s, std::vector<Time>& marks) {
  marks.push_back(s.now());
  co_await DelayFor{s, 10};
  marks.push_back(s.now());
  co_await DelayFor{s, 20};
  marks.push_back(s.now());
}

TEST(Coroutine, SequentialDelaysAccumulate) {
  Scheduler s;
  std::vector<Time> marks;
  chained_sleeper(s, marks);
  s.run();
  EXPECT_EQ(marks, (std::vector<Time>{0, 10, 30}));
}

TEST(Coroutine, ZeroDelayStillYields) {
  Scheduler s;
  std::vector<int> order;
  [](Scheduler& sc, std::vector<int>& o) -> Process {
    o.push_back(1);
    co_await DelayFor{sc, 0};
    o.push_back(3);
  }(s, order);
  order.push_back(2);  // runs before the coroutine's post-yield half
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

Process wait_on(Scheduler& s, Trigger& t, Time& woke) {
  co_await t.wait(s);
  woke = s.now();
}

TEST(Trigger, WakesAllWaiters) {
  Scheduler s;
  Trigger t;
  Time w1 = kNever;
  Time w2 = kNever;
  wait_on(s, t, w1);
  wait_on(s, t, w2);
  s.at(100, [&] { t.fire(s); });
  s.run();
  EXPECT_EQ(w1, 100u);
  EXPECT_EQ(w2, 100u);
}

TEST(Trigger, LatchedFireWakesLateWaiters) {
  Scheduler s;
  Trigger t;
  Time woke = kNever;
  s.at(10, [&] { t.fire(s); });
  s.at(50, [&] { wait_on(s, t, woke); });
  s.run();
  EXPECT_EQ(woke, 50u);  // already fired: no extra wait
}

TEST(Trigger, DoubleFireIsIdempotent) {
  Scheduler s;
  Trigger t;
  Time woke = kNever;
  wait_on(s, t, woke);
  s.at(10, [&] { t.fire(s); });
  s.at(20, [&] { t.fire(s); });
  s.run();
  EXPECT_EQ(woke, 10u);
}

TEST(Trigger, ResetReArms) {
  Scheduler s;
  Trigger t;
  Time w1 = kNever;
  Time w2 = kNever;
  wait_on(s, t, w1);
  s.at(10, [&] { t.fire(s); });
  s.at(20, [&] {
    t.reset();
    wait_on(s, t, w2);
  });
  s.at(30, [&] { t.fire(s); });
  s.run();
  EXPECT_EQ(w1, 10u);
  EXPECT_EQ(w2, 30u);
}

struct TimedWake {
  Time at = kNever;
  std::size_t pending_after = 0;
  bool fired_after = true;
};

Process timed_waiter(Scheduler& s, Trigger& t, Duration timeout,
                     TimedWake& w) {
  co_await t.wait_for(s, timeout);
  w.at = s.now();
  w.pending_after = s.pending_events();
  w.fired_after = t.fired();
}

TEST(Trigger, WaitForResumesAtTimeoutWhenNothingFires) {
  Scheduler s;
  Trigger t;
  s.at(1000, [] {});  // unrelated pending work
  const std::size_t baseline = s.pending_events();
  TimedWake w;
  timed_waiter(s, t, 25, w);
  EXPECT_EQ(s.pending_events(), baseline + 1);  // the armed timer
  s.run_until(500);
  EXPECT_EQ(w.at, 25u);
  EXPECT_EQ(w.pending_after, baseline);
  EXPECT_FALSE(w.fired_after);
}

TEST(Trigger, WaitForResumesAtFireTimeAndCancelsItsTimer) {
  Scheduler s;
  Trigger t;
  s.at(1000, [] {});
  const std::size_t baseline = s.pending_events();
  TimedWake w;
  timed_waiter(s, t, 25, w);
  s.at(10, [&] { t.fire(s); });
  s.run_until(500);
  EXPECT_EQ(w.at, 10u);
  EXPECT_EQ(w.pending_after, baseline);  // timer cancelled at resumption
  EXPECT_FALSE(w.fired_after);
}

TEST(Trigger, WaitForOnAFiredTriggerArmsNoTimer) {
  Scheduler s;
  Trigger t;
  s.at(1000, [] {});
  const std::size_t baseline = s.pending_events();
  t.fire(s);
  TimedWake w;
  timed_waiter(s, t, 25, w);
  EXPECT_EQ(w.at, 0u);  // never suspended
  EXPECT_EQ(w.pending_after, baseline);
  EXPECT_FALSE(w.fired_after);
}

using Table = Replies<int, std::string>;

struct Answer {
  Time at = kNever;
  bool answered = false;
  std::string reply;
};

// Waits up to `timeout` for the slot's reply, then records what it found.
Process answer_waiter(Scheduler& s, Table::Slot& slot, Duration timeout,
                      Answer& a) {
  co_await slot.wait_for(s, timeout);
  a.at = s.now();
  a.answered = slot.answered();
  if (a.answered) a.reply = slot.reply();
}

TEST(Replies, UnknownForAKeyNeverOpenedOrAlreadyClosed) {
  Scheduler s;
  Table t;
  EXPECT_EQ(t.deliver(s, 1, "x"), Table::Delivery::kUnknown);
  { const Table::Slot closed(t, 2); }
  EXPECT_NO_THROW({ const Table::Slot reopened(t, 2); });
  EXPECT_EQ(t.deliver(s, 2, "x"), Table::Delivery::kUnknown);
}

TEST(Replies, FirstReplyIsKeptAndARepeatIsReported) {
  Scheduler s;
  Table t;
  Table::Slot slot(t, 7);
  EXPECT_FALSE(slot.answered());
  EXPECT_EQ(t.deliver(s, 7, "first"), Table::Delivery::kAccepted);
  EXPECT_EQ(t.deliver(s, 7, "second"), Table::Delivery::kRepeat);
  ASSERT_TRUE(slot.answered());
  EXPECT_EQ(slot.reply(), "first");
}

TEST(Replies, WakeResumesAnUnansweredSlotWithoutAReply) {
  Scheduler s;
  Table t;
  Table::Slot slot(t, 1);
  Answer a;
  answer_waiter(s, slot, 100, a);
  s.at(10, [&] { t.wake(s, 1); });
  s.run();
  EXPECT_EQ(a.at, 10u);
  EXPECT_FALSE(a.answered);
}

TEST(Replies, WakeLeavesAnsweredAndClosedKeysAlone) {
  Scheduler s;
  Table t;
  Table::Slot slot(t, 1);
  Answer first;
  Answer second;
  // The first wait ends with the reply; the second, on the same answered
  // slot, must run to its own timeout however often its key is woken.
  [](Scheduler& sc, Table::Slot& sl, Answer& a, Answer& b) -> Process {
    co_await sl.wait_for(sc, 100);
    a.at = sc.now();
    co_await sl.wait_for(sc, 50);
    b.at = sc.now();
  }(s, slot, first, second);
  s.at(10, [&] { EXPECT_EQ(t.deliver(s, 1, "r"), Table::Delivery::kAccepted); });
  s.at(20, [&] { t.wake(s, 1); });
  s.run();
  EXPECT_EQ(first.at, 10u);
  EXPECT_EQ(second.at, 60u);

  const std::size_t baseline = s.pending_events();
  t.wake(s, 2);  // never opened
  { const Table::Slot closed(t, 3); }
  t.wake(s, 3);
  EXPECT_EQ(s.pending_events(), baseline);
}

TEST(Replies, SlotsOpenAtOnceMatchRepliesInAnyOrder) {
  Scheduler s;
  Table t;
  Table::Slot one(t, 1);
  Table::Slot two(t, 2);
  Answer a1;
  Answer a2;
  answer_waiter(s, one, 100, a1);
  answer_waiter(s, two, 100, a2);
  s.at(5, [&] { t.deliver(s, 2, "b"); });
  s.at(7, [&] { t.deliver(s, 1, "a"); });
  s.run();
  EXPECT_EQ(a2.at, 5u);
  EXPECT_EQ(a2.reply, "b");
  EXPECT_EQ(a1.at, 7u);
  EXPECT_EQ(a1.reply, "a");
}

TEST(Replies, OpeningAnOpenKeyThrows) {
  Scheduler s;
  Table t;
  Table::Slot slot(t, 4);
  EXPECT_THROW({ const Table::Slot twin(t, 4); }, std::logic_error);
  // The failed open left the first slot in charge of the key.
  EXPECT_EQ(t.deliver(s, 4, "r"), Table::Delivery::kAccepted);
  EXPECT_EQ(slot.reply(), "r");
}

TEST(Replies, DeliveryWithNoWaiterSchedulesNothing) {
  Scheduler s;
  Table t;
  Table::Slot slot(t, 9);
  s.at(1000, [] {});
  const std::size_t baseline = s.pending_events();
  EXPECT_EQ(t.deliver(s, 9, "r"), Table::Delivery::kAccepted);
  EXPECT_EQ(s.pending_events(), baseline);
  EXPECT_EQ(slot.reply(), "r");
}

Process worker(Scheduler& s, WaitGroup& wg, Duration d) {
  co_await DelayFor{s, d};
  wg.done(s);
}

Process joiner(Scheduler& s, WaitGroup& wg, Time& joined) {
  co_await wg.wait(s);
  joined = s.now();
}

TEST(WaitGroup, JoinsSlowestWorker) {
  Scheduler s;
  WaitGroup wg;
  wg.add(3);
  worker(s, wg, 10);
  worker(s, wg, 50);
  worker(s, wg, 30);
  Time joined = kNever;
  joiner(s, wg, joined);
  s.run();
  EXPECT_EQ(joined, 50u);
}

TEST(WaitGroup, EmptyGroupJoinsImmediately) {
  Scheduler s;
  WaitGroup wg;
  Time joined = kNever;
  joiner(s, wg, joined);
  s.run();
  EXPECT_EQ(joined, 0u);
}

TEST(WaitGroup, ReusableAfterDrain) {
  Scheduler s;
  WaitGroup wg;
  Time j1 = kNever;
  Time j2 = kNever;
  wg.add(1);
  worker(s, wg, 10);
  joiner(s, wg, j1);
  s.at(20, [&] {
    wg.add(1);
    worker(s, wg, 10);
    joiner(s, wg, j2);
  });
  s.run();
  EXPECT_EQ(j1, 10u);
  EXPECT_EQ(j2, 30u);
}

Process consumer(Scheduler& s, Channel<int>& c, std::vector<std::pair<Time, int>>& seen,
                 int n) {
  for (int i = 0; i < n; ++i) {
    int v = co_await c.pop(s);
    seen.emplace_back(s.now(), v);
  }
}

TEST(Channel, DeliversInFifoOrder) {
  Scheduler s;
  Channel<int> c;
  std::vector<std::pair<Time, int>> seen;
  consumer(s, c, seen, 3);
  s.at(10, [&] {
    c.push(s, 1);
    c.push(s, 2);
  });
  s.at(20, [&] { c.push(s, 3); });
  s.run();
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::pair<Time, int>{10, 1}));
  EXPECT_EQ(seen[1], (std::pair<Time, int>{10, 2}));
  EXPECT_EQ(seen[2], (std::pair<Time, int>{20, 3}));
}

TEST(Channel, PopBeforePushSuspends) {
  Scheduler s;
  Channel<std::string> c;
  std::vector<std::pair<Time, std::string>> seen;
  [](Scheduler& sc, Channel<std::string>& ch,
     std::vector<std::pair<Time, std::string>>& out) -> Process {
    std::string v = co_await ch.pop(sc);
    out.emplace_back(sc.now(), v);
  }(s, c, seen);
  s.at(42, [&] { c.push(s, "hello"); });
  s.run();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].first, 42u);
  EXPECT_EQ(seen[0].second, "hello");
}

TEST(Channel, MultipleConsumersEachGetOneValue) {
  Scheduler s;
  Channel<int> c;
  std::vector<std::pair<Time, int>> seen;
  consumer(s, c, seen, 1);
  consumer(s, c, seen, 1);
  s.at(10, [&] {
    c.push(s, 7);
    c.push(s, 8);
  });
  s.run();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].second, 7);
  EXPECT_EQ(seen[1].second, 8);
}

TEST(Channel, BufferedValuesSurviveUntilPopped) {
  Scheduler s;
  Channel<int> c;
  s.at(0, [&] {
    c.push(s, 1);
    c.push(s, 2);
  });
  s.run();
  EXPECT_EQ(c.size(), 2u);
  std::vector<std::pair<Time, int>> seen;
  consumer(s, c, seen, 2);
  s.run();
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_TRUE(c.empty());
}

}  // namespace
}  // namespace sanfault::sim
