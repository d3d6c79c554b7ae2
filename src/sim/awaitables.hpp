// Awaitable synchronization primitives for sim::Process coroutines.
//
//   co_await DelayFor{sched, microseconds(5)};   // sleep in simulated time
//   co_await trigger.wait(sched);                // wait for a one-shot event
//   co_await trigger.wait_for(sched, timeout);   // ... or until timeout
//   co_await wg.wait(sched);                     // join N processes
//   T v = co_await chan.pop(sched);              // blocking queue pop
//
// All resumptions are funneled through the Scheduler (after(0)) instead of
// resuming inline, so firing a trigger from inside an event handler cannot
// recurse and ordering stays deterministic.
#pragma once

#include <coroutine>
#include <cstddef>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace sanfault::sim {

/// co_await DelayFor{sched, d}: resume after d nanoseconds of simulated time.
struct DelayFor {
  Scheduler& sched;
  Duration d;

  // Even a zero-length delay suspends and resumes through the scheduler so
  // that co_await DelayFor{s, 0} is a deterministic yield point.
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    sched.after(d, [h] { h.resume(); });
  }
  void await_resume() const noexcept {}
};

/// One-shot latched broadcast event. Once fired, waiters (current and future)
/// resume immediately. reset() re-arms it.
class Trigger {
 public:
  void fire(Scheduler& sched) {
    if (fired_) return;
    fired_ = true;
    auto waiters = std::move(waiters_);
    waiters_.clear();
    for (auto h : waiters) {
      sched.after(0, [h] { h.resume(); });
    }
  }

  void reset() { fired_ = false; }

  [[nodiscard]] bool fired() const { return fired_; }

  struct Awaiter {
    Trigger& t;
    Scheduler& sched;
    bool await_ready() const noexcept { return t.fired_; }
    void await_suspend(std::coroutine_handle<> h) const {
      t.waiters_.push_back(h);
    }
    void await_resume() const noexcept {}
  };

  [[nodiscard]] Awaiter wait(Scheduler& sched) { return Awaiter{*this, sched}; }

  /// Reply-or-timeout wait: suspends until fire() or until `timeout` has
  /// elapsed, whichever comes first (the timer simply fires the trigger).
  /// On resumption the timer is cancelled and the trigger reset, so the
  /// caller tells a reply from a timeout by its own state, and the next
  /// attempt waits afresh. A trigger already fired arms no timer.
  struct TimedAwaiter {
    Trigger& t;
    Scheduler& sched;
    Duration timeout;
    EventHandle timer;
    bool await_ready() const noexcept { return t.fired_; }
    void await_suspend(std::coroutine_handle<> h) {
      timer = sched.after(timeout, [this] { t.fire(sched); });
      t.waiters_.push_back(h);
    }
    void await_resume() {
      sched.cancel(timer);
      t.reset();
    }
  };

  [[nodiscard]] TimedAwaiter wait_for(Scheduler& sched, Duration timeout) {
    return TimedAwaiter{*this, sched, timeout, {}};
  }

 private:
  bool fired_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// Go-style wait group: add() before spawning, done() when a process
/// finishes, co_await wait() to join. Reusable after the count returns to 0.
class WaitGroup {
 public:
  void add(std::size_t n = 1) { count_ += n; }

  void done(Scheduler& sched) {
    if (count_ == 0) return;  // defensive; done() without add() is a bug
    if (--count_ == 0) {
      auto waiters = std::move(waiters_);
      waiters_.clear();
      for (auto h : waiters) {
        sched.after(0, [h] { h.resume(); });
      }
    }
  }

  [[nodiscard]] std::size_t count() const { return count_; }

  struct Awaiter {
    WaitGroup& wg;
    bool await_ready() const noexcept { return wg.count_ == 0; }
    void await_suspend(std::coroutine_handle<> h) const {
      wg.waiters_.push_back(h);
    }
    void await_resume() const noexcept {}
  };

  [[nodiscard]] Awaiter wait(Scheduler&) { return Awaiter{*this}; }

 private:
  std::size_t count_ = 0;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// Unbounded awaitable FIFO channel. push() never blocks; pop() suspends
/// until a value is available. Multi-consumer safe: a pushed value is handed
/// directly to the oldest waiter (FIFO), so a concurrently-resumed consumer
/// can never observe an empty queue.
template <typename T>
class Channel {
 public:
  void push(Scheduler& sched, T value) {
    if (!waiters_.empty()) {
      PopAwaiter* w = waiters_.front();
      waiters_.pop_front();
      w->slot.emplace(std::move(value));
      sched.after(0, [h = w->handle] { h.resume(); });
    } else {
      items_.push_back(std::move(value));
    }
  }

  struct PopAwaiter {
    Channel& c;
    std::optional<T> slot;
    std::coroutine_handle<> handle;

    bool await_ready() noexcept {
      if (!c.items_.empty()) {
        slot.emplace(std::move(c.items_.front()));
        c.items_.pop_front();
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      handle = h;
      c.waiters_.push_back(this);
    }
    T await_resume() { return std::move(*slot); }
  };

  [[nodiscard]] PopAwaiter pop(Scheduler&) { return PopAwaiter{*this, {}, {}}; }

  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] bool empty() const { return items_.empty(); }

 private:
  std::deque<T> items_;
  std::deque<PopAwaiter*> waiters_;
};

}  // namespace sanfault::sim
