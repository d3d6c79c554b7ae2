// Awaitable synchronization primitives for sim::Process coroutines.
//
//   co_await DelayFor{sched, microseconds(5)};   // sleep in simulated time
//   co_await trigger.wait(sched);                // wait for a one-shot event
//   co_await trigger.wait_for(sched, timeout);   // ... or until timeout
//   co_await slot.wait_for(sched, timeout);      // a reply, matched by key
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
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>
#include <variant>
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

/// Reply table: matches each reply to the waiter that asked for it, by key
/// (a request id, a nonce). Over an at-least-once transport a reply can
/// arrive twice, or after its waiter gave up; the table keeps the first
/// reply for an open key and says what it did with every other one, so each
/// caller counts stale and duplicate replies its own way.
///
///   Replies<Key, Reply>::Slot slot(table, key);   // open the key
///   co_await slot.wait_for(sched, timeout);       // first reply or timeout
///   if (slot.answered()) use(slot.reply());
///                                                 // ~Slot closes the key
template <typename Key, typename Reply = std::monostate>
class Replies {
 public:
  enum class Delivery {
    kAccepted,  // first reply for an open key: kept, its waiter woken
    kUnknown,   // no slot has the key open (never opened, or closed)
    kRepeat,    // the slot already holds a reply; this one is dropped
  };

  /// One waiter's entry. The destructor closes the key, which touches the
  /// table: a suspended coroutine frame that holds a Slot must be destroyed
  /// before the object that owns the table.
  class Slot {
   public:
    /// Opens `key`; throws std::logic_error if a slot already has it open.
    Slot(Replies& table, Key key) : table_(table), key_(std::move(key)) {
      if (!table_.open_.emplace(key_, this).second) {
        throw std::logic_error("sim::Replies: key is already open");
      }
    }
    ~Slot() { table_.open_.erase(key_); }
    Slot(const Slot&) = delete;
    Slot& operator=(const Slot&) = delete;

    [[nodiscard]] bool answered() const { return reply_.has_value(); }
    /// The first reply delivered; valid once answered().
    [[nodiscard]] Reply& reply() { return *reply_; }

    /// Resumes on the first delivery or on wake().
    [[nodiscard]] auto wait(Scheduler& sched) { return done_.wait(sched); }
    /// Resumes on the first delivery or after `timeout` (Trigger::wait_for);
    /// answered() tells which.
    [[nodiscard]] auto wait_for(Scheduler& sched, Duration timeout) {
      return done_.wait_for(sched, timeout);
    }

   private:
    friend class Replies;
    Replies& table_;
    Key key_;
    Trigger done_;
    std::optional<Reply> reply_;
  };

  Replies() = default;
  Replies(const Replies&) = delete;
  Replies& operator=(const Replies&) = delete;

  /// Hands `reply` to the slot that has `key` open. A slot nobody waits on
  /// still keeps it, and no event is scheduled.
  Delivery deliver(Scheduler& sched, const Key& key, Reply reply = {}) {
    const auto it = open_.find(key);
    if (it == open_.end()) return Delivery::kUnknown;
    Slot& s = *it->second;
    if (s.reply_) return Delivery::kRepeat;
    s.reply_.emplace(std::move(reply));
    s.done_.fire(sched);
    return Delivery::kAccepted;
  }

  /// Resumes the waiter of an open, unanswered slot without a reply (a
  /// timeout the caller schedules itself). Does nothing to any other key.
  void wake(Scheduler& sched, const Key& key) {
    const auto it = open_.find(key);
    if (it != open_.end() && !it->second->reply_) it->second->done_.fire(sched);
  }

 private:
  std::map<Key, Slot*> open_;
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
