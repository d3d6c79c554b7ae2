#include "sim/scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace sanfault::sim {

Scheduler::~Scheduler() {
  // LIFO, and robust to a hook registering nothing further (hooks must not
  // schedule events — the queue is no longer run).
  while (!teardown_.empty()) {
    auto fn = std::move(teardown_.back());
    teardown_.pop_back();
    fn();
  }
}

void Scheduler::throw_past_time(Time t) const {
  throw std::logic_error("Scheduler::at: time " + std::to_string(t) +
                         " is in the past (now=" + std::to_string(now_) + ")");
}

void Scheduler::throw_exhausted(const char* what) {
  throw std::length_error(std::string("Scheduler: out of ") + what +
                          " (the heap key holds 2^24 slots and 2^40 seqs)");
}

void Scheduler::run() {
  while (step()) {
  }
}

void Scheduler::run_until(Time t) {
  for (;;) {
    // Skim first so a cancelled entry's timestamp cannot decide the loop:
    // with the old priority_queue a cancelled event at u <= t sitting on top
    // of a live event at v > t would let step() overshoot the horizon.
    skim_cancelled();
    if (heap_.empty() || key_time(heap_.front()) > t) break;
    if (!step()) break;
  }
  now_ = std::max(now_, t);
}

}  // namespace sanfault::sim
