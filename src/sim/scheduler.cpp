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
                          " (the queue key holds 2^24 slots and 2^40 seqs)");
}

void Scheduler::run() {
  while (step()) {
  }
}

void Scheduler::run_until(Time t) {
  // front_live() discards cancelled keys first, so a cancelled event's
  // timestamp cannot decide the loop: a cancelled key at u <= t in front of
  // a live one at v > t must not let the live event overshoot the horizon.
  Key top = 0;
  std::size_t where = 0;
  while (front_live(top, where) && key_time(top) <= t) run_front(top, where);
  now_ = std::max(now_, t);
}

}  // namespace sanfault::sim
