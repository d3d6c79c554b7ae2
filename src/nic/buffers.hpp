// Counting pool for NIC SRAM send buffers.
//
// The pool tracks occupancy only — payload bytes ride inside net::Packet —
// but the accounting is exactly the paper's: a buffer is taken when the host
// submits a packet and returned when the firmware moves it back to the global
// free queue (immediately after injection without reliability; on cumulative
// ACK with reliability). Waiters are granted FIFO, which models the host
// blocking "due to a lack of send buffers". A waiter is an inline callable
// (the NIC's capture a this-pointer and a handle), so blocking allocates
// nothing beyond the wait queue's own storage.
#pragma once

#include <cstddef>
#include <deque>

#include "sim/inline_fn.hpp"

namespace sanfault::nic {

class BufferPool {
 public:
  BufferPool(std::size_t count, std::size_t buffer_bytes)
      : capacity_(count), free_(count), buffer_bytes_(buffer_bytes) {}

  /// Request one buffer; `granted` runs immediately (synchronously) if one is
  /// free, otherwise when a release reaches the front of the wait queue.
  void acquire(sim::InlineFn<void()> granted) {
    if (free_ > 0) {
      --free_;
      granted();
    } else {
      waiters_.push_back(std::move(granted));
    }
  }

  /// Return `n` buffers to the pool, unblocking waiters FIFO.
  void release(std::size_t n = 1) {
    while (n > 0) {
      --n;
      if (!waiters_.empty()) {
        auto g = std::move(waiters_.front());
        waiters_.pop_front();
        g();  // buffer handed straight to the waiter
      } else {
        ++free_;
      }
    }
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t free_count() const { return free_; }
  [[nodiscard]] std::size_t in_use() const {
    return capacity_ - free_;  // waiters hold nothing yet
  }
  [[nodiscard]] std::size_t waiting() const { return waiters_.size(); }
  [[nodiscard]] std::size_t buffer_bytes() const { return buffer_bytes_; }

 private:
  std::size_t capacity_;
  std::size_t free_;
  std::size_t buffer_bytes_;
  std::deque<sim::InlineFn<void()>> waiters_;
};

}  // namespace sanfault::nic
