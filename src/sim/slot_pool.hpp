// SlotPool: generation-checked storage for values parked across events.
//
// An event closure that captures a whole net::Packet (112 bytes) or a send
// request plus its completion overflows the scheduler's 48-byte inline
// buffer and heap-allocates, on every hop, receive and submission. Parking
// the value in a SlotPool leaves the closure an 8-byte Handle to capture,
// so it stays inline and trivially copyable. Slots are recycled through a
// free list, so after warm-up parking a value never touches the allocator.
//
// Handles follow the EventHandle idiom: (slot + 1, generation) packed into
// one word, 0 = invalid. take() bumps the slot's generation, so a stale or
// repeated take is caught and throws std::logic_error instead of handing
// out another tenant's value.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

namespace sanfault::sim {

template <class T>
class SlotPool {
 public:
  class Handle {
   public:
    Handle() = default;
    /// Opaque nonzero identifier ((slot+1, generation) packed); 0 = invalid.
    [[nodiscard]] std::uint64_t id() const { return id_; }
    [[nodiscard]] bool valid() const { return id_ != 0; }

   private:
    friend class SlotPool;
    Handle(std::uint32_t slot, std::uint32_t gen)
        : id_((static_cast<std::uint64_t>(slot) + 1) << 32 | gen) {}
    [[nodiscard]] std::uint32_t slot() const {
      return static_cast<std::uint32_t>((id_ >> 32) - 1);
    }
    [[nodiscard]] std::uint32_t gen() const {
      return static_cast<std::uint32_t>(id_);
    }
    std::uint64_t id_ = 0;
  };

  /// Park `value`; the handle redeems it exactly once.
  Handle put(T value) {
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    slots_[slot].value.emplace(std::move(value));
    return Handle{slot, slots_[slot].gen};
  }

  /// The parked value, left in place.
  T& operator[](Handle h) { return *checked(h).value; }

  /// Move the parked value out and recycle its slot. Throws
  /// std::logic_error if `h` was already taken or never issued.
  T take(Handle h) {
    Slot& s = checked(h);
    T out = std::move(*s.value);
    s.value.reset();
    if (++s.gen == 0) s.gen = 1;  // generation 0 is reserved, never valid
    free_.push_back(h.slot());
    return out;
  }

 private:
  struct Slot {
    std::optional<T> value;
    std::uint32_t gen = 1;
  };

  Slot& checked(Handle h) {
    if (h.valid() && h.slot() < slots_.size()) {
      Slot& s = slots_[h.slot()];
      if (s.gen == h.gen() && s.value.has_value()) return s;
    }
    throw std::logic_error("SlotPool: stale or invalid handle");
  }

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
};

}  // namespace sanfault::sim
