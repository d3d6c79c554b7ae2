// The near-term half of the scheduler's event queue: a ring of time buckets.
//
// Brown's calendar queue (CACM 31(10), 1988) reduced to the one case the
// scheduler needs. The ring covers kBuckets buckets of 2^kBucketShift ns,
// starting at the bucket of the `now` its caller passes; a key at or past
// that window, or one whose bucket is full, is refused and goes to the
// scheduler's binary heap instead. Each bucket holds up to kCapacity keys,
// kept sorted in place, and an occupancy bitmap finds the first non-empty
// bucket. The scheduler takes the smaller of this ring's front and the
// heap's front, so the two parts together pop exactly the `(time, seq)`
// minimum (docs/PERFORMANCE.md, "A bucket ring for near-term events").
//
// Every key the ring holds is at or after `now`, and `now` never goes back,
// so the ring never holds keys from two windows: as `now` advances, a held
// key's bucket stays inside the window that starts at `now`'s bucket. Keys
// therefore never migrate, and the bucket index needs no rewind.
//
// The storage (66 KB) is mapped on the first insert as sim::ZeroPages, so
// a scheduler that never files a near-term key maps nothing, and the ring
// never clears it: a bucket's keys and count mean something only while its
// occupancy bit is set, and only the 128-byte bitmap is cleared at
// construction. A malloc'd ring raised `repair-hostkill`'s `peak_rss_mb`
// by 0.13 MB more than a mapped one, in 4 of 4 pairs: glibc placed the
// heap around it.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <new>

#include "sim/time.hpp"
#include "sim/zero_pages.hpp"

namespace sanfault::sim {

class BucketRing {
 public:
  BucketRing() = default;
  BucketRing(const BucketRing&) = delete;  // store_ points into pages_
  BucketRing& operator=(const BucketRing&) = delete;

  /// A queue key: the event's time in the high 64 bits, a unique tie-breaker
  /// below it (Scheduler's `seq << 24 | slot`), so keys order as events do.
  using Key = unsigned __int128;

  /// Bucket width, 128 ns. `repair-hostkill`'s fabric hops land 0.25-1 us
  /// ahead (67 % of its pushes). At four keys per bucket, 128-ns buckets
  /// turn 2.0 % of its pushes away as full and 256-ns buckets 8.2 %; 512
  /// buckets of 256 ns (the same window) ran its `run_s` at 0.727 s against
  /// 0.613 s, slower in 3 of 3 pairs of 20 s. 64-ns buckets turn 0.4 % away
  /// but need twice the buckets for the same window.
  static constexpr unsigned kBucketShift = 7;
  /// Buckets in the ring: 1024 x 128 ns is a 131 us window. Past it the
  /// next delays are millisecond timers (KV, SWIM, firmware): 512, 1024 and
  /// 2048 buckets hold 96.41, 96.45 and 96.45 % of `repair-hostkill`'s
  /// pushes, and 93.4, 96.3 and 97.8 % of `svm-apps`'.
  static constexpr std::size_t kBuckets = 1024;
  /// Keys per bucket: four 16-byte keys fill one 64-byte line. Eight turn
  /// 0.16 % of `repair-hostkill`'s pushes away instead of 2.0 %, but double
  /// the ring and measured no faster: `run_s` 0.647 s against 0.627 s
  /// scaled, 0.750 s against 0.793 s raw CPU, in 3 pairs of 20 s.
  static constexpr std::size_t kCapacity = 4;

  /// Files `key` if its time lies in the window that starts at `now`'s
  /// bucket and its bucket has room. Precondition: key_time(key) >= now.
  /// Returns false, and files nothing, otherwise.
  bool insert(Key key, Time now) {
    const Time t = key_time(key);
    if ((t >> kBucketShift) - (now >> kBucketShift) >= kBuckets) return false;
    const std::size_t b = (t >> kBucketShift) & (kBuckets - 1);
    const std::uint64_t bit = std::uint64_t{1} << (b % 64);
    std::uint64_t& word = occupied_[b / 64];
    if (store_ == nullptr) {
      pages_ = ZeroPages(sizeof(Store));
      store_ = ::new (pages_.span().data()) Store;  // default-init: no clear
    }
    Key* keys = store_->keys[b];
    std::uint8_t& n = store_->count[b];
    if ((word & bit) == 0) {
      word |= bit;
      n = 1;
      keys[0] = key;
    } else {
      if (n == kCapacity) return false;
      std::size_t i = n++;
      for (; i > 0 && keys[i - 1] > key; --i) keys[i] = keys[i - 1];
      keys[i] = key;
    }
    ++size_;
    return true;
  }

  /// The bucket holding the smallest key (its keys[0]), scanning the
  /// bitmap from `now`'s bucket in window order. Precondition: !empty().
  [[nodiscard]] std::size_t front_bucket(Time now) const {
    const std::size_t start = (now >> kBucketShift) & (kBuckets - 1);
    std::size_t w = start / 64;
    std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (start % 64));
    // At most kWords + 1 words: the last is `start`'s word again, whose low
    // bits are the window's final buckets.
    while (bits == 0) {
      w = (w + 1) % kWords;
      bits = occupied_[w];
    }
    return w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
  }

  [[nodiscard]] Key front(std::size_t bucket) const {
    return store_->keys[bucket][0];
  }

  /// Removes `bucket`'s smallest key.
  void pop_front(std::size_t bucket) {
    Key* keys = store_->keys[bucket];
    std::uint8_t& n = store_->count[bucket];
    if (--n == 0) {
      occupied_[bucket / 64] &= ~(std::uint64_t{1} << (bucket % 64));
    } else {
      for (std::size_t i = 0; i < n; ++i) keys[i] = keys[i + 1];
    }
    --size_;
  }

  /// Removes every key for which `drop(key)` returns true, keeping the rest
  /// in order.
  template <class Drop>
  void remove_if(Drop&& drop) {
    for (std::size_t w = 0; w < kWords; ++w) {
      for (std::uint64_t bits = occupied_[w]; bits != 0; bits &= bits - 1) {
        const std::size_t b =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        Key* keys = store_->keys[b];
        std::uint8_t& n = store_->count[b];
        std::size_t kept = 0;
        for (std::size_t i = 0; i < n; ++i) {
          if (!drop(keys[i])) keys[kept++] = keys[i];
        }
        size_ -= n - kept;
        n = static_cast<std::uint8_t>(kept);
        if (kept == 0) occupied_[w] &= ~(std::uint64_t{1} << (b % 64));
      }
    }
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  static Time key_time(Key key) { return static_cast<Time>(key >> 64); }

 private:
  static constexpr std::size_t kWords = kBuckets / 64;
  static_assert(kBuckets % 64 == 0 && (kBuckets & (kBuckets - 1)) == 0);
  static_assert(kCapacity <= UINT8_MAX);

  struct Store {
    alignas(64) Key keys[kBuckets][kCapacity];
    std::uint8_t count[kBuckets];
  };

  ZeroPages pages_;
  Store* store_ = nullptr;  // in pages_, once mapped
  std::uint64_t occupied_[kWords] = {};
  std::size_t size_ = 0;
};

}  // namespace sanfault::sim
