// Discrete-event scheduler: the heart of the simulator.
//
// Events are (time, sequence) ordered callbacks. Sequence numbers break ties
// FIFO so that same-timestamp events run in scheduling order, which keeps
// every run deterministic.
//
// Hot-path design (see docs/PERFORMANCE.md for measurements):
//  * the ready queue is a binary heap of 16-byte keys,
//    `time << 64 | seq << 24 | slot`: seq is unique, so a key orders exactly
//    as (time, seq) does, and the slot of the node holding the callable
//    rides in the low 24 bits — sift operations never move callables. A
//    slot at or past 2^24 or a seq at or past 2^40 throws std::length_error
//    instead of spilling into the neighbouring field;
//  * callables live in a pool of slot-indexed nodes, inline up to
//    kEventInlineBytes via InlineFn; the packet paths park packets and send
//    requests in sim::SlotPools and capture handles, so timer, hop, receive,
//    delivery and submission lambdas never touch the allocator after the
//    pools warm up, and inline_spills() counts the events that still do;
//  * cancellation is lazy — cancel() flips a flag in the node (O(1), no
//    hash lookup, destroys the capture immediately) — but bounded: when
//    cancelled entries outnumber live ones the heap is compacted in O(n),
//    so a workload that cancels almost every timer it arms (the
//    retransmission pattern) never drags dead entries through its sifts.
//    EventHandle carries (slot, generation); generation bumps on slot reuse
//    make stale handles inert.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/inline_fn.hpp"
#include "sim/time.hpp"

namespace sanfault::sim {

/// Handle to a scheduled event; allows cancellation (e.g. retransmission
/// timers that are re-armed). Default-constructed handles are inert, and a
/// handle whose event has fired or been cancelled stays safe to use —
/// generation checks make it a no-op.
class EventHandle {
 public:
  EventHandle() = default;
  /// Opaque nonzero identifier ((slot+1, generation) packed); 0 = invalid.
  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] bool valid() const { return id_ != 0; }

 private:
  friend class Scheduler;
  EventHandle(std::uint32_t slot, std::uint32_t gen)
      : id_((static_cast<std::uint64_t>(slot) + 1) << 32 | gen) {}
  [[nodiscard]] std::uint32_t slot() const {
    return static_cast<std::uint32_t>((id_ >> 32) - 1);
  }
  [[nodiscard]] std::uint32_t gen() const {
    return static_cast<std::uint32_t>(id_);
  }
  std::uint64_t id_ = 0;
};

class Scheduler {
 public:
  /// Inline capture budget for event callables. Sized for a this-pointer
  /// plus a few words — a timer, a completion, or a packet path closure
  /// holding a sim::SlotPool handle instead of the packet itself. Oversized
  /// captures take InlineFn's heap fallback and are counted by
  /// inline_spills(). Kept modest on purpose: every pooled event node grows
  /// with this. Raising it to 144 B so whole packets fit measured no faster
  /// than pooling and grows each node from 80 to 176 bytes
  /// (docs/PERFORMANCE.md, "Packet hot path").
  static constexpr std::size_t kEventInlineBytes = 48;
  using EventFn = InlineFn<void(), kEventInlineBytes>;

  Scheduler() = default;
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Register a hook to run when the scheduler is destroyed, LIFO. This is
  /// the attachment point for per-simulation finalization that outlives any
  /// single component — e.g. the observability registry exports its metrics
  /// JSON from here (src/obs), after every NIC/firmware has already synced
  /// its final counter values.
  void at_teardown(std::function<void()> fn) {
    teardown_.push_back(std::move(fn));
  }

  [[nodiscard]] Time now() const { return now_; }

  /// Schedule `fn` at absolute time `t`.
  ///
  /// Contract: `t` must be >= now(). Scheduling into the past throws
  /// std::logic_error — a past-time event would either run "late" (breaking
  /// causality silently) or reorder already-fired work, so it is always a
  /// caller bug. Callers that want "as soon as possible" schedule at now()
  /// (or after(0, ...)), which runs after already-queued same-time events.
  EventHandle at(Time t, EventFn fn) {
    if (t < now_) throw_past_time(t);
    if (next_seq_ == kSeqLimit) throw_exhausted("sequence numbers");
    if (fn.heap_allocated()) ++inline_spills_;
    const std::uint32_t slot = acquire_slot();
    nodes_[slot].fn = std::move(fn);
    return push_entry(t, slot);
  }

  /// Overload constructing the callable in place in the pooled node — the
  /// hot path for lambdas at call sites (no intermediate EventFn move).
  template <class F,
            class = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_v<std::decay_t<F>&>>>
  EventHandle at(Time t, F&& fn) {
    if (t < now_) throw_past_time(t);
    if (next_seq_ == kSeqLimit) throw_exhausted("sequence numbers");
    if constexpr (!EventFn::fits_inline<std::decay_t<F>>) ++inline_spills_;
    const std::uint32_t slot = acquire_slot();
    nodes_[slot].fn.emplace(std::forward<F>(fn));
    return push_entry(t, slot);
  }

  /// Schedule `fn` after `d` nanoseconds of simulated time.
  template <class F>
  EventHandle after(Duration d, F&& fn) {
    return at(time_add(now_, d), std::forward<F>(fn));
  }

  /// Cancel a pending event. Cancelling an already-fired, already-cancelled,
  /// or invalid handle is a harmless no-op. Returns true if the event was
  /// still pending and is now cancelled. The captured state is destroyed
  /// immediately; the heap entry is reclaimed when it surfaces, or by the
  /// next compaction, whichever comes first.
  bool cancel(EventHandle h) {
    if (!h.valid()) return false;
    const std::uint32_t slot = h.slot();
    if (slot >= nodes_.size()) return false;
    Node& n = nodes_[slot];
    if (n.gen != h.gen() || n.cancelled) return false;
    n.cancelled = true;
    n.fn.reset();  // release captured resources now, not at heap surfacing
    --live_;
    if (++cancelled_in_heap_ >= kCompactMin &&
        cancelled_in_heap_ * 2 > heap_.size()) {
      compact();
    }
    return true;
  }

  /// True if the event behind `h` has neither fired nor been cancelled.
  [[nodiscard]] bool pending(EventHandle h) const {
    if (!h.valid()) return false;
    const std::uint32_t slot = h.slot();
    return slot < nodes_.size() && nodes_[slot].gen == h.gen() &&
           !nodes_[slot].cancelled;
  }

  /// Run the next event. Returns false when the queue is empty.
  bool step() {
    skim_cancelled();
    if (heap_.empty()) return false;
    const Key top = heap_.front();
    pop_top();
    // Move the callable out before freeing: the event may (re)schedule into
    // its own slot, and pool growth may reallocate nodes_.
    const std::uint32_t slot = key_slot(top);
    EventFn fn = std::move(nodes_[slot].fn);
    free_slot(slot);
    now_ = key_time(top);
    ++executed_;
    --live_;
    fn();
    return true;
  }

  /// Run until the event queue drains.
  void run();

  /// Run events with time <= t, then advance the clock to t.
  void run_until(Time t);

  /// Run for `d` more nanoseconds of simulated time.
  void run_for(Duration d) { run_until(time_add(now_, d)); }

  /// Events scheduled and neither fired nor cancelled.
  [[nodiscard]] std::size_t pending_events() const { return live_; }

  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

  /// Events scheduled whose callable did not fit kEventInlineBytes and was
  /// heap-allocated. Deliberately not an obs::Registry metric, so registry
  /// dumps stay identical whatever the capture sizes.
  [[nodiscard]] std::uint64_t inline_spills() const { return inline_spills_; }

 private:
  /// Heap element: `time << 64 | seq << kSlotBits | slot`. Sequence numbers
  /// are unique, so comparing keys orders events exactly as (time, seq) does
  /// and one branch-free compare decides each sift step (a lexicographic
  /// two-field compare cost a data-dependent branch per level, which
  /// mispredicts ~50% of the time on jittered timestamps). The slot of the
  /// node holding the callable rides in the low bits, so a sift moves 16
  /// bytes and never a closure. The bounds are checked where a slot or a seq
  /// is handed out: kSlotLimit concurrent nodes and kSeqLimit schedules.
  using Key = unsigned __int128;
  static constexpr unsigned kSlotBits = 24;
  static constexpr unsigned kSeqBits = 64 - kSlotBits;
  static constexpr std::uint64_t kSlotLimit = std::uint64_t{1} << kSlotBits;
  static constexpr std::uint64_t kSeqLimit = std::uint64_t{1} << kSeqBits;

  static Key make_key(Time t, std::uint64_t seq, std::uint32_t slot) {
    return static_cast<Key>(t) << 64 | (seq << kSlotBits | slot);
  }

  static Time key_time(Key key) { return static_cast<Time>(key >> 64); }

  static std::uint32_t key_slot(Key key) {
    return static_cast<std::uint32_t>(key) &
           static_cast<std::uint32_t>(kSlotLimit - 1);
  }

  /// Pooled event node. `gen` identifies the current tenancy of the slot;
  /// it is bumped when the slot is freed so stale EventHandles miss.
  struct Node {
    EventFn fn;
    std::uint32_t gen = 1;
    bool cancelled = false;
  };

  /// Compaction threshold: never compact below this many cancelled entries
  /// (the O(n) rebuild must amortize against the cancels that earned it).
  static constexpr std::size_t kCompactMin = 64;

  std::uint32_t acquire_slot() {
    if (!free_slots_.empty()) {
      const std::uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      return slot;
    }
    if (nodes_.size() == kSlotLimit) throw_exhausted("event slots");
    const auto slot = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
    return slot;
  }

  EventHandle push_entry(Time t, std::uint32_t slot) {
    heap_.push_back(make_key(t, next_seq_++, slot));
    sift_up(heap_.size() - 1);
    ++live_;
    return EventHandle{slot, nodes_[slot].gen};
  }

  void sift_up(std::size_t i) {
    const Key e = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (heap_[parent] <= e) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  // Bottom-up variant: the displaced entry `e` comes from the heap's back (a
  // leaf), so instead of comparing it at every level (two compares per
  // level), sink the hole straight to a leaf (one compare per level) and
  // sift `e` up from there — it rarely moves more than a step. The
  // smaller-child selection is arithmetic, not a branch.
  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    const Key e = heap_[i];
    std::size_t child;
    while ((child = 2 * i + 1) + 1 < n) {
      child += static_cast<std::size_t>(heap_[child + 1] < heap_[child]);
      heap_[i] = heap_[child];
      i = child;
    }
    if (child < n) {  // lone last child (even heap size)
      heap_[i] = heap_[child];
      i = child;
    }
    heap_[i] = e;
    sift_up(i);
  }

  void pop_top() {
    const Key back = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      heap_.front() = back;
      sift_down(0);
    }
  }

  void free_slot(std::uint32_t slot) {
    Node& n = nodes_[slot];
    n.fn.reset();
    n.cancelled = false;
    if (++n.gen == 0) n.gen = 1;  // generation 0 is reserved, never valid
    free_slots_.push_back(slot);
  }

  /// Discard cancelled entries sitting on top of the heap.
  void skim_cancelled() {
    while (!heap_.empty()) {
      const std::uint32_t slot = key_slot(heap_.front());
      if (!nodes_[slot].cancelled) return;
      pop_top();
      free_slot(slot);
      --cancelled_in_heap_;
    }
  }

  /// Drop every cancelled entry and rebuild the heap in O(n) (Floyd). Pop
  /// order is unchanged: the heap property is rebuilt under the same total
  /// (time, seq) order, so the sequence of surfaced minima is identical.
  void compact() {
    std::size_t w = 0;
    for (const Key e : heap_) {
      if (nodes_[key_slot(e)].cancelled) {
        free_slot(key_slot(e));
      } else {
        heap_[w++] = e;
      }
    }
    heap_.resize(w);
    for (std::size_t i = w / 2; i-- > 0;) {
      sift_down_classic(i);
    }
    cancelled_in_heap_ = 0;
  }

  /// Textbook sift (compare `e` at each level) — used by compact(), where
  /// the displaced entry is not biased toward the leaves.
  void sift_down_classic(std::size_t i) {
    const std::size_t n = heap_.size();
    const Key e = heap_[i];
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && heap_[child + 1] < heap_[child]) ++child;
      if (heap_[child] >= e) break;
      heap_[i] = heap_[child];
      i = child;
    }
    heap_[i] = e;
  }

  [[noreturn]] void throw_past_time(Time t) const;
  [[noreturn]] static void throw_exhausted(const char* what);

  std::vector<Key> heap_;
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::function<void()>> teardown_;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  std::size_t cancelled_in_heap_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t inline_spills_ = 0;
};

}  // namespace sanfault::sim
