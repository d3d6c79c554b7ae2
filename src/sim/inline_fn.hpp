// InlineFn: a move-only callable wrapper with small-buffer storage.
//
// std::function's inline buffer (16 bytes on libstdc++) is too small for the
// simulator's event lambdas, so every capture beyond two words paid a heap
// allocation. InlineFn stores callables up to `InlineBytes` directly in the
// wrapper (and the wrapper itself lives in the scheduler's pooled event
// nodes), falling back to the heap only for oversized captures. Whether a
// capture fits is the call site's business: the packet and send-request
// paths park their payload in a sim::SlotPool and capture an 8-byte handle,
// and Scheduler::inline_spills() counts the events that still spill. Two
// raw function pointers replace the vtable, keeping invocation a single
// indirect call. Trivially-copyable inline callables (most event lambdas: a
// few pointers/ints) skip the manage pointer entirely — moves are a plain
// buffer copy and destruction is a no-op, with no indirect call.
//
// Requirements on the wrapped callable: move-constructible; invoked
// non-const. Copying InlineFn is deliberately not supported — events fire
// once.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace sanfault::sim {

template <class Sig, std::size_t InlineBytes = 48>
class InlineFn;  // primary template intentionally undefined

template <class R, class... Args, std::size_t InlineBytes>
class InlineFn<R(Args...), InlineBytes> {
  static_assert(InlineBytes >= sizeof(void*),
                "inline buffer must at least hold the heap-fallback pointer");

 public:
  InlineFn() = default;
  InlineFn(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <class F,
            class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, InlineFn> &&
                                     std::is_invocable_r_v<R, D&, Args...>>>
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor)
    construct<D>(std::forward<F>(f));
  }

  /// Destroy the current callable (if any) and construct `f` directly in the
  /// buffer — the zero-move path for hot call sites (Scheduler::at builds
  /// event closures straight into pooled nodes with this).
  template <class F,
            class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, InlineFn> &&
                                     std::is_invocable_r_v<R, D&, Args...>>>
  void emplace(F&& f) {
    reset();
    construct<D>(std::forward<F>(f));
  }

  InlineFn(InlineFn&& o) noexcept { move_from(o); }

  InlineFn& operator=(InlineFn&& o) noexcept {
    if (this != &o) {
      reset();
      move_from(o);
    }
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { reset(); }

  void reset() {
    if (manage_ != nullptr) manage_(buf_, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  [[nodiscard]] explicit operator bool() const { return invoke_ != nullptr; }

  /// True when a callable of type D is stored in the inline buffer.
  template <class D>
  static constexpr bool fits_inline =
      sizeof(D) <= InlineBytes && alignof(D) <= alignof(std::max_align_t);

  /// True if the wrapped callable took the heap fallback.
  [[nodiscard]] bool heap_allocated() const {
    return manage_ != nullptr && manage_(nullptr, nullptr);
  }

  R operator()(Args... args) {
    return invoke_(buf_, std::forward<Args>(args)...);
  }

 private:
  // manage(src, dst): dst == nullptr => destroy the callable in src;
  // otherwise move it from src into dst (and destroy the src copy).
  // src == nullptr is a query that touches nothing; every call returns
  // whether the callable lives on the heap.
  using InvokePtr = R (*)(void*, Args&&...);
  using ManagePtr = bool (*)(void* src, void* dst);

  template <class D, class F>
  void construct(F&& f) {
    if constexpr (fits_inline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      invoke_ = &invoke_inline<D>;
      // Trivially-copyable callables need no manage function: moving is a
      // buffer copy, destroying is a no-op (manage_ stays null as the tag).
      manage_ = std::is_trivially_copyable_v<D> ? nullptr : &manage_inline<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      invoke_ = &invoke_heap<D>;
      manage_ = &manage_heap<D>;
    }
  }

  template <class D>
  static R invoke_inline(void* buf, Args&&... args) {
    return (*std::launder(reinterpret_cast<D*>(buf)))(
        std::forward<Args>(args)...);
  }
  template <class D>
  static bool manage_inline(void* src, void* dst) {
    if (src == nullptr) return false;
    D* f = std::launder(reinterpret_cast<D*>(src));
    if (dst != nullptr) ::new (dst) D(std::move(*f));
    f->~D();
    return false;
  }
  template <class D>
  static R invoke_heap(void* buf, Args&&... args) {
    return (**std::launder(reinterpret_cast<D**>(buf)))(
        std::forward<Args>(args)...);
  }
  template <class D>
  static bool manage_heap(void* src, void* dst) {
    if (src == nullptr) return true;
    D** p = std::launder(reinterpret_cast<D**>(src));
    if (dst != nullptr) {
      ::new (dst) D*(*p);  // pointer moves; the heap object stays put
    } else {
      delete *p;
    }
    return true;
  }

  void move_from(InlineFn& o) noexcept {
    if (o.invoke_ == nullptr) return;
    if (o.manage_ != nullptr) {
      o.manage_(o.buf_, buf_);
    } else {
      __builtin_memcpy(buf_, o.buf_, InlineBytes);
    }
    invoke_ = o.invoke_;
    manage_ = o.manage_;
    o.invoke_ = nullptr;
    o.manage_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buf_[InlineBytes];
  InvokePtr invoke_ = nullptr;
  ManagePtr manage_ = nullptr;
};

}  // namespace sanfault::sim
