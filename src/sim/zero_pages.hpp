// Memory the OS backs only where it is written, or all of it at once.
//
// Anonymous private pages (mmap), unmapped on destruction; the OS
// zero-fills each page on its first write. A large buffer that a run
// writes sparsely (a VMMC export, the scheduler's bucket ring) costs only
// the pages it touches; one that a run writes whole (an SVM region) asks
// for every page up front, one call instead of one fault per page. Either
// way the buffer stays out of glibc's heap, so no small block that
// outlives it can land in the hole it leaves and make the next buffer of
// its size grow the heap (docs/PERFORMANCE.md, "Why the OS's zero pages"
// and "SVM regions off the heap").
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>

namespace sanfault::sim {

class ZeroPages {
 public:
  /// When the OS backs the pages: each on its first write, or all of them
  /// when mapped (best effort: a page it could not back then is backed on
  /// its first write).
  enum class Backing { kOnFirstWrite, kUpFront };

  ZeroPages() = default;
  /// Maps `bytes`; nothing for 0 bytes. Throws std::bad_alloc when the
  /// mapping fails.
  explicit ZeroPages(std::size_t bytes,
                     Backing backing = Backing::kOnFirstWrite);
  ZeroPages(ZeroPages&& o) noexcept
      : p_(std::exchange(o.p_, nullptr)), n_(std::exchange(o.n_, 0)) {}
  ZeroPages& operator=(ZeroPages&& o) noexcept {
    std::swap(p_, o.p_);
    std::swap(n_, o.n_);
    return *this;
  }
  ~ZeroPages();
  [[nodiscard]] std::span<std::uint8_t> span() const { return {p_, n_}; }

 private:
  std::uint8_t* p_ = nullptr;
  std::size_t n_ = 0;
};

}  // namespace sanfault::sim
