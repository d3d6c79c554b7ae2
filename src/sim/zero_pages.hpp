// Memory the OS backs only where it is written.
//
// Anonymous private pages (mmap), unmapped on destruction; the OS
// zero-fills each page on its first write. A large buffer that a run
// writes sparsely (a VMMC export, the scheduler's bucket ring) costs only
// the pages it touches, and mapping it leaves glibc's heap, and so where
// it places FFT's 4 MB regions, alone (docs/PERFORMANCE.md, "Why the OS's
// zero pages").
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>

namespace sanfault::sim {

class ZeroPages {
 public:
  ZeroPages() = default;
  /// Maps `bytes`; nothing for 0 bytes. Throws std::bad_alloc when the
  /// mapping fails.
  explicit ZeroPages(std::size_t bytes);
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
