#include "sim/zero_pages.hpp"

#include <sys/mman.h>

#include <new>

namespace sanfault::sim {

ZeroPages::ZeroPages(std::size_t bytes, Backing backing) {
  if (bytes == 0) return;
  const int populate = backing == Backing::kUpFront ? MAP_POPULATE : 0;
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | populate, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  p_ = static_cast<std::uint8_t*>(p);
  n_ = bytes;
}

ZeroPages::~ZeroPages() {
  if (p_ != nullptr) ::munmap(p_, n_);
}

}  // namespace sanfault::sim
