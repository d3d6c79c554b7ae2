#include "calibrate.hpp"

#include <sys/mman.h>

#include <cstddef>
#include <functional>
#include <new>
#include <queue>
#include <utility>
#include <vector>

#include "tracer.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kHeapWords = std::size_t{1} << 23;  // 64 MB
constexpr std::uint32_t kHeapPending = 1u << 15;
constexpr std::uint64_t kSteps = 300'000;

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

volatile std::uint64_t g_sink = 0;

/// Anonymous memory returned to the kernel on destruction.
template <typename T>
class Mapped {
 public:
  explicit Mapped(std::size_t n) : n_(n) {
    void* p = mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    p_ = static_cast<T*>(p);
  }
  ~Mapped() { munmap(p_, n_ * sizeof(T)); }
  Mapped(const Mapped&) = delete;
  Mapped& operator=(const Mapped&) = delete;
  T& operator[](std::size_t i) { return p_[i]; }

 private:
  T* p_;
  std::size_t n_;
};

}  // namespace

// Pop the earliest event, update a pseudo-random word of the arena, push a
// follow-up event. Only the loop is timed, not filling the arena.
double reference_kernel_s() {
  Mapped<std::uint64_t> arena(kHeapWords);
  for (std::size_t i = 0; i < kHeapWords; ++i) arena[i] = mix(i);
  using Event = std::pair<std::uint64_t, std::uint32_t>;
  std::vector<Event> storage;
  storage.reserve(kHeapPending + 1);
  const double t0 = thread_cpu_s();
  std::priority_queue<Event, std::vector<Event>, std::greater<>> q(
      std::greater<>{}, std::move(storage));
  for (std::uint32_t i = 0; i < kHeapPending; ++i) q.emplace(mix(i) >> 40, i);
  std::uint64_t acc = 0;
  for (std::uint64_t step = 0; step < kSteps; ++step) {
    const auto [t, id] = q.top();
    q.pop();
    const std::uint64_t h = mix(t ^ id);
    std::uint64_t& w = arena[h & (kHeapWords - 1)];
    w += h;
    acc += w;
    q.emplace(t + (h >> 52) + 1, static_cast<std::uint32_t>(h));
  }
  g_sink = acc;
  return thread_cpu_s() - t0;
}

}  // namespace perfbench
