// Unit tests for the RNG, slot-pool and zero-page utilities.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstddef>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "sim/slot_pool.hpp"
#include "sim/zero_pages.hpp"

namespace sanfault::sim {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformRespectsBound) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(r.uniform(17), 17u);
  EXPECT_EQ(r.uniform(0), 0u);
  EXPECT_EQ(r.uniform(1), 0u);
}

TEST(Rng, UniformCoversRange) {
  Rng r(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng r(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double v = r.uniform_double();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng r(13);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += r.bernoulli(0.001);
  EXPECT_NEAR(hits, 100, 60);  // ~6 sigma
}

TEST(SlotPool, TakeReturnsTheParkedValue) {
  SlotPool<std::string> pool;
  const auto a = pool.put("a");
  const auto b = pool.put("b");
  EXPECT_EQ(pool[b], "b");
  EXPECT_EQ(pool.take(a), "a");
  EXPECT_EQ(pool.take(b), "b");
}

TEST(SlotPool, ReuseBumpsTheGeneration) {
  SlotPool<int> pool;
  const auto first = pool.put(1);
  (void)pool.take(first);
  const auto second = pool.put(2);  // the freed slot is reused
  EXPECT_NE(first.id(), second.id());
  EXPECT_EQ(first.id() >> 32, second.id() >> 32) << "same slot";
  EXPECT_EQ(pool.take(second), 2);
}

TEST(SlotPool, StaleOrRepeatedTakeThrows) {
  SlotPool<int> pool;
  const auto h = pool.put(7);
  EXPECT_EQ(pool.take(h), 7);
  EXPECT_THROW((void)pool.take(h), std::logic_error);  // repeated
  const auto fresh = pool.put(8);                      // reuses h's slot
  EXPECT_THROW((void)pool.take(h), std::logic_error);  // stale
  EXPECT_THROW((void)pool[h], std::logic_error);
  EXPECT_THROW((void)pool.take(SlotPool<int>::Handle{}), std::logic_error);
  EXPECT_EQ(pool.take(fresh), 8);
}

std::size_t page_size() {
  return static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

/// Pages of `z` that the OS has backed (mincore).
std::size_t backed_pages(const ZeroPages& z) {
  const std::span<std::uint8_t> s = z.span();
  std::vector<unsigned char> vec((s.size() + page_size() - 1) / page_size());
  EXPECT_EQ(mincore(s.data(), s.size(), vec.data()), 0);
  std::size_t n = 0;
  for (const unsigned char v : vec) n += v & 1u;
  return n;
}

TEST(ZeroPages, BackedOnFirstWriteOrUpFront) {
  const std::size_t pages = 16;
  const ZeroPages lazy(pages * page_size());
  EXPECT_EQ(backed_pages(lazy), 0u);
  lazy.span()[3 * page_size()] = 1;
  EXPECT_GE(backed_pages(lazy), 1u);

  const ZeroPages eager(pages * page_size(), ZeroPages::Backing::kUpFront);
  EXPECT_EQ(backed_pages(eager), pages);
  for (const std::uint8_t b : eager.span()) ASSERT_EQ(b, 0);

  EXPECT_TRUE(ZeroPages(0, ZeroPages::Backing::kUpFront).span().empty());
}

}  // namespace
}  // namespace sanfault::sim
