// Cross-checks the slice-by-8 CRC32 against the one-table reference
// implementation: random lengths, unaligned starts (the sliced path has an
// alignment prologue whose every phase must agree), and the streaming split
// property crc(ab) == crc over a then b for arbitrary splits. The
// PayloadCrc cases pin the CRC a payload buffer computes once and keeps.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "net/crc.hpp"
#include "net/payload.hpp"
#include "sim/rng.hpp"

namespace sanfault::net {
namespace {

std::vector<std::uint8_t> random_bytes(sim::Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.uniform(256));
  return v;
}

TEST(Crc32, KnownAnswer) {
  // "123456789" -> 0xCBF43926 is the standard CRC-32/IEEE check value.
  const std::uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(std::span<const std::uint8_t>(data, 9)), 0xCBF43926u);
}

TEST(Crc32, EmptyInput) {
  EXPECT_EQ(crc32({}), 0u);
  EXPECT_EQ(crc32_update(0xFFFFFFFFu, {}), 0xFFFFFFFFu);
  EXPECT_EQ(crc32_update_reference(0xFFFFFFFFu, {}), 0xFFFFFFFFu);
}

TEST(Crc32, SlicedMatchesReferenceOverRandomLengths) {
  sim::Rng rng(0xC5C5);
  // Sweep every length 0..64 (all prologue/epilogue phase combinations at
  // small n), then random larger lengths through the 8-byte inner loop.
  for (std::size_t n = 0; n <= 64; ++n) {
    const auto buf = random_bytes(rng, n);
    const std::span<const std::uint8_t> s(buf);
    EXPECT_EQ(crc32_update(0xFFFFFFFFu, s),
              crc32_update_reference(0xFFFFFFFFu, s))
        << "length " << n;
  }
  for (int rep = 0; rep < 50; ++rep) {
    const std::size_t n = 65 + rng.uniform(8192);
    const auto buf = random_bytes(rng, n);
    const std::span<const std::uint8_t> s(buf);
    EXPECT_EQ(crc32_update(0xFFFFFFFFu, s),
              crc32_update_reference(0xFFFFFFFFu, s))
        << "length " << n;
  }
}

TEST(Crc32, SlicedMatchesReferenceAtEveryAlignment) {
  sim::Rng rng(0xA11A);
  const auto buf = random_bytes(rng, 4096 + 16);
  // Same bytes viewed from every start offset 0..15: the alignment prologue
  // must hand off to the 8-byte loop correctly from any phase.
  for (std::size_t off = 0; off < 16; ++off) {
    const std::span<const std::uint8_t> s(buf.data() + off, 4096);
    EXPECT_EQ(crc32_update(0xFFFFFFFFu, s),
              crc32_update_reference(0xFFFFFFFFu, s))
        << "offset " << off;
  }
}

TEST(Crc32, StreamingSplitsComposeToWholeBufferCrc) {
  sim::Rng rng(0x5EED);
  const auto buf = random_bytes(rng, 2048);
  const std::span<const std::uint8_t> whole(buf);
  const std::uint32_t expect = crc32(whole);
  // crc32_update must be split-invariant: any cut point — including 0, the
  // full length, and random interior points — composes to the same CRC.
  std::vector<std::size_t> cuts = {0, 1, 7, 8, 9, 2047, 2048};
  for (int i = 0; i < 20; ++i) cuts.push_back(rng.uniform(2049));
  for (const std::size_t cut : cuts) {
    std::uint32_t state = 0xFFFFFFFFu;
    state = crc32_update(state, whole.subspan(0, cut));
    state = crc32_update(state, whole.subspan(cut));
    EXPECT_EQ(state ^ 0xFFFFFFFFu, expect) << "cut " << cut;
  }
  // Many-way split: byte-at-a-time through the streaming API.
  std::uint32_t state = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < buf.size(); ++i) {
    state = crc32_update(state, whole.subspan(i, 1));
  }
  EXPECT_EQ(state ^ 0xFFFFFFFFu, expect);
}

TEST(Crc32, DetectsSingleBitFlips) {
  sim::Rng rng(0xB17);
  auto buf = random_bytes(rng, 1024);
  const std::uint32_t clean = crc32(std::span<const std::uint8_t>(buf));
  for (int rep = 0; rep < 64; ++rep) {
    const std::size_t byte = rng.uniform(buf.size());
    const std::uint8_t bit = static_cast<std::uint8_t>(1u << rng.uniform(8));
    buf[byte] ^= bit;
    EXPECT_NE(crc32(std::span<const std::uint8_t>(buf)), clean);
    buf[byte] ^= bit;
  }
}

// --- the CRC kept in a payload buffer ---------------------------------------

TEST(PayloadCrc, MatchesCrc32OverTheBytes) {
  sim::Rng rng(0xC0C);
  const std::size_t sizes[] = {0, 1, 4096};
  for (const std::size_t n : sizes) {
    const PayloadRef p(random_bytes(rng, n));
    const std::uint32_t expect = crc32(p.span());
    EXPECT_EQ(p.crc(), expect) << n;
    EXPECT_EQ(p.crc(), expect) << n << " (kept value)";
  }
}

TEST(PayloadCrc, CopiesReportTheSameCrc) {
  sim::Rng rng(0xC0D);
  const PayloadRef original(random_bytes(rng, 512));
  const PayloadRef before = original;  // copied before the first crc()
  const std::uint32_t crc = original.crc();
  const PayloadRef after = original;   // copied after
  EXPECT_EQ(before.crc(), crc);
  EXPECT_EQ(after.crc(), crc);
}

TEST(PayloadCrc, CorruptedCopyHasItsOwnCrcAndSourceKeepsItsOwn) {
  sim::Rng rng(0xC0E);
  const PayloadRef src(random_bytes(rng, 256));
  const std::uint32_t clean = src.crc();
  const PayloadRef bad = src.corrupted(17, 0x5A);
  EXPECT_EQ(bad.crc(), crc32(bad.span()));
  EXPECT_NE(bad.crc(), clean);
  EXPECT_EQ(src.crc(), clean);
  EXPECT_EQ(src.crc(), crc32(src.span()));
}

}  // namespace
}  // namespace sanfault::net
