// Tests for the SPLASH-2 application reproductions: numerical correctness of
// each kernel through the full SVM/VMMC/firmware/fabric stack, clean and
// under injected errors, plus the per-category timing signatures Figure 9
// relies on (FFT data-bound, Radix latency-sensitive, Water compute-bound).
// FFT's row transform is also pinned bit for bit to the textbook recurrence.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <numbers>
#include <span>
#include <vector>

#include "apps/fft.hpp"
#include "apps/radix.hpp"
#include "apps/water.hpp"
#include "harness/cluster.hpp"
#include "sim/rng.hpp"

namespace sanfault {
namespace {

using harness::Cluster;
using harness::ClusterConfig;
using harness::FirmwareKind;

ClusterConfig paper_cluster(std::uint64_t drop_interval = 0) {
  ClusterConfig cfg;
  cfg.num_hosts = 4;  // the paper's 4-node / 8-processor sub-cluster
  cfg.fw = FirmwareKind::kReliable;
  cfg.rel.drop_interval = drop_interval;
  return cfg;
}

using Cplx = std::complex<double>;

/// The textbook radix-2 transform, the plan's reference: std::complex
/// products, and the twiddle recurrence `w *= wl` restarted in every block.
void textbook_fft(std::span<Cplx> a, bool inverse) {
  const std::size_t L = a.size();
  for (std::size_t i = 1, j = 0; i < L; ++i) {
    std::size_t bit = L >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  for (std::size_t len = 2; len <= L; len <<= 1) {
    const double ang =
        2.0 * std::numbers::pi / static_cast<double>(len) * (inverse ? 1 : -1);
    const Cplx wl(std::cos(ang), std::sin(ang));
    for (std::size_t i = 0; i < L; i += len) {
      Cplx w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Cplx u = a[i + k];
        const Cplx v = a[i + k + len / 2] * w;
        a[i + k] = u + v;
        a[i + k + len / 2] = u - v;
        w *= wl;
      }
    }
  }
  const double s = 1.0 / std::sqrt(static_cast<double>(L));
  for (auto& v : a) v *= s;
}

TEST(FftKernel, PlanMatchesTextbookRecurrenceBitForBit) {
  // Every row length a run can use, including rows shorter than a transpose
  // tile. Each seeded row goes forward and back through one plan, compared
  // after each direction.
  for (std::size_t n = 2; n <= 1024; n <<= 1) {
    const apps::detail::FftPlan plan(n);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      sim::Rng rng(seed * 1000 + n);
      std::vector<Cplx> want(n);
      for (auto& v : want) {
        v = Cplx(rng.uniform_double() * 2 - 1, rng.uniform_double() * 2 - 1);
      }
      std::vector<Cplx> got = want;
      for (const bool inverse : {false, true}) {
        SCOPED_TRACE(testing::Message() << "n=" << n << " seed=" << seed
                                        << (inverse ? " inverse" : " forward"));
        textbook_fft(want, inverse);
        plan.transform(got, inverse);
        EXPECT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(Cplx)), 0);
      }
    }
  }
}

TEST(AppFft, RoundTripVerifiesClean) {
  Cluster c(paper_cluster());
  apps::FftConfig cfg;
  cfg.log2_points = 10;  // 1K points: quick but multi-page
  cfg.iterations = 2;
  auto r = apps::run_fft(c, cfg);
  EXPECT_TRUE(r.verified);
  EXPECT_GT(r.elapsed, 0u);
  ASSERT_EQ(r.per_proc.size(), 8u);
}

TEST(AppFft, RoundTripVerifiesUnderInjectedErrors) {
  Cluster c(paper_cluster(/*drop_interval=*/50));
  apps::FftConfig cfg;
  cfg.log2_points = 10;
  cfg.iterations = 2;
  auto r = apps::run_fft(c, cfg);
  EXPECT_TRUE(r.verified);
  EXPECT_GT(c.rel(0).stats().injected_drops + c.rel(1).stats().injected_drops +
                c.rel(2).stats().injected_drops +
                c.rel(3).stats().injected_drops,
            0u);
}

TEST(AppFft, RoundTripVerifiesOnRowsShorterThanATile) {
  // 16 points: 4 x 4, so every transpose copies partial tiles, and seven of
  // the eight processors own no row.
  Cluster c(paper_cluster());
  apps::FftConfig cfg;
  cfg.log2_points = 4;
  cfg.iterations = 2;
  auto r = apps::run_fft(c, cfg);
  EXPECT_TRUE(r.verified);
}

TEST(AppFft, OddIterationsVerifyEnergy) {
  Cluster c(paper_cluster());
  apps::FftConfig cfg;
  cfg.log2_points = 10;
  cfg.iterations = 1;
  auto r = apps::run_fft(c, cfg);
  EXPECT_TRUE(r.verified);
}

TEST(AppFft, IsDataDominated) {
  Cluster c(paper_cluster());
  apps::FftConfig cfg;
  cfg.log2_points = 12;
  cfg.iterations = 2;
  auto r = apps::run_fft(c, cfg);
  ASSERT_TRUE(r.verified);
  const auto agg = r.aggregate();
  // The paper calls FFT bandwidth-limited: data wait dominates compute.
  EXPECT_GT(agg.data, agg.compute);
}

TEST(AppRadix, FullSortCleanRun) {
  Cluster c(paper_cluster());
  apps::RadixConfig cfg;
  cfg.num_keys = 1 << 13;
  cfg.iterations = 4;  // 4 x 8 bits: fully sorted
  auto r = apps::run_radix(c, cfg);
  EXPECT_TRUE(r.verified);
}

TEST(AppRadix, FullSortUnderInjectedErrors) {
  Cluster c(paper_cluster(/*drop_interval=*/200));
  apps::RadixConfig cfg;
  cfg.num_keys = 1 << 13;
  cfg.iterations = 4;
  auto r = apps::run_radix(c, cfg);
  EXPECT_TRUE(r.verified);
}

TEST(AppRadix, PartialPassesSortLowDigits) {
  Cluster c(paper_cluster());
  apps::RadixConfig cfg;
  cfg.num_keys = 1 << 12;
  cfg.iterations = 2;
  auto r = apps::run_radix(c, cfg);
  EXPECT_TRUE(r.verified);
}

TEST(AppRadix, PaperFivePassesKeepPermutation) {
  Cluster c(paper_cluster());
  apps::RadixConfig cfg;
  cfg.num_keys = 1 << 12;
  cfg.iterations = 5;  // Table 2's configuration wraps to digit 0
  auto r = apps::run_radix(c, cfg);
  EXPECT_TRUE(r.verified);
}

TEST(AppWater, MomentumConservedCleanRun) {
  Cluster c(paper_cluster());
  apps::WaterConfig cfg;
  cfg.num_molecules = 128;
  cfg.steps = 2;
  auto r = apps::run_water(c, cfg);
  EXPECT_TRUE(r.verified);
}

TEST(AppWater, MomentumConservedUnderInjectedErrors) {
  Cluster c(paper_cluster(/*drop_interval=*/150));
  apps::WaterConfig cfg;
  cfg.num_molecules = 128;
  cfg.steps = 2;
  auto r = apps::run_water(c, cfg);
  EXPECT_TRUE(r.verified);
}

TEST(AppWater, IsComputeDominated) {
  Cluster c(paper_cluster());
  apps::WaterConfig cfg;
  cfg.num_molecules = 512;  // O(n^2) compute must dwarf the O(n) data
  cfg.steps = 2;
  auto r = apps::run_water(c, cfg);
  ASSERT_TRUE(r.verified);
  const auto agg = r.aggregate();
  // "High computation to communication ratio": compute dwarfs data waits.
  EXPECT_GT(agg.compute, agg.data);
  EXPECT_GT(agg.lock, 0u);
}

TEST(AppWater, LockGranularityTradesMessagesForContention) {
  // One big lock: 8 serialized critical sections, few lock messages.
  // Eight small locks: more lock round trips, less serialization. Both must
  // verify; the runtime's lock accounting must match the configuration.
  apps::WaterConfig coarse;
  coarse.num_molecules = 256;
  coarse.steps = 1;
  coarse.lock_block = 256;  // one big lock

  apps::WaterConfig fine = coarse;
  fine.lock_block = 32;  // eight locks

  Cluster c1(paper_cluster());
  auto r_coarse = apps::run_water(c1, coarse);
  Cluster c2(paper_cluster());
  auto r_fine = apps::run_water(c2, fine);
  ASSERT_TRUE(r_coarse.verified);
  ASSERT_TRUE(r_fine.verified);
  // 8 procs x nblocks x steps lock acquisitions in each configuration.
  EXPECT_GT(r_coarse.aggregate().lock, 0u);
  EXPECT_GT(r_fine.aggregate().lock, 0u);
}

// The decomposition must be correct for any processor count, not just the
// paper's 8 (4 nodes x 2): run each kernel at 1 and 4 processors per node.
class AppsProcSweep : public ::testing::TestWithParam<int> {};

TEST_P(AppsProcSweep, FftVerifiesAtAnyProcCount) {
  Cluster c(paper_cluster());
  apps::FftConfig cfg;
  cfg.log2_points = 10;
  cfg.iterations = 2;
  cfg.procs_per_node = GetParam();
  auto r = apps::run_fft(c, cfg);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.per_proc.size(), static_cast<std::size_t>(4 * GetParam()));
}

TEST_P(AppsProcSweep, RadixVerifiesAtAnyProcCount) {
  Cluster c(paper_cluster());
  apps::RadixConfig cfg;
  cfg.num_keys = 1 << 12;
  cfg.iterations = 4;
  cfg.procs_per_node = GetParam();
  auto r = apps::run_radix(c, cfg);
  EXPECT_TRUE(r.verified);
}

TEST_P(AppsProcSweep, WaterVerifiesAtAnyProcCount) {
  Cluster c(paper_cluster());
  apps::WaterConfig cfg;
  cfg.num_molecules = 128;
  cfg.steps = 1;
  cfg.procs_per_node = GetParam();
  auto r = apps::run_water(c, cfg);
  EXPECT_TRUE(r.verified);
}

INSTANTIATE_TEST_SUITE_P(ProcsPerNode, AppsProcSweep,
                         ::testing::Values(1, 2, 4));

TEST(Apps, ErrorInjectionSlowsApplicationsDown) {
  // The qualitative Figure-9 effect: high error rates inflate run time.
  apps::RadixConfig cfg;
  cfg.num_keys = 1 << 12;
  cfg.iterations = 2;

  Cluster clean(paper_cluster());
  auto r_clean = apps::run_radix(clean, cfg);
  Cluster faulty(paper_cluster(/*drop_interval=*/50));
  auto r_faulty = apps::run_radix(faulty, cfg);
  ASSERT_TRUE(r_clean.verified);
  ASSERT_TRUE(r_faulty.verified);
  EXPECT_GT(r_faulty.elapsed, r_clean.elapsed);
}

}  // namespace
}  // namespace sanfault
