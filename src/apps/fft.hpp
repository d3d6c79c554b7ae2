// SPLASH-2 FFT (six-step, transpose-based), the paper's bandwidth-limited,
// single-writer application.
//
// n = 2^m complex points laid out as a sqrt(n) x sqrt(n) row-major matrix in
// one shared region; each processor owns a contiguous block of rows (whose
// pages are homed on its node). One "iteration" is a full unitary FFT pass:
//   transpose -> per-row 1D FFT -> twiddle -> transpose -> 1D FFT -> transpose
// Transposes move real complex data through the SVM (remote page fetches +
// write-backs): the all-to-all traffic that makes FFT bandwidth-bound.
// Alternating passes run forward/inverse, so after an even number of
// iterations the data must equal the input — that is the verification.
//
// Host cost, not simulated cost: every row transform reads one plan per row
// length, holding the bit-reversal swaps and each stage's twiddles made by
// the textbook `w *= wl` recurrence, and the butterflies and twiddles write
// the complex product out as (ac - bd, ad + bc). That is what std::complex
// computes when no NaN arises, so the kernel's output equals the textbook
// recurrence's bit for bit on a target without FMA contraction, such as
// x86-64's baseline ISA (apps_test's FftKernel case compares them with
// memcmp). A transpose issues one acquire per source row, in row order, and
// then copies in cache-sized tiles; the source region is read-only between
// barriers, so the copy reads the values the acquires made valid. None of
// this moves a simulated event or the compute time charged.
#pragma once

#include <complex>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "apps/workload.hpp"
#include "harness/cluster.hpp"

namespace sanfault::apps {

struct FftConfig {
  /// log2 of the number of complex points; must be even. The paper's Table 2
  /// uses 1M points (log2_points = 20); the default here is bench-sized.
  unsigned log2_points = 14;
  /// Full FFT passes. Even counts enable round-trip verification.
  int iterations = 2;
  int procs_per_node = 2;
  svm::SvmConfig svm;
  /// Flops per radix-2 butterfly (SPLASH counts ~10).
  double flops_per_butterfly = 10.0;
};

AppResult run_fft(harness::Cluster& cluster, const FftConfig& cfg);

namespace detail {

/// The row transform: iterative radix-2 Cooley-Tukey with unitary
/// (1/sqrt(n)) normalization, so forward+inverse passes round-trip and
/// energy is preserved. Built once per row length.
class FftPlan {
 public:
  /// `n` must be a power of two.
  explicit FftPlan(std::size_t n);

  /// Transform `row` (n points) in place.
  void transform(std::span<std::complex<double>> row, bool inverse) const;

 private:
  std::size_t n_;
  /// Bit-reversal permutation as the (i, j) swaps with i < j, in order.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> swaps_;
  /// Per direction (0 forward, 1 inverse), every stage's twiddles back to
  /// back: the stage of half-length h starts at index h - 1.
  std::vector<std::complex<double>> twiddles_[2];
};

}  // namespace detail

}  // namespace sanfault::apps
