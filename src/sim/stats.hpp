// Log-bucketed latency histogram (the storage behind obs::Histogram).
//
// Buckets start empty and grow to the highest bucket a sample or a merge
// reaches, so a histogram costs what its data spans: nothing while empty,
// about 4 KB for nanosecond latencies up to a millisecond, 15 KB at most.
// A bucket past the highest one reached would hold zero, so quantiles,
// equality and every export read as they would over the full range.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace sanfault::sim {

/// HDR-style log-bucketed histogram: power-of-two octaves subdivided into
/// 2^kSubBits linear sub-buckets, so any recorded value is off by at most
/// 1/2^kSubBits (~3%) of its magnitude — precise enough for p50..p99.9 tail
/// reporting without storing samples. Values below 2^kSubBits are exact.
class HdrHistogram {
 public:
  static constexpr unsigned kSubBits = 5;
  static constexpr std::uint64_t kSub = 1ull << kSubBits;  // 32 sub-buckets
  // Octave 0 is the exact region [0, kSub); octaves 1..(64-kSubBits) cover
  // the rest of the 64-bit range with kSub sub-buckets each.

  void add(std::uint64_t v) {
    const std::size_t b = bucket_of(v);
    if (b >= buckets_.size()) buckets_.resize(b + 1);
    ++buckets_[b];
    ++n_;
    sum_ += static_cast<double>(v);
    max_ = std::max(max_, v);
  }

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double mean() const {
    return n_ ? sum_ / static_cast<double>(n_) : 0.0;
  }
  [[nodiscard]] std::uint64_t max() const { return max_; }

  /// Upper bound of the bucket holding the q-th quantile sample, i.e. a value
  /// >= the true quantile and within one sub-bucket of it. The recorded max
  /// caps the answer so quantile(1.0) never exceeds an observed value.
  [[nodiscard]] std::uint64_t quantile(double q) const {
    if (n_ == 0) return 0;
    const auto target = static_cast<std::uint64_t>(
        std::max(1.0, q * static_cast<double>(n_) + 0.5));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      seen += buckets_[i];
      if (seen >= target) return std::min(upper_bound(i), max_);
    }
    return max_;
  }

  void merge(const HdrHistogram& o) {
    const std::size_t n = o.buckets_.size();
    if (n > buckets_.size()) buckets_.resize(n);
    for (std::size_t i = 0; i < n; ++i) buckets_[i] += o.buckets_[i];
    n_ += o.n_;
    sum_ += o.sum_;
    max_ = std::max(max_, o.max_);
  }

  /// Equal counts and maxima mean equal bucket sizes, since the highest
  /// bucket reached is max()'s, so comparing the vectors compares the full
  /// range.
  bool operator==(const HdrHistogram& o) const {
    return n_ == o.n_ && max_ == o.max_ && buckets_ == o.buckets_;
  }

  static std::size_t bucket_of(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const unsigned w = 64 - static_cast<unsigned>(__builtin_clzll(v));
    const unsigned shift = w - (kSubBits + 1);
    const auto sub = static_cast<std::size_t>((v >> shift) & (kSub - 1));
    return (static_cast<std::size_t>(shift) + 1) * kSub + sub;
  }

  /// Largest value mapping to bucket `i`.
  static std::uint64_t upper_bound(std::size_t i) {
    if (i < kSub) return i;
    const std::uint64_t shift = i / kSub - 1;
    const std::uint64_t sub = i % kSub;
    return ((kSub + sub + 1) << shift) - 1;
  }

 private:
  std::vector<std::uint64_t> buckets_;  // up to the highest bucket reached
  std::uint64_t n_ = 0;
  double sum_ = 0.0;
  std::uint64_t max_ = 0;
};

}  // namespace sanfault::sim
