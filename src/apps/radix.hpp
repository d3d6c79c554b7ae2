// SPLASH-2 RadixLocal: parallel integer radix sort, the paper's
// latency-sensitive application (fine-grained accesses to shared data; the
// "Local" restructuring from Jiang et al. [19] makes each processor emit
// contiguous runs per digit value, reducing access irregularity).
//
// Per digit pass:
//   1. local histogram of the processor's key block        (compute)
//   2. publish histogram to the shared histogram region    (small writes)
//   3. barrier; read all histograms, prefix-sum to ranks   (small fetches)
//   4. permute keys into the destination region            (scattered pages)
//   5. barrier; swap source/destination regions
//
// Verification: after ceil(32 / log2(radix)) passes the array must be fully
// sorted and a permutation of the input (checksum match).
//
// Step 4 scatters the block's keys by its histogram's prefix sums into one
// flat buffer per processor, allocated once for all passes, so each digit
// value's run keeps the block's key order; the runs are then written with
// one acquire per non-empty run, in digit order.
#pragma once

#include "apps/workload.hpp"
#include "harness/cluster.hpp"

namespace sanfault::apps {

struct RadixConfig {
  /// Number of 32-bit keys (Table 2 uses 4M; default is bench-sized).
  std::size_t num_keys = 1 << 16;
  /// Digit passes to run. 4 passes at radix 256 fully sort 32-bit keys.
  int iterations = 4;
  unsigned radix_bits = 8;
  int procs_per_node = 2;
  svm::SvmConfig svm;
  std::uint64_t seed = 0x5041D;
};

AppResult run_radix(harness::Cluster& cluster, const RadixConfig& cfg);

}  // namespace sanfault::apps
