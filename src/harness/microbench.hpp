// The paper's three micro-benchmarks (§5.1.4), as reusable harness calls:
//  * latency test           — ping-pong round trip / 2;
//  * ping-pong bandwidth    — data bounces between two nodes, one direction
//                             active at a time ("bidirectional" in Fig. 4-8);
//  * unidirectional bandwidth — the sender streams without waiting; measures
//                             how fast data can be put onto the network.
// All three run over VMMC endpoints on hosts 0 and 1 of a Cluster, after an
// untimed warm-up exchange (routes mapped, pools steady).
//
// run_reliable_ring is a fixed reliable-firmware workload whose wire packets,
// events and inline spills sched_perf_semantics_test pins exactly.
#pragma once

#include <cstddef>
#include <cstdint>

#include "harness/cluster.hpp"

namespace sanfault::harness {

struct MicrobenchResult {
  double seconds = 0;        // measured simulated time
  std::uint64_t bytes = 0;   // payload bytes counted into the figure
  int iterations = 0;

  [[nodiscard]] double mbytes_per_sec() const {
    return seconds > 0 ? static_cast<double>(bytes) / seconds / 1e6 : 0.0;
  }
  /// One-way latency in microseconds (latency test: RTT/2 per iteration).
  [[nodiscard]] double one_way_us() const {
    return iterations > 0 ? seconds * 1e6 / (2.0 * iterations) : 0.0;
  }
};

/// Ping-pong latency: `iters` round trips of `msg_bytes` each way.
MicrobenchResult run_latency(Cluster& c, std::size_t msg_bytes, int iters);

/// Ping-pong ("bidirectional") bandwidth: counts bytes moved in both
/// directions over the measured window.
MicrobenchResult run_pingpong_bw(Cluster& c, std::size_t msg_bytes, int iters);

/// Unidirectional bandwidth: stream `count` messages of `msg_bytes`;
/// measured at the receiver's last-byte delivery.
MicrobenchResult run_unidirectional_bw(Cluster& c, std::size_t msg_bytes,
                                       int count);

struct RingResult {
  std::uint64_t wire_tx = 0;        // packets put on the wire, all NICs
  std::uint64_t events = 0;         // scheduler events executed
  std::uint64_t inline_spills = 0;  // events whose callable heap-allocated
};

/// A 4-node reliable-firmware cluster (32 send buffers, §5.1.3 error
/// injection at drop_interval 1000) in which host i streams `msgs_per_host`
/// 4 KB messages to host (i + 1) % 4, each send issued from the previous
/// one's "accepted" completion — the workload shape of the Fig 5-8 and KV
/// sweeps. Runs until every host has received all of its messages.
RingResult run_reliable_ring(int msgs_per_host);

}  // namespace sanfault::harness
