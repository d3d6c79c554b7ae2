// Host-speed reference for the benchmark's host-time metrics.
//
// The benchmark runs on shared machines whose speed drifts by a third or
// more over minutes as other tenants come and go: their cache and memory
// traffic slows a memory-bound simulator down. A fixed reference kernel,
// timed next to every repeat, slows down with it. Host times are reported
// scaled to the host speed at which the kernel takes kReferenceNominalNs,
// so the drift cancels out while a change to the simulator still shows.
// The kernel lives here, outside src/, so no change to the simulator moves it.
#pragma once

#include <cstdint>

namespace perfbench {

/// Nominal kernel time: about the median of reference_kernel_s() on the
/// 4-core shared VM the benchmark was tuned on, at a quiet time.
inline constexpr std::uint64_t kReferenceNominalNs = 64'000'000;

/// CPU seconds of one pass of the reference kernel: an event-heap loop that
/// updates a pseudo-random word of a 64 MB arena per event, the access
/// pattern of the simulator's scheduler and scattered state. Its memory is
/// mapped and unmapped inside the call, so it adds nothing to the resident
/// set measured afterwards.
[[nodiscard]] double reference_kernel_s();

}  // namespace perfbench
