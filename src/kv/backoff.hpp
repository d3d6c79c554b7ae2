// The one retry schedule of the KV service. Every retry loop (client calls,
// replication, striped unit puts and fetches, repair RPCs) waits
// kFirstTimeout for its first reply and next_timeout() of the previous wait
// for each later one. Each loop keeps its own attempt budget beside it.
#pragma once

#include <algorithm>

#include "sim/time.hpp"

namespace sanfault::kv {

inline constexpr sim::Duration kFirstTimeout = sim::milliseconds(3);

/// Twice `d`, capped at 50 ms.
[[nodiscard]] constexpr sim::Duration next_timeout(sim::Duration d) {
  return std::min(d * 2, sim::milliseconds(50));
}

}  // namespace sanfault::kv
