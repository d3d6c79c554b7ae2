#include "apps/radix.hpp"

#include <algorithm>
#include <vector>

#include "sim/rng.hpp"

namespace sanfault::apps {

namespace {

struct RadixCtx {
  svm::Runtime& rt;
  const RadixConfig& cfg;
  svm::RegionId keys[2];  // ping-pong source/destination
  svm::RegionId hist;
  std::size_t radix = 0;
};

sim::Task<void> radix_proc_body(RadixCtx& ctx, svm::Proc& p) {
  auto& rt = ctx.rt;
  const auto P = static_cast<std::size_t>(rt.num_procs());
  const auto pid = static_cast<std::size_t>(p.id());
  const std::size_t nk = ctx.cfg.num_keys;
  const std::size_t k0 = pid * (nk / P);
  const std::size_t k1 = (pid + 1 == P) ? nk : k0 + nk / P;
  const std::size_t radix = ctx.radix;
  auto hist = as_typed<std::uint32_t>(rt.region_data(ctx.hist));
  // Step 4's runs, back to back in digit order at the local histogram's
  // prefix sums; one buffer serves every pass.
  std::vector<std::uint32_t> runs(k1 - k0);
  std::vector<std::size_t> run_end(radix);

  for (int pass = 0; pass < ctx.cfg.iterations; ++pass) {
    const unsigned shift =
        (static_cast<unsigned>(pass) * ctx.cfg.radix_bits) % 32u;
    const std::uint32_t mask = static_cast<std::uint32_t>(radix - 1);
    const svm::RegionId src = ctx.keys[pass % 2];
    const svm::RegionId dst = ctx.keys[(pass + 1) % 2];
    auto src_keys = as_typed<std::uint32_t>(rt.region_data(src));
    auto dst_keys = as_typed<std::uint32_t>(rt.region_data(dst));

    // 1. Local histogram over my block (my block's pages are homed here).
    (void)co_await p.acquire(src, k0 * 4, (k1 - k0) * 4);
    std::vector<std::uint32_t> count(radix, 0);
    for (std::size_t k = k0; k < k1; ++k) {
      ++count[(src_keys[k] >> shift) & mask];
    }
    co_await p.compute(op_cost(2.0 * static_cast<double>(k1 - k0)));

    // 2. Publish my histogram row.
    const std::size_t hrow = pid * radix;
    (void)co_await p.acquire(ctx.hist, hrow * 4, radix * 4);
    std::copy(count.begin(), count.end(),
              hist.begin() + static_cast<std::ptrdiff_t>(hrow));
    p.mark_dirty(ctx.hist, hrow * 4, radix * 4);
    co_await p.barrier();

    // 3. Read everyone's histograms; compute my start rank per digit value.
    (void)co_await p.acquire(ctx.hist, 0, P * radix * 4);
    std::vector<std::size_t> rank(radix, 0);
    std::size_t running = 0;
    for (std::size_t v = 0; v < radix; ++v) {
      for (std::size_t q = 0; q < P; ++q) {
        if (q == pid) rank[v] = running;
        running += hist[q * radix + v];
      }
    }
    co_await p.compute(op_cost(2.0 * static_cast<double>(P) *
                               static_cast<double>(radix)));
    co_await p.barrier();

    // 4. Permute: the RadixLocal restructuring emits one contiguous run per
    // digit value (stable within the block), so remote writes are batched
    // runs instead of single keys.
    std::size_t end = 0;
    for (std::size_t v = 0; v < radix; ++v) {
      run_end[v] = end;  // the run's start until the scatter passes it
      end += count[v];
    }
    for (std::size_t k = k0; k < k1; ++k) {
      const std::uint32_t key = src_keys[k];
      runs[run_end[(key >> shift) & mask]++] = key;
    }
    co_await p.compute(op_cost(4.0 * static_cast<double>(k1 - k0)));
    for (std::size_t v = 0; v < radix; ++v) {
      const std::size_t n = count[v];
      if (n == 0) continue;
      const std::size_t start = rank[v];
      (void)co_await p.acquire(dst, start * 4, n * 4);
      std::copy_n(runs.begin() + static_cast<std::ptrdiff_t>(run_end[v] - n),
                  n, dst_keys.begin() + static_cast<std::ptrdiff_t>(start));
      p.mark_dirty(dst, start * 4, n * 4);
    }
    co_await p.compute(op_cost(4.0 * static_cast<double>(k1 - k0)));
    co_await p.barrier();
  }
}

}  // namespace

AppResult run_radix(harness::Cluster& cluster, const RadixConfig& cfg) {
  AppResult result;
  const std::size_t nk = cfg.num_keys;

  svm::Runtime rt(cluster, cfg.svm, cfg.procs_per_node);
  RadixCtx ctx{rt, cfg, {0, 0}, 0, 1ull << cfg.radix_bits};
  ctx.keys[0] = rt.create_region(nk * 4);
  ctx.keys[1] = rt.create_region(nk * 4);
  ctx.hist = rt.create_region(static_cast<std::size_t>(rt.num_procs()) *
                              ctx.radix * 4);

  auto keys = as_typed<std::uint32_t>(rt.region_data(ctx.keys[0]));
  sim::Rng rng(cfg.seed);
  std::uint64_t sum_in = 0;
  for (auto& k : keys) {
    k = static_cast<std::uint32_t>(rng.next());
    sum_in += k;
  }

  result.elapsed = rt.run([&](svm::Proc& p) -> sim::Task<void> {
    return radix_proc_body(ctx, p);
  });
  collect_times(rt, result);

  // Verify: permutation preserved, and fully sorted if enough passes ran.
  auto out = as_typed<std::uint32_t>(
      rt.region_data(ctx.keys[static_cast<std::size_t>(cfg.iterations) % 2]));
  std::uint64_t sum_out = 0;
  for (auto k : out) sum_out += k;
  bool ok = (sum_out == sum_in);
  const unsigned bits_done =
      static_cast<unsigned>(cfg.iterations) * cfg.radix_bits;
  if (bits_done == 32) {
    ok = ok && std::is_sorted(out.begin(), out.end());
  } else if (bits_done < 32) {
    // Partial passes stably sort by the low digits processed so far.
    const std::uint32_t mask = (1u << bits_done) - 1;
    ok = ok && std::is_sorted(out.begin(), out.end(),
                              [mask](std::uint32_t a, std::uint32_t b) {
                                return (a & mask) < (b & mask);
                              });
  }
  // bits_done > 32 (the paper's 5 passes wrap to digit 0): the final pass
  // stably re-sorts by a low digit, so only the permutation check applies.
  result.verified = ok;
  return result;
}

}  // namespace sanfault::apps
