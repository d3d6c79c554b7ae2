#include "apps/fft.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <numbers>

#include "sim/rng.hpp"

namespace sanfault::apps {

namespace {

using Cplx = std::complex<double>;

/// a * b as std::complex computes it when no NaN arises. Written out, the
/// product leaves out C99 Annex G's NaN recovery (an isnan test guarding a
/// __muldc3 call), which finite data never takes.
inline Cplx mul(Cplx a, Cplx b) {
  return {a.real() * b.real() - a.imag() * b.imag(),
          a.real() * b.imag() + a.imag() * b.real()};
}

}  // namespace

namespace detail {

FftPlan::FftPlan(std::size_t n) : n_(n) {
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) {
      swaps_.emplace_back(static_cast<std::uint32_t>(i),
                          static_cast<std::uint32_t>(j));
    }
  }
  for (const bool inverse : {false, true}) {
    auto& tw = twiddles_[inverse ? 1 : 0];
    for (std::size_t len = 2; len <= n; len <<= 1) {
      const double ang = 2.0 * std::numbers::pi / static_cast<double>(len) *
                         (inverse ? 1 : -1);
      const Cplx wl(std::cos(ang), std::sin(ang));
      Cplx w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        tw.push_back(w);
        w *= wl;
      }
    }
  }
}

void FftPlan::transform(std::span<Cplx> a, bool inverse) const {
  for (const auto& [i, j] : swaps_) std::swap(a[i], a[j]);
  const Cplx* tw = twiddles_[inverse ? 1 : 0].data();
  for (std::size_t half = 1; half < n_; half <<= 1) {
    const Cplx* w = tw + (half - 1);
    for (std::size_t i = 0; i < n_; i += 2 * half) {
      Cplx* lo = a.data() + i;
      Cplx* hi = lo + half;
      for (std::size_t k = 0; k < half; ++k) {
        const Cplx u = lo[k];
        const Cplx v = mul(hi[k], w[k]);
        lo[k] = u + v;
        hi[k] = u - v;
      }
    }
  }
  const double s = 1.0 / std::sqrt(static_cast<double>(n_));
  for (auto& v : a) v *= s;
}

}  // namespace detail

namespace {

struct FftCtx {
  svm::Runtime& rt;
  const FftConfig& cfg;
  svm::RegionId A;
  svm::RegionId B;
  std::size_t R = 0;  // matrix dimension (rows == cols == sqrt(n))
  std::size_t n = 0;
  const detail::FftPlan& plan;  // for rows of R points
};

/// Side of the square tiles a transpose copies in: a tile reads 4 KB of
/// source points and writes 4 KB of destination points, so both sides stay
/// in the level-1 cache while the tile is copied.
constexpr std::size_t kTile = 16;

/// Rows [i0, i1) of `dst` := transpose of `src` (dst[i][j] = src[j][i]).
/// Column slices of every remote row are fetched through the SVM — the
/// all-to-all exchange.
sim::Task<void> transpose(FftCtx& ctx, svm::Proc& p, svm::RegionId src,
                          svm::RegionId dst, std::size_t i0, std::size_t i1) {
  auto X = as_typed<Cplx>(ctx.rt.region_data(src));
  auto Y = as_typed<Cplx>(ctx.rt.region_data(dst));
  const std::size_t R = ctx.R;
  double ops = 0;
  for (std::size_t j = 0; j < R; ++j) {
    co_await p.acquire(src, (j * R + i0) * sizeof(Cplx),
                       (i1 - i0) * sizeof(Cplx));
    ops += static_cast<double>(i1 - i0) * 2.0;  // load + store per element
  }
  // `src` is read-only until the next barrier, so copying after the last
  // acquire reads what a copy after each acquire would.
  for (std::size_t j0 = 0; j0 < R; j0 += kTile) {
    const std::size_t j1 = std::min(j0 + kTile, R);
    for (std::size_t t0 = i0; t0 < i1; t0 += kTile) {
      const std::size_t t1 = std::min(t0 + kTile, i1);
      for (std::size_t i = t0; i < t1; ++i) {
        for (std::size_t j = j0; j < j1; ++j) Y[i * R + j] = X[j * R + i];
      }
    }
  }
  p.mark_dirty(dst, i0 * R * sizeof(Cplx), (i1 - i0) * R * sizeof(Cplx));
  co_await p.compute(op_cost(ops));
}

/// 1D FFTs over rows [i0, i1) of `reg` (homed locally: no fetches).
sim::Task<void> fft_rows(FftCtx& ctx, svm::Proc& p, svm::RegionId reg,
                         std::size_t i0, std::size_t i1, bool inverse) {
  auto M = as_typed<Cplx>(ctx.rt.region_data(reg));
  const std::size_t R = ctx.R;
  for (std::size_t i = i0; i < i1; ++i) {
    ctx.plan.transform(M.subspan(i * R, R), inverse);
  }
  p.mark_dirty(reg, i0 * R * sizeof(Cplx), (i1 - i0) * R * sizeof(Cplx));
  const double log2r = std::log2(static_cast<double>(R));
  const double ops = static_cast<double>(i1 - i0) *
                     ctx.cfg.flops_per_butterfly *
                     (static_cast<double>(R) / 2.0) * log2r;
  co_await p.compute(op_cost(ops));
}

/// Twiddle rows [i0, i1) of `reg`: M[i][j] *= exp(sign*2*pi*I*i*j/n).
sim::Task<void> twiddle_rows(FftCtx& ctx, svm::Proc& p, svm::RegionId reg,
                             std::size_t i0, std::size_t i1, double sign) {
  auto M = as_typed<Cplx>(ctx.rt.region_data(reg));
  const std::size_t R = ctx.R;
  const double base =
      sign * 2.0 * std::numbers::pi / static_cast<double>(ctx.n);
  for (std::size_t i = i0; i < i1; ++i) {
    for (std::size_t j = 0; j < R; ++j) {
      const double ang = base * static_cast<double>(i) * static_cast<double>(j);
      M[i * R + j] = mul(M[i * R + j], Cplx(std::cos(ang), std::sin(ang)));
    }
  }
  p.mark_dirty(reg, i0 * R * sizeof(Cplx), (i1 - i0) * R * sizeof(Cplx));
  const double ops =
      static_cast<double>(i1 - i0) * static_cast<double>(R) * 8.0;
  co_await p.compute(op_cost(ops));
}

// One full unitary pass. Forward (data A -> B):
//   T(A->B), U(B), D(B), T(B->A), U(A), T(A->B)
// Inverse (data B -> A) is the exact adjoint:
//   T(B->A), U~(A), T(A->B), D~(B), U~(B), T(B->A)
sim::Task<void> fft_pass(FftCtx& ctx, svm::Proc& p, bool inverse,
                         std::size_t i0, std::size_t i1) {
  const auto A = ctx.A;
  const auto B = ctx.B;
  if (!inverse) {
    co_await transpose(ctx, p, A, B, i0, i1);
    co_await p.barrier();
    co_await fft_rows(ctx, p, B, i0, i1, false);
    co_await twiddle_rows(ctx, p, B, i0, i1, -1.0);
    co_await p.barrier();
    co_await transpose(ctx, p, B, A, i0, i1);
    co_await p.barrier();
    co_await fft_rows(ctx, p, A, i0, i1, false);
    co_await p.barrier();
    co_await transpose(ctx, p, A, B, i0, i1);
    co_await p.barrier();
  } else {
    co_await transpose(ctx, p, B, A, i0, i1);
    co_await p.barrier();
    co_await fft_rows(ctx, p, A, i0, i1, true);
    co_await p.barrier();
    co_await transpose(ctx, p, A, B, i0, i1);
    co_await p.barrier();
    co_await twiddle_rows(ctx, p, B, i0, i1, +1.0);
    co_await fft_rows(ctx, p, B, i0, i1, true);
    co_await p.barrier();
    co_await transpose(ctx, p, B, A, i0, i1);
    co_await p.barrier();
  }
}

}  // namespace

AppResult run_fft(harness::Cluster& cluster, const FftConfig& cfg) {
  AppResult result;
  const std::size_t n = 1ull << cfg.log2_points;
  const std::size_t R = 1ull << (cfg.log2_points / 2);

  svm::Runtime rt(cluster, cfg.svm, cfg.procs_per_node);
  const detail::FftPlan plan(R);
  FftCtx ctx{rt, cfg, 0, 0, R, n, plan};
  ctx.A = rt.create_region(n * sizeof(Cplx));
  ctx.B = rt.create_region(n * sizeof(Cplx));

  // Deterministic input. Verification draws it again from a fresh copy of
  // the generator rather than keeping a second n-point array alive.
  const auto input = [rng = sim::Rng(0xFF7)]() mutable {
    return Cplx(rng.uniform_double() * 2 - 1, rng.uniform_double() * 2 - 1);
  };
  auto a = as_typed<Cplx>(rt.region_data(ctx.A));
  auto fill = input;
  for (auto& v : a) v = fill();
  auto original = input;

  const auto P = static_cast<std::size_t>(rt.num_procs());
  const std::size_t rows_per_proc = R / P;

  result.elapsed = rt.run([&](svm::Proc& p) -> sim::Task<void> {
    const auto pid = static_cast<std::size_t>(p.id());
    const std::size_t i0 = pid * rows_per_proc;
    const std::size_t i1 = (pid + 1 == P) ? R : i0 + rows_per_proc;
    for (int it = 0; it < ctx.cfg.iterations; ++it) {
      co_await fft_pass(ctx, p, /*inverse=*/(it % 2) == 1, i0, i1);
    }
  });
  collect_times(rt, result);

  if (cfg.iterations % 2 == 0) {
    // Round trip: A must equal the original input.
    double max_err = 0;
    for (std::size_t i = 0; i < n; ++i) {
      max_err = std::max(max_err, std::abs(a[i] - original()));
    }
    result.verified = max_err < 1e-6;
  } else {
    // Odd passes end in B: verify unitarity (energy preservation) instead.
    auto b = as_typed<Cplx>(rt.region_data(ctx.B));
    double e_in = 0;
    double e_out = 0;
    for (std::size_t i = 0; i < n; ++i) {
      e_in += std::norm(original());
      e_out += std::norm(b[i]);
    }
    result.verified = std::abs(e_in - e_out) < 1e-6 * e_in;
  }
  return result;
}

}  // namespace sanfault::apps
