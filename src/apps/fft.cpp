#include "apps/fft.hpp"

#include <cmath>
#include <complex>
#include <numbers>

#include "sim/rng.hpp"

namespace sanfault::apps {

namespace {

using Cplx = std::complex<double>;

/// Iterative radix-2 Cooley-Tukey, unitary (1/sqrt(L)) normalization so that
/// forward+inverse passes round-trip exactly and energy is preserved.
void fft_1d(std::span<Cplx> a, bool inverse) {
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

struct FftCtx {
  svm::Runtime& rt;
  const FftConfig& cfg;
  svm::RegionId A;
  svm::RegionId B;
  std::size_t R = 0;  // matrix dimension (rows == cols == sqrt(n))
  std::size_t n = 0;
};

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
    for (std::size_t i = i0; i < i1; ++i) {
      Y[i * R + j] = X[j * R + i];
    }
    ops += static_cast<double>(i1 - i0) * 2.0;  // load + store per element
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
    fft_1d(M.subspan(i * R, R), inverse);
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
  const double base = sign * 2.0 * std::numbers::pi / static_cast<double>(ctx.n);
  for (std::size_t i = i0; i < i1; ++i) {
    for (std::size_t j = 0; j < R; ++j) {
      const double ang = base * static_cast<double>(i) * static_cast<double>(j);
      M[i * R + j] *= Cplx(std::cos(ang), std::sin(ang));
    }
  }
  p.mark_dirty(reg, i0 * R * sizeof(Cplx), (i1 - i0) * R * sizeof(Cplx));
  const double ops = static_cast<double>(i1 - i0) * static_cast<double>(R) * 8.0;
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
  FftCtx ctx{rt, cfg, 0, 0, R, n};
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
