// match_vector_impl.hpp — the lane-generic body of the hypothesis-batched
// scan kernel.  Included ONLY by the per-ISA translation units
// (match_vector_<isa>.cpp), each of which instantiates scan_pixel_t /
// batch_solve_soa for its lane tag under the matching target flags.
//
// Bit-exactness contract (DESIGN.md §13): a lane is one hypothesis, and
// every floating-point operation a lane performs — accumulation order
// over the template window, moment normalization, elimination,
// residual — is the same operation, on the same values, in the same
// order as the scalar evaluate_hypothesis_precomputed +
// NormalEquations6 path.  Three details make that exact rather than
// approximate:
//
//  * moments are "normalized" through add(0, v) before the solve,
//    because the scalar path accumulates them into a zero-initialized
//    NormalEquations6 (0.0 + v flushes -0.0 to +0.0);
//  * the batched elimination replicates solve6's `if (f == 0.0)
//    continue` and first-strict-max pivot per lane (simd/batch_solve.hpp);
//  * no FMA anywhere: mul-then-add only, matching -ffp-contract=off.
//
// Winner selection keeps the scalar tie-break semantics: a horizontal
// reduce-min rejects batches that cannot beat the incumbent, and any
// surviving batch is folded lane by lane (ascending hx; ascending raster
// hypothesis index on the F_semi code path) through the shared
// hypothesis_improves predicate — the identical comparisons the scalar
// scan would have made.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>

#include "core/match_precompute.hpp"
#include "core/match_prune.hpp"
#include "core/match_vector.hpp"
#include "core/semifluid.hpp"
#include "core/tracker.hpp"
#include "linalg/gaussian_elimination.hpp"
#include "simd/batch_solve.hpp"
#include "simd/lane.hpp"

namespace sma::core::detail {

#if defined(__GNUC__) || defined(__clang__)
#define SMA_LANE_INLINE inline __attribute__((always_inline))
#else
#define SMA_LANE_INLINE inline
#endif

// Every helper below is a template on the lane tag, so each per-ISA
// translation unit instantiates its own copy under its own target flags
// (no inline definition is shared across TUs with different ISAs).

// The before-frame planes one template pixel's moment update reads.
template <class Tag>
struct LanePlanes {
  const double* ni;
  const double* nj;
  const double* nk;
  const double* wi;
  const double* wj;
  const double* rows[18];
};

template <class Tag>
LanePlanes<Tag> lane_planes(const MatchPrecompute& pre) {
  LanePlanes<Tag> p;
  p.ni = pre.plane(MatchPrecompute::kNi);
  p.nj = pre.plane(MatchPrecompute::kNj);
  p.nk = pre.plane(MatchPrecompute::kNk);
  p.wi = pre.plane(MatchPrecompute::kWi);
  p.wj = pre.plane(MatchPrecompute::kWj);
  for (int t = 0; t < 18; ++t) p.rows[t] = pre.plane(MatchPrecompute::kWri0 + t);
  return p;
}

// Before pixel i's contribution to every lane's A^T b / b^T b, given
// the lanes' gathered after normals: the same MACs, in the same
// association order, as the scalar evaluate_hypothesis_precomputed.
template <class Tag, bool Fma>
SMA_LANE_INLINE void accumulate_pixel(const LanePlanes<Tag>& p,
                                      std::size_t i,
                                      typename simd::LaneTraits<Tag>::Vec oi,
                                      typename simd::LaneTraits<Tag>::Vec oj,
                                      typename simd::LaneTraits<Tag>::Vec ok,
                                      typename simd::LaneTraits<Tag>::Vec* atb,
                                      typename simd::LaneTraits<Tag>::Vec& btb) {
  using T = simd::LaneTraits<Tag>;
  using V = typename T::Vec;
  // a*b + c under the active profile.
  const auto fmadd = [](V a, V b, V c) {
    if constexpr (Fma)
      return T::mul_add(a, b, c);
    else
      return T::add(c, T::mul(a, b));
  };
  const V bi = T::sub(oi, T::broadcast(p.ni[i]));
  const V bj = T::sub(oj, T::broadcast(p.nj[i]));
  const V bk = T::sub(ok, T::broadcast(p.nk[i]));
  for (int r = 0; r < 6; ++r) {
    V t = T::mul(T::broadcast(p.rows[r][i]), bi);
    t = fmadd(T::broadcast(p.rows[6 + r][i]), bj, t);
    t = fmadd(T::broadcast(p.rows[12 + r][i]), bk, t);
    atb[r] = T::add(atb[r], t);
  }
  V s = T::mul(T::broadcast(p.wi[i]), T::mul(bi, bi));
  s = fmadd(T::broadcast(p.wj[i]), T::mul(bj, bj), s);
  s = fmadd(bk, bk, s);
  btb = T::add(btb, s);
}

// What one lane evaluated: the search hypothesis and the center pixel's
// correspondence under it (the reported flow vector).
struct LaneHypothesis {
  int hx, hy, ux, uy;
};

// Normalizes one full batch's moments (add_precomputed's 0.0 + v),
// eliminates, scores, and folds the lanes into `best`: a horizontal min
// prefilter, then the scalar tie-break per lane in ascending lane order.
// `lane(l)` names lane l's hypothesis; it is only called for lanes that
// improve on the incumbent.
template <class Tag, class LaneFn>
void solve_and_fold(const typename simd::LaneTraits<Tag>::Vec* ata,
                    const typename simd::LaneTraits<Tag>::Vec* atb,
                    typename simd::LaneTraits<Tag>::Vec btb, bool checked,
                    double batch_bound, LaneFn&& lane, PixelBest& best,
                    VectorLaneTally& tally) {
  using T = simd::LaneTraits<Tag>;
  using V = typename T::Vec;
  using M = typename T::Mask;
  constexpr int N = T::kLanes;
  const V vzero = T::zero();
  V atbn[6];
  for (int r = 0; r < 6; ++r) atbn[r] = T::add(vzero, atb[r]);
  const V btbn = T::add(vzero, btb);
  V a_full[36];
  for (int r = 0; r < 6; ++r)
    for (int c = 0; c < 6; ++c)
      a_full[r * 6 + c] =
          c >= r ? ata[simd::tri21(r, c)] : ata[simd::tri21(c, r)];
  V b_work[6];
  for (int r = 0; r < 6; ++r) b_work[r] = atbn[r];
  V theta[6];
  const M singular = simd::batch_solve6<Tag>(a_full, b_work, theta, 1e-12);
  const V err = simd::batch_residual6<Tag>(ata, theta, atbn, btbn);

  const unsigned sing_bits = T::mask_bits(singular);
  auto& counters = linalg::solve_counters();
  counters.solves6 += N;
  counters.singular += std::popcount(sing_bits);
  tally.batched_hypotheses += N;
  ++tally.batches;

  double errs[N];
  T::store(errs, err);
  double min_err = errs[0];
  for (int l = 1; l < N; ++l) min_err = std::min(min_err, errs[l]);
  // Bound tightness over the completed batch, in hypothesis units:
  // ratio of the batch's best bound to its best realized error.
  if (checked && std::isfinite(min_err) && min_err > 0.0)
    tally.bound_tightness_sum +=
        static_cast<double>(N) *
        std::min(1.0, std::max(0.0, batch_bound) / min_err);
  if (best.any_ok && !(min_err <= best.error)) return;

  double th[6][N];
  bool extracted = false;
  for (int l = 0; l < N; ++l) {
    const LaneHypothesis hyp = lane(l);
    if (!hypothesis_improves(best, errs[l], hyp.hx, hyp.hy)) continue;
    const bool ok = (sing_bits >> l & 1u) == 0;
    if (ok && !extracted) {
      for (int r = 0; r < 6; ++r) T::store(th[r], theta[r]);
      extracted = true;
    }
    best.solved = ok;
    best.coverage = 1.0;
    best.hx = hyp.hx;
    best.hy = hyp.hy;
    best.ux = hyp.ux;
    best.uy = hyp.uy;
    best.error = errs[l];
    best.params = ok ? MotionParams::from_vec({th[0][l], th[1][l], th[2][l],
                                               th[3][l], th[4][l], th[5][l]})
                     : MotionParams{};
    best.any_ok = true;
  }
}

// F_semi on the lanes (VectorKernelArgs::codes set).  Lanes run over the
// band's flattened hypothesis index k in raster (hy, hx) order, so any
// search shape fills whole batches except one tail of (hypotheses mod
// lanes).  Lane l's template pixel p gathers the after normal at
// clamp(p + h_l + delta) with delta decoded from p's code for h_l — the
// naive evaluator's correspondent — into stack buffers; the moments,
// solve and fold are the continuous kernel's.  The fold visits lanes in
// ascending k, the naive scan's order, and the flow vector is the center
// pixel's own (unclamped) correspondence under the winner.
template <class Tag, bool Fma>
void scan_pixel_codes_t(const VectorKernelArgs& g, PixelBest& best,
                        VectorLaneTally& tally) {
  using T = simd::LaneTraits<Tag>;
  using V = typename T::Vec;
  constexpr int N = T::kLanes;

  const MatchPrecompute& pre = *g.pre;
  const surface::GeometricField& after = *g.after;
  const SemiFluidCodes& codes = *g.codes;
  const int w = pre.width();
  const int h = pre.height();
  const int x = g.x, y = g.y, rx = g.rx, ry = g.ry;
  const int nss = codes.nss();
  const int nhx = 2 * codes.hx_radius() + 1;
  const int nh = codes.hypotheses();
  const int hx_first = -codes.hx_radius();
  const int hy_first = codes.hy_min();
  const LanePlanes<Tag> planes = lane_planes<Tag>(pre);
  const float* const a_ni = after.ni.data();
  const float* const a_nj = after.nj.data();
  const float* const a_nk = after.nk.data();
  const std::uint8_t* const center =
      codes.pixel(static_cast<std::size_t>(y) * w + x);

  const V vzero = T::zero();
  V ata[21];
  for (int k = 0; k < 21; ++k)
    ata[k] = T::add(vzero, T::broadcast(g.win->ata[k]));

  // No lane of any template pixel clamps when the template grown by the
  // band's reach (search radius + N_ss) stays inside the frame; the
  // gather index is then i + lane base + the code's packed offset.
  const int reach_x = codes.hx_radius() + nss;
  const int reach_y =
      std::max(std::abs(codes.hy_min()), std::abs(codes.hy_max())) + nss;
  const bool interior = x - rx - reach_x >= 0 && x + rx + reach_x < w &&
                        y - ry - reach_y >= 0 && y + ry + reach_y < h;

  int k0 = 0;
  for (; k0 + N <= nh; k0 += N) {
    int lhx[N], lhy[N];
    // Row-major offset of (h_l - (N_ss, N_ss)): adding (c >> 4) * w +
    // (c & 15) lands on p + h_l + delta.
    std::ptrdiff_t base[N];
    for (int l = 0; l < N; ++l) {
      lhx[l] = hx_first + (k0 + l) % nhx;
      lhy[l] = hy_first + (k0 + l) / nhx;
      base[l] = static_cast<std::ptrdiff_t>(lhy[l] - nss) * w + lhx[l] - nss;
    }
    V atb[6] = {vzero, vzero, vzero, vzero, vzero, vzero};
    V btb = vzero;
    for (int v = -ry; v <= ry; ++v) {
      const int py = std::clamp(y + v, 0, h - 1);
      const std::size_t off = static_cast<std::size_t>(py) * w;
      for (int u = -rx; u <= rx; ++u) {
        const int px = std::clamp(x + u, 0, w - 1);
        const std::size_t i = off + px;
        const std::uint8_t* const c = codes.pixel(i) + k0;
        float gi[N], gj[N], gk[N];
        for (int l = 0; l < N; ++l) {
          std::size_t j;
          if (interior) {
            j = static_cast<std::size_t>(
                static_cast<std::ptrdiff_t>(i) + base[l] +
                static_cast<std::ptrdiff_t>(c[l] >> 4) * w + (c[l] & 15));
          } else {
            const int qx =
                std::clamp(px + lhx[l] + (c[l] & 15) - nss, 0, w - 1);
            const int qy =
                std::clamp(py + lhy[l] + (c[l] >> 4) - nss, 0, h - 1);
            j = static_cast<std::size_t>(qy) * w + qx;
          }
          gi[l] = a_ni[j];
          gj[l] = a_nj[j];
          gk[l] = a_nk[j];
        }
        accumulate_pixel<Tag, Fma>(planes, i, T::load_f32(gi),
                                   T::load_f32(gj), T::load_f32(gk), atb,
                                   btb);
      }
    }
    solve_and_fold<Tag>(
        ata, atb, btb, /*checked=*/false, 0.0,
        [&](int l) {
          const std::uint8_t c = center[k0 + l];
          return LaneHypothesis{lhx[l], lhy[l],
                                lhx[l] + (c & 15) - nss,
                                lhy[l] + (c >> 4) - nss};
        },
        best, tally);
  }

  // Scalar tail: the last (hypotheses mod lanes) hypotheses of the band,
  // through the scalar evaluator's identical code gather.
  for (; k0 < nh; ++k0) {
    const int hx = hx_first + k0 % nhx;
    const int hy = hy_first + k0 / nhx;
    MotionParams params;
    bool ok = false;
    ++tally.tail_hypotheses;
    const double error = evaluate_hypothesis_precomputed(
        pre, after, *g.win, x, y, hx, hy, rx, ry, params, ok, &codes);
    if (hypothesis_improves(best, error, hx, hy)) {
      const std::uint8_t c = center[k0];
      best.solved = ok;
      best.coverage = 1.0;
      best.hx = hx;
      best.hy = hy;
      best.ux = hx + (c & 15) - nss;
      best.uy = hy + (c >> 4) - nss;
      best.error = error;
      best.params = params;
      best.any_ok = true;
    }
  }
}

// Fma=false is the default bit-exact kernel (mul-then-add everywhere,
// matching the scalar path under -ffp-contract=off).  Fma=true is the
// tolerance-gated fast profile (SmaConfig::fast_math): the template
// window's A^T b / b^T b MACs go through LaneTraits::mul_add, which
// fuses where the ISA can.  Everything else — elimination, residual,
// winner fold — is shared, so the fast profile differs from the exact
// one only by the rounding of the fused accumulations.
template <class Tag, bool Fma = false>
void scan_pixel_t(const VectorKernelArgs& g, PixelBest& best,
                  VectorLaneTally& tally) {
  if (g.codes != nullptr) {
    scan_pixel_codes_t<Tag, Fma>(g, best, tally);
    return;
  }
  using T = simd::LaneTraits<Tag>;
  using V = typename T::Vec;
  constexpr int N = T::kLanes;

  const MatchPrecompute& pre = *g.pre;
  const surface::GeometricField& after = *g.after;
  const int w = pre.width();
  const int h = pre.height();
  const int x = g.x, y = g.y, rx = g.rx, ry = g.ry;
  const LanePlanes<Tag> planes = lane_planes<Tag>(pre);

  const V vzero = T::zero();
  // The pixel's A^T A window sum, normalized exactly as
  // NormalEquations6::add_precomputed leaves it (0.0 + v) and broadcast:
  // every lane shares the same before-frame matrix.
  V ata[21];
  for (int k = 0; k < 21; ++k)
    ata[k] = T::add(vzero, T::broadcast(g.win->ata[k]));

  const bool x_interior = x - rx >= 0 && x + rx < w;

  // Pruned mode's prefix A^T A (hypothesis-invariant, so broadcast once
  // per pixel like the full window's), normalized the same way.
  const bool bound_on = g.win_prefix != nullptr;
  V pre_ata[21];
  for (int k = 0; k < 21; ++k)
    pre_ata[k] =
        bound_on ? T::add(vzero, T::broadcast(g.win_prefix->ata[k])) : vzero;

  for (int hy = g.hy_min; hy <= g.hy_max; ++hy) {
    int hx0 = g.hx_min;
    for (; hx0 + N - 1 <= g.hx_max; hx0 += N) {
      // ---- Batched A^T b / b^T b over the template window: lane l is
      // hypothesis hx0 + l.  Same v-outer / u-inner order and the same
      // association order per MAC as the scalar evaluator.
      V atb[6] = {vzero, vzero, vzero, vzero, vzero, vzero};
      V btb = vzero;
      bool abandoned = false;
      bool checked = false;
      double batch_bound = 0.0;
      // Every lane's correspondent column stays unclamped across the
      // whole window iff the widest lane's does.
      const bool contiguous =
          x_interior && x - rx + hx0 >= 0 && x + rx + hx0 + N - 1 < w;
      for (int v = -ry; v <= ry; ++v) {
        if (bound_on && v == 0 && best.any_ok &&
            std::isfinite(best.error) && best.error > 0.0) {
          // Half-template checkpoint (match_prune.hpp): lower-bound each
          // lane's full residual by its minimized prefix residual and
          // abandon the WHOLE batch when even the best lane provably
          // cannot beat the incumbent.  The prefix moments go through
          // the same 0.0 + v normalization as the scalar bound path;
          // the running atb/btb accumulators are left untouched.
          V patb[6];
          for (int r = 0; r < 6; ++r) patb[r] = T::add(vzero, atb[r]);
          const V pbtb = T::add(vzero, btb);
          const V bound =
              simd::batch_bound6<Tag>(pre_ata, patb, pbtb, 1e-12);
          double bounds[N];
          T::store(bounds, bound);
          double min_bound = bounds[0];
          for (int l = 1; l < N; ++l)
            min_bound = std::min(min_bound, bounds[l]);
          tally.bound_checks += N;
          checked = true;
          batch_bound = min_bound;
          if (prune_bound_exceeds(min_bound, best.error)) {
            tally.bound_skipped += N;
            abandoned = true;
            break;
          }
        }
        const int py = std::clamp(y + v, 0, h - 1);
        const int qy = std::clamp(py + hy, 0, h - 1);
        const std::size_t off = static_cast<std::size_t>(py) * w;
        const float* const a_ni = after.ni.row(qy);
        const float* const a_nj = after.nj.row(qy);
        const float* const a_nk = after.nk.row(qy);
        for (int u = -rx; u <= rx; ++u) {
          const int px = std::clamp(x + u, 0, w - 1);
          V oi, oj, ok;
          if (contiguous) {
            const int qx0 = px + hx0;
            oi = T::load_f32(a_ni + qx0);
            oj = T::load_f32(a_nj + qx0);
            ok = T::load_f32(a_nk + qx0);
          } else {
            // Border batch: per-lane clamped gather into stack buffers,
            // reproducing the scalar path's qx clamp lane by lane.
            float gi[N], gj[N], gk[N];
            for (int l = 0; l < N; ++l) {
              const int qx = std::clamp(px + hx0 + l, 0, w - 1);
              gi[l] = a_ni[qx];
              gj[l] = a_nj[qx];
              gk[l] = a_nk[qx];
            }
            oi = T::load_f32(gi);
            oj = T::load_f32(gj);
            ok = T::load_f32(gk);
          }
          accumulate_pixel<Tag, Fma>(planes, off + px, oi, oj, ok, atb, btb);
        }
      }

      if (abandoned) continue;
      solve_and_fold<Tag>(
          ata, atb, btb, checked, batch_bound,
          [&](int l) {
            return LaneHypothesis{hx0 + l, hy, hx0 + l, hy};
          },
          best, tally);
    }

    // ---- Scalar tail: search widths that are not a lane multiple.  In
    // pruned mode it checkpoints through evaluate_hypothesis_bounded —
    // same gate as the batched path — so narrow windows (common once the
    // seed shrinks the search box below kLanes) still count bound_checks
    // / bound_skipped instead of silently bypassing the bound.
    for (; hx0 <= g.hx_max; ++hx0) {
      MotionParams params;
      bool ok = false;
      double error;
      ++tally.tail_hypotheses;
      if (bound_on && best.any_ok && std::isfinite(best.error) &&
          best.error > 0.0) {
        bool skipped = false;
        double bnd = 0.0;
        error = evaluate_hypothesis_bounded(
            pre, after, *g.win, *g.win_prefix, x, y, hx0, hy, rx, ry,
            best.error, /*has_incumbent=*/true, params, ok, skipped, &bnd);
        ++tally.bound_checks;
        if (skipped) {
          ++tally.bound_skipped;
          continue;
        }
        if (std::isfinite(error) && error > 0.0)
          tally.bound_tightness_sum +=
              std::min(1.0, std::max(0.0, bnd) / error);
      } else {
        error = evaluate_hypothesis_precomputed(
            pre, after, *g.win, x, y, hx0, hy, rx, ry, params, ok);
      }
      if (hypothesis_improves(best, error, hx0, hy)) {
        best.solved = ok;
        best.coverage = 1.0;
        best.hx = hx0;
        best.hy = hy;
        best.ux = hx0;
        best.uy = hy;
        best.error = error;
        best.params = params;
        best.any_ok = true;
      }
    }
  }
}

/// SoA adapter for the property tests: batches laid out as
/// element-major [k][lane] double arrays.
template <class Tag>
void batch_solve_soa(const double* a, const double* b, double* x,
                     unsigned char* singular, double eps) {
  using T = simd::LaneTraits<Tag>;
  using V = typename T::Vec;
  constexpr int N = T::kLanes;
  V av[36], bv[6], xv[6];
  for (int k = 0; k < 36; ++k) av[k] = T::load(a + k * N);
  for (int k = 0; k < 6; ++k) bv[k] = T::load(b + k * N);
  const auto mask = simd::batch_solve6<Tag>(av, bv, xv, eps);
  for (int k = 0; k < 6; ++k) T::store(x + k * N, xv[k]);
  const unsigned bits = T::mask_bits(mask);
  for (int l = 0; l < N; ++l) singular[l] = (bits >> l & 1u) != 0 ? 1 : 0;
}

}  // namespace sma::core::detail
