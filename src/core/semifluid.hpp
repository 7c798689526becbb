// semifluid.hpp — F_semi: the semi-fluid template mapping (Sec. 2.3).
//
// "The semi-fluid motion paradigm relaxes the local continuity constraint
// for a small surface patch."  For each template pixel, instead of the
// rigidly shifted target p + h prescribed by F_cont, a square
// (2N_ss+1) x (2N_ss+1) search window centered on p + h is scanned and
// the candidate minimizing the change of the intensity-surface
// discriminant over the (2N_sT+1) x (2N_sT+1) semi-fluid template is
// selected (Eqs. 9-11):
//
//   eps_semi(p; q) = (1/|eta_sT|) * sum_{s in eta_sT} (D'(q+s) - D(p+s))^2
//   F_semi(p)      = argmin_{q in eta_ss(p+h)} eps_semi(p; q)
//
// where D is the Hessian discriminant of the fitted quadratic intensity
// patch (geometry.hpp).  With N_ss = 0 the argmin degenerates to p + h and
// F_semi == F_cont (tested invariant).
//
// Sec. 4.1 optimization: because every pixel is tracked and templates
// overlap, the matching cost between a pixel p and an offset o depends
// only on (p, o).  SemiFluidCostField therefore precomputes cost layers
// C_o(p) for all offsets o in the extended
// (2(N_zs + N_ss) + 1)^2 window — "computing the error term in (10) for
// all pixels in a (2N_zs + 2N_ss + 1) x (2N_zs + 2N_ss + 1) neighborhood
// centered around the pixel being tracked, and then applying a
// (2N_ss + 1) x (2N_ss + 1) window ... and performing the minimization
// given in (9)".  Each layer is a box-filtered squared-difference image,
// so the precompute is O(pixels * offsets) instead of
// O(pixels * hypotheses * template * search).
//
// Sec. 4.3 segmentation: the full set of layers may exceed PE memory
// (67.7 KB/PE for a 23x23 search with 16 pixels/PE), so layers can be
// built for a band of offset rows at a time ("segments are in multiples
// of rows of the search or hypothesis neighborhood") and discarded after
// the corresponding hypotheses are evaluated.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "imaging/image.hpp"

namespace sma::core {

/// Direct (naive) evaluation of eps_semi between template pixel p in D
/// and candidate q in D', averaged over the semi-fluid template.
double semifluid_cost(const imaging::ImageF& disc_before,
                      const imaging::ImageF& disc_after, int px, int py,
                      int qx, int qy, int nst);

/// Direct argmin of eps_semi over the (2*nss+1)^2 window centered at
/// (cx, cy); ties break toward the window center then raster order,
/// matching SemiFluidCostField::best_offset.
std::pair<int, int> semifluid_match(const imaging::ImageF& disc_before,
                                    const imaging::ImageF& disc_after,
                                    int px, int py, int cx, int cy, int nss,
                                    int nst);

/// Precomputed matching-cost layers over a band of offset rows.
class SemiFluidCostField {
 public:
  /// Builds layers C_o for offsets o with oy in [oy_min, oy_max] and
  /// ox in [-ox_radius, +ox_radius].  `parallel` builds the (independent)
  /// layers as tasks on the shared pool, at most `threads` at once (0 =
  /// the whole pool); the layers are the same bits either way.
  SemiFluidCostField(const imaging::ImageF& disc_before,
                     const imaging::ImageF& disc_after, int ox_radius,
                     int oy_min, int oy_max, int nst, bool parallel = false,
                     int threads = 0);

  int ox_radius() const { return ox_radius_; }
  int oy_min() const { return oy_min_; }
  int oy_max() const { return oy_max_; }

  /// Slides the band down one offset row: drops the layers of row
  /// oy_min and builds row oy_max + 1, so a sweep over hypothesis rows
  /// holds 2*N_ss + 1 offset rows at a time and builds each row once.
  /// The discriminants passed to the constructor must still be alive.
  void advance();

  /// Matching cost between pixel p and offset (ox, oy).  Offsets outside
  /// the built band are a contract violation (assert in debug builds).
  /// Stored in double precision with the same summation grouping as
  /// `semifluid_cost`, so the two paths are bit-identical and the
  /// bench_precompute_ablation equivalence is exact.
  double cost(int px, int py, int ox, int oy) const {
    const std::size_t idx = layer_index(ox, oy);
    return layers_[idx].at_clamped(px, py);
  }

  /// argmin over the (2*nss+1)^2 window centered at offset (cx, cy),
  /// returning the winning offset relative to p.  Tie-break: smallest
  /// displacement from the window center, then raster order — a
  /// deterministic rule shared with `semifluid_match`.
  std::pair<int, int> best_offset(int px, int py, int cx, int cy,
                                  int nss) const;

  /// The whole layer C_o (same contract as cost()).
  const imaging::ImageD& layer(int ox, int oy) const {
    return layers_[layer_index(ox, oy)];
  }

  /// Bytes held by the layers (used by the PE-memory accounting).
  std::size_t bytes() const;

 private:
  std::size_t layer_index(int ox, int oy) const;
  /// Builds the layers of offset rows (oy_max, oy_last] onto the band.
  void append_rows(int oy_last);

  const imaging::ImageF* disc_before_;
  const imaging::ImageF* disc_after_;
  int nst_;
  bool parallel_;
  int threads_;
  int ox_radius_;
  int oy_min_;
  int oy_max_;
  std::vector<imaging::ImageD> layers_;
};

/// Per-band semi-fluid correspondence codes: the cost field reduced to
/// what the matcher actually reads.  For every pixel p and every
/// hypothesis h of a band of hypothesis rows, the code stores
/// delta_h(p) - h, where delta_h(p) = best_offset(p, h) — the semi-fluid
/// refinement of template pixel p under hypothesis h, with the shared
/// tie-break.  The refinement lies in the (2N_ss+1)^2 window, so one byte
/// holds it: low nibble dx + N_ss, high nibble dy + N_ss (N_ss <= 7).
///
/// Layout is pixel-major ([pixel][band hypothesis], hypotheses in raster
/// (hy, hx) order), so a lane batch of consecutive hypotheses reads
/// contiguous bytes.  The codes are a pure function of the cost field,
/// so a matcher that reads them sees exactly the correspondents the
/// naive per-template-pixel best_offset calls would produce.
class SemiFluidCodes {
 public:
  static constexpr int kMaxNss = 7;  ///< nibble packing limit

  /// Sizes the code plane for hypotheses hx in [-hx_radius, hx_radius],
  /// hy in [hy_min, hy_max]; fill_rows populates it.
  SemiFluidCodes(int width, int height, int hx_radius, int hy_min,
                 int hy_max, int nss);

  /// Fills the codes of image rows [y0, y1) for the band's hypothesis
  /// rows whose whole refinement window `field` covers (offset rows
  /// hy - N_ss .. hy + N_ss, every hx + dx): the whole band from a
  /// band-sized field, one hypothesis row at a time from a field that
  /// advance()s.  Rows are independent, so disjoint row ranges may be
  /// filled concurrently.
  void fill_rows(const SemiFluidCostField& field, int y0, int y1);

  int hx_radius() const { return hx_radius_; }
  int hy_min() const { return hy_min_; }
  int hy_max() const { return hy_max_; }
  int nss() const { return nss_; }
  /// Hypotheses per pixel in the band: (2 hx_radius + 1) x band rows.
  int hypotheses() const { return hypotheses_; }
  /// Band index of hypothesis (hx, hy) in raster (hy, hx) order.
  int index(int hx, int hy) const {
    return (hy - hy_min_) * (2 * hx_radius_ + 1) + hx + hx_radius_;
  }

  /// Codes of pixel index i = y * width + x, one per band hypothesis.
  const std::uint8_t* pixel(std::size_t i) const {
    return codes_.data() + i * static_cast<std::size_t>(hypotheses_);
  }

  /// Decoded refinement (dx, dy) of one code.
  int dx(std::uint8_t c) const { return (c & 15) - nss_; }
  int dy(std::uint8_t c) const { return (c >> 4) - nss_; }

  /// delta_h(p) for pixel (px, py) and in-band hypothesis (hx, hy) —
  /// equal to SemiFluidCostField::best_offset(px, py, hx, hy, nss).
  std::pair<int, int> offset(int px, int py, int hx, int hy) const;

  std::size_t bytes() const { return codes_.size(); }

 private:
  int width_, height_;
  int hx_radius_, hy_min_, hy_max_, nss_;
  int hypotheses_;
  std::vector<std::uint8_t> codes_;
};

}  // namespace sma::core
