#include "core/semifluid.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "sched/scheduler.hpp"

namespace sma::core {

namespace {

// Border semantics shared by the direct and precomputed paths: the
// template coordinate t = p + s clamps into the image first, then the
// offset candidate reads D'(t + o) with its own clamp.  This composition
// makes the box-filtered layers bit-identical to the direct sum.
inline std::pair<int, int> clamp_coord(const imaging::ImageF& img, int x,
                                       int y) {
  return {std::clamp(x, 0, img.width() - 1),
          std::clamp(y, 0, img.height() - 1)};
}

inline double sq_diff(const imaging::ImageF& disc_before,
                      const imaging::ImageF& disc_after, int tx, int ty,
                      int ox, int oy) {
  const double d = disc_after.at_clamped(tx + ox, ty + oy) -
                   disc_before.at(tx, ty);
  return d * d;
}

// Returns true when candidate (dx2, dy2) should replace (dx1, dy1) on an
// equal-cost tie: prefer the smaller displacement from the window center,
// then raster order.
inline bool tie_prefers(int dx1, int dy1, int dx2, int dy2) {
  const int m1 = std::abs(dx1) + std::abs(dy1);
  const int m2 = std::abs(dx2) + std::abs(dy2);
  if (m2 != m1) return m2 < m1;
  if (dy2 != dy1) return dy2 < dy1;
  return dx2 < dx1;
}

}  // namespace

double semifluid_cost(const imaging::ImageF& disc_before,
                      const imaging::ImageF& disc_after, int px, int py,
                      int qx, int qy, int nst) {
  const int ox = qx - px;
  const int oy = qy - py;
  // Row-grouped accumulation: identical floating-point ordering to the
  // separable box sums in SemiFluidCostField, so the precomputed and
  // direct paths agree bit for bit.
  double sum = 0.0;
  for (int sy = -nst; sy <= nst; ++sy) {
    const auto [unused_x, ty] = clamp_coord(disc_before, px, py + sy);
    (void)unused_x;
    double rowsum = 0.0;
    for (int sx = -nst; sx <= nst; ++sx) {
      const auto [tx, unused_y] = clamp_coord(disc_before, px + sx, py);
      (void)unused_y;
      rowsum += sq_diff(disc_before, disc_after, tx, ty, ox, oy);
    }
    sum += rowsum;
  }
  const int n = (2 * nst + 1) * (2 * nst + 1);
  return sum / n;
}

std::pair<int, int> semifluid_match(const imaging::ImageF& disc_before,
                                    const imaging::ImageF& disc_after,
                                    int px, int py, int cx, int cy, int nss,
                                    int nst) {
  double best = std::numeric_limits<double>::infinity();
  int bx = cx, by = cy;
  for (int dy = -nss; dy <= nss; ++dy)
    for (int dx = -nss; dx <= nss; ++dx) {
      const double c =
          semifluid_cost(disc_before, disc_after, px, py, cx + dx, cy + dy, nst);
      const int cur_dx = bx - cx, cur_dy = by - cy;
      if (c < best ||
          (c == best && tie_prefers(cur_dx, cur_dy, dx, dy))) {
        best = c;
        bx = cx + dx;
        by = cy + dy;
      }
    }
  return {bx, by};
}

SemiFluidCostField::SemiFluidCostField(const imaging::ImageF& disc_before,
                                       const imaging::ImageF& disc_after,
                                       int ox_radius, int oy_min, int oy_max,
                                       int nst, bool parallel, int threads)
    : disc_before_(&disc_before),
      disc_after_(&disc_after),
      nst_(nst),
      parallel_(parallel),
      threads_(threads),
      ox_radius_(ox_radius),
      oy_min_(oy_min),
      oy_max_(oy_min - 1) {
  assert(oy_min <= oy_max);
  append_rows(oy_max);
}

void SemiFluidCostField::advance() {
  const std::size_t cols = static_cast<std::size_t>(2 * ox_radius_ + 1);
  layers_.erase(layers_.begin(),
                layers_.begin() + static_cast<std::ptrdiff_t>(cols));
  ++oy_min_;
  append_rows(oy_max_ + 1);
}

void SemiFluidCostField::append_rows(int oy_last) {
  const imaging::ImageF& disc_before = *disc_before_;
  const imaging::ImageF& disc_after = *disc_after_;
  const int nst = nst_;
  const int w = disc_before.width();
  const int h = disc_before.height();
  const int n = (2 * nst + 1) * (2 * nst + 1);
  const int cols = 2 * ox_radius_ + 1;
  const int oy_first = oy_max_ + 1;
  const int count = cols * (oy_last - oy_first + 1);
  // All layer storage is allocated here, on the calling thread; a build
  // task only needs row-sized scratch.
  const std::size_t first = layers_.size();
  layers_.resize(first + static_cast<std::size_t>(count),
                 imaging::ImageD(w, h));
  oy_max_ = oy_last;

  // One layer per offset, independent of every other layer.  Each pixel
  // adds in the order of the direct sum in semifluid_cost: squared
  // discriminant change, then a horizontal box pass over clamped x+sx,
  // then a vertical pass over clamped y+sy, all in double.  The
  // horizontal sums of the 2*nst+1 rows the vertical pass reads are kept
  // in a ring indexed by image row.
  const int span = 2 * nst + 1;
  const auto build = [&](int index) {
    const int oy = oy_first + index / cols;
    const int ox = -ox_radius_ + index % cols;
    std::vector<double> sq(static_cast<std::size_t>(w));
    std::vector<double> ring(static_cast<std::size_t>(span) * w);
    std::vector<int> ring_row(static_cast<std::size_t>(span), -1);
    // Columns [lo, hi) read x + ox without clamping.
    const int lo = std::clamp(-ox, 0, w);
    const int hi = std::clamp(w - ox, lo, w);
    const auto rowsum = [&](int y) -> const double* {
      double* const out = ring.data() + static_cast<std::size_t>(y % span) * w;
      if (ring_row[y % span] == y) return out;
      ring_row[y % span] = y;
      const float* const a = disc_after.row(std::clamp(y + oy, 0, h - 1));
      const float* const b = disc_before.row(y);
      const auto put = [&](int x, float after_value) {
        const double d = after_value - b[x];
        sq[x] = d * d;
      };
      for (int x = 0; x < lo; ++x) put(x, a[std::clamp(x + ox, 0, w - 1)]);
      for (int x = lo; x < hi; ++x) put(x, a[x + ox]);
      for (int x = hi; x < w; ++x) put(x, a[std::clamp(x + ox, 0, w - 1)]);
      for (int x = 0; x < w; ++x) {
        double s = 0.0;
        if (x - nst >= 0 && x + nst < w) {
          for (int sx = -nst; sx <= nst; ++sx) s += sq[x + sx];
        } else {
          for (int sx = -nst; sx <= nst; ++sx)
            s += sq[std::clamp(x + sx, 0, w - 1)];
        }
        out[x] = s;
      }
      return out;
    };
    imaging::ImageD& layer = layers_[first + static_cast<std::size_t>(index)];
    for (int y = 0; y < h; ++y) {
      double* const out = layer.row(y);
      std::fill(out, out + w, 0.0);
      for (int sy = -nst; sy <= nst; ++sy) {
        const double* const in = rowsum(std::clamp(y + sy, 0, h - 1));
        for (int x = 0; x < w; ++x) out[x] += in[x];
      }
      for (int x = 0; x < w; ++x) out[x] /= n;
    }
  };
  if (parallel_) {
    sched::ThreadPool::shared().run(
        sched::make_tiles(count, 1, 1, 1),
        [&](const sched::Tile& t, std::size_t) { build(t.x0); }, threads_);
  } else {
    for (int i = 0; i < count; ++i) build(i);
  }
}

std::size_t SemiFluidCostField::layer_index(int ox, int oy) const {
  assert(oy >= oy_min_ && oy <= oy_max_);
  assert(ox >= -ox_radius_ && ox <= ox_radius_);
  return static_cast<std::size_t>(oy - oy_min_) *
             static_cast<std::size_t>(2 * ox_radius_ + 1) +
         static_cast<std::size_t>(ox + ox_radius_);
}

std::pair<int, int> SemiFluidCostField::best_offset(int px, int py, int cx,
                                                    int cy, int nss) const {
  double best = std::numeric_limits<double>::infinity();
  int bx = cx, by = cy;
  for (int dy = -nss; dy <= nss; ++dy)
    for (int dx = -nss; dx <= nss; ++dx) {
      const double c = cost(px, py, cx + dx, cy + dy);
      const int cur_dx = bx - cx, cur_dy = by - cy;
      if (c < best || (c == best && tie_prefers(cur_dx, cur_dy, dx, dy))) {
        best = c;
        bx = cx + dx;
        by = cy + dy;
      }
    }
  return {bx, by};
}

std::size_t SemiFluidCostField::bytes() const {
  std::size_t b = 0;
  for (const auto& l : layers_) b += l.size() * sizeof(double);
  return b;
}

SemiFluidCodes::SemiFluidCodes(int width, int height, int hx_radius,
                               int hy_min, int hy_max, int nss)
    : width_(width),
      height_(height),
      hx_radius_(hx_radius),
      hy_min_(hy_min),
      hy_max_(hy_max),
      nss_(nss),
      hypotheses_((2 * hx_radius + 1) * (hy_max - hy_min + 1)),
      codes_(static_cast<std::size_t>(width) * height * hypotheses_) {
  assert(nss >= 0 && nss <= kMaxNss);
  assert(hy_min <= hy_max);
}

void SemiFluidCodes::fill_rows(const SemiFluidCostField& field, int y0,
                               int y1) {
  // best_offset for a whole image row at once: the window candidates are
  // visited in best_offset's raster order with its comparisons, one
  // layer row at a time.
  const int hy_first = std::max(hy_min_, field.oy_min() + nss_);
  const int hy_last = std::min(hy_max_, field.oy_max() - nss_);
  const std::size_t w = static_cast<std::size_t>(width_);
  std::vector<double> best(w);
  std::vector<int> bdx(w), bdy(w);
  for (int y = y0; y < y1; ++y) {
    int k = index(-hx_radius_, hy_first);
    for (int hy = hy_first; hy <= hy_last; ++hy)
      for (int hx = -hx_radius_; hx <= hx_radius_; ++hx, ++k) {
        std::fill(best.begin(), best.end(),
                  std::numeric_limits<double>::infinity());
        std::fill(bdx.begin(), bdx.end(), 0);
        std::fill(bdy.begin(), bdy.end(), 0);
        for (int dy = -nss_; dy <= nss_; ++dy)
          for (int dx = -nss_; dx <= nss_; ++dx) {
            const double* const c = field.layer(hx + dx, hy + dy).row(y);
            for (std::size_t x = 0; x < w; ++x)
              if (c[x] < best[x] ||
                  (c[x] == best[x] && tie_prefers(bdx[x], bdy[x], dx, dy))) {
                best[x] = c[x];
                bdx[x] = dx;
                bdy[x] = dy;
              }
          }
        std::uint8_t* out = codes_.data() +
                            static_cast<std::size_t>(y) * w * hypotheses_ + k;
        for (std::size_t x = 0; x < w; ++x, out += hypotheses_)
          *out = static_cast<std::uint8_t>((bdy[x] + nss_) << 4 |
                                           (bdx[x] + nss_));
      }
  }
}

std::pair<int, int> SemiFluidCodes::offset(int px, int py, int hx,
                                           int hy) const {
  const std::uint8_t c =
      pixel(static_cast<std::size_t>(py) * width_ + px)[index(hx, hy)];
  return {hx + dx(c), hy + dy(c)};
}

}  // namespace sma::core
