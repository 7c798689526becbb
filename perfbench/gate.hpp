// gate.hpp — the correctness gate of the exact paths: a flow field's
// winners at sampled pixels must be bit-identical to the naive oracle
// (scan_hypotheses with no precompute and no semi-fluid cost field).
#pragma once

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/tracker.hpp"
#include "imaging/flow.hpp"
#include "surface/geometry.hpp"

namespace perfbench {

/// The flow vector the naive oracle produces at (x, y), packed exactly as
/// collect_track_result packs a winner.
inline sma::imaging::FlowVector oracle_vector(
    const sma::surface::GeometricField& before,
    const sma::surface::GeometricField& after,
    const sma::imaging::ImageF* disc_before,
    const sma::imaging::ImageF* disc_after,
    const sma::core::SmaConfig& config, int x, int y) {
  sma::core::PixelBest best;
  sma::core::scan_hypotheses(before, after, disc_before, disc_after,
                             /*cost_field=*/nullptr, x, y,
                             -config.z_search_ry(), config.z_search_ry(),
                             config, best);
  sma::imaging::FlowVector f;
  f.u = static_cast<float>(best.ux) + best.sub_u;
  f.v = static_cast<float>(best.uy) + best.sub_v;
  f.valid = (best.any_ok && best.solved) ? 1 : 0;
  f.error = f.valid ? static_cast<float>(best.error)
                    : std::numeric_limits<float>::infinity();
  f.confidence = f.valid ? static_cast<float>(best.coverage) : 0.0f;
  return f;
}

inline bool same_bits(const sma::imaging::FlowVector& a,
                      const sma::imaging::FlowVector& b) {
  const auto bits = [](float f) {
    std::uint32_t u = 0;
    std::memcpy(&u, &f, sizeof(u));
    return u;
  };
  return a.valid == b.valid && bits(a.u) == bits(b.u) &&
         bits(a.v) == bits(b.v) && bits(a.error) == bits(b.error) &&
         bits(a.confidence) == bits(b.confidence);
}

/// Oracle vectors at `pixels`, computed once per input and compared with
/// every flow the workload produces for that input.
struct OracleSample {
  std::vector<std::pair<int, int>> pixels;
  std::vector<sma::imaging::FlowVector> expected;

  /// Number of sampled pixels whose vector differs from the oracle's.
  int mismatches(const sma::imaging::FlowField& flow) const {
    int bad = 0;
    for (std::size_t i = 0; i < pixels.size(); ++i)
      if (!same_bits(flow.at(pixels[i].first, pixels[i].second), expected[i]))
        ++bad;
    return bad;
  }
};

inline OracleSample make_oracle_sample(
    const sma::surface::GeometricField& before,
    const sma::surface::GeometricField& after,
    const sma::imaging::ImageF* disc_before,
    const sma::imaging::ImageF* disc_after,
    const sma::core::SmaConfig& config,
    std::vector<std::pair<int, int>> pixels) {
  OracleSample s;
  s.pixels = std::move(pixels);
  for (const auto& [x, y] : s.pixels)
    s.expected.push_back(oracle_vector(before, after, disc_before,
                                       disc_after, config, x, y));
  return s;
}

}  // namespace perfbench
