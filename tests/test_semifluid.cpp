// Unit and property tests for core/semifluid.hpp — F_semi (Sec. 2.3) and
// the Sec. 4.1 precomputed cost field.
#include "core/semifluid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>

#include "helpers.hpp"

namespace sma::core {
namespace {

TEST(SemiFluidCost, ZeroForIdenticalFields) {
  const imaging::ImageF d = testing::textured_pattern(16, 16);
  EXPECT_NEAR(semifluid_cost(d, d, 8, 8, 8, 8, 2), 0.0, 1e-10);
}

TEST(SemiFluidCost, PositiveForMismatch) {
  const imaging::ImageF d0 = testing::textured_pattern(16, 16);
  const imaging::ImageF d1 = testing::textured_pattern(16, 16, 1.0);
  EXPECT_GT(semifluid_cost(d0, d1, 8, 8, 8, 8, 2), 0.0);
}

TEST(SemiFluidCost, DetectsShiftedContent) {
  // d1 is d0 shifted by (3, 0); the cost at the matching offset must be
  // (near) zero while the unshifted cost is positive.
  const imaging::ImageF d0 = testing::textured_pattern(24, 24);
  const imaging::ImageF d1 = testing::shift_image(d0, 3, 0);
  EXPECT_NEAR(semifluid_cost(d0, d1, 10, 12, 13, 12, 2), 0.0, 1e-8);
  EXPECT_GT(semifluid_cost(d0, d1, 10, 12, 10, 12, 2), 1.0);
}

TEST(SemiFluidMatch, FindsPlantedOffset) {
  const imaging::ImageF d0 = testing::textured_pattern(24, 24);
  const imaging::ImageF d1 = testing::shift_image(d0, 1, -1);
  // Continuous target (cx, cy) = (10, 12); the true correspondence is at
  // (11, 11), inside the 3x3 semi-fluid window.
  const auto [bx, by] = semifluid_match(d0, d1, 10, 12, 10, 12, 1, 2);
  EXPECT_EQ(bx, 11);
  EXPECT_EQ(by, 11);
}

TEST(SemiFluidMatch, NssZeroReturnsCenter) {
  const imaging::ImageF d0 = testing::textured_pattern(16, 16);
  const imaging::ImageF d1 = testing::shift_image(d0, 1, 0);
  const auto [bx, by] = semifluid_match(d0, d1, 8, 8, 9, 10, 0, 2);
  EXPECT_EQ(bx, 9);
  EXPECT_EQ(by, 10);
}

TEST(SemiFluidMatch, TieBreaksTowardCenter) {
  // Constant discriminants: every candidate costs zero; the rule keeps
  // the window center (continuous behaviour on featureless patches).
  const imaging::ImageF d0(16, 16, 1.0f);
  const imaging::ImageF d1(16, 16, 1.0f);
  const auto [bx, by] = semifluid_match(d0, d1, 8, 8, 9, 9, 2, 1);
  EXPECT_EQ(bx, 9);
  EXPECT_EQ(by, 9);
}

// Property: the precomputed cost field equals the direct cost for every
// in-band offset, for several window geometries.
struct FieldCase {
  int ox_radius;
  int oy_min, oy_max;
  int nst;
};

class CostFieldEquivalence : public ::testing::TestWithParam<FieldCase> {};

TEST_P(CostFieldEquivalence, MatchesDirectCost) {
  const FieldCase fc = GetParam();
  const imaging::ImageF d0 = testing::textured_pattern(20, 18);
  const imaging::ImageF d1 = testing::textured_pattern(20, 18, 0.7);
  const SemiFluidCostField field(d0, d1, fc.ox_radius, fc.oy_min, fc.oy_max,
                                 fc.nst);
  for (int py = 0; py < 18; py += 3)
    for (int px = 0; px < 20; px += 3)
      for (int oy = fc.oy_min; oy <= fc.oy_max; ++oy)
        for (int ox = -fc.ox_radius; ox <= fc.ox_radius; ++ox) {
          const double direct =
              semifluid_cost(d0, d1, px, py, px + ox, py + oy, fc.nst);
          EXPECT_NEAR(field.cost(px, py, ox, oy), direct,
                      1e-4 * (1.0 + direct))
              << "p=(" << px << "," << py << ") o=(" << ox << "," << oy << ")";
        }
}

INSTANTIATE_TEST_SUITE_P(
    Windows, CostFieldEquivalence,
    ::testing::Values(FieldCase{2, -2, 2, 1}, FieldCase{3, -3, 3, 2},
                      FieldCase{2, -1, 1, 2}, FieldCase{1, 0, 2, 1},
                      FieldCase{4, -4, -2, 1}));

TEST(CostField, BestOffsetMatchesDirectMatch) {
  const imaging::ImageF d0 = testing::textured_pattern(24, 24);
  const imaging::ImageF d1 = testing::shift_image(d0, 1, 1);
  const int nss = 1, nst = 2, nzs = 2;
  const SemiFluidCostField field(d0, d1, nzs + nss, -nzs - nss, nzs + nss,
                                 nst);
  for (int py = 4; py < 20; py += 2)
    for (int px = 4; px < 20; px += 2)
      for (int hy = -nzs; hy <= nzs; ++hy)
        for (int hx = -nzs; hx <= nzs; ++hx) {
          const auto [ox, oy] = field.best_offset(px, py, hx, hy, nss);
          const auto [ax, ay] =
              semifluid_match(d0, d1, px, py, px + hx, py + hy, nss, nst);
          EXPECT_EQ(px + ox, ax) << px << "," << py << " h=" << hx << "," << hy;
          EXPECT_EQ(py + oy, ay);
        }
}

TEST(CostField, BandedConstructionBytes) {
  const imaging::ImageF d0 = testing::textured_pattern(16, 16);
  const imaging::ImageF d1 = testing::textured_pattern(16, 16, 0.3);
  // Full band: 5 x 5 offsets.
  const SemiFluidCostField full(d0, d1, 2, -2, 2, 1);
  EXPECT_EQ(full.bytes(), 25u * 16u * 16u * sizeof(double));
  // Two-row band: 5 x 2 offsets.
  const SemiFluidCostField band(d0, d1, 2, 0, 1, 1);
  EXPECT_EQ(band.bytes(), 10u * 16u * 16u * sizeof(double));
  EXPECT_LT(band.bytes(), full.bytes());
}

TEST(CostField, BandedEqualsFullOnSharedOffsets) {
  const imaging::ImageF d0 = testing::textured_pattern(16, 16);
  const imaging::ImageF d1 = testing::textured_pattern(16, 16, 0.4);
  const SemiFluidCostField full(d0, d1, 2, -2, 2, 1);
  const SemiFluidCostField band(d0, d1, 2, 0, 1, 1);
  for (int py = 0; py < 16; py += 2)
    for (int px = 0; px < 16; px += 2)
      for (int oy = 0; oy <= 1; ++oy)
        for (int ox = -2; ox <= 2; ++ox)
          EXPECT_EQ(band.cost(px, py, ox, oy), full.cost(px, py, ox, oy));
}

TEST(CostField, AdvanceEqualsFreshBand) {
  const imaging::ImageF d0 = testing::textured_pattern(16, 14);
  const imaging::ImageF d1 = testing::textured_pattern(16, 14, 0.6);
  SemiFluidCostField rolling(d0, d1, 2, -3, -1, 2);
  for (int step = 0; step < 4; ++step) {
    rolling.advance();
    const SemiFluidCostField fresh(d0, d1, 2, -2 + step, step, 2);
    ASSERT_EQ(rolling.oy_min(), fresh.oy_min());
    ASSERT_EQ(rolling.oy_max(), fresh.oy_max());
    EXPECT_EQ(rolling.bytes(), fresh.bytes());
    for (int oy = fresh.oy_min(); oy <= fresh.oy_max(); ++oy)
      for (int ox = -2; ox <= 2; ++ox)
        EXPECT_TRUE(rolling.layer(ox, oy) == fresh.layer(ox, oy))
            << "step " << step << " o=(" << ox << "," << oy << ")";
  }
}

TEST(CostField, AccessorsReportBand) {
  const imaging::ImageF d(8, 8, 0.0f);
  const SemiFluidCostField field(d, d, 3, -1, 2, 1);
  EXPECT_EQ(field.ox_radius(), 3);
  EXPECT_EQ(field.oy_min(), -1);
  EXPECT_EQ(field.oy_max(), 2);
}

// ---------------------------------------------------------------------------
// Tie-break agreement: the prerequisite for reading semi-fluid
// correspondents from codes.  The naive evaluator without a cost field
// calls semifluid_match, the one with a field calls best_offset, and the
// lane kernel reads SemiFluidCodes built from best_offset — all three must
// pick the same candidate on EXACT cost ties, at every pixel including
// the borders, inside every band the segmented search builds.
// ---------------------------------------------------------------------------

struct TieCase {
  const char* name;
  int nss;
  int nst;
};

// Discriminant pairs built to produce exact ties: flat (every candidate
// costs zero), periodic (candidates one period apart cost the same),
// saturated (clipped plateaus), each with a seeded random component so
// the seeds explore different tie patterns.
std::vector<std::pair<imaging::ImageF, imaging::ImageF>> tie_fields(
    std::uint32_t seed, int w, int h) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> level(0, 3);
  std::uniform_int_distribution<int> period(2, 3);
  std::vector<std::pair<imaging::ImageF, imaging::ImageF>> out;
  const float flat = static_cast<float>(level(rng));
  out.emplace_back(imaging::ImageF(w, h, flat), imaging::ImageF(w, h, flat));

  const int px = period(rng), py = period(rng);
  imaging::ImageF p0(w, h), p1(w, h);
  const int phase = level(rng);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      p0.at(x, y) = static_cast<float>((x % px) + 2 * (y % py));
      p1.at(x, y) = static_cast<float>(((x + phase) % px) + 2 * (y % py));
    }
  out.emplace_back(std::move(p0), std::move(p1));

  std::uniform_real_distribution<float> u(-2.0f, 6.0f);
  imaging::ImageF s0(w, h), s1(w, h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      s0.at(x, y) = std::clamp(u(rng), 0.0f, 4.0f);
      s1.at(x, y) = std::clamp(u(rng), 0.0f, 4.0f);
    }
  out.emplace_back(std::move(s0), std::move(s1));
  return out;
}

class SemiFluidTieBreak : public ::testing::TestWithParam<TieCase> {};

TEST_P(SemiFluidTieBreak, DirectFieldAndCodesAgreeInEveryBand) {
  const TieCase tc = GetParam();
  const int w = 11, h = 9, nzs = 2;
  const int search_rows = 2 * nzs + 1;
  long ties = 0;
  for (std::uint32_t seed = 1; seed <= 3; ++seed) {
    for (const auto& [d0, d1] : tie_fields(seed, w, h)) {
      for (const int seg : {1, 2, search_rows}) {
        for (int hy_min = -nzs; hy_min <= nzs; hy_min += seg) {
          const int hy_max = std::min(hy_min + seg - 1, nzs);
          const SemiFluidCostField field(d0, d1, nzs + tc.nss,
                                         hy_min - tc.nss, hy_max + tc.nss,
                                         tc.nst);
          SemiFluidCodes codes(w, h, nzs, hy_min, hy_max, tc.nss);
          codes.fill_rows(field, 0, h);
          // The same codes, one hypothesis row at a time from a field
          // that advances down the band (the vector backend's order).
          SemiFluidCodes rolled(w, h, nzs, hy_min, hy_max, tc.nss);
          SemiFluidCostField window(d0, d1, nzs + tc.nss, hy_min - tc.nss,
                                    hy_min + tc.nss, tc.nst);
          for (int hy = hy_min; hy <= hy_max; ++hy) {
            if (hy > hy_min) window.advance();
            rolled.fill_rows(window, 0, h);
          }
          for (int py = 0; py < h; ++py)
            for (int px = 0; px < w; ++px)
              for (int hy = hy_min; hy <= hy_max; ++hy)
                for (int hx = -nzs; hx <= nzs; ++hx) {
                  const std::string at =
                      "seed " + std::to_string(seed) + " seg " +
                      std::to_string(seg) + " p=(" + std::to_string(px) +
                      "," + std::to_string(py) + ") h=(" +
                      std::to_string(hx) + "," + std::to_string(hy) + ")";
                  const auto [ox, oy] =
                      field.best_offset(px, py, hx, hy, tc.nss);
                  const auto [qx, qy] = semifluid_match(
                      d0, d1, px, py, px + hx, py + hy, tc.nss, tc.nst);
                  EXPECT_EQ(px + ox, qx) << at;
                  EXPECT_EQ(py + oy, qy) << at;
                  EXPECT_EQ(codes.offset(px, py, hx, hy),
                            std::make_pair(ox, oy))
                      << at;
                  EXPECT_EQ(rolled.offset(px, py, hx, hy),
                            std::make_pair(ox, oy))
                      << at;
                  // Count windows whose minimum is shared: the property
                  // is only exercised where a tie had to be broken.
                  const double c = field.cost(px, py, ox, oy);
                  int minima = 0;
                  for (int dy = -tc.nss; dy <= tc.nss; ++dy)
                    for (int dx = -tc.nss; dx <= tc.nss; ++dx)
                      minima += field.cost(px, py, hx + dx, hy + dy) == c;
                  ties += minima > 1;
                }
        }
      }
    }
  }
  EXPECT_GT(ties, 0) << "no exact ties were constructed";
}

INSTANTIATE_TEST_SUITE_P(
    Windows, SemiFluidTieBreak,
    ::testing::Values(TieCase{"nss1_nst1", 1, 1}, TieCase{"nss1_nst2", 1, 2},
                      TieCase{"nss2_nst1", 2, 1}, TieCase{"nss2_nst2", 2, 2}),
    [](const ::testing::TestParamInfo<TieCase>& info) {
      return std::string(info.param.name);
    });

TEST(SemiFluidCodes, SizesAndPackingLimit) {
  const SemiFluidCodes codes(6, 5, 3, -1, 2, SemiFluidCodes::kMaxNss);
  EXPECT_EQ(codes.hypotheses(), 7 * 4);
  EXPECT_EQ(codes.bytes(), 6u * 5u * 28u);
  // The widest window still packs both refinements into one byte.
  for (int d = -SemiFluidCodes::kMaxNss; d <= SemiFluidCodes::kMaxNss; ++d) {
    const auto c = static_cast<std::uint8_t>(
        (d + SemiFluidCodes::kMaxNss) << 4 | (-d + SemiFluidCodes::kMaxNss));
    EXPECT_EQ(codes.dy(c), d);
    EXPECT_EQ(codes.dx(c), -d);
  }
}

}  // namespace
}  // namespace sma::core
