// test_semifluid_vector.cpp — F_semi on the lane kernel.
//
// The `vector` backend runs active semi-fluid configs on the
// MatchPrecompute planes: per band of hypothesis rows it reduces the
// semi-fluid cost field to one correspondence code per (pixel,
// hypothesis) and lets lane l gather the after normal at
// clamp(p + delta_{h_l}(p)).  The contract is bit-identity with the
// naive oracle (`sequential`), which this file checks on the full
// FlowField across kernel level x threads x segment rows x window shape
// x N_ss x N_sT x frame shape, plus a sharded run; the eligibility order
// (masks and stride before semi-fluid), the fallback reasons, the lane
// accounting and the Sec. 4.3 mapping-memory figure.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "core/match_precompute.hpp"
#include "core/match_vector.hpp"
#include "core/semifluid.hpp"
#include "helpers.hpp"
#include "shard/runner.hpp"
#include "shard/stream.hpp"
#include "simd/dispatch.hpp"

namespace sma::core {
namespace {

struct Frames {
  imaging::ImageF before, after;
};

Frames make_frames(int w, int h) {
  Frames f;
  f.before = testing::textured_pattern(w, h);
  f.after = testing::shift_image(f.before, 1, -1);
  return f;
}

TrackerInput input_of(const Frames& f) {
  TrackerInput in;
  in.intensity_before = in.surface_before = &f.before;
  in.intensity_after = in.surface_after = &f.after;
  return in;
}

SmaConfig semi_config() {
  SmaConfig cfg;
  cfg.model = MotionModel::kSemiFluid;
  cfg.surface_fit_radius = 2;
  cfg.z_search_radius = 2;
  cfg.z_template_radius = 2;
  cfg.semifluid_search_radius = 1;
  cfg.semifluid_template_radius = 1;
  return cfg;
}

const VectorBackendExtras* vector_extras(const TrackResult& r) {
  return dynamic_cast<const VectorBackendExtras*>(r.extras.get());
}

/// Distinct lane implementations this binary compiled AND this CPU runs.
std::vector<simd::SimdLevel> runnable_levels() {
  std::vector<simd::SimdLevel> out;
  for (simd::SimdLevel req :
       {simd::SimdLevel::kScalar, simd::SimdLevel::kSse2,
        simd::SimdLevel::kAvx2, simd::SimdLevel::kAvx512,
        simd::SimdLevel::kNeon}) {
    const simd::SimdLevel got = resolve_kernel_level(req);
    if (!simd::level_supported(got)) continue;
    bool seen = false;
    for (simd::SimdLevel s : out) seen = seen || s == got;
    if (!seen) out.push_back(got);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Eligibility: masks, stride and off are checked before semi-fluid.
// ---------------------------------------------------------------------------

TEST(SemiFluidEligibility, MaskStrideAndOffWinOverSemiFluid) {
  SmaConfig cfg = semi_config();
  const imaging::ImageF disc(4, 4, 0.0f);
  MatchInput in;
  in.disc_before = in.disc_after = &disc;
  EXPECT_EQ(resolve_precompute(cfg, in), PrecomputeDecision::kSemiFluid);
  EXPECT_TRUE(semifluid_codes_eligible(cfg, in));
  EXPECT_TRUE(precompute_planes_valid(cfg, in, /*semifluid_codes=*/true));
  EXPECT_FALSE(precompute_planes_valid(cfg, in, /*semifluid_codes=*/false));

  const imaging::ImageU8 mask(4, 4, 1);
  in.mask_after = &mask;
  EXPECT_EQ(resolve_precompute(cfg, in), PrecomputeDecision::kMasked);
  EXPECT_FALSE(semifluid_codes_eligible(cfg, in));
  EXPECT_FALSE(precompute_planes_valid(cfg, in, true));
  in.mask_after = nullptr;

  cfg.template_stride = 2;
  EXPECT_EQ(resolve_precompute(cfg, in), PrecomputeDecision::kStride);
  EXPECT_FALSE(precompute_planes_valid(cfg, in, true));
  cfg.template_stride = 1;

  cfg.precompute = PrecomputeMode::kOff;
  EXPECT_EQ(resolve_precompute(cfg, in), PrecomputeDecision::kDisabled);
  EXPECT_FALSE(precompute_planes_valid(cfg, in, true));
  cfg.precompute = PrecomputeMode::kAuto;

  // Codes need both discriminants and an N_ss that packs into a byte.
  in.disc_after = nullptr;
  EXPECT_FALSE(semifluid_codes_eligible(cfg, in));
  in.disc_after = &disc;
  cfg.semifluid_search_radius = SemiFluidCodes::kMaxNss + 1;
  EXPECT_FALSE(semifluid_codes_eligible(cfg, in));
  EXPECT_FALSE(precompute_planes_valid(cfg, in, true));
}

TEST(SemiFluidVector, PlainSemiFluidRunsOnTheLanes) {
  const Frames f = make_frames(20, 16);
  const SmaConfig cfg = semi_config();
  auto& registry = BackendRegistry::instance();
  const TrackResult ref = registry.get("sequential").track(input_of(f), cfg);
  const TrackResult r = registry.get("vector").track(input_of(f), cfg);
  EXPECT_TRUE(r.flow == ref.flow);
  const auto* vx = vector_extras(r);
  ASSERT_NE(vx, nullptr);
  EXPECT_TRUE(vx->report.vector_path);
  EXPECT_EQ(vx->report.fallback, "");
  // Every hypothesis of every pixel ran exactly once, batched or tail.
  const std::uint64_t total =
      vx->report.batched_hypotheses + vx->report.tail_hypotheses;
  EXPECT_EQ(total, 20ull * 16ull * 25ull);
  EXPECT_GT(vx->report.batched_hypotheses, 0u);
  EXPECT_EQ(vx->report.lane_utilization,
            static_cast<double>(vx->report.batched_hypotheses) /
                static_cast<double>(total));
  // 25 hypotheses per band: one tail hypothesis per pixel whenever the
  // lane count divides 24.
  if (24 % vx->report.lanes == 0) {
    EXPECT_EQ(vx->report.tail_hypotheses, 20ull * 16ull);
  }
  EXPECT_GT(r.timings.semifluid_mapping, 0.0);
}

TEST(SemiFluidVector, IneligibleConfigsFallBackWithTheirReason) {
  const Frames f = make_frames(20, 16);
  auto& registry = BackendRegistry::instance();
  struct Case {
    const char* reason;
    SmaConfig cfg;
    bool masked;
  };
  std::vector<Case> cases;
  SmaConfig c = semi_config();
  cases.push_back({"masked", c, true});
  c.template_stride = 2;
  cases.push_back({"stride", c, false});
  c = semi_config();
  c.precompute_sliding = true;
  cases.push_back({"sliding", c, false});
  c = semi_config();
  c.precompute = PrecomputeMode::kOff;
  cases.push_back({"precompute-off", c, false});
  c = semi_config();
  c.semifluid_search_radius = SemiFluidCodes::kMaxNss + 1;
  cases.push_back({"semi-fluid", c, false});

  imaging::ImageU8 mask(20, 16, 1);
  for (int x = 0; x < 20; ++x) mask.at(x, 7) = 0;
  for (const Case& k : cases) {
    TrackerInput in = input_of(f);
    if (k.masked) in.validity_before = in.validity_after = &mask;
    const TrackResult r = registry.get("vector").track(in, k.cfg);
    const auto* vx = vector_extras(r);
    ASSERT_NE(vx, nullptr) << k.reason;
    EXPECT_FALSE(vx->report.vector_path) << k.reason;
    EXPECT_EQ(vx->report.fallback, k.reason);
    EXPECT_TRUE(r.flow == registry.get("sequential").track(in, k.cfg).flow)
        << k.reason;
  }
}

// ---------------------------------------------------------------------------
// Bit-identity matrix against the naive oracle, full FlowField.
// ---------------------------------------------------------------------------

struct Shape {
  const char* name;
  int w, h;
  int search_rx, search_ry;
};

TEST(SemiFluidVector, BitIdenticalMatrix) {
  // 13x9 is smaller than the 7-wide search extent plus template; 21x17
  // divides neither by the lane counts nor by the tile shapes.
  const Shape shapes[] = {{"13x9_rect", 13, 9, 3, 1},
                          {"21x17_square", 21, 17, 2, 2},
                          {"21x17_rect", 21, 17, 1, 2}};
  const std::vector<simd::SimdLevel> levels = runnable_levels();
  auto& registry = BackendRegistry::instance();
  unsetenv("SMA_SIMD_LEVEL");
  for (const Shape& shape : shapes) {
    const Frames f = make_frames(shape.w, shape.h);
    for (const int nss : {1, 2})
      for (const int nst : {1, 2}) {
        SmaConfig cfg = semi_config();
        cfg.z_search_radius = shape.search_rx;
        cfg.z_search_radius_y = shape.search_ry;
        cfg.semifluid_search_radius = nss;
        cfg.semifluid_template_radius = nst;
        const imaging::FlowField ref =
            registry.get("sequential").track(input_of(f), cfg).flow;
        const int rows = 2 * shape.search_ry + 1;
        for (const int seg : {1, 3, 0}) {
          if (seg > rows) continue;
          cfg.segment_rows = seg;
          for (const int threads : {1, 4}) {
            cfg.threads = threads;
            for (const simd::SimdLevel level : levels) {
              setenv("SMA_SIMD_LEVEL", simd::level_name(level), 1);
              const TrackResult r =
                  registry.get("vector").track(input_of(f), cfg);
              const auto* vx = vector_extras(r);
              ASSERT_NE(vx, nullptr);
              EXPECT_TRUE(vx->report.vector_path);
              EXPECT_TRUE(r.flow == ref)
                  << shape.name << " nss=" << nss << " nst=" << nst
                  << " seg=" << seg << " threads=" << threads << " level="
                  << simd::level_name(level);
            }
          }
        }
      }
  }
  unsetenv("SMA_SIMD_LEVEL");
}

TEST(SemiFluidVector, ShardedRunMatchesWholeFrame) {
  const Frames f = make_frames(30, 26);
  SmaConfig cfg = semi_config();
  cfg.z_search_radius_y = 1;
  cfg.semifluid_search_radius = 2;
  const imaging::FlowField whole =
      BackendRegistry::instance().get("sequential").track(input_of(f), cfg)
          .flow;
  shard::InMemoryTileSource src(f.before, f.after);
  shard::ShardOptions opts;
  opts.spec = {2, 2};
  opts.backend = "vector";
  const shard::ShardResult r = shard::shard_track_pair(src, cfg, opts);
  EXPECT_TRUE(r.report.fallback.empty());
  EXPECT_TRUE(r.flow == whole);
}

// ---------------------------------------------------------------------------
// Sec. 4.3 memory accounting: live code plane + cost layers.
// ---------------------------------------------------------------------------

TEST(SemiFluidVector, MappingBytesShrinkWithSegmentRows) {
  const int w = 24, h = 20;
  const Frames f = make_frames(w, h);
  SmaConfig cfg = semi_config();
  cfg.z_search_radius = 3;  // 7 hypothesis rows
  const int nss = cfg.semifluid_search_radius;
  const int cols = 2 * cfg.z_search_radius + 1;
  std::size_t previous = 0;
  for (const int seg : {0, 3, 1}) {
    cfg.segment_rows = seg;
    const TrackResult r =
        BackendRegistry::instance().get("vector").track(input_of(f), cfg);
    // The cost layers advance one offset row at a time, so 2*N_ss + 1
    // rows are live whatever the band; the code plane holds the band.
    const int band = cfg.effective_segment_rows();
    const std::size_t pixels = static_cast<std::size_t>(w) * h;
    const std::size_t layers =
        static_cast<std::size_t>(cols + 2 * nss) * (2 * nss + 1);
    const std::size_t expected = layers * pixels * sizeof(double) +
                                 static_cast<std::size_t>(cols) * band * pixels;
    EXPECT_EQ(r.peak_mapping_bytes, expected) << "segment_rows=" << seg;
    if (previous != 0) {
      EXPECT_LT(r.peak_mapping_bytes, previous);
    }
    previous = r.peak_mapping_bytes;
  }
}

}  // namespace
}  // namespace sma::core
