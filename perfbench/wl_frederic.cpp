// frederic_semi_seq — the paper's headline F_semi model on T=4
// Frederic-analog frames through SmaPipeline::track_sequence (`vector`
// backend, trajectory seeds on), with the robust post-process applied to
// every pair's flow through core::robust_postprocess.
//
// The pipeline runs inside one public call, so its stages are booked from
// the PipelineStats deltas and TrackTimings it reports.  The gate checks
// the raw per-pair flows against the naive semi-fluid oracle; that is why
// the post-process runs here, after the pipeline, instead of inside it.
#include <string>

#include "bench.hpp"
#include "core/match_precompute.hpp"
#include "core/pipeline.hpp"
#include "core/postprocess.hpp"
#include "gate.hpp"
#include "goes/datasets.hpp"
#include "layers.hpp"
#include "sched/scheduler.hpp"

namespace perfbench {
namespace {

namespace core = sma::core;
using sma::imaging::FlowField;
using sma::imaging::ImageF;

constexpr int kEdge = 48;       // frame edge
constexpr int kFrames = 4;      // T, as in the paper's Frederic run
constexpr int kWarmEdge = 32;   // set-up sequence edge (two frames)
constexpr int kSequences = 3;   // distinct sequences in the stream
constexpr int kSamples = 6;     // oracle-checked pixels per pair
constexpr int kSeeds = 8;       // trajectory seeds

std::vector<ImageF> make_sequence(int edge, int frames, std::uint32_t seed) {
  return sma::goes::make_frederic_sequence(edge, frames, seed).left;
}

const char* decision_name(core::PrecomputeDecision d) {
  switch (d) {
    case core::PrecomputeDecision::kFast: return "none";
    case core::PrecomputeDecision::kDisabled: return "disabled";
    case core::PrecomputeDecision::kMasked: return "masked";
    case core::PrecomputeDecision::kSemiFluid: return "semifluid";
    case core::PrecomputeDecision::kStride: return "stride";
  }
  return "unknown";
}

struct SeqOut {
  core::SequenceResult seq;
  std::vector<FlowField> robust;
};

SeqOut track(core::SmaPipeline& pipeline, const std::vector<ImageF>& frames,
             const std::vector<std::pair<double, double>>& seeds, Tracer& t,
             std::uint64_t op) {
  SeqOut out;
  Scope root(t, op, -1, "ledger.unaccounted", "sequence");
  {
    const core::PipelineStats s0 = pipeline.stats();
    Scope s(t, op, root.index(), "core.pipeline",
            "SmaPipeline::track_sequence");
    out.seq = pipeline.track_sequence(frames, seeds);
    if (t.enabled()) {
      const core::PipelineStats& s1 = pipeline.stats();
      double semifluid = 0.0;
      for (const core::TrackTimings& tt : out.seq.timings)
        semifluid += tt.semifluid_mapping;
      const auto rep = [&](const char* layer, const char* name, double sec) {
        t.reported(op, s.index(), layer, name, 1000.0 * sec);
      };
      rep("surface.fit", "surface_fit",
          s1.surface_fit_seconds - s0.surface_fit_seconds);
      rep("core.geomvars", "geometric_vars",
          s1.geometric_vars_seconds - s0.geometric_vars_seconds);
      rep("core.precompute", "match_precompute",
          s1.match_precompute_seconds - s0.match_precompute_seconds);
      rep("core.semifluid", "semifluid_mapping", semifluid);
      rep("core.match", "hypothesis_matching",
          s1.matching_seconds - s0.matching_seconds - semifluid);
      rep("core.products", "products",
          s1.products_seconds - s0.products_seconds);
    }
  }
  for (const FlowField& f : out.seq.flows) {
    Scope s(t, op, root.index(), "core.postprocess", "robust_postprocess");
    out.robust.push_back(core::robust_postprocess(f));
  }
  return out;
}

/// Oracle samples for every pair of one sequence, plus the program's
/// own fast-path eligibility verdict for those pairs.
struct SeqOracle {
  std::vector<OracleSample> pairs;
  core::PrecomputeDecision decision = core::PrecomputeDecision::kFast;
};

SeqOracle make_oracle(const std::vector<ImageF>& frames,
                      const core::SmaConfig& config, std::uint32_t seed) {
  std::vector<core::FrameGeometry> geo;
  for (const ImageF& f : frames)
    geo.push_back(core::compute_frame_geometry(f, &f, config, true, true));
  SeqOracle o;
  for (std::size_t i = 0; i + 1 < geo.size(); ++i) {
    o.pairs.push_back(make_oracle_sample(
        geo[i].geom, geo[i + 1].geom, &geo[i].disc, &geo[i + 1].disc, config,
        sample_pixels(frames[i].width(), frames[i].height(), kSamples, 0,
                      seed + static_cast<std::uint32_t>(i))));
    core::MatchInput mi;
    mi.before = &geo[i].geom;
    mi.after = &geo[i + 1].geom;
    mi.disc_before = &geo[i].disc;
    mi.disc_after = &geo[i + 1].disc;
    o.decision = core::resolve_precompute(config, mi);
  }
  return o;
}

}  // namespace

RunResult run_frederic_semi_seq(const RunOptions& opt, Tracer& tracer) {
  RunResult res;
  core::SmaConfig config = core::frederic_scaled_config();
  config.threads = 0;
  core::PipelineOptions popt;
  popt.backend = "vector";
  res.info["config"] =
      "frederic_scaled_config (F_semi, 7x7 search, 9x9 template, Nss=1, "
      "NsT=2), backend=vector, robust post-process, " +
      std::to_string(kSeeds) + " trajectory seeds";
  res.info["frames"] = std::to_string(kSequences) + " distinct Frederic-analog "
                       "sequences, T=" + std::to_string(kFrames) + ", " +
                       std::to_string(kEdge) + "x" + std::to_string(kEdge);

  std::vector<std::vector<ImageF>> seqs;
  for (int k = 0; k < kSequences; ++k)
    seqs.push_back(make_sequence(kEdge, kFrames,
                                 opt.seed * 1000u + static_cast<unsigned>(k)));
  const std::vector<ImageF> warm =
      make_sequence(kWarmEdge, 2, opt.seed * 1000u + 999u);
  std::vector<std::pair<double, double>> seeds;
  for (const auto& [x, y] :
       sample_pixels(kEdge, kEdge, kSeeds, 8, opt.seed * 31u + 5u))
    seeds.emplace_back(x, y);

  std::vector<SeqOracle> oracles;
  for (std::size_t k = 0; k < seqs.size(); ++k)
    oracles.push_back(make_oracle(
        seqs[k], config, opt.seed * 7919u + 100u * static_cast<unsigned>(k)));
  reset_peak_rss(res);

  // Set-up: pool spin-up, pipeline construction and one untimed sequence.
  std::unique_ptr<core::SmaPipeline> pipeline;
  time_setup(res, [&] {
    const auto t0 = Clock::now();
    sma::sched::ThreadPool::shared().resize(opt.nproc);
    pipeline = std::make_unique<core::SmaPipeline>(config, popt);
    track(*pipeline, warm, {}, untraced(), 0);
    return ms_between(t0, Clock::now()) / 1000.0;
  });

  std::vector<double> traced_ms, untraced_ms;
  SchedWindow sched;
  std::map<std::string, double> layer = empty_layer_metrics();
  std::map<std::string, double> fallback_reasons;
  double fits = 0.0, builds = 0.0, hits = 0.0, misses = 0.0, fallbacks = 0.0;
  const double pairs_per_seq = kFrames - 1;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(opt.seconds);
  for (std::uint64_t op = 1; Clock::now() < deadline || op <= 2; ++op) {
    const bool traced = tracer.enabled() && op % 2 == 1;
    const std::size_t k =
        (tracer.enabled() ? (op - 1) / 2 : op - 1) % seqs.size();
    Tracer& t = traced ? tracer : untraced();
    // Every sequence starts cold: the cache then fits each frame once.
    pipeline->clear_cache();
    const core::PipelineStats s0 = pipeline->stats();
    if (traced) sched.begin();
    const auto t0 = Clock::now();
    SeqOut out = track(*pipeline, seqs[k], seeds, t, op);
    const double ms = ms_between(t0, Clock::now());
    if (traced) sched.end();
    const core::PipelineStats& s1 = pipeline->stats();
    res.attempted += static_cast<std::uint64_t>(pairs_per_seq);
    res.op_ms.push_back(ms);
    res.op_pixels_per_s.push_back(pairs_per_seq * kEdge * kEdge /
                                  (ms / 1000.0));
    (traced ? traced_ms : untraced_ms).push_back(ms);

    if (traced) {
      fits += double(s1.surface_fits - s0.surface_fits);
      builds += double(s1.precompute_builds - s0.precompute_builds);
      hits += double(s1.cache_hits - s0.cache_hits);
      misses += double(s1.cache_misses - s0.cache_misses);
      if (oracles[k].decision != core::PrecomputeDecision::kFast) {
        fallbacks += pairs_per_seq;
        fallback_reasons[decision_name(oracles[k].decision)] += pairs_per_seq;
      }
    }
    for (std::size_t i = 0; i < out.seq.flows.size(); ++i) {
      const int bad = i < oracles[k].pairs.size()
                          ? oracles[k].pairs[i].mismatches(out.seq.flows[i])
                          : kSamples;
      if (bad > 0) {
        ++res.failed;
        res.violation("frederic_semi_seq: sequence " + std::to_string(k) +
                      " pair " + std::to_string(i) + ": " +
                      std::to_string(bad) +
                      " sampled pixels differ from the naive oracle");
      }
    }
    if (out.seq.flows.size() != static_cast<std::size_t>(pairs_per_seq) ||
        out.robust.size() != out.seq.flows.size() ||
        out.seq.trajectories.size() != seeds.size()) {
      ++res.failed;
      res.violation("frederic_semi_seq: sequence " + std::to_string(k) +
                    " returned the wrong number of flows or trajectories");
    }
  }

  if (tracer.enabled()) {
    fold_ledger(tracer, layer);
    const double n = static_cast<double>(traced_ms.size());
    layer["surface.fits"] = fits / n;
    layer["core.precompute_builds"] = builds / n;
    layer["core.cache_hit_rate"] = hits + misses > 0 ? hits / (hits + misses) : 0;
    layer["core.fallbacks"] = fallbacks / n;
    const double search = double(config.z_search_size()) * config.z_search_size_y();
    layer["core.hypotheses"] = pairs_per_seq * kEdge * kEdge * search;
    layer["sched.busy_frac"] = sched.busy_frac();
    layer["sched.imbalance"] = sched.imbalance();
    layer["ledger.trace_overhead_frac"] = trace_overhead(traced_ms, untraced_ms);
    res.layer = layer;
    for (const auto& [reason, count] : fallback_reasons)
      res.info["fallback." + reason] = std::to_string(count / n) + " pairs per sequence";
  }
  return res;
}

}  // namespace perfbench
