// goes_cont_pair — the paper's GOES-9 F_cont configuration (15x15 search,
// 15x15 template) on a stream of distinct Florida-analog pairs, each
// tracked by one TrackerBackend::track call on the `vector` backend.
// Frames stay in memory.
#include "bench.hpp"
#include "core/backend.hpp"
#include "core/config.hpp"
#include "gate.hpp"
#include "goes/datasets.hpp"
#include "layers.hpp"
#include "sched/scheduler.hpp"

namespace perfbench {
namespace {

namespace core = sma::core;
using sma::imaging::ImageF;

constexpr int kEdge = 96;        // frame edge of the timed pairs
constexpr int kWarmEdge = 40;    // frame edge of the set-up operation
constexpr int kPairs = 4;        // distinct pairs in the stream
constexpr int kSamples = 8;      // oracle-checked pixels per pair

struct Pair {
  ImageF before, after;
};

struct PairOut {
  sma::imaging::FlowField flow;
  core::VectorRunReport report;
  double fits = 0.0, builds = 0.0;  // from the backend's trace events
};

Pair make_pair(int edge, std::uint32_t seed) {
  sma::goes::RapidScanDataset ds = sma::goes::make_florida_analog(edge, 2, seed);
  return Pair{std::move(ds.frames[0]), std::move(ds.frames[1])};
}

/// One pair through TrackerBackend::track.  Its phases run inside that
/// call: their times come from TrackTimings as reported child spans, so
/// the call's own self time is the hypothesis matching.
PairOut track(const Pair& p, const core::SmaConfig& config,
              const core::TrackerBackend& backend, Tracer& t,
              std::uint64_t op) {
  Scope root(t, op, -1, "ledger.unaccounted", "pair");
  core::TrackerInput tin;
  tin.intensity_before = tin.surface_before = &p.before;
  tin.intensity_after = tin.surface_after = &p.after;
  PairOut out;
  core::TrackResult r;
  {
    Scope s(t, op, root.index(), "core.match", "TrackerBackend::track");
    BackendEvents events(t.enabled());
    r = backend.track(tin, config, core::TrackOptions{});
    for (const sma::obs::TraceEvent& e : events.stop()) {
      if (BackendEvents::is(e, "frame_geometry")) out.fits += 2.0;
      if (BackendEvents::is(e, "match_precompute")) out.builds += 1.0;
    }
    const core::TrackTimings& tm = r.timings;
    t.reported(op, s.index(), "surface.fit", "surface_fit",
               1000.0 * tm.surface_fit);
    t.reported(op, s.index(), "core.geomvars", "geometric_vars",
               1000.0 * tm.geometric_vars);
    t.reported(op, s.index(), "core.precompute", "match_precompute",
               1000.0 * tm.match_precompute);
    t.reported(op, s.index(), "core.semifluid", "semifluid_mapping",
               1000.0 * tm.semifluid_mapping);
  }
  out.flow = std::move(r.flow);
  if (const auto* x =
          dynamic_cast<const core::VectorBackendExtras*>(r.extras.get()))
    out.report = x->report;
  return out;
}

}  // namespace

RunResult run_goes_cont_pair(const RunOptions& opt, Tracer& tracer) {
  RunResult res;
  core::SmaConfig config = core::goes9_config();
  config.threads = 0;  // the whole shared pool, sized to nproc below
  const char* backend_name = "vector";
  res.info["config"] = "goes9_config (F_cont, 15x15 search, 15x15 template, "
                       "5x5 fit), full search, backend=vector, threads=" +
                       std::to_string(opt.nproc);
  res.info["frames"] = std::to_string(kPairs) + " distinct Florida-analog "
                       "pairs, " + std::to_string(kEdge) + "x" +
                       std::to_string(kEdge) + ", in memory";

  std::vector<Pair> pairs;
  for (int k = 0; k < kPairs; ++k)
    pairs.push_back(make_pair(kEdge, opt.seed * 1000u + static_cast<unsigned>(k)));
  const Pair warm = make_pair(kWarmEdge, opt.seed * 1000u + 999u);

  // Oracle samples, one set per pair, from the whole-frame geometry.
  std::vector<OracleSample> oracles;
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    const core::FrameGeometry g0 = core::compute_frame_geometry(
        pairs[k].before, &pairs[k].before, config, true, false);
    const core::FrameGeometry g1 = core::compute_frame_geometry(
        pairs[k].after, &pairs[k].after, config, true, false);
    oracles.push_back(make_oracle_sample(
        g0.geom, g1.geom, nullptr, nullptr, config,
        sample_pixels(kEdge, kEdge, kSamples, 0,
                      opt.seed * 7919u + static_cast<unsigned>(k))));
  }
  reset_peak_rss(res);

  // Set-up: pool spin-up, backend lookup (first use registers the
  // backends and resolves the SIMD dispatch) and one untimed pair.
  time_setup(res, [&] {
    const auto t0 = Clock::now();
    sma::sched::ThreadPool::shared().resize(opt.nproc);
    const core::TrackerBackend& backend =
        core::BackendRegistry::instance().get(backend_name);
    track(warm, config, backend, untraced(), 0);
    return ms_between(t0, Clock::now()) / 1000.0;
  });
  const core::TrackerBackend& backend =
      core::BackendRegistry::instance().get(backend_name);

  std::vector<double> traced_ms, untraced_ms;
  LaneTally lanes;
  SchedWindow sched;
  std::map<std::string, double> layer = empty_layer_metrics();
  double fits = 0.0, builds = 0.0;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(opt.seconds);
  for (std::uint64_t op = 1; Clock::now() < deadline || op <= 2; ++op) {
    // In a traced run every pair runs twice in a row, traced then not.
    const bool traced = tracer.enabled() && op % 2 == 1;
    const std::size_t k =
        (tracer.enabled() ? (op - 1) / 2 : op - 1) % pairs.size();
    Tracer& t = traced ? tracer : untraced();
    if (traced) sched.begin();
    const auto t0 = Clock::now();
    PairOut out = track(pairs[k], config, backend, t, op);
    const double ms = ms_between(t0, Clock::now());
    if (traced) sched.end();
    ++res.attempted;
    res.op_ms.push_back(ms);
    res.op_pixels_per_s.push_back(double(kEdge) * kEdge / (ms / 1000.0));
    (traced ? traced_ms : untraced_ms).push_back(ms);
    if (traced) {
      lanes.add(out.report);
      fits += out.fits;
      builds += out.builds;
    }

    if (const int bad = oracles[k].mismatches(out.flow); bad > 0) {
      ++res.failed;
      res.violation("goes_cont_pair: pair " + std::to_string(k) + ": " +
                    std::to_string(bad) + " sampled pixels differ from the "
                    "naive oracle");
    }
  }

  if (tracer.enabled()) {
    fold_ledger(tracer, layer);
    const double n = static_cast<double>(traced_ms.size());
    layer["surface.fits"] = fits / n;
    layer["core.precompute_builds"] = builds / n;
    layer["core.hypotheses"] = (lanes.batched + lanes.tail) / n;
    layer["simd.lane_utilization"] = lanes.utilization();
    layer["simd.tail_hypotheses"] = lanes.tail / n;
    layer["core.fallbacks"] = lanes.fallbacks / n;
    layer["sched.busy_frac"] = sched.busy_frac();
    layer["sched.imbalance"] = sched.imbalance();
    layer["ledger.trace_overhead_frac"] = trace_overhead(traced_ms, untraced_ms);
    res.layer = layer;
    for (const auto& [reason, count] : lanes.fallback_reasons)
      res.info["fallback." + reason] = std::to_string(count);
  }
  return res;
}

}  // namespace perfbench
