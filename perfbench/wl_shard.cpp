// shard_outofcore — a seeded Luis-analog pair written as PGM files and
// streamed through TiledFrameStream on a 4x4 tile grid under a resident
// budget tight enough that blocks are evicted and re-read, tracked by
// shard::shard_track_pair (luis_scaled_config, `vector` backend per tile)
// and serialized with write_flow_text.  The only workload that reads
// from disk.
//
// Layer calls made inside shard_track_pair are observed from outside:
// window reads through a timing TileSource decorator, matching through a
// registered decorator backend that wraps `vector`, and the backend's
// frame-geometry and precompute phases from the program's own trace
// spans (obs::TraceRecorder), installed for traced operations only.
#include <filesystem>
#include <memory>
#include <string>

#include "bench.hpp"
#include "core/backend.hpp"
#include "core/config.hpp"
#include "core/match_vector.hpp"
#include "gate.hpp"
#include "goes/datasets.hpp"
#include "imaging/flow.hpp"
#include "imaging/io.hpp"
#include "layers.hpp"
#include "sched/scheduler.hpp"
#include "shard/plan.hpp"
#include "shard/runner.hpp"
#include "shard/stream.hpp"

namespace perfbench {
namespace {

namespace core = sma::core;
namespace shard = sma::shard;
using sma::imaging::ImageF;

constexpr int kEdge = 512;       // frame edge of the on-disk pairs
constexpr int kWarmEdge = 128;   // set-up pair edge
constexpr int kPairs = 2;        // distinct pairs on disk
constexpr int kGrid = 4;         // 4x4 tiles
constexpr int kBudgetMiB = 1;    // max_resident_mb
constexpr int kSamples = 12;     // oracle-checked pixels per pair
constexpr const char* kTracedBackend = "perfbench-vector";

/// Who to tell about the calls the runner makes.  Set per operation;
/// the runner calls the source and backend from this thread only.
struct Observer {
  Tracer* tracer = &untraced();
  std::uint64_t op = 0;
  int parent = -1;
  LaneTally* lanes = nullptr;
};

class TimedSource : public shard::TileSource {
 public:
  TimedSource(shard::TileSource& inner, const Observer& obs)
      : inner_(inner), obs_(obs) {}
  int width() const override { return inner_.width(); }
  int height() const override { return inner_.height(); }
  int bytes_per_pixel() const override { return inner_.bytes_per_pixel(); }
  void note_working_bytes(std::size_t bytes) override {
    inner_.note_working_bytes(bytes);
  }
  ImageF window(int frame, int x0, int y0, int w, int h) override {
    Scope s(*obs_.tracer, obs_.op, obs_.parent, "imaging.read",
            "TileSource::window");
    return inner_.window(frame, x0, y0, w, h);
  }

 private:
  shard::TileSource& inner_;
  const Observer& obs_;
};

/// `vector` with a span around match() and its lane report tallied.
class ObservedBackend : public core::TrackerBackend {
 public:
  ObservedBackend(const core::TrackerBackend& inner, const Observer& obs)
      : inner_(inner), obs_(obs) {}
  std::string name() const override { return kTracedBackend; }
  core::BackendCapabilities capabilities() const override {
    return inner_.capabilities();
  }
  core::TrackResult match(const core::MatchInput& in,
                          const core::SmaConfig& config,
                          const core::TrackOptions& options) const override {
    Scope s(*obs_.tracer, obs_.op, obs_.parent, "core.match",
            "TrackerBackend::match");
    core::TrackResult r = inner_.match(in, config, options);
    if (obs_.lanes != nullptr)
      if (const auto* x =
              dynamic_cast<const core::VectorBackendExtras*>(r.extras.get()))
        obs_.lanes->add(x->report);
    return r;
  }

 private:
  const core::TrackerBackend& inner_;
  const Observer& obs_;
};

struct PairFiles {
  std::string before, after;
};

PairFiles write_pair(const std::string& dir, int edge, std::uint32_t seed,
                     const std::string& tag) {
  sma::goes::RapidScanDataset ds = sma::goes::make_luis_analog(edge, 2, seed);
  PairFiles f{dir + "/" + tag + "_before.pgm", dir + "/" + tag + "_after.pgm"};
  sma::imaging::write_pgm(ds.frames[0], f.before);
  sma::imaging::write_pgm(ds.frames[1], f.after);
  return f;
}

struct OpOut {
  shard::ShardResult result;
  shard::ShardStreamStats stream;
  double call_ms = 0.0;
  double fits = 0.0, builds = 0.0;  // from the backend's trace events
};

OpOut track(const PairFiles& files, const core::SmaConfig& config,
            const shard::ShardOptions& sopt, const std::string& flow_path,
            Observer& obs, Tracer& t, std::uint64_t op) {
  OpOut out;
  Scope root(t, op, -1, "ledger.unaccounted", "pair");
  const sma::imaging::RasterHeader h =
      sma::imaging::read_raster_header(files.before);
  std::unique_ptr<shard::TiledFrameStream> stream;
  {
    Scope s(t, op, root.index(), "shard", "TiledFrameStream");
    const shard::ShardPlan plan = shard::make_plan(
        h.width, h.height, sopt.spec, config, sopt.track.subpixel);
    stream = std::make_unique<shard::TiledFrameStream>(
        files.before, files.after, plan, sma::maspar::MpdaSpec{},
        static_cast<std::size_t>(config.max_resident_mb) << 20);
  }
  {
    Scope s(t, op, root.index(), "shard", "shard_track_pair");
    obs.tracer = &t;
    obs.op = op;
    obs.parent = s.index();
    TimedSource source(*stream, obs);
    BackendEvents events(t.enabled());
    const auto t0 = Clock::now();
    out.result = shard::shard_track_pair(source, config, sopt);
    out.call_ms = ms_between(t0, Clock::now());
    for (const sma::obs::TraceEvent& e : events.stop()) {
      if (BackendEvents::is(e, "frame_geometry")) {
        out.fits += 2.0;
        t.reported(op, s.index(), "surface.fit", "frame_geometry",
                   e.dur_us / 1000.0);
      } else if (BackendEvents::is(e, "match_precompute")) {
        out.builds += 1.0;
        t.reported(op, s.index(), "core.precompute", "match_precompute",
                   e.dur_us / 1000.0);
      }
    }
    obs.tracer = &untraced();
    obs.parent = -1;
  }
  out.stream = stream->stats();
  {
    Scope s(t, op, root.index(), "imaging.flow_write", "write_flow_text");
    sma::imaging::write_flow_text(out.result.flow, flow_path);
  }
  return out;
}

}  // namespace

RunResult run_shard_outofcore(const RunOptions& opt, Tracer& tracer) {
  RunResult res;
  core::SmaConfig config = core::luis_scaled_config();
  config.threads = 0;
  config.max_resident_mb = kBudgetMiB;
  const std::size_t budget_bytes = static_cast<std::size_t>(kBudgetMiB) << 20;
  shard::ShardOptions sopt;
  sopt.spec = shard::ShardSpec{kGrid, kGrid};
  sopt.backend = kTracedBackend;
  res.info["config"] = "luis_scaled_config (F_cont, 5x5 search, 7x7 "
                       "template), backend=vector per tile, grid " +
                       std::to_string(kGrid) + "x" + std::to_string(kGrid) +
                       ", max_resident_mb=" + std::to_string(kBudgetMiB);
  res.info["frames"] = std::to_string(kPairs) + " distinct Luis-analog pairs, " +
                       std::to_string(kEdge) + "x" + std::to_string(kEdge) +
                       " 8-bit PGM on disk (" +
                       std::to_string(2 * kEdge * kEdge / 1024) +
                       " KiB per pair, " +
                       std::to_string(2 * kEdge * kEdge * 4 / 1024) +
                       " KiB as floats)";

  std::filesystem::create_directories(opt.workdir);
  std::vector<PairFiles> files;
  for (int k = 0; k < kPairs; ++k)
    files.push_back(write_pair(opt.workdir, kEdge,
                               opt.seed * 1000u + static_cast<unsigned>(k),
                               "shard" + std::to_string(k)));
  const PairFiles warm =
      write_pair(opt.workdir, kWarmEdge, opt.seed * 1000u + 999u, "warm");
  const std::string flow_path = opt.workdir + "/shard_flow.txt";

  // Static: the registry keeps the decorator backend, and with it a
  // reference to the observer, until the process exits.
  static Observer obs;
  LaneTally lanes;
  core::BackendRegistry& registry = core::BackendRegistry::instance();
  registry.register_backend(
      std::make_unique<ObservedBackend>(registry.get("vector"), obs));

  // Oracle: whole frames read back from the files, fitted once per pair.
  // Its whole-frame geometry outweighs the streamed run, so the RSS
  // high-water is reset after it.
  std::vector<OracleSample> oracles;
  for (std::size_t k = 0; k < files.size(); ++k) {
    const ImageF b = sma::imaging::read_pgm(files[k].before);
    const ImageF a = sma::imaging::read_pgm(files[k].after);
    const core::FrameGeometry g0 =
        core::compute_frame_geometry(b, &b, config, true, false);
    const core::FrameGeometry g1 =
        core::compute_frame_geometry(a, &a, config, true, false);
    oracles.push_back(make_oracle_sample(
        g0.geom, g1.geom, nullptr, nullptr, config,
        sample_pixels(kEdge, kEdge, kSamples, 0,
                      opt.seed * 7919u + static_cast<unsigned>(k))));
  }
  reset_peak_rss(res);

  // Set-up: pool spin-up, plan + stream construction and one untimed pair.
  time_setup(res, [&] {
    const auto t0 = Clock::now();
    sma::sched::ThreadPool::shared().resize(opt.nproc);
    track(warm, config, sopt, flow_path, obs, untraced(), 0);
    return ms_between(t0, Clock::now()) / 1000.0;
  });

  std::vector<double> traced_ms, untraced_ms;
  SchedWindow sched;
  std::map<std::string, double> layer = empty_layer_metrics();
  double tile_sum = 0.0, tile_max = 0.0, stitch = 0.0, halo = 0.0;
  double hits = 0.0, misses = 0.0, resident = 0.0, read_bytes = 0.0;
  double fits = 0.0, builds = 0.0;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(opt.seconds);
  for (std::uint64_t op = 1; Clock::now() < deadline || op <= 2; ++op) {
    const bool traced = tracer.enabled() && op % 2 == 1;
    const std::size_t k =
        (tracer.enabled() ? (op - 1) / 2 : op - 1) % files.size();
    Tracer& t = traced ? tracer : untraced();
    obs.lanes = traced ? &lanes : nullptr;
    if (traced) sched.begin();
    const auto t0 = Clock::now();
    OpOut out = track(files[k], config, sopt, flow_path, obs, t, op);
    const double ms = ms_between(t0, Clock::now());
    if (traced) sched.end();
    ++res.attempted;
    res.op_ms.push_back(ms);
    res.op_pixels_per_s.push_back(double(kEdge) * kEdge / (ms / 1000.0));
    (traced ? traced_ms : untraced_ms).push_back(ms);

    const shard::ShardReport& rep = out.result.report;
    if (traced) {
      double sum = 0.0, mx = 0.0;
      for (const shard::TileSpan& sp : rep.spans) {
        sum += 1000.0 * sp.compute_seconds;
        mx = std::max(mx, 1000.0 * sp.compute_seconds);
      }
      tile_sum += sum;
      tile_max += mx;
      stitch += out.call_ms - 1000.0 * (rep.read_seconds + rep.compute_seconds);
      halo += double(rep.halo_bytes) / double(rep.core_bytes + rep.halo_bytes);
      hits += double(out.stream.cache_hits);
      misses += double(out.stream.cache_misses);
      resident += double(out.stream.resident_high_water) / (1024.0 * 1024.0);
      read_bytes += double(out.stream.bytes_read);
      fits += out.fits;
      builds += out.builds;
    }

    const int bad = oracles[k].mismatches(out.result.flow);
    const bool over = out.stream.resident_high_water > budget_bytes;
    if (bad > 0 || over || !rep.fallback.empty()) {
      ++res.failed;
      if (bad > 0)
        res.violation("shard_outofcore: pair " + std::to_string(k) + ": " +
                      std::to_string(bad) +
                      " sampled pixels differ from the naive oracle");
      if (over)
        res.violation("shard_outofcore: resident high-water " +
                      std::to_string(out.stream.resident_high_water) +
                      " bytes exceeds the budget of " +
                      std::to_string(budget_bytes));
      if (!rep.fallback.empty())
        res.violation("shard_outofcore: whole-frame fallback: " + rep.fallback);
    }
  }

  if (tracer.enabled()) {
    fold_ledger(tracer, layer);
    const double n = static_cast<double>(traced_ms.size());
    layer["imaging.read_bytes"] = read_bytes / n;
    layer["surface.fits"] = fits / n;
    layer["core.precompute_builds"] = builds / n;
    layer["core.hypotheses"] = (lanes.batched + lanes.tail) / n;
    layer["core.fallbacks"] = lanes.fallbacks / n;
    layer["simd.lane_utilization"] = lanes.utilization();
    layer["simd.tail_hypotheses"] = lanes.tail / n;
    layer["sched.busy_frac"] = sched.busy_frac();
    layer["sched.imbalance"] = sched.imbalance();
    layer["shard.tile_ms_sum"] = tile_sum / n;
    layer["shard.tile_ms_max"] = tile_max / n;
    layer["shard.stitch_ms"] = stitch / n;
    layer["shard.halo_frac"] = halo / n;
    layer["shard.block_hit_rate"] = hits + misses > 0 ? hits / (hits + misses) : 0;
    layer["shard.resident_mib"] = resident / n;
    layer["ledger.trace_overhead_frac"] = trace_overhead(traced_ms, untraced_ms);
    res.layer = layer;
    res.info["stream"] = std::to_string(misses / n) + " block reads, " +
                         std::to_string(hits / n) + " block hits per pair";
  }
  return res;
}

}  // namespace perfbench
