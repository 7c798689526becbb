// layers.hpp — per-layer accounting shared by the workloads: scheduler
// gauges over a window, vector-backend lane tallies and the ledger that
// turns span self times into per-operation metrics.
#pragma once

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "core/match_vector.hpp"
#include "obs/trace.hpp"
#include "sched/scheduler.hpp"

namespace perfbench {

/// Busy time of the shared scheduler pool between begin() and end(),
/// accumulated over several windows (the traced operations).
class SchedWindow {
 public:
  void begin() {
    before_ = sma::sched::ThreadPool::shared().stats();
    t0_ = Clock::now();
  }
  void end() {
    const sma::sched::SchedStats after =
        sma::sched::ThreadPool::shared().stats();
    wall_s_ += ms_between(t0_, Clock::now()) / 1000.0;
    threads_ = after.threads;
    busy_.resize(after.thread_busy_seconds.size(), 0.0);
    for (std::size_t i = 0; i < busy_.size(); ++i) {
      const double b0 = i < before_.thread_busy_seconds.size()
                            ? before_.thread_busy_seconds[i]
                            : 0.0;
      busy_[i] += after.thread_busy_seconds[i] - b0;
    }
  }
  /// busy seconds / (threads x wall seconds).
  double busy_frac() const {
    double busy = 0.0;
    for (double b : busy_) busy += b;
    return threads_ > 0 && wall_s_ > 0.0 ? busy / (threads_ * wall_s_) : 0.0;
  }
  /// Busiest thread over least busy thread (1 = perfectly even).
  double imbalance() const {
    if (busy_.empty()) return 0.0;
    const auto [lo, hi] = std::minmax_element(busy_.begin(), busy_.end());
    return *lo > 0.0 ? *hi / *lo : 0.0;
  }

 private:
  sma::sched::SchedStats before_;
  Clock::time_point t0_;
  double wall_s_ = 0.0;
  int threads_ = 0;
  std::vector<double> busy_;
};

/// Lane occupancy summed over the vector backend's reports.
struct LaneTally {
  double batched = 0.0;
  double tail = 0.0;
  double fallbacks = 0.0;
  std::map<std::string, double> fallback_reasons;

  void add(const sma::core::VectorRunReport& r) {
    batched += static_cast<double>(r.batched_hypotheses);
    tail += static_cast<double>(r.tail_hypotheses);
    if (!r.vector_path) {
      fallbacks += 1.0;
      fallback_reasons[r.fallback] += 1.0;
    }
  }
  double utilization() const {
    return batched + tail > 0.0 ? batched / (batched + tail) : 0.0;
  }
};

/// The program's own backend trace events (obs::TraceRecorder) over one
/// traced call: installed at construction when `on`, removed by stop().
/// Each frame_geometry event fits the surfaces of both frames of a pair;
/// each match_precompute event is one precompute build.
class BackendEvents {
 public:
  explicit BackendEvents(bool on) {
    if (!on) return;
    rec_ = std::make_unique<sma::obs::TraceRecorder>();
    sma::obs::set_trace_recorder(rec_.get());
  }
  ~BackendEvents() { stop(); }
  BackendEvents(const BackendEvents&) = delete;
  BackendEvents& operator=(const BackendEvents&) = delete;

  /// Un-installs the recorder; returns the "backend" events it holds.
  std::vector<sma::obs::TraceEvent> stop() {
    std::vector<sma::obs::TraceEvent> out;
    if (!rec_) return out;
    sma::obs::set_trace_recorder(nullptr);
    for (const sma::obs::TraceEvent& e : rec_->events())
      if (std::strcmp(e.category, "backend") == 0) out.push_back(e);
    rec_.reset();
    return out;
  }

  static bool is(const sma::obs::TraceEvent& e, const char* name) {
    return std::strcmp(e.name, name) == 0;
  }

 private:
  std::unique_ptr<sma::obs::TraceRecorder> rec_;
};

/// Every per-layer metric with its unit.  Each run of --trace 1 reports
/// the full set; a metric a workload does not exercise reads 0.
inline const std::vector<std::pair<std::string, std::string>>&
layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> kUnits = {
      {"imaging.read_ms", "ms"},           {"imaging.read_bytes", "bytes"},
      {"imaging.flow_write_ms", "ms"},     {"surface.fit_ms", "ms"},
      {"surface.fits", "count"},           {"core.geomvars_ms", "ms"},
      {"core.cache_hit_rate", "ratio"},    {"core.precompute_ms", "ms"},
      {"core.precompute_builds", "count"}, {"core.semifluid_ms", "ms"},
      {"core.fallbacks", "count"},         {"core.match_ms", "ms"},
      {"core.hypotheses", "count"},        {"simd.lane_utilization", "ratio"},
      {"simd.tail_hypotheses", "count"},   {"prune.seed_ms", "ms"},
      {"prune.hypothesis_reduction", "ratio"},
      {"core.postprocess_ms", "ms"},       {"sched.busy_frac", "ratio"},
      {"sched.imbalance", "ratio"},        {"shard.tile_ms_sum", "ms"},
      {"shard.tile_ms_max", "ms"},         {"shard.stitch_ms", "ms"},
      {"shard.halo_frac", "ratio"},        {"shard.block_hit_rate", "ratio"},
      {"shard.resident_mib", "MiB"},       {"serve.send_ms", "ms"},
      {"serve.wait_ms", "ms"},             {"serve.recv_ms", "ms"},
      {"serve.server_ms", "ms"},           {"serve.queue_depth_max", "count"},
      {"serve.dedup_hit_rate", "ratio"},   {"serve.coalesce_frac", "ratio"},
      {"serve.batch_mean", "count"},       {"serve.reject_frac", "ratio"},
      {"serve.server_vs_inprocess", "ratio"},
      {"ledger.sum_ms", "ms"},             {"ledger.unaccounted_ms", "ms"},
      {"ledger.trace_overhead_frac", "ratio"}};
  return kUnits;
}

inline std::map<std::string, double> empty_layer_metrics() {
  std::map<std::string, double> m;
  for (const auto& [name, unit] : layer_metric_units()) m[name] = 0.0;
  return m;
}

/// Folds the tracer's per-layer self times into `out` as milliseconds
/// per traced operation.  The root span of every operation books to the
/// "ledger.unaccounted" layer: the part of the operation no layer call
/// covers.  ledger.sum_ms is the sum over every other layer.
inline void fold_ledger(const Tracer& tracer,
                        std::map<std::string, double>& out) {
  const double ops = static_cast<double>(std::max<std::size_t>(tracer.ops(), 1));
  std::map<std::string, double> per_layer_ms;
  double sum = 0.0;
  for (const auto& [layer, ms] : tracer.self_ms()) {
    per_layer_ms[layer] = ms / ops;
    if (layer == "ledger.unaccounted")
      out["ledger.unaccounted_ms"] = ms / ops;
    else
      sum += ms / ops;
  }
  out["ledger.sum_ms"] = sum;
  // Layers whose metric is exactly their self time.
  for (const auto& [layer, metric] :
       std::map<std::string, std::string>{
           {"imaging.read", "imaging.read_ms"},
           {"imaging.flow_write", "imaging.flow_write_ms"},
           {"surface.fit", "surface.fit_ms"},
           {"core.geomvars", "core.geomvars_ms"},
           {"core.precompute", "core.precompute_ms"},
           {"core.semifluid", "core.semifluid_ms"},
           {"core.match", "core.match_ms"},
           {"core.postprocess", "core.postprocess_ms"},
           {"prune.seed", "prune.seed_ms"}}) {
    const auto it = per_layer_ms.find(layer);
    if (it != per_layer_ms.end()) out[metric] = it->second;
  }
}

/// Trace overhead: median traced operation over median untraced one,
/// minus one.
inline double trace_overhead(const std::vector<double>& traced_ms,
                             const std::vector<double>& untraced_ms) {
  const double u = median(untraced_ms);
  return u > 0.0 ? median(traced_ms) / u - 1.0 : 0.0;
}

}  // namespace perfbench
