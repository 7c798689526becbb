// bench.hpp — shared pieces of the benchmark program: run options,
// the per-run result every workload fills, the span tracer behind the
// per-layer ledger, and small statistics helpers.
//
// The benchmark measures the program only through its public entry points.
// Spans are recorded here, around the calls the benchmark makes into
// each layer; work that runs inside one of those calls is booked from
// the counters the program already exports (PipelineStats, TrackTimings,
// ShardReport, the server's per-response wall clock) as "reported"
// child spans of the call that contained it.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct RunOptions {
  std::string workload;
  std::uint32_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_build/perfbench/work";
  std::string trace_out;  ///< span dump written at exit ("" = none)
  int nproc = 1;
};

/// One recorded span.  Times are milliseconds since the tracer's epoch.
struct Span {
  std::uint64_t op = 0;     ///< operation (pair / sequence / request) id
  int parent = -1;          ///< index of the enclosing span, -1 = root
  std::string layer;        ///< ledger layer the span's self time books to
  std::string name;         ///< the public call (or reported phase)
  double t0 = 0.0, t1 = 0.0;
  bool reported = false;    ///< duration taken from a program counter
};

/// In-memory span store.  Thread-safe: the serve workload records from
/// its connection threads.  A disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}
  bool enabled() const { return enabled_; }
  double now() const { return at(Clock::now()); }
  double at(Clock::time_point tp) const { return ms_between(epoch_, tp); }

  /// Opens a span now, or at `t0_ms` (tracer time) when given; returns
  /// its index (-1 when disabled).
  int open(std::uint64_t op, int parent, const char* layer, const char* name,
           double t0_ms = -1.0);
  void close(int index);
  /// A child of `parent` whose duration the program reported.  It is
  /// placed at the start of the parent; only its length enters the
  /// ledger.
  void reported(std::uint64_t op, int parent, const char* layer,
                const char* name, double duration_ms);

  /// Per-layer self time: each span's duration minus the durations of
  /// its children, summed per layer over every recorded span.
  std::map<std::string, double> self_ms() const;
  /// Number of distinct ops with at least one span.
  std::size_t ops() const;
  /// Writes every span as one JSON object per line.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// A tracer that never records: the untraced operations of a traced
/// run pass this one to the same code path.
Tracer& untraced();

/// RAII span around one public call.
class Scope {
 public:
  Scope(Tracer& tracer, std::uint64_t op, int parent, const char* layer,
        const char* name, double t0_ms = -1.0)
      : tracer_(tracer), index_(tracer.open(op, parent, layer, name, t0_ms)) {}
  ~Scope() { tracer_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int index() const { return index_; }

 private:
  Tracer& tracer_;
  int index_;
};

/// What one workload run produced.  Latencies are per operation; the
/// layer map carries the traced run's per-layer metrics.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;  ///< correctness-gate failures
  std::vector<double> setup_s;          ///< one entry per set-up repeat
  std::vector<double> op_ms;            ///< per-operation latency
  std::vector<double> op_pixels_per_s;  ///< per-operation throughput
  double pixels_per_s = 0.0;            ///< set directly by open loops
  double max_rate_rps = 0.0;
  std::map<std::string, double> layer;
  std::map<std::string, std::string> info;  ///< config facts, printed

  void violation(const std::string& what) {
    if (violations.size() < 20) violations.push_back(what);
  }
};

/// Set-up is timed at least kSetupRepeats times and for at least
/// kSetupWindowS seconds, and setup_s is the median.  In about half of
/// the runs on the reference host, any process (a plain compute loop
/// too) runs several times slower for its first second or so (see
/// README); the window keeps that episode a minority of the samples,
/// and main() reports how many it hit.
constexpr int kSetupRepeats = 5;
constexpr double kSetupWindowS = 2.0;

/// Runs `once` (which performs one set-up and returns its seconds) as
/// often as the rule above asks, recording every duration.
template <class Fn>
void time_setup(RunResult& res, Fn&& once) {
  const auto start = Clock::now();
  while (static_cast<int>(res.setup_s.size()) < kSetupRepeats ||
         ms_between(start, Clock::now()) < 1000.0 * kSetupWindowS)
    res.setup_s.push_back(once());
}

/// Process high-water RSS (VmHWM) since start or the last reset.
double peak_rss_mib();

/// Resets the high-water RSS to the current RSS, so that peak_rss_mib
/// covers the program from here on and not the benchmark's own input
/// synthesis and oracle.  Every workload calls it once, after those and
/// before its set-up; a host that refuses the reset is noted in `res`.
void reset_peak_rss(RunResult& res);

double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// The latency tail: the highest percentile with at least ten samples
/// above it, never below the median (so the median when fewer than
/// twenty samples exist).  `label` receives it, e.g. "p95.0".
double tail(std::vector<double> v, std::string& label);

/// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> v, double q);

/// Seeded sample of `count` pixels at least `margin` from every edge.
std::vector<std::pair<int, int>> sample_pixels(int width, int height,
                                               int count, int margin,
                                               std::uint32_t seed);

RunResult run_goes_cont_pair(const RunOptions& opt, Tracer& tracer);
RunResult run_frederic_semi_seq(const RunOptions& opt, Tracer& tracer);
RunResult run_shard_outofcore(const RunOptions& opt, Tracer& tracer);
RunResult run_serve_mixed(const RunOptions& opt, Tracer& tracer);

}  // namespace perfbench
