// sma_perfbench — the repository benchmark program.
//
//   sma_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--workdir DIR] [--trace-out FILE]
//
// Runs one workload for S timed seconds on inputs generated from the
// seed, checks every output against its correctness gate, and prints a
// human-readable report followed by one JSON line:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...},
//    "fingerprint": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1
// they are the per-layer ledger of a traced run.  Exit status: 0 when
// every gate held, 1 on a correctness violation, 2 on bad usage.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "core/match_vector.hpp"
#include "layers.hpp"
#include "sched/scheduler.hpp"
#include "simd/dispatch.hpp"

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace {

using namespace perfbench;

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  return "unknown";
}

/// Host fingerprint: results are comparable only when these agree.
std::map<std::string, std::string> fingerprint(int nproc) {
  namespace simd = sma::simd;
  const simd::SimdLevel level =
      sma::core::resolve_kernel_level(simd::active_level());
  std::map<std::string, std::string> f;
  f["nproc"] = std::to_string(nproc);
  f["cpu_model"] = cpu_model();
  f["simd_level"] = simd::level_name(level);
  f["simd_lanes"] = std::to_string(sma::core::kernel_lanes(level));
  f["compiler"] = std::string("gcc-compatible ") + __VERSION__;
  f["cxx_flags"] = PERFBENCH_CXX_FLAGS;
  f["pool_width"] =
      std::to_string(sma::sched::ThreadPool::shared().threads());
  return f;
}

void usage() {
  std::fprintf(stderr,
               "usage: sma_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--workdir DIR] [--trace-out FILE]\n"
               "workloads: goes_cont_pair frederic_semi_seq "
               "shard_outofcore serve_mixed\n");
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  opt.nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) {
      usage();
      return 2;
    }
    const std::string v = argv[++i];
    if (a == "--workload") opt.workload = v;
    else if (a == "--seed") opt.seed = static_cast<std::uint32_t>(std::stoul(v));
    else if (a == "--seconds") opt.seconds = std::stod(v);
    else if (a == "--trace") { opt.trace = v == "1"; have_trace = true; }
    else if (a == "--workdir") opt.workdir = v;
    else if (a == "--trace-out") opt.trace_out = v;
    else {
      usage();
      return 2;
    }
  }
  if (opt.workload.empty() || !have_trace || opt.seconds <= 0.0) {
    usage();
    return 2;
  }

  Tracer tracer(opt.trace);
  RunResult res;
  try {
    if (opt.workload == "goes_cont_pair") res = run_goes_cont_pair(opt, tracer);
    else if (opt.workload == "frederic_semi_seq") res = run_frederic_semi_seq(opt, tracer);
    else if (opt.workload == "shard_outofcore") res = run_shard_outofcore(opt, tracer);
    else if (opt.workload == "serve_mixed") res = run_serve_mixed(opt, tracer);
    else {
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sma_perfbench: %s: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  if (!opt.trace_out.empty() && tracer.enabled() && !tracer.write(opt.trace_out))
    std::fprintf(stderr, "sma_perfbench: cannot write %s\n",
                 opt.trace_out.c_str());

  const auto fp = fingerprint(opt.nproc);
  std::printf("workload %s  seed %u  seconds %g  trace %d\n",
              opt.workload.c_str(), opt.seed, opt.seconds, opt.trace ? 1 : 0);
  for (const auto& [k, v] : fp) std::printf("  host.%s = %s\n", k.c_str(), v.c_str());
  for (const auto& [k, v] : res.info) std::printf("  %s: %s\n", k.c_str(), v.c_str());

  std::vector<Metric> metrics;
  std::string tail_label;
  const double tail_ms = tail(res.op_ms, tail_label);
  const double failed_frac =
      res.attempted > 0 ? double(res.failed) / double(res.attempted) : 1.0;
  if (!opt.trace) {
    const double pps = res.pixels_per_s > 0.0 ? res.pixels_per_s
                                              : median(res.op_pixels_per_s);
    const double rate = res.max_rate_rps > 0.0
                            ? res.max_rate_rps
                            : 1000.0 / std::max(1e-9, median(res.op_ms));
    metrics = {{"setup_s", median(res.setup_s), "s"},
               {"pixels_per_s", pps, "1/s"},
               {"latency_ms_p50", median(res.op_ms), "ms"},
               {"latency_ms_tail", tail_ms, "ms"},
               {"max_rate_rps", rate, "1/s"},
               {"peak_rss_mib", peak_rss_mib(), "MiB"}};
    std::printf("  latency_ms_tail is %s of %zu samples\n", tail_label.c_str(),
                res.op_ms.size());
    std::printf("  operation ms: min %.3f  q1 %.3f  median %.3f  q3 %.3f  "
                "max %.3f\n",
                percentile(res.op_ms, 0.0), percentile(res.op_ms, 0.25),
                median(res.op_ms), percentile(res.op_ms, 0.75),
                percentile(res.op_ms, 1.0));
    const double setup_med = median(res.setup_s);
    const auto slow = std::count_if(res.setup_s.begin(), res.setup_s.end(),
                                    [&](double v) { return v > 3.0 * setup_med; });
    std::printf("  setup_s: %zu set-ups, min %.4f  median %.4f  max %.4f s; "
                "%td slow (over 3x the median)\n",
                res.setup_s.size(), percentile(res.setup_s, 0.0), setup_med,
                percentile(res.setup_s, 1.0), slow);
    std::printf("  failed_frac = %.6f  (%llu of %llu operations)\n",
                failed_frac, static_cast<unsigned long long>(res.failed),
                static_cast<unsigned long long>(res.attempted));
  } else {
    std::printf("  ledger (self ms per traced operation, %zu operations):\n",
                tracer.ops());
    const double ops = static_cast<double>(std::max<std::size_t>(tracer.ops(), 1));
    for (const auto& [layer, ms] : tracer.self_ms())
      std::printf("    %-22s %12.3f\n", layer.c_str(), ms / ops);
    for (const auto& [name, unit] : layer_metric_units()) {
      const auto it = res.layer.find(name);
      metrics.push_back({name, it != res.layer.end() ? it->second : 0.0, unit});
    }
  }
  for (const Metric& m : metrics)
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const std::string& v : res.violations)
    std::printf("  VIOLATION: %s\n", v.c_str());
  const bool correct = res.failed == 0 && res.violations.empty() &&
                       res.attempted > 0;
  std::printf("  verdict: %s\n", correct ? "PASS" : "FAIL");

  std::ostringstream js;
  js.precision(17);
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << res.attempted << ", \"failed\": " << res.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    js << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
       << metrics[i].value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  js << "}, \"fingerprint\": {";
  bool first = true;
  for (const auto& [k, v] : fp) {
    js << (first ? "" : ", ") << '"' << k << "\": \"" << json_escape(v) << '"';
    first = false;
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
