#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>
#include <set>

#include "bench.hpp"

namespace perfbench {

int Tracer::open(std::uint64_t op, int parent, const char* layer,
                 const char* name, double t0_ms) {
  if (!enabled_) return -1;
  Span s;
  s.op = op;
  s.parent = parent;
  s.layer = layer;
  s.name = name;
  s.t0 = t0_ms >= 0.0 ? t0_ms : now();
  s.t1 = s.t0;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::close(int index) {
  if (index < 0) return;
  const double t = now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].t1 = t;
}

void Tracer::reported(std::uint64_t op, int parent, const char* layer,
                      const char* name, double duration_ms) {
  if (!enabled_ || parent < 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  Span s;
  s.op = op;
  s.parent = parent;
  s.layer = layer;
  s.name = name;
  s.t0 = spans_[static_cast<std::size_t>(parent)].t0;
  s.t1 = s.t0 + std::max(0.0, duration_ms);
  s.reported = true;
  spans_.push_back(std::move(s));
}

std::map<std::string, double> Tracer::self_ms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.layer] += std::max(0.0, (s.t1 - s.t0) - child[i]);
  }
  return out;
}

std::size_t Tracer::ops() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::set<std::uint64_t> ids;
  for (const Span& s : spans_) ids.insert(s.op);
  return ids.size();
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& s : spans_)
    out << "{\"op\":" << s.op << ",\"parent\":" << s.parent
        << ",\"layer\":\"" << s.layer << "\",\"name\":\"" << s.name
        << "\",\"t0_ms\":" << s.t0 << ",\"t1_ms\":" << s.t1
        << ",\"reported\":" << (s.reported ? "true" : "false") << "}\n";
  return static_cast<bool>(out);
}

Tracer& untraced() {
  static Tracer off(false);
  return off;
}

double peak_rss_mib() {
  // VmHWM rather than getrusage: ru_maxrss also holds the high-water
  // the process inherited at exec (the launching Python's, under run.py)
  // and ignores reset_peak_rss().
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // KiB -> MiB
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void reset_peak_rss(RunResult& res) {
  std::ofstream out("/proc/self/clear_refs");
  out << "5" << std::flush;  // "5": reset the peak RSS to the current RSS
  if (!out)
    res.info["peak_rss"] = "high-water reset unavailable: peak_rss_mib "
                           "includes input synthesis and the oracle";
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i =
      static_cast<std::size_t>(std::clamp(rank, 1.0, double(v.size()))) - 1;
  return v[i];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double tail(std::vector<double> v, std::string& label) {
  const std::size_t n = v.size();
  if (n < 20) {
    label = "p50";
    return median(std::move(v));
  }
  // Exactly ten samples lie above the returned one.
  std::sort(v.begin(), v.end());
  char buf[32];
  std::snprintf(buf, sizeof(buf), "p%.1f", 100.0 * double(n - 10) / double(n));
  label = buf;
  return v[n - 11];
}

std::vector<std::pair<int, int>> sample_pixels(int width, int height,
                                               int count, int margin,
                                               std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> dx(margin, width - 1 - margin);
  std::uniform_int_distribution<int> dy(margin, height - 1 - margin);
  std::vector<std::pair<int, int>> out;
  for (int i = 0; i < count; ++i) out.emplace_back(dx(rng), dy(rng));
  return out;
}

}  // namespace perfbench
