// serve_mixed — an in-process serve::Server on loopback driven by an open
// loop on a seeded fixed schedule.  Three tenants send one-shot TRACK
// requests on 64x64 pairs drawn from a small pool that shares frames
// (smode=pruned, r=1); a fourth tenant streams a SEQ session at a fixed
// cadence (full search).  Every request is timed from when it was due.
//
// One generator thread walks the schedule and hands each request, at its
// due time, to the connection of its tenant (one serve::Client per
// tenant, four connections = nproc).  The steady phase holds the nominal
// rate and gives the latency and throughput metrics.  The ramp then steps
// the TRACK rate up past what the server can answer; from then on the
// client sheds ramp requests that would take the backlog past kBacklogCap,
// and the TRACK answer rate of the saturated server is the highest rate
// it serves without a growing backlog.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "core/match_prune.hpp"
#include "core/match_vector.hpp"
#include "core/pipeline.hpp"
#include "goes/datasets.hpp"
#include "imaging/flow.hpp"
#include "layers.hpp"
#include "sched/scheduler.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace perfbench {
namespace {

namespace core = sma::core;
namespace serve = sma::serve;
using sma::imaging::ImageF;

constexpr int kEdge = 64;              // frame edge of every request
constexpr int kPoolFrames = 8;         // distinct frames behind the pool
constexpr int kSeqFrames = 8;          // frames per SEQ session
constexpr int kTenants = 3;            // one-shot TRACK tenants
// The steady phase keeps the server about 13% busy, so the latency tail
// (about p80 of its ~50 TRACK samples) lies among requests that did not
// queue; a tail straddling queued and unqueued requests jumps between
// runs.
constexpr double kNominalRps = 3.0;     // TRACK rate of the steady phase
constexpr double kSeqCadenceMs = 2000.0; // one SEQ frame per cadence
constexpr double kSteadyShare = 0.7;    // share of the run at the nominal rate
// Outstanding requests the client allows once the ramp has saturated the
// server: at ~30 ms per request this keeps queueing under ~0.4 s.
constexpr int kBacklogCap = 12;
constexpr double kLateLimitMs = 20.0;  // generator lateness bound (p99)
// Ramp steps as multiples of the nominal TRACK rate (x1.5 apart, 0.5 s
// each); the last one holds until the run ends.
constexpr double kSteps[] = {2.0, 3.0, 4.5, 6.75, 10.1, 15.2, 22.8};
constexpr double kStepMs = 500.0;
// One request worker owning the whole scheduler pool: workers x
// sched_threads = nproc on the 4-core reference host.
constexpr std::size_t kWorkers = 1;
constexpr int kSchedThreads = 4;
// Server TRACK time over in-process time on the same pairs above which
// the run is flagged as having hit the slow mode (see run_serve_mixed).
constexpr double kSlowRatio = 1.6;

using Frame = std::vector<std::uint8_t>;

Frame to_u8(const ImageF& img) {
  Frame out(static_cast<std::size_t>(img.width()) * img.height());
  for (int y = 0; y < img.height(); ++y)
    for (int x = 0; x < img.width(); ++x)
      out[static_cast<std::size_t>(y) * img.width() + x] = static_cast<std::uint8_t>(
          std::clamp(std::lround(img.at(x, y)), 0L, 255L));
  return out;
}

ImageF to_image(const Frame& f) {
  ImageF img(kEdge, kEdge);
  for (int y = 0; y < kEdge; ++y)
    for (int x = 0; x < kEdge; ++x)
      img.at(x, y) = f[static_cast<std::size_t>(y) * kEdge + x];
  return img;
}

serve::TrackRequest base_request(bool pruned) {
  serve::TrackRequest r;
  r.width = kEdge;
  r.height = kEdge;
  r.model = "cont";
  r.fit_radius = 2;
  r.search_radius = 3;    // 7x7 search
  r.template_radius = 3;  // 7x7 template
  r.nss = 0;
  r.nst = 0;
  if (pruned) r.search_mode = "pruned";
  return r;
}

enum class Kind { kTrack, kSeqOpen, kSeqFrame, kSeqClose };

/// One scheduled message and, after the run, what happened to it.
struct Item {
  double due_ms = 0.0;   // since the schedule start
  int conn = 0;          // 0..kTenants-1 TRACK tenants, kTenants = SEQ
  Kind kind = Kind::kTrack;
  int pair = -1;         // TRACK: pool pair; SEQ-FRAME: frame in session
  int step = -1;         // -1 = steady phase, else ramp step
  bool traced = false;
  bool sent = false;     // false: shed by the client at the backlog cap
  // Filled by the connection thread.
  double start_ms = 0.0, done_ms = 0.0;
  double send_ms = 0.0, recv_ms = 0.0;  // SEQ frames only
  serve::TrackResponse resp;  // payload dropped once checked
  bool transport_error = false;
  bool payload_ok = false;      // payload equals the expected bytes
};

/// FIFO of item indices for one connection thread.
class Inbox {
 public:
  void push(std::size_t i) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      q_.push_back(i);
    }
    cv_.notify_one();
  }
  /// Blocks; nullopt once closed and drained.
  std::optional<std::size_t> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return closed_ || !q_.empty(); });
    if (q_.empty()) return std::nullopt;
    const std::size_t i = q_.front();
    q_.pop_front();
    return i;
  }
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    cv_.notify_one();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::size_t> q_;
  bool closed_ = false;
};

struct Inputs {
  std::vector<Frame> pool;                 // kPoolFrames frames
  std::vector<std::pair<int, int>> pairs;  // pool pairs (before, after)
  std::vector<Frame> seq;                  // kSeqFrames session frames
};

Inputs make_inputs(std::uint32_t seed) {
  Inputs in;
  for (const ImageF& f :
       sma::goes::make_florida_analog(kEdge, kPoolFrames, seed).frames)
    in.pool.push_back(to_u8(f));
  // Consecutive frames tracked forwards and backwards: every pair spans
  // one frame interval (the motion the search window is sized for), and
  // frames are shared between pairs.
  for (int i = 0; i + 1 < kPoolFrames; ++i) {
    in.pairs.emplace_back(i, i + 1);
    in.pairs.emplace_back(i + 1, i);
  }
  for (const ImageF& f :
       sma::goes::make_florida_analog(kEdge, kSeqFrames, seed + 17u).frames)
    in.seq.push_back(to_u8(f));
  return in;
}

/// The payload every `ok` response must carry: the in-process pipeline's
/// flow for the same frames and config, serialized the same way.
struct Expected {
  std::vector<std::string> track;        // per pool pair
  std::vector<std::string> seq;          // per session frame ("" for the first)
  std::vector<core::PruneReport> prune;  // per pool pair
  std::vector<double> track_ms;          // in-process time per pool pair
};

Expected make_expected(const Inputs& in) {
  Expected e;
  const auto run = [&e](core::SmaPipeline& p, const Frame& before,
                        const Frame& after, core::PruneReport* prune) {
    const ImageF b = to_image(before), a = to_image(after);
    core::TrackerInput tin;
    tin.intensity_before = tin.surface_before = &b;
    tin.intensity_after = tin.surface_after = &a;
    const auto t0 = Clock::now();
    const core::TrackResult r = p.track_pair(tin);
    if (prune != nullptr) e.track_ms.push_back(ms_between(t0, Clock::now()));
    if (prune != nullptr)
      if (const auto* x =
              dynamic_cast<const core::VectorBackendExtras*>(r.extras.get()))
        *prune = x->prune;
    std::ostringstream os;
    sma::imaging::write_flow_text(r.flow, os);
    return os.str();
  };
  core::PipelineOptions o;
  o.backend = "vector";
  core::SmaPipeline track(serve::PipelineManager::config_from(base_request(true)), o);
  core::SmaPipeline seq(serve::PipelineManager::config_from(base_request(false)), o);
  e.prune.resize(in.pairs.size());
  for (std::size_t k = 0; k < in.pairs.size(); ++k)
    e.track.push_back(run(track, in.pool[static_cast<std::size_t>(in.pairs[k].first)],
                          in.pool[static_cast<std::size_t>(in.pairs[k].second)],
                          &e.prune[k]));
  e.seq.emplace_back();
  for (std::size_t j = 1; j < in.seq.size(); ++j)
    e.seq.push_back(run(seq, in.seq[j - 1], in.seq[j], nullptr));
  return e;
}

/// Where each moment of a run falls: the steady phase, then the ramp's
/// steps, the last of which lasts until the end.
struct Phases {
  double steady_ms, end_ms;
  explicit Phases(double seconds)
      : steady_ms(1000.0 * kSteadyShare * seconds), end_ms(1000.0 * seconds) {}
  /// -1 in the steady phase, else the ramp step.
  int step(double t) const {
    return t < steady_ms ? -1
                         : std::min(static_cast<int>((t - steady_ms) / kStepMs),
                                    static_cast<int>(std::size(kSteps)) - 1);
  }
  double rate(int step) const {
    return kNominalRps * (step < 0 ? 1.0 : kSteps[step]);
  }
};

/// The seeded schedule.  Each TRACK tenant sends at a third of the
/// current rate: one request at a uniformly random moment of every
/// period, so the count is fixed and the phases are not.  SEQ frames
/// come at a fixed cadence in back-to-back sessions.
std::vector<Item> make_schedule(std::uint32_t seed, const Phases& ph) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> jitter(0.0, 1.0);
  std::uniform_int_distribution<int> pick(0, 2 * (kPoolFrames - 1) - 1);
  std::vector<Item> items;
  for (int tenant = 0; tenant < kTenants; ++tenant) {
    double slot = 0.0;
    while (slot < ph.end_ms) {
      const double period = 1000.0 * kTenants / ph.rate(ph.step(slot));
      Item it;
      it.due_ms = slot + jitter(rng) * period;
      it.conn = tenant;
      it.pair = pick(rng);
      it.step = ph.step(it.due_ms);
      if (it.due_ms < ph.end_ms) items.push_back(it);
      slot += period;
    }
  }
  int frame = 0;
  for (double t = 0.0; t < ph.end_ms; t += kSeqCadenceMs) {
    Item it;
    it.due_ms = t;
    it.conn = kTenants;
    it.step = ph.step(t);
    if (frame == 0) {
      it.kind = Kind::kSeqOpen;
      items.push_back(it);
    }
    it.kind = Kind::kSeqFrame;
    it.pair = frame;
    items.push_back(it);
    if (++frame == kSeqFrames) {
      it.kind = Kind::kSeqClose;
      it.pair = -1;
      items.push_back(it);
      frame = 0;
    }
  }
  if (frame != 0) {  // close the last, partial session
    Item it = items.back();
    it.kind = Kind::kSeqClose;
    it.pair = -1;
    items.push_back(it);
  }
  std::stable_sort(items.begin(), items.end(),
                   [](const Item& a, const Item& b) { return a.due_ms < b.due_ms; });
  return items;
}

serve::ServeOptions serve_options() {
  serve::ServeOptions o;
  o.port = 0;
  o.workers = kWorkers;
  o.sched_threads = kSchedThreads;
  o.backend = "vector";
  return o;
}

/// Starts a server and returns it once a first TRACK has been answered.
std::unique_ptr<serve::Server> start_server(const Inputs& in) {
  auto server = std::make_unique<serve::Server>(serve_options());
  server->start();
  server->run_in_thread();
  serve::Client c;
  c.connect("127.0.0.1", server->port());
  serve::TrackRequest r = base_request(true);
  r.id = 1;
  r.tenant = "setup";
  r.before = in.pool[0];
  r.after = in.pool[1];
  c.track(r);
  c.quit();
  return server;
}

void stop_server(serve::Server& server) {
  server.request_drain();
  server.wait();
}

double outcome_sum(serve::Server& s) {
  double sum = 0.0;
  for (serve::Outcome o :
       {serve::Outcome::kOk, serve::Outcome::kDegraded,
        serve::Outcome::kRejected, serve::Outcome::kDeadline,
        serve::Outcome::kError})
    sum += s.outcome_count(o);
  return sum;
}

double metric_value(serve::Server& s, const std::string& name) {
  const auto snap = s.metrics().snapshot();
  const sma::obs::MetricSnapshot* m = sma::obs::find_metric(snap, name);
  return m != nullptr ? m->value : 0.0;
}

std::uint64_t histogram_count(serve::Server& s, const std::string& name) {
  const auto snap = s.metrics().snapshot();
  const sma::obs::MetricSnapshot* m = sma::obs::find_metric(snap, name);
  return m != nullptr ? m->count : 0;
}

/// Runs one connection's messages in order.  Never throws: a failed
/// connection marks its messages as transport errors.
void connection_main(int port, int conn, Inbox& inbox, std::vector<Item>& items,
                     const Inputs& in, const Expected& expected,
                     Clock::time_point t0, Tracer& tracer,
                     std::atomic<int>& completed) {
  serve::Client client;
  try {
    client.connect("127.0.0.1", port);
  } catch (const std::exception&) {
  }
  const std::string tenant =
      conn < kTenants ? "tenant-" + std::to_string(conn) : "stream";
  const serve::TrackRequest track_base = base_request(true);
  const serve::TrackRequest seq_base = base_request(false);
  std::uint64_t next_id = 1;
  while (const std::optional<std::size_t> idx = inbox.pop()) {
    Item& it = items[*idx];
    Tracer& t = it.traced ? tracer : untraced();
    const std::uint64_t op = *idx + 1;
    const auto start = Clock::now();
    it.start_ms = ms_between(t0, start);
    Scope root(t, op, -1, "ledger.unaccounted", "request",
               tracer.at(t0) + it.due_ms);
    t.reported(op, root.index(), "serve.dispatch", "due_to_send",
               it.start_ms - it.due_ms);
    try {
      switch (it.kind) {
        case Kind::kTrack: {
          serve::TrackRequest r = track_base;
          r.id = next_id++;
          r.tenant = tenant;
          r.before = in.pool[static_cast<std::size_t>(in.pairs[it.pair].first)];
          r.after = in.pool[static_cast<std::size_t>(in.pairs[it.pair].second)];
          Scope s(t, op, root.index(), "serve.client", "Client::track");
          it.resp = client.track(r);
          t.reported(op, s.index(), "serve.server", "wall_ms", it.resp.wall_ms);
          break;
        }
        case Kind::kSeqOpen: {
          serve::TrackRequest r = seq_base;
          r.id = next_id++;
          r.tenant = tenant;
          Scope s(t, op, root.index(), "serve.client", "Client::seq_open");
          it.resp = client.seq_open(r);
          break;
        }
        case Kind::kSeqFrame: {
          const std::uint64_t id = next_id++;
          {
            Scope s(t, op, root.index(), "serve.send", "Client::seq_frame_send");
            client.seq_frame_send(id, kEdge, kEdge,
                                  in.seq[static_cast<std::size_t>(it.pair)]);
          }
          const auto sent = Clock::now();
          it.send_ms = ms_between(start, sent);
          Scope s(t, op, root.index(), "serve.recv", "Client::read_response");
          it.resp = client.read_response();
          it.recv_ms = ms_between(sent, Clock::now());
          t.reported(op, s.index(), "serve.server", "wall_ms", it.resp.wall_ms);
          break;
        }
        case Kind::kSeqClose: {
          Scope s(t, op, root.index(), "serve.client", "Client::seq_close");
          it.resp = client.seq_close(next_id++);
          break;
        }
      }
    } catch (const std::exception&) {
      it.transport_error = true;
    }
    it.done_ms = ms_between(t0, Clock::now());
    // Check the bytes now and drop them, so the run holds no payloads.
    if (it.kind == Kind::kTrack)
      it.payload_ok = it.resp.payload ==
                      expected.track[static_cast<std::size_t>(it.pair)];
    else if (it.kind == Kind::kSeqFrame)
      it.payload_ok = it.resp.payload ==
                      expected.seq[static_cast<std::size_t>(it.pair)];
    else
      it.payload_ok = it.resp.payload.empty();
    std::string().swap(it.resp.payload);
    completed.fetch_add(1, std::memory_order_release);
  }
  try {
    client.quit();
  } catch (const std::exception&) {
  }
}

bool is_timed(const Item& it) {
  return it.kind == Kind::kTrack || it.kind == Kind::kSeqFrame;
}

bool item_ok(const Item& it) {
  return it.sent && !it.transport_error &&
         it.resp.outcome == serve::Outcome::kOk;
}

}  // namespace

RunResult run_serve_mixed(const RunOptions& opt, Tracer& tracer) {
  RunResult res;
  const Inputs in = make_inputs(opt.seed * 1000u);
  const Phases ph(opt.seconds);
  std::vector<Item> items = make_schedule(opt.seed * 7919u + 3u, ph);
  res.info["config"] =
      "workers=" + std::to_string(kWorkers) + " sched_threads=" +
      std::to_string(kSchedThreads) + " backend=vector batching=on; TRACK: "
      "F_cont 7x7 search 7x7 template smode=pruned r=1; SEQ: same config, "
      "full search";
  res.info["load"] = "open loop, " + std::to_string(kTenants) +
                     " jittered TRACK tenants at " +
                     std::to_string(kNominalRps) + " req/s total, one SEQ "
                     "frame every " + std::to_string(kSeqCadenceMs) +
                     " ms; then a TRACK ramp x2..x23 shedding beyond " +
                     std::to_string(kBacklogCap) + " outstanding requests";
  res.info["frames"] = std::to_string(in.pairs.size()) + " TRACK pairs over " +
                       std::to_string(kPoolFrames) + " distinct " +
                       std::to_string(kEdge) + "x" + std::to_string(kEdge) +
                       " frames (frame-share ratio " +
                       std::to_string(2.0 * in.pairs.size() / kPoolFrames) +
                       "), SEQ sessions of " + std::to_string(kSeqFrames) +
                       " frames";

  // The byte-identity reference, and the in-process timing the slow-mode
  // check compares the server with.  Built before the high-water reset:
  // its pipelines hold about 17 MiB that are not the server's.
  const Expected expected = make_expected(in);
  reset_peak_rss(res);

  // Set-up: server construction, pool resize, listener and worker start,
  // and one answered TRACK.
  time_setup(res, [&] {
    const auto t0 = Clock::now();
    std::unique_ptr<serve::Server> s = start_server(in);
    const double seconds = ms_between(t0, Clock::now()) / 1000.0;
    stop_server(*s);
    return seconds;
  });
  std::unique_ptr<serve::Server> server = start_server(in);
  const double total0 = metric_value(*server, "serve.requests_total");
  const double coalesce0 = metric_value(*server, "serve.batch.coalesce_hits");
  const double dedup_hits0 = static_cast<double>(server->frames().hits());
  const double dedup_miss0 = static_cast<double>(server->frames().misses());
  const double batch_sum0 = metric_value(*server, "serve.batch.size");
  const std::uint64_t batch_n0 = histogram_count(*server, "serve.batch.size");
  const core::PipelineStats ps0 = server->pipelines().aggregate_stats();


  // Half of the requests of a traced run are traced: every other one.
  for (std::size_t i = 0; i < items.size(); ++i)
    items[i].traced = tracer.enabled() && i % 2 == 0;

  std::vector<Inbox> inboxes(kTenants + 1);
  std::vector<std::thread> conns;
  std::atomic<int> completed{0};
  const auto t0 = Clock::now() + std::chrono::milliseconds(50);
  for (int c = 0; c <= kTenants; ++c)
    conns.emplace_back(connection_main, server->port(), c,
                       std::ref(inboxes[static_cast<std::size_t>(c)]),
                       std::ref(items), std::cref(in), std::cref(expected), t0,
                       std::ref(tracer), std::ref(completed));
  SchedWindow sched;
  sched.begin();
  std::vector<double> lateness;
  double queue_max = 0.0;
  int dispatched = 0, shed = 0;
  double cap_ms = -1.0;  // when the ramp first reached the backlog cap
  for (std::size_t i = 0; i < items.size(); ++i) {
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double, std::milli>(items[i].due_ms)));
    if (items[i].kind == Kind::kTrack && items[i].step >= 0 &&
        dispatched - completed.load(std::memory_order_acquire) >= kBacklogCap) {
      if (cap_ms < 0.0) cap_ms = ms_between(t0, Clock::now());
      ++shed;
      continue;
    }
    items[i].sent = true;
    ++dispatched;
    inboxes[static_cast<std::size_t>(items[i].conn)].push(i);
    lateness.push_back(ms_between(t0, Clock::now()) - items[i].due_ms);
    queue_max = std::max(queue_max, metric_value(*server, "serve.queue_depth"));
  }
  for (Inbox& box : inboxes) box.close();
  for (std::thread& t : conns) t.join();
  sched.end();

  // Accounting invariant, read before the drain adds nothing.
  const double total = metric_value(*server, "serve.requests_total") - total0;
  const double outcomes = outcome_sum(*server);
  const double all_total = metric_value(*server, "serve.requests_total");
  if (all_total != outcomes)
    res.violation("serve_mixed: serve.requests_total " +
                  std::to_string(all_total) + " != sum of serve.outcome.* " +
                  std::to_string(outcomes));
  const auto sent = static_cast<double>(
      std::count_if(items.begin(), items.end(), [](const Item& it) { return it.sent; }));
  if (total != sent)
    res.violation("serve_mixed: server counted " + std::to_string(total) +
                  " requests, the client sent " + std::to_string(sent));
  const core::PipelineStats ps1 = server->pipelines().aggregate_stats();
  const double rejected = metric_value(*server, "serve.outcome.rejected");
  const double coalesce = metric_value(*server, "serve.batch.coalesce_hits") - coalesce0;
  const double dedup_hits = double(server->frames().hits()) - dedup_hits0;
  const double dedup_miss = double(server->frames().misses()) - dedup_miss0;
  const double batch_sum = metric_value(*server, "serve.batch.size") - batch_sum0;
  const std::uint64_t batch_n = histogram_count(*server, "serve.batch.size") - batch_n0;
  stop_server(*server);
  server.reset();

  // Correctness: every response ok and byte-identical to the in-process
  // pipeline on the same frames and config.
  for (const Item& it : items) {
    if (!it.sent) continue;
    ++res.attempted;
    if (item_ok(it) && it.payload_ok) continue;
    ++res.failed;
    if (!item_ok(it))
      res.violation(std::string("serve_mixed: request not ok: outcome=") +
                    serve::outcome_name(it.resp.outcome) +
                    (it.transport_error ? " (transport error)" : ""));
    else
      res.violation("serve_mixed: response differs from the in-process "
                    "pipeline on the same frames and config");
  }

  // Generator health: how late the open loop ran against its schedule.
  const double late_p99 = percentile(lateness, 0.99);
  res.info["generator_lateness"] =
      "p50 " + std::to_string(percentile(lateness, 0.5)) + " ms, p99 " +
      std::to_string(late_p99) + " ms, max " +
      std::to_string(percentile(lateness, 1.0)) + " ms (bound p99 <= " +
      std::to_string(kLateLimitMs) + " ms)" +
      "; " + std::to_string(shed) + " ramp requests shed at the backlog cap";
  if (late_p99 > kLateLimitMs)
    res.violation("serve_mixed: generator ran late: p99 " +
                  std::to_string(late_p99) + " ms");

  // Steady phase.  Latency is the one-shot tenants' (TRACK): from the due
  // time to the complete response, a failed or refused request counting
  // as 1e9 ms.  SEQ frames are a second, slower class (full
  // search, and no work at all for a session's first frame); folding them
  // in would put the median between two modes.  Throughput is flow
  // vectors delivered per second of server time on TRACK requests.
  double vectors = 0.0, served_s = 0.0;
  std::vector<double> seq_ms, wall_ms;
  for (const Item& it : items) {
    if (it.step != -1) continue;
    const double ms = item_ok(it) ? it.done_ms - it.due_ms : 1e9;
    if (it.kind == Kind::kSeqFrame && it.pair > 0) seq_ms.push_back(ms);
    if (it.kind != Kind::kTrack) continue;
    res.op_ms.push_back(ms);
    if (item_ok(it)) {
      vectors += kEdge * kEdge;
      served_s += it.resp.wall_ms / 1000.0;
      wall_ms.push_back(it.resp.wall_ms);
    }
  }
  res.pixels_per_s = served_s > 0.0 ? vectors / served_s : 0.0;
  res.info["track_server_ms"] =
      "q1 " + std::to_string(percentile(wall_ms, 0.25)) + ", median " +
      std::to_string(median(wall_ms)) + ", q3 " +
      std::to_string(percentile(wall_ms, 0.75));
  // Slow-mode check: the server's median TRACK compute time against the
  // same pipeline's on the same pairs in-process (make_expected).
  const double slowdown = median(wall_ms) / std::max(1e-9, median(expected.track_ms));
  res.info["server_vs_inprocess"] =
      "TRACK median " + std::to_string(median(wall_ms)) + " ms served, " +
      std::to_string(median(expected.track_ms)) + " ms in-process: ratio " +
      std::to_string(slowdown) +
      (slowdown > kSlowRatio ? "  SLOW MODE: the server computed over " +
                                   std::to_string(kSlowRatio) + "x slower"
                             : "");
  res.info["seq_frames"] = "p50 " + std::to_string(median(seq_ms)) +
                           " ms from due over " +
                           std::to_string(seq_ms.size()) + " frames";

  // Ramp: TRACK answers per second of the saturated server, from half a
  // second after the backlog first reached the cap to the end of the
  // run, counted as answers minus one over the time from the first to
  // the last of them.  A server the ramp never saturates gets the top
  // step's rate, a lower bound.
  double max_rate = ph.rate(static_cast<int>(std::size(kSteps)) - 1);
  if (cap_ms >= 0.0) {
    std::vector<double> done;
    for (const Item& it : items)
      if (it.kind == Kind::kTrack && it.sent && it.done_ms > cap_ms + 500.0)
        done.push_back(it.done_ms);
    std::sort(done.begin(), done.end());
    if (done.size() >= 2)
      max_rate = 1000.0 * double(done.size() - 1) / (done.back() - done.front());
    res.info["ramp"] = "saturated at " + std::to_string(cap_ms / 1000.0) +
                       " s; " + std::to_string(done.size()) +
                       " TRACK answers in the saturated window";
  } else {
    res.info["ramp"] =
        "the ramp never saturated the server: max_rate_rps is a lower bound";
  }
  res.max_rate_rps = max_rate;

  if (tracer.enabled()) {
    std::map<std::string, double> layer = empty_layer_metrics();
    fold_ledger(tracer, layer);
    double send = 0, recv = 0, wait = 0, server_ms = 0, nseq = 0, n = 0;
    std::vector<double> traced_ms, untraced_ms;
    for (const Item& it : items) {
      if (!is_timed(it) || !item_ok(it)) continue;
      (it.traced ? traced_ms : untraced_ms).push_back(it.done_ms - it.start_ms);
      if (!it.traced) continue;
      wait += it.start_ms - it.due_ms;
      server_ms += it.resp.wall_ms;
      ++n;
      if (it.kind == Kind::kSeqFrame) {
        send += it.send_ms;
        recv += it.recv_ms - it.resp.wall_ms;
        ++nseq;
      }
    }
    layer["serve.send_ms"] = nseq > 0 ? send / nseq : 0.0;
    layer["serve.recv_ms"] = nseq > 0 ? recv / nseq : 0.0;
    layer["serve.wait_ms"] = n > 0 ? wait / n : 0.0;
    layer["serve.server_ms"] = n > 0 ? server_ms / n : 0.0;
    layer["serve.queue_depth_max"] = queue_max;
    layer["serve.dedup_hit_rate"] =
        dedup_hits + dedup_miss > 0 ? dedup_hits / (dedup_hits + dedup_miss) : 0.0;
    layer["serve.coalesce_frac"] = total > 0 ? coalesce / total : 0.0;
    layer["serve.batch_mean"] = batch_n > 0 ? batch_sum / double(batch_n) : 0.0;
    layer["serve.reject_frac"] = total > 0 ? rejected / total : 0.0;
    layer["serve.server_vs_inprocess"] = slowdown;
    // Server-side pipeline work per pair tracked, from PipelineStats.
    const double pairs = double(ps1.pairs_tracked - ps0.pairs_tracked);
    if (pairs > 0) {
      layer["surface.fit_ms"] =
          1000.0 * (ps1.surface_fit_seconds - ps0.surface_fit_seconds) / pairs;
      layer["surface.fits"] = double(ps1.surface_fits - ps0.surface_fits) / pairs;
      layer["core.geomvars_ms"] =
          1000.0 * (ps1.geometric_vars_seconds - ps0.geometric_vars_seconds) / pairs;
      layer["core.precompute_ms"] =
          1000.0 * (ps1.match_precompute_seconds - ps0.match_precompute_seconds) / pairs;
      layer["core.precompute_builds"] =
          double(ps1.precompute_builds - ps0.precompute_builds) / pairs;
      layer["core.match_ms"] =
          1000.0 * (ps1.matching_seconds - ps0.matching_seconds) / pairs;
      const double hits = double(ps1.cache_hits - ps0.cache_hits);
      const double misses = double(ps1.cache_misses - ps0.cache_misses);
      layer["core.cache_hit_rate"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
    }
    // Pruned search on the pool pairs: seed pass timed here, hypothesis
    // reduction from the reference runs' PruneReport.
    std::vector<double> seed_ms;
    const core::SmaConfig pcfg =
        serve::PipelineManager::config_from(base_request(true));
    for (const auto& [b, a] : in.pairs) {
      const ImageF fb = to_image(in.pool[static_cast<std::size_t>(b)]);
      const ImageF fa = to_image(in.pool[static_cast<std::size_t>(a)]);
      const auto s0 = Clock::now();
      core::compute_prune_seeds(fb, fa, pcfg);
      seed_ms.push_back(ms_between(s0, Clock::now()));
    }
    layer["prune.seed_ms"] = mean(seed_ms);
    double red = 0.0;
    for (const core::PruneReport& p : expected.prune) red += p.reduction();
    layer["prune.hypothesis_reduction"] =
        expected.prune.empty() ? 0.0 : red / expected.prune.size();
    layer["sched.busy_frac"] = sched.busy_frac();
    layer["sched.imbalance"] = sched.imbalance();
    layer["ledger.trace_overhead_frac"] = trace_overhead(traced_ms, untraced_ms);
    res.layer = layer;
  }
  return res;
}

}  // namespace perfbench
