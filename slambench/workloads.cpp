#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <stdexcept>

#include "accel/backend_factory.h"
#include "dataset/multi_sequence.h"
#include "eval/ate.h"
#include "obs/trace.h"
#include "slam/frozen_map.h"
#include "slam/map_snapshot.h"

namespace slambench {

using namespace eslam;

namespace {

// Both workloads render one fixed capture, whatever the seed: a new room
// texture or noise realization changes the tracker's work chaotically
// (map sizes between 4k and 12k points, a stream that tracks cleanly on
// one texture loses track on the next), which would make each seed a
// different workload rather than another sample of one.  The seed drives
// the clients instead.
//
// fleet_fabric: four mapping sessions on four distinct streams sharing the
// device lane; FE replayed at the paper's fabric latency (Table 2).
constexpr int kFleetStreams = 4;
constexpr int kFleetFrames = 50;
constexpr double kFabricFeMs = 9.1;
// loc_serve: three localization sessions over one frozen map, fed open
// loop at a fixed camera rate from different start offsets.
constexpr SequenceId kLocSequence = SequenceId::kFr1Xyz;
constexpr int kLocMapFrames = 60;
constexpr int kLocSessions = 3;
// Each client walks 120 frames in runs of 12 consecutive frames, jumping
// 23 frames on (mod 60) between runs (see jumping()).
constexpr int kLocFramesPerSession = 2 * kLocMapFrames;
constexpr int kLocRunFrames = 12;
constexpr int kLocRunStride = 23;
// A cold-start frame takes ~65 ms here; at 15 fps that is the whole frame
// period, so a wrap's cold starts left a backlog whose length varied from
// run to run (p99 140-200 ms).  At 10 fps a cold start finishes within its
// period and the tail is the cold-start latency itself.
constexpr double kLocRateFps = 10.0;
// Set-up is timed up to this many times (within the budget) before the
// passes, which add their own; the median is reported.
constexpr int kSetupSamples = 25;
constexpr double kSetupBudgetMs = 2000.0;
// Throughput and CPU per frame windows: a pass is cut into this many
// windows of deliveries, but never into windows under kMinWindow frames.
constexpr long long kWindowsPerPass = 5;
constexpr long long kMinWindow = 10;
// The tail percentile reported, and the samples a run needs so that at
// least ten lie beyond it.
constexpr double kTailPercentile = 0.99;
constexpr std::size_t kMinTailSamples = 1000;

std::vector<const FrameInput*> pointers(const std::vector<FrameInput>& v,
                                        const std::vector<int>& order) {
  std::vector<const FrameInput*> out;
  out.reserve(order.size());
  for (const int i : order) out.push_back(&v[static_cast<std::size_t>(i)]);
  return out;
}

std::vector<const FeatureList*> pointers(const std::vector<FeatureList>& v,
                                         const std::vector<int>& order) {
  std::vector<const FeatureList*> out;
  out.reserve(order.size());
  for (const int i : order) out.push_back(&v[static_cast<std::size_t>(i)]);
  return out;
}

std::vector<int> iota(int n) {
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  return order;
}

// `count` frames of a capture of `n`: runs of `run` consecutive frames,
// each run starting `stride` frames after the previous run's start (mod
// n).  Every run boundary is a jump across the room, which the localizer
// meets the way a client that lost track does: cold-start relocalization.
// The jumps are frequent enough that the latency tail is made of many
// recoveries, not of the few slowest ones.  (A back-and-forth walk avoids
// jumps, but the motion model overshoots each turn and, depending on the
// history, the session then falls back to full-map matching for tens of
// frames — a tail set by chance rather than by the inputs.)
std::vector<int> jumping(int n, int start, int count, int run, int stride) {
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(count));
  for (int k = 0; k < count; ++k)
    order.push_back((start + (k / run) * stride + k % run) % n);
  return order;
}

std::uint32_t mix(std::uint32_t h) {
  h ^= h >> 16;
  h *= 0x7feb352du;
  h ^= h >> 15;
  h *= 0x846ca68bu;
  h ^= h >> 16;
  return h;
}

// A uniform draw in [0, 1) from (seed, i).
double unit_draw(std::uint32_t seed, std::uint32_t i) {
  return static_cast<double>(mix(seed * 0x9e3779b9u + i * 0x85ebca6bu) % 1000000u) / 1e6;
}

// Renders every frame of each sequence on generation_threads() threads.
void render(const std::vector<const SyntheticSequence*>& seqs, Workload& w) {
  const int per = seqs.front()->size();
  w.frames.assign(seqs.size(), std::vector<FrameInput>(static_cast<std::size_t>(per)));
  parallel_for(static_cast<int>(seqs.size()) * per, [&](int job, int) {
    const std::size_t s = static_cast<std::size_t>(job / per);
    const std::size_t f = static_cast<std::size_t>(job % per);
    w.frames[s][f] = seqs[s]->frame(static_cast<int>(f));
  });
}

// Runs the fabric model's feature extraction over every rendered frame
// (replayed later), one backend per generation thread.
void extract_features(Workload& w) {
  w.features.assign(w.frames.size(), {});
  for (std::size_t s = 0; s < w.frames.size(); ++s)
    w.features[s].resize(w.frames[s].size());
  std::vector<std::unique_ptr<FeatureBackend>> extractors;
  for (int t = 0; t < generation_threads(); ++t)
    extractors.push_back(make_feature_backend(BackendConfig{}));
  const int per = static_cast<int>(w.frames.front().size());
  parallel_for(static_cast<int>(w.frames.size()) * per, [&](int job, int worker) {
    const std::size_t s = static_cast<std::size_t>(job / per);
    const std::size_t f = static_cast<std::size_t>(job % per);
    w.features[s][f] =
        extractors[static_cast<std::size_t>(worker)]->extract(w.frames[s][f].gray);
  });
}

std::vector<SE3> ground_truth(const SyntheticSequence& seq,
                              const std::vector<int>& order) {
  std::vector<SE3> gt;
  gt.reserve(order.size());
  for (const int i : order) gt.push_back(seq.ground_truth(i));
  return gt;
}

// Solo sequential references, one thread per session (outside timing).
void solo_references(Workload& w) {
  w.solo.assign(w.sessions.size(), {});
  std::shared_ptr<const FrozenMap> frozen;
  if (w.kind == SessionKind::kLocalization) {
    std::string error;
    frozen = FrozenMap::load(w.snapshot_path, &error);
    if (!frozen) throw std::runtime_error("cannot load map: " + error);
  }
  parallel_for(static_cast<int>(w.sessions.size()), [&](int i, int) {
    const SessionInput& in = w.sessions[static_cast<std::size_t>(i)];
    auto backend = std::make_unique<ReplayBackend>(in.features, 0.0);
    std::vector<TrackResult>& out = w.solo[static_cast<std::size_t>(i)];
    if (frozen) {
      Localizer localizer(frozen, std::move(backend));
      for (const FrameInput* f : in.frames) out.push_back(localizer.process(*f));
    } else {
      Tracker tracker(in.camera, std::move(backend));
      for (const FrameInput* f : in.frames) out.push_back(tracker.process(*f));
    }
  });
}

Workload fleet_fabric(std::uint32_t seed) {
  Workload w;
  w.name = "fleet_fabric";
  w.fe_hold_ms = kFabricFeMs;
  w.arm_workers = 2;
  w.ate_ceiling_cm = 30.0;
  MultiSequenceOptions mo;
  mo.streams = 2 * kFleetStreams;
  mo.sequence.frames = kFleetFrames;
  const MultiSequenceSet set(mo);
  // The first four streams outside the fr1/room and fr2/rpy families: at
  // this sampling those two lose track on most textures, so they would
  // measure recovery instead of serving.
  std::vector<const SyntheticSequence*> seqs;
  for (int i = 0; i < set.size() && seqs.size() < kFleetStreams; ++i)
    if (set.stream_id(i) != SequenceId::kFr1Room &&
        set.stream_id(i) != SequenceId::kFr2Rpy)
      seqs.push_back(&set.stream(i));
  // The seed drives the clients: the order the sessions are opened in
  // (their turn in the device lane's round robin) and each client's start
  // delay.
  render(seqs, w);
  extract_features(w);
  std::vector<std::size_t> open_order(seqs.size());
  for (std::size_t s = 0; s < seqs.size(); ++s) open_order[s] = s;
  for (std::size_t k = open_order.size(); k > 1; --k)
    std::swap(open_order[k - 1], open_order[mix(seed * 31u + static_cast<std::uint32_t>(k)) % k]);
  for (const std::size_t s : open_order) {
    SessionInput in;
    in.camera = seqs[s]->camera();
    in.frames = pointers(w.frames[s], iota(kFleetFrames));
    in.features = pointers(w.features[s], iota(kFleetFrames));
    in.ground_truth = ground_truth(*seqs[s], iota(kFleetFrames));
    in.offset_ms = unit_draw(seed, static_cast<std::uint32_t>(s)) * kFleetStreams *
                   kFabricFeMs;
    w.sessions.push_back(std::move(in));
  }
  solo_references(w);
  return w;
}

Workload loc_serve(std::uint32_t seed, const std::string& scratch_dir) {
  Workload w;
  w.name = "loc_serve";
  w.kind = SessionKind::kLocalization;
  w.arm_workers = 3;
  w.queue_capacity = 8;
  w.rate_fps = kLocRateFps;
  w.ate_ceiling_cm = 30.0;
  SequenceOptions so;
  so.frames = kLocMapFrames;
  const SyntheticSequence seq(kLocSequence, so);

  // One capture both builds the served map and feeds the clients.  The map
  // is built (sequential, backend on) and saved before timing; every
  // set-up loads it back from disk.
  render({&seq}, w);
  extract_features(w);
  w.map_build.camera = seq.camera();
  w.map_build.frames = pointers(w.frames[0], iota(kLocMapFrames));
  w.map_build.features = pointers(w.features[0], iota(kLocMapFrames));
  {
    const std::unique_ptr<Tracker> mapper =
        run_mapping(w.map_build, 0.0, /*backend=*/true, nullptr, 0, nullptr);
    w.snapshot_path = scratch_dir + "/loc_serve-" + std::to_string(seed) + ".map";
    std::string error;
    if (!save_snapshot(w.snapshot_path,
                       capture_snapshot(mapper->map(), mapper->keyframe_graph(),
                                        seq.camera()),
                       &error))
      throw std::runtime_error("cannot save map: " + error);
  }
  // Clients start a third of the capture apart, so every seed serves the
  // same frames in the same per-client order.  Their clocks are staggered
  // by a third of a run, so no two clients cold-start at once: concurrent
  // recoveries doubled each other's cost in some passes and not in others.
  // The seed sets the phase of the clocks within a frame period, which
  // decides how the other frames interleave on the worker pool.
  const double period_ms = 1000.0 / kLocRateFps;
  const double phase = unit_draw(seed, kLocSessions);
  const double stagger_ms = period_ms * kLocRunFrames / kLocSessions;
  for (int i = 0; i < kLocSessions; ++i) {
    const int start = i * kLocMapFrames / kLocSessions;
    const std::vector<int> order = jumping(kLocMapFrames, start, kLocFramesPerSession,
                                           kLocRunFrames, kLocRunStride);
    SessionInput in;
    in.camera = seq.camera();
    in.frames = pointers(w.frames[0], order);
    in.features = pointers(w.features[0], order);
    in.ground_truth = ground_truth(seq, order);
    in.offset_ms = stagger_ms * i + period_ms * (i + phase) / kLocSessions;
    w.sessions.push_back(std::move(in));
  }
  solo_references(w);
  return w;
}

SessionConfig session_config(const Workload& w, std::size_t i,
                             const std::shared_ptr<const FrozenMap>& frozen) {
  const SessionInput* in = &w.sessions[i];
  SessionConfig c;
  c.kind = w.kind;
  c.camera = in->camera;
  c.queue_capacity = w.queue_capacity;
  c.frozen_map = frozen;
  const double hold = w.fe_hold_ms;
  c.backend_factory = [in, hold] {
    return std::make_unique<ReplayBackend>(in->features, hold);
  };
  return c;
}

bool same_result(const TrackResult& a, const TrackResult& b) {
  return (a.pose_wc.translation() - b.pose_wc.translation()).max_abs() == 0.0 &&
         (a.pose_wc.rotation() - b.pose_wc.rotation()).max_abs() == 0.0 &&
         a.lost == b.lost && a.keyframe == b.keyframe &&
         a.n_matches == b.n_matches && a.n_inliers == b.n_inliers &&
         a.match_tier == b.match_tier;
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "fleet_fabric" || name == "loc_serve";
}

Workload generate(const std::string& name, std::uint32_t seed,
                  const std::string& scratch_dir) {
  if (name == "fleet_fabric") return fleet_fabric(seed);
  if (name == "loc_serve") return loc_serve(seed, scratch_dir);
  return {};
}

Served setup(const Workload& w, SpanRecorder* rec) {
  Served s;
  const double t0 = now_ms();
  if (w.kind == SessionKind::kLocalization) {
    MapSnapshot snapshot;
    std::string error;
    bool loaded = false;
    {
      const ScopedSpan span(rec, "load_snapshot", 0, -1);
      loaded = load_snapshot(w.snapshot_path, snapshot, &error);
    }
    if (!loaded) throw std::runtime_error("cannot load map: " + error);
    const ScopedSpan span(rec, "FrozenMap::from_snapshot", 0, -1);
    s.frozen = FrozenMap::from_snapshot(std::move(snapshot));
  }
  ServiceOptions options;
  options.arm_workers = w.arm_workers;
  s.service = std::make_unique<SlamService>(options);
  for (std::size_t i = 0; i < w.sessions.size(); ++i) {
    const SessionConfig config = session_config(w, i, s.frozen);
    const ScopedSpan span(rec, "SlamService::open_session",
                          static_cast<int>(i), -1);
    s.sessions.push_back(s.service->open_session(config));
  }
  s.setup_ms = now_ms() - t0;
  return s;
}

PassResult run_pass(const Workload& w, Served& served, double rss_before_mb) {
  const std::size_t n_sessions = w.sessions.size();
  PassResult pass;
  pass.results.resize(n_sessions);
  pass.fed.resize(n_sessions);

  struct Cursor {
    std::size_t next = 0;           // next frame to feed
    std::deque<double> pending_at;  // feed (closed) or due (open) times
    long long dropped = 0;
  };
  std::vector<Cursor> cursors(n_sessions);
  const bool open_loop = w.rate_fps > 0;
  const double period_ms = open_loop ? 1000.0 / w.rate_fps : 0;

  double rss_peak = rss_mb();
  double next_rss_sample = 0;
  std::vector<double> lateness;

  const double cpu0 = process_cpu_ms();
  const double client_cpu0 = thread_cpu_ms();
  const double t0 = now_ms() + (open_loop ? 5.0 : 0.0);
  double last_result = t0;
  for (;;) {
    bool progress = false;
    bool done = true;
    double next_due = t0 + 1e9;
    const double now = now_ms();
    for (std::size_t s = 0; s < n_sessions; ++s) {
      const SessionInput& in = w.sessions[s];
      Cursor& c = cursors[s];
      SessionHandle& h = served.sessions[s];
      // Feed: closed loop keeps queue_capacity frames outstanding; open
      // loop feeds every frame that is due, dropping it on a full ring.
      while (c.next < in.frames.size()) {
        if (open_loop) {
          const double due = t0 + in.offset_ms + period_ms * static_cast<double>(c.next);
          if (due > now) {
            next_due = std::min(next_due, due);
            break;
          }
          if (h.try_feed(*in.frames[c.next])) {
            c.pending_at.push_back(due);
            pass.fed[s].push_back(c.next);
          } else {
            ++c.dropped;
          }
          lateness.push_back(now - due);
        } else {
          if (now < t0 + in.offset_ms) {
            next_due = std::min(next_due, t0 + in.offset_ms);
            break;
          }
          if (static_cast<int>(c.pending_at.size()) >= w.queue_capacity) break;
          if (!h.try_feed(*in.frames[c.next])) break;
          c.pending_at.push_back(now_ms());
          pass.fed[s].push_back(c.next);
        }
        ++c.next;
        progress = true;
      }
      while (auto r = h.poll()) {
        const double at = now_ms();
        pass.latencies_ms.push_back(at - c.pending_at.front());
        c.pending_at.pop_front();
        pass.results[s].push_back(std::move(*r));
        pass.delivery_ms.push_back(at - t0);
        pass.delivery_cpu_ms.push_back((process_cpu_ms() - cpu0) -
                                       (thread_cpu_ms() - client_cpu0));
        last_result = at;
        progress = true;
      }
      if (c.next < in.frames.size() || !c.pending_at.empty()) done = false;
    }
    if (now >= next_rss_sample) {
      rss_peak = std::max(rss_peak, rss_mb());
      next_rss_sample = now + 5.0;
    }
    if (done) break;
    if (!progress) park_until(next_due);
  }
  pass.wall_ms = last_result - t0;
  for (std::size_t s = 0; s < n_sessions; ++s) {
    served.sessions[s].drain();  // backend quiescence; every frame is polled
    pass.stats.push_back(served.sessions[s].stats());
    pass.attempted += static_cast<long long>(w.sessions[s].frames.size());
    pass.dropped += cursors[s].dropped;
  }
  pass.cpu_ms = (process_cpu_ms() - cpu0) - (thread_cpu_ms() - client_cpu0);
  rss_peak = std::max(rss_peak, rss_mb());
  pass.mem_growth_mb = rss_peak - rss_before_mb;
  if (!lateness.empty()) {
    pass.lateness_mean_ms = mean(lateness);
    pass.lateness_max_ms = *std::max_element(lateness.begin(), lateness.end());
  }

  // Work counts: what the pass did, independent of how fast it ran.
  WorkCounts& work = pass.work;
  for (std::size_t s = 0; s < n_sessions; ++s) {
    for (const TrackResult& r : pass.results[s]) {
      work.keyframes += r.keyframe ? 1 : 0;
      work.matches += r.n_matches;
      work.coldstart_frames += r.reloc_attempted ? 1 : 0;
      pass.lost += r.lost ? 1 : 0;
    }
    work.backend_jobs += pass.stats[s].backend_jobs;
    work.deltas_applied += pass.stats[s].backend_deltas_applied;
    if (w.kind == SessionKind::kMapping)
      work.map_points += static_cast<long long>(
          served.sessions[s].tracker().map().size());
    else
      work.map_points += static_cast<long long>(served.frozen->size());
  }
  return pass;
}

double ate_cm(const Workload& w, const PassResult& pass) {
  std::vector<double> per_session;
  for (std::size_t s = 0; s < w.sessions.size(); ++s) {
    std::vector<SE3> est, gt;
    for (std::size_t k = 0; k < pass.results[s].size(); ++k) {
      est.push_back(pass.results[s][k].pose_wc);
      gt.push_back(w.sessions[s].ground_truth[pass.fed[s][k]]);
    }
    if (est.size() >= 3)
      per_session.push_back(100.0 * absolute_trajectory_error(est, gt).rmse);
  }
  return mean(per_session);
}

void check_pass(const Workload& w, const PassResult& pass, int index,
                RunReport& report) {
  const std::string tag = w.name + " pass " + std::to_string(index) + ": ";
  bool accounted = true;
  for (std::size_t s = 0; s < w.sessions.size(); ++s)
    if (pass.results[s].size() != pass.fed[s].size()) accounted = false;
  long long delivered = 0;
  for (const auto& r : pass.results) delivered += static_cast<long long>(r.size());
  report.check(accounted && delivered + pass.dropped == pass.attempted,
               tag + "every fed frame delivered, every refused frame counted "
                     "failed");
  if (!w.solo.empty()) {
    // A dropped frame changes everything after it, so each session is
    // compared up to its first drop.
    bool identical = true;
    for (std::size_t s = 0; s < w.sessions.size(); ++s)
      for (std::size_t k = 0; k < pass.results[s].size() && pass.fed[s][k] == k;
           ++k)
        if (!same_result(pass.results[s][k], w.solo[s][k])) identical = false;
    report.check(identical, tag + "every session bit-identical to its solo "
                                  "sequential run");
  }
  const double ate = ate_cm(w, pass);
  char buf[96];
  std::snprintf(buf, sizeof buf, "ATE %.2f cm under the %.0f cm ceiling", ate,
                w.ate_ceiling_cm);
  report.check(ate > 0 && ate < w.ate_ceiling_cm, tag + buf);
}

long long PassResult::delivered() const {
  long long n = 0;
  for (const auto& r : results) n += static_cast<long long>(r.size());
  return n;
}

void run_end_to_end(const Workload& w, double seconds, RunReport& report) {
  obs::set_trace_enabled(false);
  // Set-up-only samples first (after one untimed warm-up that pays the
  // process's one-time registrations); the passes below add theirs.
  std::vector<double> setup_ms;
  setup(w, nullptr);
  const double setup_start = now_ms();
  while (static_cast<int>(setup_ms.size()) < kSetupSamples &&
         now_ms() - setup_start < kSetupBudgetMs)
    setup_ms.push_back(setup(w, nullptr).setup_ms);

  // Whole passes over identical inputs until the next one would overrun
  // the budget (always at least two, so the work guard has a pair, and
  // enough for the tail percentile).
  std::vector<PassResult> passes;
  std::size_t samples = 0;
  const double start = now_ms();
  double last_pass_ms = 0;
  while (passes.size() < 2 || samples < kMinTailSamples ||
         (now_ms() - start) + last_pass_ms <= 1000.0 * seconds) {
    const double p0 = now_ms();
    release_free_heap();
    const double rss_before = rss_mb();
    Served served = setup(w, nullptr);
    setup_ms.push_back(served.setup_ms);
    passes.push_back(run_pass(w, served, rss_before));
    samples += passes.back().latencies_ms.size();
    last_pass_ms = now_ms() - p0;
  }

  // Throughput and CPU per frame are taken per window of deliveries and
  // reported as the median window: this host's speed drifts by tens of
  // percent over seconds, and a median over many short windows follows
  // the typical speed instead of the luck of one run.
  const std::size_t window = static_cast<std::size_t>(std::max<long long>(
      kMinWindow, passes.front().attempted / kWindowsPerPass));
  std::vector<double> window_fps, window_cpu;
  long long delivered = 0, lost = 0, dropped = 0;
  std::vector<double> latencies, mem, ate, lateness_mean, lateness_max;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const PassResult& p = passes[i];
    check_pass(w, p, static_cast<int>(i), report);
    for (std::size_t end = window; end <= p.delivery_ms.size(); end += window) {
      const std::size_t begin = end - window;
      const double t_begin = begin ? p.delivery_ms[begin - 1] : 0.0;
      const double cpu_begin = begin ? p.delivery_cpu_ms[begin - 1] : 0.0;
      const double n = static_cast<double>(window);
      window_fps.push_back(1000.0 * n / (p.delivery_ms[end - 1] - t_begin));
      window_cpu.push_back((p.delivery_cpu_ms[end - 1] - cpu_begin) / n);
    }
    delivered += p.delivered();
    lost += p.lost;
    dropped += p.dropped;
    report.attempted += p.attempted;
    latencies.insert(latencies.end(), p.latencies_ms.begin(), p.latencies_ms.end());
    mem.push_back(p.mem_growth_mb);
    ate.push_back(ate_cm(w, p));
    lateness_mean.push_back(p.lateness_mean_ms);
    lateness_max.push_back(p.lateness_max_ms);
  }
  report.failed = report.attempted - delivered;

  // Work-determinism guard: every pass ran the same inputs, so its counts
  // must repeat exactly.
  bool work_repeats = true;
  for (const PassResult& p : passes)
    if (!(p.work == passes.front().work)) work_repeats = false;
  const WorkCounts& wc = passes.front().work;
  report.work = {{"keyframes", wc.keyframes},
                 {"map_points", wc.map_points},
                 {"matches", wc.matches},
                 {"backend_jobs", wc.backend_jobs},
                 {"deltas_applied", wc.deltas_applied},
                 {"coldstart_frames", wc.coldstart_frames}};
  if (!work_repeats)
    std::printf("  [FLAG] work counts differ between passes of this run: the "
                "work changed, so timings are not comparable\n");

  report.metric("throughput_fps", median(window_fps), "fps");
  // Latency percentiles over every sample of the run; the tail one has at
  // least ten samples beyond it.
  report.metric("frame_latency_p50_ms", percentile(latencies, 0.50), "ms");
  report.metric("frame_latency_p99_ms", percentile(latencies, kTailPercentile),
                "ms");
  report.metric("cpu_ms_per_frame", median(window_cpu), "ms");
  report.metric("mem_peak_mb", median(mem), "MB");
  report.metric("setup_s", median(setup_ms) / 1000.0, "s");

  report.diag("ate_rmse_cm", median(ate));
  report.diag("passes", static_cast<double>(passes.size()));
  report.diag("windows", static_cast<double>(window_fps.size()));
  report.diag("window_frames", static_cast<double>(window));
  report.diag("latency_samples", static_cast<double>(latencies.size()));
  report.diag("latency_samples_beyond_p99",
              std::floor((1.0 - kTailPercentile) *
                         static_cast<double>(latencies.size())));
  report.diag("failed_frac", static_cast<double>(report.failed) /
                                 static_cast<double>(report.attempted));
  report.diag("frames_dropped", static_cast<double>(dropped));
  report.diag("frames_lost", static_cast<double>(lost));
  report.diag("work_repeats", work_repeats ? 1 : 0);
  report.diag("setup_samples", static_cast<double>(setup_ms.size()));
  if (w.rate_fps > 0) {
    report.diag("generator_lateness_mean_ms", mean(lateness_mean));
    report.diag("generator_lateness_max_ms",
                *std::max_element(lateness_max.begin(), lateness_max.end()));
  }
}

}  // namespace slambench
