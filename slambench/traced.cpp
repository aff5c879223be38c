// The traced run: per-layer accounting.
//
// One served pass (tracing off) supplies what only the running service
// knows — the scheduler's counters and busy times from
// SessionHandle::stats(), the measured throughput and the end-to-end
// per-frame latency.  Then the same inputs go through each layer's public
// functions one call at a time, in the sequential reference schedule
// (Tracker::process's order, with backend jobs run inline after the map
// update), with a span around every call; on loc_serve that pass also
// rebuilds the served map, backend on, as one more session.  The spans
// give each layer's self time; what the clients' end-to-end latency holds
// beyond their per-frame sum is reported as queueing.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>

#include "obs/trace.h"
#include "slam/frozen_map.h"
#include "workloads.h"

namespace slambench {

using namespace eslam;

namespace {

struct Totals {
  double duration_ms = 0;
  double self_ms = 0;
  long long count = 0;
  double mean_ms() const {
    return count ? duration_ms / static_cast<double>(count) : 0.0;
  }
};

// The stages a frame passes through; their self times are the frame's
// own work, everything else in its latency is waiting.
bool is_frame_stage(const std::string& name) {
  return name == "FeatureBackend::extract" || name == "Tracker::match" ||
         name == "Tracker::estimate_pose" || name == "Tracker::optimize_pose" ||
         name == "Tracker::update_map" || name == "Localizer::process";
}

struct TracedPass {
  std::vector<std::vector<TrackResult>> results;  // per session
  long long map_points = 0;
  long long map_bytes_copied = 0;
  long long deltas_applied = 0;
  long long map_build_points = 0;  // loc_serve: the rebuilt served map
};

void add_map_stats(const Tracker& tracker, TracedPass& out) {
  out.map_bytes_copied +=
      static_cast<long long>(tracker.map().view_stats().bytes_copied);
  out.deltas_applied += tracker.backend_stats().deltas_applied;
}

TracedPass traced_pass(const Workload& w,
                       const std::shared_ptr<const FrozenMap>& frozen,
                       SpanRecorder& rec) {
  TracedPass out;
  const int n = static_cast<int>(w.sessions.size());
  out.results.resize(w.sessions.size());
  if (w.kind == SessionKind::kMapping) {
    for (int s = 0; s < n; ++s) {
      const std::unique_ptr<Tracker> tracker =
          run_mapping(w.sessions[static_cast<std::size_t>(s)], w.fe_hold_ms,
                      /*backend=*/false, &rec, s,
                      &out.results[static_cast<std::size_t>(s)]);
      out.map_points += static_cast<long long>(tracker->map().size());
      add_map_stats(*tracker, out);
    }
    return out;
  }

  // The mapping run that built the served map (backend on) is this
  // workload's backend and map-update work; it is recorded as one more
  // session after the clients.
  const std::unique_ptr<Tracker> mapper =
      run_mapping(w.map_build, 0.0, /*backend=*/true, &rec, n, nullptr);
  out.map_build_points = static_cast<long long>(mapper->map().size());
  add_map_stats(*mapper, out);
  for (int s = 0; s < n; ++s) {
    const SessionInput& in = w.sessions[static_cast<std::size_t>(s)];
    auto traced = std::make_unique<TracingBackend>(
        std::make_unique<ReplayBackend>(in.features, w.fe_hold_ms), &rec, s);
    TracingBackend* fe = traced.get();
    Localizer localizer(frozen, std::move(traced));
    for (std::size_t k = 0; k < in.frames.size(); ++k) {
      const int frame = static_cast<int>(k);
      fe->set_frame(frame);
      const ScopedSpan span(&rec, "Localizer::process", s, frame);
      out.results[static_cast<std::size_t>(s)].push_back(
          localizer.process(*in.frames[k]));
    }
  }
  out.map_points = static_cast<long long>(frozen->size());
  return out;
}

}  // namespace

std::unique_ptr<Tracker> run_mapping(const SessionInput& in, double fe_hold_ms,
                                     bool backend, SpanRecorder* rec, int s,
                                     std::vector<TrackResult>* results) {
  auto traced = std::make_unique<TracingBackend>(
      std::make_unique<ReplayBackend>(in.features, fe_hold_ms), rec, s);
  TracingBackend* fe = traced.get();
  TrackerOptions options;
  options.backend.enabled = backend;
  auto tracker = std::make_unique<Tracker>(in.camera, std::move(traced), options);
  std::vector<Tracker::BackendJobTicket> tickets;
  for (std::size_t k = 0; k < in.frames.size(); ++k) {
    const int frame = static_cast<int>(k);
    fe->set_frame(frame);
    FrameState fs = tracker->begin_frame(*in.frames[k]);
    tracker->extract(fs);  // the backend records FeatureBackend::extract
    {
      const ScopedSpan span(rec, "Tracker::match", s, frame);
      tracker->match(fs);
    }
    {
      const ScopedSpan span(rec, "Tracker::estimate_pose", s, frame);
      tracker->estimate_pose(fs);
    }
    {
      const ScopedSpan span(rec, "Tracker::optimize_pose", s, frame);
      tracker->optimize_pose(fs);
    }
    TrackResult result;
    {
      const ScopedSpan span(rec, "Tracker::update_map", s, frame);
      result = tracker->update_map(fs);
    }
    if (results) results->push_back(result);
    tracker->recycle_frame(std::move(fs));
    tickets.clear();
    tracker->take_backend_jobs(tickets);
    for (const Tracker::BackendJobTicket& t : tickets) {
      const ScopedSpan span(rec, "Tracker::run_backend_job", s, frame);
      tracker->run_backend_job(t.job_id);
    }
  }
  return tracker;
}

void run_traced(const Workload& w, const std::string& trace_path,
                RunReport& report) {
  obs::set_trace_enabled(false);
  SpanRecorder rec;

  // Served pass: scheduler counters and the end-to-end side.
  std::shared_ptr<const FrozenMap> frozen;
  PassResult pass;
  int arm_workers = 0;
  {
    release_free_heap();
    const double rss_before = rss_mb();
    Served served = setup(w, &rec);
    frozen = served.frozen;
    arm_workers = served.service->options().arm_workers;
    pass = run_pass(w, served, rss_before);
  }
  check_pass(w, pass, 0, report);
  report.attempted = pass.attempted;
  report.failed = pass.attempted - pass.delivered();

  const TracedPass traced = traced_pass(w, frozen, rec);
  if (!w.solo.empty()) {
    bool identical = true;
    for (std::size_t s = 0; s < w.sessions.size(); ++s)
      for (std::size_t k = 0; k < traced.results[s].size(); ++k) {
        const TrackResult& a = traced.results[s][k];
        const TrackResult& b = w.solo[s][k];
        if ((a.pose_wc.translation() - b.pose_wc.translation()).max_abs() != 0 ||
            a.n_matches != b.n_matches || a.n_inliers != b.n_inliers)
          identical = false;
      }
    report.check(identical, w.name + " traced pass: every session "
                                     "bit-identical to its solo sequential run");
  }
  if (w.kind == SessionKind::kLocalization)
    report.check(traced.map_build_points == traced.map_points,
                 w.name + " traced map build reproduces the served map");
  if (rec.write_chrome_trace(trace_path))
    std::printf("  trace: %s (open in https://ui.perfetto.dev)\n",
                trace_path.c_str());

  // ---- fold the spans ------------------------------------------------------
  std::map<std::string, Totals> by_name;
  double stage_self_ms = 0;
  double coldstart_sum = 0;
  long long coldstart_n = 0;
  for (const Span& sp : rec.spans()) {
    Totals& t = by_name[sp.name];
    t.duration_ms += sp.duration_ms();
    t.self_ms += sp.self_ms();
    ++t.count;
    // Only the clients' frames; loc_serve's map build ran before serving.
    if (is_frame_stage(sp.name) &&
        sp.session < static_cast<int>(w.sessions.size()))
      stage_self_ms += sp.self_ms();
    if (sp.name == "Localizer::process" &&
        traced.results[static_cast<std::size_t>(sp.session)]
                      [static_cast<std::size_t>(sp.frame)]
                          .reloc_attempted) {
      coldstart_sum += sp.duration_ms();
      ++coldstart_n;
    }
  }
  auto mean_of = [&](const char* name) {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : it->second.mean_ms();
  };
  auto sum_of = [&](const char* name) {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : it->second.duration_ms;
  };

  long long frames = 0, gated = 0, matches = 0, inliers = 0, features = 0,
            keyframes = 0;
  double loc_fm = 0, loc_pe = 0, loc_po = 0;
  for (const auto& session : traced.results)
    for (const TrackResult& r : session) {
      ++frames;
      gated += r.match_tier == MatchTier::kGated ? 1 : 0;
      matches += r.n_matches;
      inliers += r.n_inliers;
      features += r.n_features;
      keyframes += r.keyframe ? 1 : 0;
      loc_fm += r.times.feature_matching;
      loc_pe += r.times.pose_estimation;
      loc_po += r.times.pose_optimization;
    }
  const double nf = static_cast<double>(std::max<long long>(frames, 1));
  const bool loc = w.kind == SessionKind::kLocalization;

  // Scheduler side, from the served pass.
  double fpga_busy = 0, arm_busy = 0;
  long long speculative = 0, replayed = 0, rejected = 0, jobs_rejected = 0;
  for (const PipelineStats& st : pass.stats) {
    fpga_busy += st.fpga_busy_ms;
    arm_busy += st.arm_busy_ms;
    speculative += st.speculative_matches;
    replayed += st.replayed_matches;
    rejected += st.rejected_feeds;
    jobs_rejected += st.backend_jobs_rejected;
  }
  const double throughput =
      1000.0 * static_cast<double>(pass.delivered()) / pass.wall_ms;
  // Capacity bounds from the traced per-frame costs: every mapping frame
  // holds the one device lane for FE + FM; ARM work spreads over at most
  // min(workers, sessions) workers (a session's stages run serially).
  const double device_ms =
      loc ? 0.0 : (sum_of("FeatureBackend::extract") + sum_of("Tracker::match")) / nf;
  const double arm_ms =
      loc ? mean_of("Localizer::process")
          : (sum_of("Tracker::estimate_pose") + sum_of("Tracker::optimize_pose") +
             sum_of("Tracker::update_map")) / nf;
  const double inf = std::numeric_limits<double>::infinity();
  const double device_bound = device_ms > 0 ? 1000.0 / device_ms : inf;
  const double arm_bound =
      arm_ms > 0 ? 1000.0 *
                       std::min<double>(arm_workers,
                                        static_cast<double>(w.sessions.size())) /
                       arm_ms
                 : inf;
  const double latency_mean = mean(pass.latencies_ms);
  const double self_per_frame = stage_self_ms / nf;

  report.metric("features.extract_ms", mean_of("FeatureBackend::extract"), "ms");
  report.metric("features.keypoints_per_frame", static_cast<double>(features) / nf,
                "count");
  report.metric("slam.match_ms", loc ? loc_fm / nf : mean_of("Tracker::match"), "ms");
  report.metric("slam.match_gated_frac", static_cast<double>(gated) / nf, "ratio");
  report.metric("slam.matches_per_frame", static_cast<double>(matches) / nf, "count");
  report.metric("slam.estimate_pose_ms",
                loc ? loc_pe / nf : mean_of("Tracker::estimate_pose"), "ms");
  report.metric("slam.optimize_pose_ms",
                loc ? loc_po / nf : mean_of("Tracker::optimize_pose"), "ms");
  report.metric("slam.inlier_frac",
                matches ? static_cast<double>(inliers) / static_cast<double>(matches)
                        : 0.0,
                "ratio");
  report.metric("slam.update_map_ms", mean_of("Tracker::update_map"), "ms");
  report.metric("slam.map_points", static_cast<double>(traced.map_points), "count");
  report.metric("slam.keyframes", static_cast<double>(keyframes), "count");
  report.metric("slam.map_bytes_copied", static_cast<double>(traced.map_bytes_copied),
                "B");
  report.metric("slam.localize_ms", mean_of("Localizer::process"), "ms");
  report.metric("slam.coldstart_ms",
                coldstart_n ? coldstart_sum / static_cast<double>(coldstart_n) : 0.0,
                "ms");
  report.metric("slam.snapshot_load_ms", mean_of("load_snapshot"), "ms");
  report.metric("slam.frozen_build_ms", mean_of("FrozenMap::from_snapshot"), "ms");
  report.metric("backend.job_ms", mean_of("Tracker::run_backend_job"), "ms");
  report.metric("backend.jobs",
                static_cast<double>(by_name["Tracker::run_backend_job"].count), "count");
  report.metric("backend.deltas_applied", static_cast<double>(traced.deltas_applied),
                "count");
  report.metric("backend.jobs_rejected", static_cast<double>(jobs_rejected), "count");
  report.metric("runtime.device_busy_frac", fpga_busy / pass.wall_ms, "ratio");
  report.metric("runtime.arm_busy_frac", arm_busy / (pass.wall_ms * arm_workers),
                "ratio");
  report.metric("runtime.replayed_match_frac",
                speculative ? static_cast<double>(replayed) /
                                  static_cast<double>(speculative)
                            : 0.0,
                "ratio");
  report.metric("runtime.rejected_feeds", static_cast<double>(rejected), "count");
  report.metric("runtime.sched_efficiency",
                throughput / std::min(device_bound, arm_bound), "ratio");
  report.metric("runtime.frame_latency_mean_ms", latency_mean, "ms");
  report.metric("runtime.stage_self_ms_per_frame", self_per_frame, "ms");
  report.metric("runtime.queueing_ms_per_frame", latency_mean - self_per_frame, "ms");
  report.metric("server.open_session_ms", mean_of("SlamService::open_session"), "ms");

  report.diag("traced_frames", static_cast<double>(frames));
  report.diag("device_bound_fps", device_bound == inf ? 0.0 : device_bound);
  report.diag("arm_bound_fps", arm_bound);
  report.diag("served_throughput_fps", throughput);
}

}  // namespace slambench
