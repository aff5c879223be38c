// Localization-tier scaling: K=1 mapping session + M read-only
// localization sessions served concurrently by server/SlamService over a
// map snapshot saved to disk and reloaded through FrozenMap::load — the
// full persistence path, not an in-memory shortcut.
//
// The point of the tier: localization frames never touch the device lane
// or the backend-job lane.  Each one is a single ARM work unit (FE + gated
// FM against the frozen SoA planes + PE + PO, no MU), so M sessions
// spread across the worker pool and localization throughput scales with
// cores instead of serializing behind the fabric.  The bench measures
// per-tier p50/p99 latency and aggregate FPS for M in {1, 2, 4} with the
// mapping session running beside them the whole time, and enforces two
// gates on hosts with >= 4 hardware threads (CI's runners):
//   - localization p99 at M=4 stays <= 1.5x the M=1 p99 (pool scaling);
//   - every served localization stream is bit-identical to a solo
//     sequential Localizer run against the same loaded map.
// On smaller machines the real per-frame compute timeshares, so the ratio
// is reported without gating the exit code — the bit-identity and
// cold-start checks always gate.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "server/slam_service.h"
#include "slam/map_snapshot.h"

namespace {

using namespace eslam;

constexpr int kArmWorkers = 4;
constexpr int kOrbFeatures = 400;
constexpr double kRequiredP99Ratio = 1.5;  // M=1 -> M=4, localization tier

OrbConfig bench_orb() {
  OrbConfig orb;
  orb.n_features = kOrbFeatures;
  return orb;
}

struct RunResult {
  double wall_ms = 0;
  double aggregate_fps = 0;          // mapping + localization frames
  double loc_p50_ms = 0, loc_p99_ms = 0;
  double map_p50_ms = 0, map_p99_ms = 0;
  std::vector<std::vector<TrackResult>> loc_results;  // per session
  std::vector<TrackResult> map_results;
};

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t i = std::min(
      v.size() - 1, static_cast<std::size_t>(p * static_cast<double>(v.size())));
  return v[i];
}

// Closed try_feed/poll loop (one feeder thread per session) so delivery
// timestamps are tight; returns this session's per-frame latencies.
std::vector<double> drive(SessionHandle& session,
                          const std::vector<FrameInput>& input,
                          std::vector<TrackResult>& out,
                          const bench::WallTimer& timer) {
  std::vector<double> fed_at(input.size(), 0.0);
  std::vector<double> latencies;
  std::size_t next = 0;
  while (out.size() < input.size()) {
    bool progress = false;
    if (next < input.size() && session.try_feed(input[next])) {
      fed_at[next] = timer.elapsed_ms();
      ++next;
      progress = true;
    }
    while (auto r = session.poll()) {
      latencies.push_back(timer.elapsed_ms() - fed_at[out.size()]);
      out.push_back(std::move(*r));
      progress = true;
    }
    if (!progress) std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return latencies;
}

// One mapping session plus `m` localization sessions over the shared
// frozen map, all fed concurrently.
RunResult run_tier(int m, const std::shared_ptr<const FrozenMap>& frozen,
                   const PinholeCamera& camera,
                   const std::vector<FrameInput>& frames) {
  SlamService service(ServiceOptions{kArmWorkers});

  SessionConfig mapping;
  mapping.camera = camera;
  mapping.backend.platform = Platform::kSoftware;
  mapping.backend.orb = bench_orb();
  SessionHandle mapper = service.open_session(mapping);

  std::vector<SessionHandle> localizers;
  localizers.reserve(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) {
    SessionConfig config;
    config.kind = SessionKind::kLocalization;
    config.frozen_map = frozen;
    config.backend.platform = Platform::kSoftware;
    config.backend.orb = bench_orb();
    localizers.push_back(service.open_session(config));
  }

  RunResult run;
  run.loc_results.resize(static_cast<std::size_t>(m));
  std::mutex mutex;
  std::vector<double> loc_latencies, map_latencies;

  const bench::WallTimer timer;
  std::vector<std::thread> feeders;
  feeders.emplace_back([&] {
    std::vector<double> local = drive(mapper, frames, run.map_results, timer);
    const std::lock_guard<std::mutex> lock(mutex);
    map_latencies.insert(map_latencies.end(), local.begin(), local.end());
  });
  for (int i = 0; i < m; ++i) {
    feeders.emplace_back([&, i] {
      std::vector<double> local =
          drive(localizers[static_cast<std::size_t>(i)], frames,
                run.loc_results[static_cast<std::size_t>(i)], timer);
      const std::lock_guard<std::mutex> lock(mutex);
      loc_latencies.insert(loc_latencies.end(), local.begin(), local.end());
    });
  }
  for (std::thread& t : feeders) t.join();

  run.wall_ms = timer.elapsed_ms();
  run.aggregate_fps = 1000.0 * static_cast<double>((m + 1) * frames.size()) /
                      run.wall_ms;
  run.loc_p50_ms = percentile(loc_latencies, 0.50);
  run.loc_p99_ms = percentile(loc_latencies, 0.99);
  run.map_p50_ms = percentile(map_latencies, 0.50);
  run.map_p99_ms = percentile(map_latencies, 0.99);
  return run;
}

using bench::check;
using bench::failures;

bool bit_identical(const std::vector<TrackResult>& served,
                   const std::vector<TrackResult>& reference) {
  if (served.size() != reference.size()) return false;
  for (std::size_t f = 0; f < served.size(); ++f) {
    if ((served[f].pose_wc.translation() -
         reference[f].pose_wc.translation()).max_abs() != 0.0 ||
        (served[f].pose_wc.rotation() -
         reference[f].pose_wc.rotation()).max_abs() != 0.0 ||
        served[f].lost != reference[f].lost ||
        served[f].n_matches != reference[f].n_matches ||
        served[f].n_inliers != reference[f].n_inliers ||
        served[f].match_tier != reference[f].match_tier)
      return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace eslam;
  const int frames = argc > 1 ? std::atoi(argv[1]) : 60;
  bench::print_header(
      "Localization tier: per-tier latency / aggregate FPS vs session count",
      "frozen-map read-only serving beside the Figure-7 mapping pipeline");

  SequenceOptions seq_opts;
  seq_opts.frames = frames;
  const SyntheticSequence seq(SequenceId::kFr1Desk, seq_opts);
  const std::vector<FrameInput> inputs = bench::render_all(seq);

  // Build the map once (sequential, backend on, outside the timed region),
  // save it, and serve every run from the *loaded* snapshot.
  const std::string map_path = "BENCH_localization_scaling.map";
  {
    TrackerOptions options;
    options.backend.enabled = true;
    Tracker mapper(seq.camera(), std::make_unique<SoftwareBackend>(bench_orb()),
                   options);
    for (const FrameInput& f : inputs) mapper.process(f);
    const MapSnapshot snapshot =
        capture_snapshot(mapper.map(), mapper.keyframe_graph(), seq.camera());
    std::string error;
    if (!save_snapshot(map_path, snapshot, &error)) {
      std::fprintf(stderr, "cannot save %s: %s\n", map_path.c_str(),
                   error.c_str());
      return 1;
    }
  }
  std::string error;
  const std::shared_ptr<const FrozenMap> frozen =
      FrozenMap::load(map_path, &error);
  if (!frozen) {
    std::fprintf(stderr, "cannot load %s: %s\n", map_path.c_str(),
                 error.c_str());
    return 1;
  }
  std::printf("map: %d frames -> %zu points, %zu keyframes (saved + "
              "reloaded via %s)\nhost: %u hardware threads; ARM pool %d "
              "workers; 1 mapping session beside every run\n\n",
              frames, frozen->size(), frozen->graph().size(), map_path.c_str(),
              std::thread::hardware_concurrency(), kArmWorkers);

  // Solo sequential localizer: the bit-identity oracle.
  std::vector<TrackResult> solo;
  {
    Localizer localizer(frozen,
                        std::make_unique<SoftwareBackend>(bench_orb()));
    for (const FrameInput& f : inputs) solo.push_back(localizer.process(f));
  }

  std::printf("%4s %10s %14s %12s %12s %12s %12s\n", "M", "wall ms",
              "aggregate fps", "loc p50", "loc p99", "map p50", "map p99");
  const int session_counts[] = {1, 2, 4};
  std::vector<RunResult> runs;
  for (const int m : session_counts) {
    runs.push_back(run_tier(m, frozen, seq.camera(), inputs));
    const RunResult& r = runs.back();
    std::printf("%4d %10.0f %14.1f %12.1f %12.1f %12.1f %12.1f\n", m,
                r.wall_ms, r.aggregate_fps, r.loc_p50_ms, r.loc_p99_ms,
                r.map_p50_ms, r.map_p99_ms);
  }
  const double p99_ratio = runs[2].loc_p99_ms / runs[0].loc_p99_ms;
  std::printf("\nlocalization p99 ratio M=1 -> M=4: %.2fx\n\n", p99_ratio);

  {
    bench::BenchJson json("localization_scaling");
    json.number("frames", frames);
    json.number("arm_workers", kArmWorkers);
    json.number("map_points", static_cast<double>(frozen->size()));
    json.number("map_keyframes", static_cast<double>(frozen->graph().size()));
    json.number("loc_p99_ratio_1_to_4", p99_ratio);
    const std::string columns[] = {"localization_sessions", "wall_ms",
                                   "aggregate_fps", "loc_p50_ms", "loc_p99_ms",
                                   "map_p50_ms", "map_p99_ms"};
    std::vector<std::vector<double>> rows;
    for (std::size_t i = 0; i < runs.size(); ++i)
      rows.push_back({static_cast<double>(session_counts[i]), runs[i].wall_ms,
                      runs[i].aggregate_fps, runs[i].loc_p50_ms,
                      runs[i].loc_p99_ms, runs[i].map_p50_ms,
                      runs[i].map_p99_ms});
    json.rows("tiers", columns, rows);
    json.write();
    std::printf("\n");
  }

  std::printf("checks:\n");
  bool all_delivered = true;
  for (const RunResult& r : runs) {
    if (r.map_results.size() != inputs.size()) all_delivered = false;
    for (const std::vector<TrackResult>& session : r.loc_results)
      if (session.size() != inputs.size()) all_delivered = false;
  }
  check(all_delivered, "every session delivered every frame in every run");

  bool identical = true;
  for (const RunResult& r : runs)
    for (const std::vector<TrackResult>& session : r.loc_results)
      if (!bit_identical(session, solo)) identical = false;
  check(identical,
        "every served localization stream bit-identical to the solo "
        "sequential run against the loaded map");

  bool cold_started = true;
  for (const RunResult& r : runs)
    for (const std::vector<TrackResult>& session : r.loc_results)
      if (session.empty() || session[0].lost || !session[0].relocalized)
        cold_started = false;
  check(cold_started,
        "every localization session cold-started through indexed "
        "relocalization on its first frame");

  // The scaling gate is defined for a >= 4-core host (CI's runners): there
  // the pool really runs the 4 localization sessions in parallel, so p99
  // must stay within 1.5x of the M=1 run.  On smaller machines the real
  // per-frame compute timeshares and the ratio is informational.
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores >= 4) {
    check(p99_ratio <= kRequiredP99Ratio,
          "localization p99 at M=4 within 1.5x of M=1");
  } else {
    std::printf("  [%s] localization p99 at M=4 within 1.5x of M=1 "
                "(informational: gate needs >= 4 hardware threads, host has "
                "%u)\n",
                p99_ratio <= kRequiredP99Ratio ? "ok" : "--", cores);
  }

  std::remove(map_path.c_str());
  if (failures == 0)
    std::printf("\nlocalization tier serves bit-identically and scales on "
                "the pool.\n");
  else
    std::printf("\n%d check(s) failed.\n", failures);
  return failures == 0 ? 0 : 1;
}
