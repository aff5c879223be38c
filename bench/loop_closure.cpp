// Loop closure & indexed relocalization: ATE with the pose-graph
// correction on vs off over a looped sequence, and recovery from an
// induced tracking loss via the keyframe-recognition index.
//
// Workload: the synthetic loop-revisit sweep (dataset/trajectory_gen
// kLoopRevisit) — a long out-and-back arc whose return leg re-observes
// the outbound views after an absence long enough that the active-window
// map has forgotten them; only the keyframe database remembers the place,
// and drift accumulated over the round trip is exactly what the
// pose-graph correction must claw back.  This is the regime
// append-and-prune map updating cannot fix on its own.
//
// Three deterministic sequential comparisons over identical pre-rendered
// frames (inline backend jobs, exactly reproducible):
//   * closure-off vs closure-on ATE (same backend-BA config, only
//     LoopOptions.enabled differs) — the correction must pay for itself;
//   * nominal run: the relocalization tier must stay silent (the
//     brute-force fallback counter is the regression canary: the indexed
//     path must never silently degrade into map-wide scans);
//   * induced-loss run: a stretch of blank frames kills tracking, and
//     recovery must come through the keyframe index (match_tier
//     kRelocIndex), not the full-map fallback.
// Plus a served (asynchronous) run: loop jobs ride the scheduler's
// background lane and the reloc/loop counters surface in PipelineStats.
//
// Exit code: non-zero in the target regime (>= 300 frames) when
// closure-on fails to beat closure-off, no correction lands, the nominal
// run touches the reloc tier, or the loss run fails to relocalize via the
// index.  Smoke runs report the same numbers informationally.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "eval/ate.h"
#include "server/slam_service.h"

namespace {

using namespace eslam;
using bench::WallTimer;

constexpr int kDefaultFrames = 420;
// Gates enforce at the tuned default workload and above: below ~400
// frames the sweep's per-frame motion grows enough that the (scaled)
// detection gaps and verification thresholds land differently, and the
// numbers are reported rather than enforced.
constexpr int kTargetRegimeFrames = 400;

using bench::check;
using bench::failures;
using bench::info;
using bench::note;

// The loop workload runs the tracker with an *active-window* map: a small
// prune age keeps the matcher's working set to the recently-visible scene
// (bounded junk-match mass, no stale-duplicate interference at the
// revisit), while place memory lives where it now belongs — in the
// keyframe database, which recognition, relocalization and loop
// verification all read.  Detection gaps scale with the sequence length.
TrackerOptions tracker_options(bool loop_on, int frames) {
  TrackerOptions opts;
  opts.backend.enabled = true;
  opts.backend.loop.enabled = loop_on;
  opts.lifecycle.max_age = std::max(40, frames / 6);
  // Pure age pruning: the retention override would keep the revisited
  // region's landmarks alive, and the loop would close implicitly through
  // matching instead of exercising detection + correction.
  opts.lifecycle.protect_min_matches = 0;
  opts.backend.loop.min_frame_gap = std::max(30, frames / 5);
  return opts;
}

struct RunOutcome {
  std::vector<SE3> poses;
  double ate_rmse = 0;
  double tail_ate_rmse = 0;  // last 15% of frames — where correction lands
  int lost = 0;
  int keyframes = 0;
  int reloc_attempts = 0;
  int reloc_index_hits = 0;  // recovered frames matched via the index
  int reloc_fallbacks = 0;   // reloc frames that fell back to brute force
  int loop_closed_frames = 0;
  // First indexed recovery at or after `recovery_gate_frame` — for the
  // induced-loss run the gate sits at the blank window's start, so a
  // recovery from an unrelated earlier dropout cannot satisfy the check
  // vacuously.
  int recovery_gate_frame = 0;
  int first_recovered_frame = -1;
  backend::BackendStats backend;
};

void fold_result(RunOutcome& run, const TrackResult& r, int frame) {
  run.poses.push_back(r.pose_wc);
  run.lost += r.lost;
  run.keyframes += r.keyframe;
  run.loop_closed_frames += r.loop_closed;
  if (r.reloc_attempted) {
    ++run.reloc_attempts;
    if (r.match_tier == MatchTier::kBruteForce) ++run.reloc_fallbacks;
    if (!r.lost && r.match_tier == MatchTier::kRelocIndex) {
      ++run.reloc_index_hits;
      if (run.first_recovered_frame < 0 && frame >= run.recovery_gate_frame)
        run.first_recovered_frame = frame;
    }
  }
}

void finish(RunOutcome& run, const std::vector<SE3>& truth) {
  run.ate_rmse = absolute_trajectory_error(run.poses, truth).rmse;
  const std::size_t tail = std::max<std::size_t>(
      3, static_cast<std::size_t>(0.15 * static_cast<double>(truth.size())));
  const std::size_t from = truth.size() - tail;
  run.tail_ate_rmse =
      absolute_trajectory_error(
          std::span<const SE3>(run.poses).subspan(from),
          std::span<const SE3>(truth).subspan(from))
          .rmse;
}

RunOutcome run_sequential(const SyntheticSequence& seq,
                          const std::vector<FrameInput>& frames,
                          bool loop_on, int recovery_gate_frame = 0) {
  RunOutcome run;
  run.recovery_gate_frame = recovery_gate_frame;
  Tracker tracker(seq.camera(), std::make_unique<SoftwareBackend>(),
                  tracker_options(loop_on, static_cast<int>(frames.size())));
  for (std::size_t i = 0; i < frames.size(); ++i)
    fold_result(run, tracker.process(frames[i]), static_cast<int>(i));
  run.backend = tracker.backend_stats();
  finish(run, seq.ground_truth());
  return run;
}

// Blanks a stretch of frames (featureless images): tracking is lost and
// must recover through relocalization when the scene returns.
std::vector<FrameInput> with_induced_loss(std::vector<FrameInput> frames,
                                          int from, int count) {
  for (int i = from; i < from + count && i < static_cast<int>(frames.size());
       ++i) {
    frames[static_cast<std::size_t>(i)].gray =
        ImageU8(frames[static_cast<std::size_t>(i)].gray.width(),
                frames[static_cast<std::size_t>(i)].gray.height(), 0);
  }
  return frames;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace eslam;
  bench::print_header(
      "Loop closure: keyframe recognition + pose-graph correction",
      "drift correction & recovery the eSLAM frontend inherits from "
      "ORB-SLAM's keyframe database (ROADMAP items: relocalization, loop "
      "closure)");

  SequenceOptions opts;
  opts.frames = argc > 1 ? std::atoi(argv[1]) : kDefaultFrames;
  if (opts.frames < 10) opts.frames = 10;
  const SyntheticSequence seq(SequenceId::kLoopRevisit, opts);
  const std::vector<FrameInput> frames = bench::render_all(seq);
  std::printf("sequence %s, %d frames (out-and-back revisit)\n\n",
              seq.name().c_str(), opts.frames);

  // --- closure-on vs closure-off (sequential, deterministic) --------------
  const RunOutcome off = run_sequential(seq, frames, false);
  const RunOutcome on = run_sequential(seq, frames, true);

  std::printf("ATE rmse: closure-off %.2f cm, closure-on %.2f cm (%+.1f%%)\n",
              off.ate_rmse * 100, on.ate_rmse * 100,
              (on.ate_rmse / off.ate_rmse - 1.0) * 100);
  std::printf("  revisit tail (last 15%%): off %.2f cm, on %.2f cm\n",
              off.tail_ate_rmse * 100, on.tail_ate_rmse * 100);
  std::printf("  loops: detected %d, verified %d, rejected %d, applied %d "
              "(last: %d inliers, %.1f cm correction, %d PGO iterations)\n",
              on.backend.loops_detected, on.backend.loops_verified,
              on.backend.loops_rejected, on.backend.loops_applied,
              on.backend.last_loop_inliers,
              on.backend.last_loop_correction_m * 100,
              on.backend.total_pose_graph_iterations);
  std::printf("  keyframes %d, lost off %d / on %d\n\n", on.keyframes,
              off.lost, on.lost);

  // --- induced-loss relocalization (sequential, deterministic) ------------
  const int loss_from = opts.frames / 2;
  const int loss_count = std::max(4, opts.frames / 50);
  const std::vector<FrameInput> loss_frames =
      with_induced_loss(frames, loss_from, loss_count);
  const RunOutcome reloc =
      run_sequential(seq, loss_frames, false, /*recovery_gate_frame=*/loss_from);
  std::printf("induced loss: frames [%d, %d) blanked\n", loss_from,
              loss_from + loss_count);
  std::printf("  reloc attempts %d, index recoveries %d, brute fallbacks "
              "%d, first recovery at frame %d (loss ends %d)\n\n",
              reloc.reloc_attempts, reloc.reloc_index_hits,
              reloc.reloc_fallbacks, reloc.first_recovered_frame,
              loss_from + loss_count);

  // --- served run: loop jobs on the background lane -----------------------
  RunOutcome served;
  int served_jobs = 0;
  {
    SlamService service(ServiceOptions{/*arm_workers=*/2});
    SessionConfig config;
    config.camera = seq.camera();
    config.tracker = tracker_options(true, opts.frames);
    config.backend_factory = [] {
      return std::make_unique<SoftwareBackend>();
    };
    SessionHandle session = service.open_session(config);
    for (const FrameInput& f : frames) session.feed(f);
    const std::vector<TrackResult> results = session.drain();
    for (std::size_t i = 0; i < results.size(); ++i)
      fold_result(served, results[i], static_cast<int>(i));
    served_jobs = session.stats().backend_jobs;
    std::printf("served: %d backend jobs on the pool, %d loops closed, %d "
                "reloc attempts (asynchronous timing — informational)\n\n",
                served_jobs, served.loop_closed_frames,
                served.reloc_attempts);
    session.close();
  }

  // --- machine-readable output -------------------------------------------
  bench::BenchJson json("loop_closure");
  json.number("frames", opts.frames);
  json.number("ate_rmse_m_off", off.ate_rmse);
  json.number("ate_rmse_m_on", on.ate_rmse);
  json.number("tail_ate_rmse_m_off", off.tail_ate_rmse);
  json.number("tail_ate_rmse_m_on", on.tail_ate_rmse);
  json.number("loops_detected", on.backend.loops_detected);
  json.number("loops_verified", on.backend.loops_verified);
  json.number("loops_rejected", on.backend.loops_rejected);
  json.number("loops_applied", on.backend.loops_applied);
  json.number("last_loop_inliers", on.backend.last_loop_inliers);
  json.number("last_loop_correction_m", on.backend.last_loop_correction_m);
  json.number("keyframes", on.keyframes);
  json.number("lost_frames_off", off.lost);
  json.number("lost_frames_on", on.lost);
  json.number("nominal_reloc_attempts", on.reloc_attempts);
  json.number("nominal_reloc_fallbacks", on.reloc_fallbacks);
  json.number("loss_reloc_attempts", reloc.reloc_attempts);
  json.number("loss_reloc_index_recoveries", reloc.reloc_index_hits);
  json.number("loss_reloc_brute_fallbacks", reloc.reloc_fallbacks);
  json.number("loss_first_recovery_frame", reloc.first_recovered_frame);
  json.number("served_loops_closed", served.loop_closed_frames);
  json.number("served_backend_jobs", served_jobs);
  json.write();

  // --- acceptance ---------------------------------------------------------
  std::printf("\nchecks:\n");
  const bool target_regime = opts.frames >= kTargetRegimeFrames;
  const bool ate_better = on.ate_rmse < off.ate_rmse;
  const bool tail_better = on.tail_ate_rmse < off.tail_ate_rmse;
  const bool loop_landed =
      on.backend.loops_applied > 0 && on.loop_closed_frames > 0;
  // Momentary losses may occur (and recover through the index within a
  // frame or two), but the map-wide brute-force fallback must never run:
  // recovery stays O(window) on the nominal path.
  const bool nominal_no_fallback =
      on.reloc_fallbacks == 0 && off.reloc_fallbacks == 0;
  // The recovery must postdate the induced loss (see recovery_gate_frame).
  const bool reloc_via_index =
      reloc.reloc_index_hits > 0 && reloc.first_recovered_frame >= loss_from;
  const bool reloc_not_brute = reloc.reloc_fallbacks == 0;
  if (target_regime) {
    check(ate_better, "closure-on ATE strictly better than closure-off "
                      "(deterministic sequential)");
    // Tail ATE is reported, not enforced: Umeyama-aligning a short
    // segment independently measures the segment's internal shape more
    // than its global drift, so the full-trajectory gate above is the
    // honest one.
    note(tail_better, "closure-on revisit-tail ATE better");
    check(loop_landed, "a verified loop correction applied to the map");
    check(nominal_no_fallback, "nominal path: zero map-wide brute-force "
                               "fallbacks (recovery stays indexed)");
    check(reloc_via_index, "after induced loss, recovery came through the "
                           "keyframe-recognition index");
    check(reloc_not_brute, "no induced-loss frame fell back to the "
                           "map-wide brute-force scan");
  } else {
    std::printf("  smoke run (need >= %d frames for enforcement) — gates "
                "reported, not enforced\n",
                kTargetRegimeFrames);
    info(ate_better, "closure-on ATE better than closure-off");
    info(tail_better, "closure-on revisit-tail ATE better");
    info(loop_landed, "a verified loop correction applied");
    info(nominal_no_fallback, "nominal path: no brute-force fallbacks");
    info(reloc_via_index, "induced-loss recovery via the index");
    info(reloc_not_brute, "no brute-force fallback on the loss run");
  }

  if (failures != 0)
    std::printf("\n%d check(s) failed.\n", failures);
  else if (target_regime)
    std::printf("\nloop closure pays for itself: drift corrected at the "
                "revisit, recovery is O(window) instead of O(map).\n");
  else
    std::printf("\nsmoke run completed (benches compile and run).\n");
  return failures == 0 ? 0 : 1;
}
