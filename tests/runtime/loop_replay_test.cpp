// Threaded loop-closure integration: a loop-correction delta is one more
// structural map write under the epoch rule, so the pipelined runtime —
// speculative matches and all — must absorb it exactly like a keyframe
// insertion: speculation replays (estimate_pose ASSERTS on a stale match,
// so mere survival of these runs is the replay-correctness check),
// results keep flowing in order, and tracking continues on the corrected
// map.  The sequential run pins down the deterministic baseline: the
// revisit leg must detect, verify and apply a correction inline, twice
// over identical inputs with identical results.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "dataset/sequence.h"
#include "eval/ate.h"
#include "server/slam_service.h"

namespace eslam {
namespace {

constexpr int kFrames = 300;

OrbConfig small_orb() {
  OrbConfig orb;
  orb.n_features = 500;
  return orb;
}

// The loop workload's active-window configuration (see bench/loop_closure
// for the rationale): a small prune age bounds the matcher's working set,
// place memory lives in the keyframe database.
TrackerOptions loop_tracker_options() {
  TrackerOptions tracker;
  tracker.backend.enabled = true;
  tracker.backend.loop.enabled = true;
  tracker.lifecycle.max_age = kFrames / 6;
  // Pure age pruning: the retention override would keep proven landmarks
  // alive across the revisit, closing the loop implicitly through matching
  // instead of through a detected correction.
  tracker.lifecycle.protect_min_matches = 0;
  tracker.backend.loop.min_frame_gap = kFrames / 5;
  return tracker;
}

SyntheticSequence loop_sequence() {
  SequenceOptions opts;
  opts.frames = kFrames;
  return SyntheticSequence(SequenceId::kLoopRevisit, opts);
}

TEST(LoopReplay, SequentialRevisitClosesDeterministically) {
  const SyntheticSequence seq = loop_sequence();
  Tracker tracker(seq.camera(),
                  std::make_unique<SoftwareBackend>(small_orb()),
                  loop_tracker_options());
  int loop_closed_frames = 0;
  int lost = 0;
  std::vector<SE3> poses;
  for (int i = 0; i < seq.size(); ++i) {
    const TrackResult r = tracker.process(seq.frame(i));
    loop_closed_frames += r.loop_closed;
    lost += r.lost;
    poses.push_back(r.pose_wc);
  }
  const backend::BackendStats stats = tracker.backend_stats();
  EXPECT_GE(stats.loops_detected, 1);
  EXPECT_GE(stats.loops_applied, 1);
  EXPECT_EQ(stats.loops_applied, loop_closed_frames);
  // Tracking must survive its own correction: the rebase keeps the very
  // next projection of the corrected map unchanged.  (Brief losses are
  // allowed — the indexed relocalization recovers them within frames.)
  EXPECT_LT(lost, kFrames / 5);
  const double ate =
      absolute_trajectory_error(poses, seq.ground_truth()).rmse;
  EXPECT_LT(ate, 1.0) << "revisit ATE " << ate << " m";

  // Determinism: the same frames reproduce the same corrections.
  Tracker again(seq.camera(), std::make_unique<SoftwareBackend>(small_orb()),
                loop_tracker_options());
  std::vector<SE3> poses2;
  for (int i = 0; i < seq.size(); ++i)
    poses2.push_back(again.process(seq.frame(i)).pose_wc);
  ASSERT_EQ(poses.size(), poses2.size());
  for (std::size_t i = 0; i < poses.size(); ++i)
    EXPECT_EQ(poses[i].translation(), poses2[i].translation())
        << "frame " << i;
  EXPECT_EQ(again.backend_stats().loops_applied, stats.loops_applied);
}

TEST(LoopReplay, PipelinedSpeculationAbsorbsLoopDeltas) {
  const SyntheticSequence seq = loop_sequence();
  SlamService service(ServiceOptions{/*arm_workers=*/2});
  SessionConfig config;
  config.camera = seq.camera();
  config.tracker = loop_tracker_options();
  config.backend_factory = [] {
    return std::make_unique<SoftwareBackend>(small_orb());
  };
  SessionHandle session = service.open_session(config);

  std::vector<TrackResult> results;
  for (int i = 0; i < seq.size(); ++i) session.feed(seq.frame(i));
  for (TrackResult& r : session.drain()) results.push_back(std::move(r));
  ASSERT_EQ(static_cast<int>(results.size()), seq.size());

  // Loop jobs ran on the background lane; detections are deterministic
  // (graph content is), application timing is not — but with the whole
  // return leg as revisit runway at least one correction must land.
  const PipelineStats stats = session.stats();
  const backend::BackendStats backend = session.backend_stats();
  EXPECT_GE(backend.loops_detected, 1);
  EXPECT_GE(backend.loops_applied, 1);

  // Tracking survived: the epoch rule replayed every speculative match
  // that a correction (or keyframe) invalidated — a missed replay would
  // have tripped the tracker's stale-match assertion and aborted.
  int lost = 0, reloc_fallbacks = 0;
  for (const TrackResult& r : results) {
    lost += r.lost;
    if (r.reloc_attempted && r.match_tier == MatchTier::kBruteForce)
      ++reloc_fallbacks;
  }
  EXPECT_LT(lost, kFrames / 5);
  EXPECT_GE(stats.speculative_matches, stats.replayed_matches);
  // Recovery never degraded to the map-wide brute-force fallback.
  EXPECT_EQ(reloc_fallbacks, 0);
  session.close();
}

}  // namespace
}  // namespace eslam
