// Threaded integration of the local-mapping backend with the scheduler's
// background-job lane: jobs must actually run on the ARM pool, their
// deltas must land at keyframes, drain/close must leave the tracker
// quiescent, and a disabled backend must change nothing at all.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "dataset/sequence.h"
#include "server/slam_service.h"

namespace eslam {
namespace {

OrbConfig small_orb() {
  OrbConfig orb;
  orb.n_features = 400;
  return orb;
}

TrackerOptions backend_tracker_options(bool enabled) {
  TrackerOptions tracker;
  tracker.backend.enabled = enabled;
  tracker.backend.min_keyframes = 3;
  return tracker;
}

SessionConfig session_for(const SyntheticSequence& seq, bool backend_enabled) {
  SessionConfig config;
  config.camera = seq.camera();
  config.backend.platform = Platform::kSoftware;
  config.backend.orb = small_orb();
  config.tracker = backend_tracker_options(backend_enabled);
  return config;
}

// fr1/room at 36 frames yields several keyframes (see system_test), which
// is what the backend needs to freeze and apply at least one job.
SyntheticSequence room_sequence(int frames = 36) {
  SequenceOptions opts;
  opts.frames = frames;
  return SyntheticSequence(SequenceId::kFr1Room, opts);
}

TEST(BackendScheduler, JobsRunOnPoolAndDeltasApply) {
  const SyntheticSequence seq = room_sequence();
  SlamService service(ServiceOptions{/*arm_workers=*/2});
  SessionHandle session = service.open_session(session_for(seq, true));

  for (int i = 0; i < seq.size(); ++i) session.feed(seq.frame(i));
  const std::vector<TrackResult> results = session.drain();
  ASSERT_EQ(static_cast<int>(results.size()), seq.size());

  // The background lane executed at least one BA job, and its delta was
  // folded back into the map at a later keyframe.
  const PipelineStats stats = session.stats();
  EXPECT_GT(stats.backend_jobs, 0);
  EXPECT_GT(stats.backend_busy_ms, 0.0);
  EXPECT_GE(stats.backend_deltas_applied, 1);

  const backend::BackendStats bstats = session.backend_stats();
  EXPECT_EQ(bstats.jobs_run, stats.backend_jobs);
  // One keyframe can fold several shard deltas at once, so the tracker's
  // per-delta count dominates the scheduler's per-frame count.
  EXPECT_GE(bstats.deltas_applied, stats.backend_deltas_applied);
  EXPECT_GT(bstats.keyframes_inserted, 2);
  EXPECT_GT(bstats.total_ba_iterations, 0);

  // Per-frame visibility: the delta application is stamped on a keyframe.
  int applied_frames = 0;
  for (const TrackResult& r : results) {
    if (!r.backend_applied) continue;
    ++applied_frames;
    EXPECT_TRUE(r.keyframe);
  }
  EXPECT_EQ(applied_frames, stats.backend_deltas_applied);

  // After drain the tracker is quiescent: the graph matches the stats and
  // holds every keyframe the run produced.
  EXPECT_EQ(static_cast<int>(session.tracker().keyframe_graph().size()),
            bstats.keyframes_inserted);
  session.close();
  EXPECT_EQ(service.session_count(), 0);
}

TEST(BackendScheduler, DisabledBackendLeavesLaneUntouched) {
  const SyntheticSequence seq = room_sequence(12);
  SlamService service(ServiceOptions{/*arm_workers=*/2});
  SessionHandle session = service.open_session(session_for(seq, false));
  for (int i = 0; i < seq.size(); ++i) session.feed(seq.frame(i));
  const std::vector<TrackResult> results = session.drain();

  const PipelineStats stats = session.stats();
  EXPECT_EQ(stats.backend_jobs, 0);
  EXPECT_EQ(stats.backend_deltas_applied, 0);
  EXPECT_EQ(stats.backend_busy_ms, 0.0);
  EXPECT_EQ(session.backend_stats().keyframes_inserted, 0);
  EXPECT_TRUE(session.tracker().keyframe_graph().empty());
  for (const TrackResult& r : results) {
    EXPECT_FALSE(r.backend_applied);
    EXPECT_EQ(r.n_points_culled, 0);
    EXPECT_EQ(r.n_points_fused, 0);
  }
}

TEST(BackendScheduler, PipelinedBackendMatchesItsOwnSequentialProtocol) {
  // With the backend ON, async timing may legally shift *when* a delta
  // lands, so poses need not be bit-identical to sequential.  What must
  // hold: a delta is only applied after its job ran, every job traces
  // back to a freeze event, and the session survives the full sequence.
  const SyntheticSequence seq = room_sequence();
  SlamService service(ServiceOptions{/*arm_workers=*/2});
  SessionHandle session = service.open_session(session_for(seq, true));
  for (int i = 0; i < seq.size(); ++i) session.feed(seq.frame(i));
  const std::vector<TrackResult> results = session.drain();
  ASSERT_EQ(static_cast<int>(results.size()), seq.size());
  const backend::BackendStats bstats = session.backend_stats();
  EXPECT_LE(bstats.deltas_applied, bstats.jobs_run);
  // A freeze may emit several shard jobs (up to max_shards) plus loop
  // verifications, so jobs_run is bounded by the freeze accounting, not
  // by the keyframe count.
  EXPECT_LE(bstats.ba_jobs_run, bstats.shard_jobs_frozen);
  EXPECT_EQ(bstats.ba_jobs_run + bstats.loop_jobs_run, bstats.jobs_run);
}

TEST(BackendScheduler, SequentialInlineBackendRunsJobs) {
  // The same protocol drives the no-scheduler path: Tracker::process()
  // executes pending jobs inline, so a plain sequential run gets BA too.
  const SyntheticSequence seq = room_sequence();
  BackendConfig accel;
  accel.platform = Platform::kSoftware;
  accel.orb = small_orb();
  Tracker tracker(seq.camera(), make_feature_backend(accel),
                  backend_tracker_options(true));
  int applied = 0;
  for (int i = 0; i < seq.size(); ++i)
    applied += tracker.process(seq.frame(i)).backend_applied ? 1 : 0;
  const backend::BackendStats bstats = tracker.backend_stats();
  EXPECT_GT(bstats.jobs_run, 0);
  // Several shard deltas can land at the same keyframe, so the per-delta
  // count dominates the per-frame one.
  EXPECT_GE(bstats.deltas_applied, applied);
  EXPECT_GE(applied, 1);
  EXPECT_FALSE(tracker.backend_busy());
}

}  // namespace
}  // namespace eslam
