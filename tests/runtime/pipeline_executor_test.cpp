// Tests for the single-stream Figure-7 pipeline — one session on a
// one-worker SlamService, so FE+FM of frame N+1 run on the device lane
// while PE/PO/MU of frame N run on the one ARM worker: bounded SPSC
// queues, in-order delivery, the stage windows each result carries, the
// keyframe barrier (no authoritative FM of frame N+1 before map updating
// of frame N), end-to-end back-pressure, and bit-for-bit equivalence of
// streaming vs synchronous execution.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>

#include "accel/backend_factory.h"
#include "dataset/sequence.h"
#include "runtime/spsc_queue.h"
#include "server/slam_service.h"
#include "slam/localizer.h"
#include "slam/map_snapshot.h"

namespace eslam {
namespace {

// --- SpscRing -------------------------------------------------------------

TEST(SpscRing, BoundedFifo) {
  SpscRing<int> ring(3);
  EXPECT_EQ(ring.capacity(), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(ring.try_push(int{i}));
  int rejected = 99;
  EXPECT_FALSE(ring.try_push(std::move(rejected)));  // full: back-pressure
  int out = -1;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);  // FIFO order
  }
  EXPECT_FALSE(ring.try_pop(out));  // empty
  // Wrap-around: indices cycle through the sentinel slot correctly.
  for (int round = 0; round < 5; ++round) {
    EXPECT_TRUE(ring.try_push(10 + round));
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, 10 + round);
  }
}

TEST(SpscRing, TwoThreadStream) {
  SpscRing<int> ring(4);
  constexpr int kCount = 10000;
  std::thread producer([&] {
    for (int i = 0; i < kCount; ++i)
      while (!ring.try_push(int{i})) std::this_thread::yield();
  });
  int expected = 0;
  while (expected < kCount) {
    int v = -1;
    if (ring.try_pop(v)) {
      ASSERT_EQ(v, expected);  // SPSC preserves order, no loss, no dupes
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
}

// --- pipeline fixtures ----------------------------------------------------

// The backend make_feature_backend() builds for `platform` with default
// settings, as a session's is, so a streamed session and a sequential
// reference see identical features.
std::unique_ptr<Tracker> make_tracker(const SyntheticSequence& seq,
                                      Platform platform,
                                      const TrackerOptions& options = {}) {
  BackendConfig backend;
  backend.platform = platform;
  return std::make_unique<Tracker>(seq.camera(), make_feature_backend(backend),
                                   options);
}

// The session make_tracker() builds, as a service session config.
SessionConfig session_config(const SyntheticSequence& seq, Platform platform,
                             const TrackerOptions& options = {}) {
  SessionConfig config;
  config.camera = seq.camera();
  config.backend.platform = platform;
  config.tracker = options;
  return config;
}

// One session on a one-worker service: the paper's two-lane pipeline.
struct SingleStream {
  explicit SingleStream(const SessionConfig& config)
      : session(service.open_session(config)) {}

  // Feeds frames [first, last) and drains them.
  std::vector<TrackResult> run(const SyntheticSequence& seq, int first,
                               int last) {
    for (int i = first; i < last; ++i) session.feed(seq.frame(i));
    return session.drain();
  }

  SlamService service{ServiceOptions{/*arm_workers=*/1}};
  SessionHandle session;
};

// --- equivalence ----------------------------------------------------------

TEST(SingleStreamPipeline, StreamingMatchesSynchronousBitForBit) {
  SequenceOptions opts;
  opts.frames = 10;
  const SyntheticSequence seq(SequenceId::kFr1Xyz, opts);

  const auto sync = make_tracker(seq, Platform::kAccelerated);
  std::vector<TrackResult> reference;
  for (int i = 0; i < opts.frames; ++i)
    reference.push_back(sync->process(seq.frame(i)));

  SingleStream streamed(session_config(seq, Platform::kAccelerated));
  const std::vector<TrackResult> results = streamed.run(seq, 0, opts.frames);

  ASSERT_EQ(results.size(), reference.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const TrackResult& a = results[i];
    const TrackResult& b = reference[i];
    // Bit-for-bit: the pipeline's replayed matches always equal what the
    // sequential schedule computes, so every derived quantity is exact.
    EXPECT_EQ((a.pose_wc.translation() - b.pose_wc.translation()).max_abs(),
              0.0) << "frame " << i;
    EXPECT_EQ((a.pose_wc.rotation() - b.pose_wc.rotation()).max_abs(), 0.0)
        << "frame " << i;
    EXPECT_EQ(a.keyframe, b.keyframe) << "frame " << i;
    EXPECT_EQ(a.lost, b.lost) << "frame " << i;
    EXPECT_EQ(a.n_features, b.n_features) << "frame " << i;
    EXPECT_EQ(a.n_matches, b.n_matches) << "frame " << i;
    EXPECT_EQ(a.n_inliers, b.n_inliers) << "frame " << i;
  }
  EXPECT_EQ(streamed.session.tracker().map().size(), sync->map().size());
}

// --- in-order delivery & reuse -------------------------------------------

TEST(SingleStreamPipeline, DeliversResultsInFeedOrderAndSurvivesDrain) {
  SequenceOptions opts;
  opts.frames = 8;
  const SyntheticSequence seq(SequenceId::kFr1Xyz, opts);
  SingleStream pipe(session_config(seq, Platform::kSoftware));

  const std::vector<TrackResult> first = pipe.run(seq, 0, 5);
  ASSERT_EQ(first.size(), 5u);
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(first[static_cast<std::size_t>(i)].timestamp, seq.timestamp(i));

  // The pipeline stays usable after a drain.
  const std::vector<TrackResult> second = pipe.run(seq, 5, 8);
  ASSERT_EQ(second.size(), 3u);
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(second[static_cast<std::size_t>(i)].timestamp,
              seq.timestamp(5 + i));

  ASSERT_EQ(pipe.service.session_count(), 1);
  const PipelineStats stats = pipe.session.stats();
  EXPECT_EQ(stats.frames_fed, 8);
  EXPECT_EQ(stats.frames_retired, 8);
  EXPECT_GT(stats.fpga_busy_ms, 0.0);
  EXPECT_GT(stats.arm_busy_ms, 0.0);
}

// --- stage windows --------------------------------------------------------

bool no_windows(const StageWindows& w) {
  for (const StageWindow& stage : {w.fe, w.fm, w.pe, w.po, w.mu})
    if (stage.start_ms != 0 || stage.end_ms != 0) return false;
  return true;
}

TEST(SingleStreamPipeline, DeliveredResultsCarryTheirStageWindows) {
  SequenceOptions opts;
  opts.frames = 8;
  const SyntheticSequence seq(SequenceId::kFr1Xyz, opts);
  SingleStream pipe(session_config(seq, Platform::kSoftware));
  const std::vector<TrackResult> results = pipe.run(seq, 0, opts.frames);
  ASSERT_EQ(results.size(), static_cast<std::size_t>(opts.frames));

  for (std::size_t n = 0; n < results.size(); ++n) {
    const StageWindows& w = results[n].windows;
    // FE, FM, PE, PO, MU in that order, none ending before it starts.
    double previous_end = 0;
    for (const StageWindow& stage : {w.fe, w.fm, w.pe, w.po, w.mu}) {
      EXPECT_LE(previous_end, stage.start_ms) << "frame " << n;
      EXPECT_LE(stage.start_ms, stage.end_ms) << "frame " << n;
      previous_end = stage.end_ms;
    }
    EXPECT_GT(w.mu.end_ms, 0.0) << "frame " << n;
    if (n == 0) continue;
    // One device lane and one ARM worker: each runs frames in turn.
    const StageWindows& prev = results[n - 1].windows;
    EXPECT_GE(w.fe.start_ms, prev.fm.end_ms) << "frame " << n;
    EXPECT_GE(w.pe.start_ms, prev.mu.end_ms) << "frame " << n;
  }

  // No service lane ran these: the sequential results, and a localization
  // session over the map they built.
  const auto sequential = make_tracker(seq, Platform::kSoftware);
  for (int i = 0; i < opts.frames; ++i)
    EXPECT_TRUE(no_windows(sequential->process(seq.frame(i)).windows));
  SessionConfig localization_config = session_config(seq, Platform::kSoftware);
  localization_config.kind = SessionKind::kLocalization;
  localization_config.frozen_map = FrozenMap::from_snapshot(capture_snapshot(
      sequential->map(), sequential->keyframe_graph(), seq.camera()));
  SessionHandle localization = pipe.service.open_session(localization_config);
  for (int i = 0; i < opts.frames; ++i) localization.feed(seq.frame(i));
  const std::vector<TrackResult> localized = localization.drain();
  ASSERT_EQ(localized.size(), static_cast<std::size_t>(opts.frames));
  for (const TrackResult& r : localized) EXPECT_TRUE(no_windows(r.windows));
  localization.close();
}

// --- keyframe barrier -----------------------------------------------------

// Slows the ARM lane far below the FPGA lane so FM of frame N+1 is
// normally ready while frame N is still in pose estimation: speculation
// kicks in, and a key frame forces a replay of its successor's
// speculative match behind its map update.
TrackerOptions slow_arm_options() {
  TrackerOptions opts;
  // Pin RANSAC to a fixed, large iteration count: min == max defeats the
  // adaptive stop and an unreachable early-exit share defeats the early
  // exit, so pose estimation dominates every frame.  The count must make
  // PE clearly slower than software FE + 2x FM (~300 ms here), or the
  // FPGA lane becomes the bottleneck and never speculates.  That must
  // hold under ThreadSanitizer too, which slows the memory-bound FE far
  // more than PE's register arithmetic (a hypothesis plus its scoring is
  // ~6 us at ~1000 correspondences in an optimized build).
  opts.ransac.max_iterations = 48000;
  opts.ransac.min_iterations = 48000;
  opts.ransac.early_exit_ratio = 1.1;
  // More key frames (and thus more barrier/replay events) in few frames.
  opts.keyframe.translation_threshold = 0.05;
  opts.keyframe.rotation_threshold = 5.0 * M_PI / 180.0;
  return opts;
}

TEST(SingleStreamPipeline, KeyframeBarrierOrdersMatchAfterMapUpdate) {
  // Dense enough sampling that the room sweep stays trackable (see the
  // system_test note on kFr1Room) while still crossing the lowered
  // key-frame thresholds several times.
  SequenceOptions opts;
  opts.frames = 36;
  const SyntheticSequence seq(SequenceId::kFr1Room, opts);
  SingleStream pipe(
      session_config(seq, Platform::kSoftware, slow_arm_options()));

  const std::vector<TrackResult> results = pipe.run(seq, 0, opts.frames);
  ASSERT_EQ(results.size(), static_cast<std::size_t>(opts.frames));

  int keyframes_with_successor = 0;
  int late_keyframes = 0;  // key frames whose ARM work could overlap FM
  for (int n = 0; n + 1 < opts.frames; ++n) {
    const TrackResult& key = results[static_cast<std::size_t>(n)];
    if (!key.keyframe) continue;
    ++keyframes_with_successor;
    if (n > 0) ++late_keyframes;
    // The paper's dependency: FM of N+1 sees the map only after MU of N.
    // A result's FM window is the authoritative run's.
    EXPECT_GE(results[static_cast<std::size_t>(n) + 1].windows.fm.start_ms,
              key.windows.mu.end_ms)
        << "FM of frame " << n + 1 << " overlapped MU of key frame " << n;
  }
  ASSERT_GE(keyframes_with_successor, 1);  // bootstrap at minimum
  ASSERT_GE(late_keyframes, 1);  // a key frame the device lane can outrun

  // With the ARM lane this slow the FPGA lane usually runs ahead: frames
  // after a slow PE speculate their match, and a speculative match of a
  // key frame's successor is replayed behind the map update.  Usually, not
  // always — under CPU contention the device lane may reach that successor
  // only after MU, matching it authoritatively with nothing to replay —
  // so the replay count is bounded by the speculative count, not tied to
  // the number of key frames.  The barrier check above holds either way.
  const PipelineStats stats = pipe.session.stats();
  EXPECT_GT(stats.speculative_matches, 0);
  EXPECT_GE(stats.replayed_matches, 1);  // the replay path ran
  EXPECT_LE(stats.replayed_matches, stats.speculative_matches);
  EXPECT_GE(stats.max_in_flight, 2);  // frames genuinely overlapped
}

// --- back-pressure --------------------------------------------------------

TEST(SingleStreamPipeline, BoundedQueuesRejectFeedsUnderBackPressure) {
  SequenceOptions opts;
  opts.frames = 12;
  const SyntheticSequence seq(SequenceId::kFr1Xyz, opts);
  OrbConfig orb;
  orb.n_features = 400;
  const TrackerOptions tracker_opts{};
  SessionConfig config = session_config(seq, Platform::kSoftware, tracker_opts);
  config.queue_capacity = 1;
  config.backend_factory = [orb] {
    return std::make_unique<SoftwareBackend>(orb);
  };
  SingleStream pipe(config);

  // Feed without polling: the stages and 1-deep queues can hold only a
  // few frames, so immediate re-feeds must bounce.
  int accepted = 0;
  std::vector<int> accepted_frames;
  bool saw_rejection = false;
  for (int i = 0; i < opts.frames; ++i) {
    if (pipe.session.try_feed(seq.frame(i))) {
      ++accepted;
      accepted_frames.push_back(i);
    } else {
      saw_rejection = true;
    }
  }
  EXPECT_TRUE(saw_rejection);
  EXPECT_LT(accepted, opts.frames);

  const std::vector<TrackResult> results = pipe.session.drain();
  ASSERT_EQ(results.size(), static_cast<std::size_t>(accepted));
  // Accepted frames still come out in feed order.
  for (std::size_t i = 0; i < results.size(); ++i)
    EXPECT_EQ(results[i].timestamp,
              seq.timestamp(accepted_frames[i]));

  const PipelineStats stats = pipe.session.stats();
  EXPECT_GT(stats.rejected_feeds, 0);
  EXPECT_EQ(stats.frames_fed, accepted);
  EXPECT_EQ(stats.frames_retired, accepted);
  // In-flight depth is bounded by the queues plus one frame per lane.
  EXPECT_LE(stats.max_in_flight, 2 * config.queue_capacity + 2);
}

}  // namespace
}  // namespace eslam
