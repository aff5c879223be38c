// Tests for the multi-session serving layer: per-session results must be
// bit-identical to a solo sequential run of the same stream, sessions must
// be isolated (one stalled session's back-pressure never blocks another,
// one client's malformed frame or map-less localization open never takes
// the process down), the device lane must dispatch fairly, and the
// open/close lifecycle must leave the service reusable.
#include "server/slam_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "dataset/multi_sequence.h"
#include "slam/map_snapshot.h"

namespace eslam {
namespace {

// A gate a pacer can park a stage on until the test opens it.
class StageLatch {
 public:
  void wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    opened_.wait(lock, [this] { return open_; });
  }
  void open() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    opened_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable opened_;
  bool open_ = false;
};

// Opens the latch when the test leaves its scope by any path, so a failed
// assertion cannot leave a worker parked (and the session teardown that
// drains it hanging).
struct OpenOnExit {
  std::shared_ptr<StageLatch> latch;
  ~OpenOnExit() { latch->open(); }
};

OrbConfig small_orb() {
  OrbConfig orb;
  orb.n_features = 400;
  return orb;
}

SessionConfig software_session(const SyntheticSequence& seq,
                               const TrackerOptions& tracker = {}) {
  SessionConfig config;
  config.camera = seq.camera();
  config.backend.platform = Platform::kSoftware;
  config.backend.orb = small_orb();
  config.tracker = tracker;
  return config;
}

std::vector<TrackResult> solo_sequential(const SyntheticSequence& seq,
                                         const std::vector<int>& frames,
                                         const TrackerOptions& tracker = {}) {
  BackendConfig backend;
  backend.platform = Platform::kSoftware;
  backend.orb = small_orb();
  Tracker solo(seq.camera(), make_feature_backend(backend), tracker);
  std::vector<TrackResult> results;
  for (int i : frames) results.push_back(solo.process(seq.frame(i)));
  return results;
}

std::vector<int> iota_frames(int n) {
  std::vector<int> frames(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) frames[static_cast<std::size_t>(i)] = i;
  return frames;
}

void expect_bit_identical(const std::vector<TrackResult>& a,
                          const std::vector<TrackResult>& b,
                          const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ((a[i].pose_wc.translation() - b[i].pose_wc.translation())
                  .max_abs(),
              0.0)
        << label << " frame " << i;
    EXPECT_EQ((a[i].pose_wc.rotation() - b[i].pose_wc.rotation()).max_abs(),
              0.0)
        << label << " frame " << i;
    EXPECT_EQ(a[i].keyframe, b[i].keyframe) << label << " frame " << i;
    EXPECT_EQ(a[i].lost, b[i].lost) << label << " frame " << i;
    EXPECT_EQ(a[i].n_features, b[i].n_features) << label << " frame " << i;
    EXPECT_EQ(a[i].n_matches, b[i].n_matches) << label << " frame " << i;
    EXPECT_EQ(a[i].n_inliers, b[i].n_inliers) << label << " frame " << i;
    EXPECT_EQ(a[i].match_tier, b[i].match_tier) << label << " frame " << i;
  }
}

// --- equivalence -----------------------------------------------------------

TEST(SlamService, ConcurrentSessionsBitIdenticalToSoloSequential) {
  constexpr int kFrames = 8;
  MultiSequenceOptions mopts;
  mopts.streams = 3;
  mopts.sequence.frames = kFrames;
  const MultiSequenceSet streams(mopts);

  SlamService service(ServiceOptions{/*arm_workers=*/2});
  std::vector<SessionHandle> sessions;
  for (int i = 0; i < streams.size(); ++i)
    sessions.push_back(service.open_session(
        software_session(streams.stream(i))));
  EXPECT_EQ(service.session_count(), streams.size());

  // Interleaved feeding: the device lane sees all sessions contending.
  for (int f = 0; f < kFrames; ++f)
    for (int i = 0; i < streams.size(); ++i)
      sessions[static_cast<std::size_t>(i)].feed(streams.stream(i).frame(f));

  for (int i = 0; i < streams.size(); ++i) {
    const std::vector<TrackResult> served =
        sessions[static_cast<std::size_t>(i)].drain();
    const std::vector<TrackResult> solo =
        solo_sequential(streams.stream(i), iota_frames(kFrames));
    expect_bit_identical(served, solo,
                         streams.stream(i).name().c_str());
    const PipelineStats stats = sessions[static_cast<std::size_t>(i)].stats();
    EXPECT_EQ(stats.frames_fed, kFrames);
    EXPECT_EQ(stats.frames_retired, kFrames);
    EXPECT_EQ(stats.device_dispatches, kFrames);
  }

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.sessions_open, streams.size());
  EXPECT_EQ(stats.sessions_opened_total, streams.size());
  EXPECT_EQ(stats.device_dispatches,
            static_cast<std::int64_t>(streams.size()) * kFrames);
}

// --- per-session matching policy -------------------------------------------

TEST(SlamService, PerSessionMatchPolicy) {
  // Two sessions over the same stream with opposite MatchPolicy settings,
  // served concurrently: each must reproduce its own solo sequential run
  // bit-for-bit (tier decisions included), and the tiers must actually
  // differ — the policy is per session, not service-global.
  constexpr int kFrames = 24;  // dense enough that the gate's prior holds
  MultiSequenceOptions mopts;
  mopts.streams = 1;
  mopts.sequence.frames = kFrames;
  const MultiSequenceSet streams(mopts);
  const SyntheticSequence& seq = streams.stream(0);

  TrackerOptions gated;
  gated.match.use_gate = true;
  gated.match.min_map_points_for_gate = 100;
  TrackerOptions brute;
  brute.match.use_gate = false;

  SlamService service(ServiceOptions{/*arm_workers=*/2});
  SessionHandle gated_session =
      service.open_session(software_session(seq, gated));
  SessionHandle brute_session =
      service.open_session(software_session(seq, brute));
  for (int f = 0; f < kFrames; ++f) {
    gated_session.feed(seq.frame(f));
    brute_session.feed(seq.frame(f));
  }
  const std::vector<TrackResult> gated_served = gated_session.drain();
  const std::vector<TrackResult> brute_served = brute_session.drain();

  expect_bit_identical(gated_served,
                       solo_sequential(seq, iota_frames(kFrames), gated),
                       "gated session");
  expect_bit_identical(brute_served,
                       solo_sequential(seq, iota_frames(kFrames), brute),
                       "brute session");

  int gated_frames = 0;
  for (const TrackResult& r : gated_served)
    gated_frames += r.match_tier == MatchTier::kGated;
  EXPECT_GT(gated_frames, 0) << "gate never engaged in the gated session";
  for (const TrackResult& r : brute_served)
    EXPECT_EQ(r.match_tier, MatchTier::kBruteForce);
}

// --- isolation -------------------------------------------------------------

TEST(SlamService, StalledSessionDoesNotBlockOthers) {
  constexpr int kFrames = 6;
  MultiSequenceOptions mopts;
  mopts.streams = 2;
  mopts.sequence.frames = 8;
  const MultiSequenceSet streams(mopts);

  SlamService service(ServiceOptions{/*arm_workers=*/2});

  // Session A: 1-deep ring + an ARM side held through the platform pacer:
  // its pose estimation parks on a latch until B has drained.  Parking
  // (instead of burning iterations or sleeping a fixed time) makes A
  // outlast B however loaded the host is, and leaves the CPU free for B,
  // so the isolation property under test is not confounded by core
  // contention.
  const auto latch = std::make_shared<StageLatch>();
  SessionConfig slow = software_session(streams.stream(0));
  slow.queue_capacity = 1;
  slow.pacer = [latch](PipeStage stage) {
    if (stage == PipeStage::kPoseEstimation) latch->wait();
    return 0.0;
  };
  SessionHandle a = service.open_session(slow);
  // Session B: default, fast.
  SessionHandle b = service.open_session(software_session(streams.stream(1)));
  // Declared after the handles, so it runs first on every exit path:
  // closing a handle drains its session, which needs A's worker released.
  const OpenOnExit release{latch};

  // Burst-feed A without polling: its bounded ring must push back on A
  // only (in-flight is capped by ring depths + the two lane slots).  The
  // accepted set need not be a contiguous prefix — the device lane may
  // free a ring slot mid-burst — so remember exactly which frames got in.
  std::vector<int> accepted_frames;
  for (int f = 0; f < 8; ++f)
    if (a.try_feed(streams.stream(0).frame(f))) accepted_frames.push_back(f);
  const int accepted = static_cast<int>(accepted_frames.size());
  EXPECT_LT(accepted, 8);  // back-pressure hit
  EXPECT_GT(accepted, 0);
  EXPECT_GT(a.stats().rejected_feeds, 0);

  // B flows to completion while A is still parked in its held PE.
  for (int f = 0; f < kFrames; ++f) b.feed(streams.stream(1).frame(f));
  const std::vector<TrackResult> b_results = b.drain();
  ASSERT_EQ(b_results.size(), static_cast<std::size_t>(kFrames));
  EXPECT_GT(a.in_flight(), 0);  // A genuinely was stalled the whole time

  latch->open();
  const std::vector<TrackResult> a_results = a.drain();
  ASSERT_EQ(a_results.size(), static_cast<std::size_t>(accepted));
  // A's accepted frames still match a solo run of that exact frame set
  // bit-for-bit (the pacer holds wall time only, never changes results).
  const std::vector<TrackResult> a_solo =
      solo_sequential(streams.stream(0), accepted_frames);
  expect_bit_identical(a_results, a_solo, "stalled session");
}

// --- malformed input -------------------------------------------------------

TEST(SlamService, MalformedFramesAreRefusedAndSiblingsUnaffected) {
  constexpr int kFrames = 6;
  MultiSequenceOptions mopts;
  mopts.streams = 2;
  mopts.sequence.frames = kFrames;
  const MultiSequenceSet streams(mopts);
  const SyntheticSequence& healthy_seq = streams.stream(0);
  const SyntheticSequence& target_seq = streams.stream(1);

  // The localization session serves a map of the target stream itself.
  BackendConfig backend;
  backend.platform = Platform::kSoftware;
  backend.orb = small_orb();
  Tracker builder(target_seq.camera(), make_feature_backend(backend));
  for (int f = 0; f < kFrames; ++f) builder.process(target_seq.frame(f));
  SessionConfig loc_cfg = software_session(target_seq);
  loc_cfg.kind = SessionKind::kLocalization;
  loc_cfg.frozen_map = FrozenMap::from_snapshot(capture_snapshot(
      builder.map(), builder.keyframe_graph(), target_seq.camera()));

  SlamService service(ServiceOptions{/*arm_workers=*/2});
  SessionHandle healthy = service.open_session(software_session(healthy_seq));
  SessionHandle mapping = service.open_session(software_session(target_seq));
  SessionHandle localization = service.open_session(loc_cfg);

  // An empty frame, and a frame smaller than the session camera: both
  // used to reach FE, whose row-bounds assert aborted every session.
  FrameInput tiny;
  tiny.gray = ImageU8(32, 24);
  tiny.depth = ImageU16(32, 24);
  // Camera-sized gray images that tracking still cannot use: a NaN
  // timestamp on any session; no depth, or depth of the wrong size, on a
  // mapping session.
  FrameInput nan_time = target_seq.frame(0);
  nan_time.timestamp = std::numeric_limits<double>::quiet_NaN();
  FrameInput no_depth = target_seq.frame(0);
  no_depth.depth = ImageU16();
  FrameInput small_depth = target_seq.frame(0);
  small_depth.depth = ImageU16(32, 24);
  for (int f = 0; f < kFrames; ++f) {
    healthy.feed(healthy_seq.frame(f));
    if (f != kFrames / 2) continue;
    for (SessionHandle* target : {&mapping, &localization}) {
      EXPECT_FALSE(target->try_feed(FrameInput{})) << "empty frame";
      EXPECT_FALSE(target->feed(tiny)) << "32x24 frame";
      EXPECT_FALSE(target->feed(nan_time)) << "NaN timestamp";
    }
    EXPECT_FALSE(mapping.try_feed(no_depth)) << "mapping frame, no depth";
    EXPECT_FALSE(mapping.feed(small_depth)) << "mapping frame, 32x24 depth";
  }
  // The refusals left both targets serving well-formed frames; the
  // localizer never reads depth, so it takes and tracks a frame without.
  EXPECT_TRUE(mapping.feed(target_seq.frame(0)));
  EXPECT_TRUE(localization.feed(no_depth));

  expect_bit_identical(healthy.drain(),
                       solo_sequential(healthy_seq, iota_frames(kFrames)),
                       "healthy session");
  expect_bit_identical(mapping.drain(), solo_sequential(target_seq, {0}),
                       "mapping session after refusals");
  const std::vector<TrackResult> localized = localization.drain();
  ASSERT_EQ(localized.size(), 1u);
  EXPECT_FALSE(localized[0].lost) << "depth-less frame on the localizer";
  EXPECT_GT(localized[0].n_inliers, 0);
  EXPECT_EQ(mapping.stats().malformed_feeds, 5);
  EXPECT_EQ(localization.stats().malformed_feeds, 3);
  for (const SessionHandle* target : {&mapping, &localization}) {
    const PipelineStats stats = target->stats();
    EXPECT_EQ(stats.rejected_feeds, 0);  // refusals are not back-pressure
    EXPECT_EQ(stats.frames_fed, 1);
  }
  EXPECT_EQ(healthy.stats().malformed_feeds, 0);
}

TEST(SlamService, MaplessLocalizationOpenIsRefusedAndSiblingsUnaffected) {
  constexpr int kFrames = 6;
  MultiSequenceOptions mopts;
  mopts.streams = 1;
  mopts.sequence.frames = kFrames;
  const MultiSequenceSet streams(mopts);
  const SyntheticSequence& seq = streams.stream(0);
  obs::Counter& localization_opens = obs::metrics().counter(
      "eslam_sessions_opened_total{kind=\"localization\"}");
  const std::int64_t localization_opens_before = localization_opens.value();

  SlamService service(ServiceOptions{/*arm_workers=*/2});
  SessionHandle mapping = service.open_session(software_session(seq));
  for (int f = 0; f < kFrames / 2; ++f) mapping.feed(seq.frame(f));

  // Mid-stream, a localization open without a frozen map: it used to
  // assert, aborting the process under every session.
  SessionConfig mapless = software_session(seq);
  mapless.kind = SessionKind::kLocalization;
  SessionHandle refused = service.open_session(mapless);
  EXPECT_FALSE(refused.valid());
  EXPECT_FALSE(refused.feed(seq.frame(0)));
  EXPECT_TRUE(refused.close().empty());

  for (int f = kFrames / 2; f < kFrames; ++f) mapping.feed(seq.frame(f));
  expect_bit_identical(mapping.drain(),
                       solo_sequential(seq, iota_frames(kFrames)),
                       "mapping session beside a refused open");
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.sessions_opened_total, 1);
  EXPECT_EQ(stats.sessions_open, 1);
  EXPECT_EQ(stats.localization_sessions_opened_total, 0);
  EXPECT_EQ(localization_opens.value(), localization_opens_before);
}

// --- fairness --------------------------------------------------------------

TEST(SlamService, RoundRobinInterleavesSessionsOnTheDeviceLane) {
  constexpr int kFrames = 6;
  MultiSequenceOptions mopts;
  mopts.streams = 2;
  mopts.sequence.frames = kFrames;
  const MultiSequenceSet streams(mopts);

  SlamService service(ServiceOptions{/*arm_workers=*/2});
  SessionHandle a = service.open_session(software_session(streams.stream(0)));
  SessionHandle b = service.open_session(software_session(streams.stream(1)));

  for (int f = 0; f < kFrames; ++f) {
    a.feed(streams.stream(0).frame(f));
    b.feed(streams.stream(1).frame(f));
  }
  const std::vector<TrackResult> a_results = a.drain();
  const std::vector<TrackResult> b_results = b.drain();

  // Every frame costs exactly one device dispatch; neither session can be
  // starved into fewer.
  EXPECT_EQ(a.stats().device_dispatches, kFrames);
  EXPECT_EQ(b.stats().device_dispatches, kFrames);

  // The device lane interleaved the two sessions rather than running one
  // to completion first: B's first FE starts before A's last FE ends.
  double a_last_fe_end = 0, b_first_fe_start = 1e300;
  for (const TrackResult& r : a_results)
    a_last_fe_end = std::max(a_last_fe_end, r.windows.fe.end_ms);
  for (const TrackResult& r : b_results)
    b_first_fe_start = std::min(b_first_fe_start, r.windows.fe.start_ms);
  EXPECT_LT(b_first_fe_start, a_last_fe_end);
}

// --- lifecycle -------------------------------------------------------------

TEST(SlamService, CloseReturnsLeftoversAndServiceStaysUsable) {
  constexpr int kFrames = 5;
  MultiSequenceOptions mopts;
  mopts.streams = 1;
  mopts.sequence.frames = kFrames;
  const MultiSequenceSet streams(mopts);
  const SyntheticSequence& seq = streams.stream(0);

  SlamService service(ServiceOptions{/*arm_workers=*/1});
  SessionHandle session = service.open_session(software_session(seq));
  for (int f = 0; f < kFrames; ++f) session.feed(seq.frame(f));

  // Poll one result, close with the rest undelivered.
  std::optional<TrackResult> first;
  while (!first) first = session.poll();
  EXPECT_EQ(first->timestamp, seq.timestamp(0));

  const std::vector<TrackResult> leftovers = session.close();
  ASSERT_EQ(leftovers.size(), static_cast<std::size_t>(kFrames - 1));
  for (int i = 0; i < kFrames - 1; ++i)
    EXPECT_EQ(leftovers[static_cast<std::size_t>(i)].timestamp,
              seq.timestamp(i + 1));
  EXPECT_FALSE(session.valid());
  EXPECT_TRUE(session.close().empty());  // idempotent
  EXPECT_EQ(service.session_count(), 0);

  // The service (and its lanes) survive and serve a fresh session.
  SessionHandle again = service.open_session(software_session(seq));
  for (int f = 0; f < 3; ++f) again.feed(seq.frame(f));
  EXPECT_EQ(again.drain().size(), 3u);
  EXPECT_EQ(service.stats().sessions_opened_total, 2);

  // Destruction of a live handle closes its session.
  { SessionHandle scoped = service.open_session(software_session(seq)); }
  EXPECT_EQ(service.session_count(), 1);  // `again` is still open
}

// A software backend that records which thread destroys it: the session's
// tracker owns it, so that is where the tracker died.
class DestructionWitnessBackend final : public FeatureBackend {
 public:
  explicit DestructionWitnessBackend(std::atomic<std::thread::id>* destroyed_on)
      : destroyed_on_(destroyed_on) {}
  ~DestructionWitnessBackend() override {
    destroyed_on_->store(std::this_thread::get_id());
  }

  FeatureList extract(const ImageU8& image) override {
    return inner_.extract(image);
  }
  std::vector<Match> match(std::span<const Descriptor256> queries,
                           std::span<const Descriptor256> train) override {
    return inner_.match(queries, train);
  }
  std::vector<Match> match_candidates(std::span<const Descriptor256> queries,
                                      std::span<const Descriptor256> train,
                                      const CandidateSet& candidates) override {
    return inner_.match_candidates(queries, train, candidates);
  }
  double last_extract_time_ms() const override {
    return inner_.last_extract_time_ms();
  }
  double last_match_time_ms() const override {
    return inner_.last_match_time_ms();
  }
  const char* name() const override { return "destruction-witness"; }

 private:
  SoftwareBackend inner_{small_orb()};
  std::atomic<std::thread::id>* destroyed_on_;
};

TEST(SlamService, CloseDestroysTheTrackerOnTheCallingThread) {
  MultiSequenceOptions mopts;
  mopts.streams = 1;
  mopts.sequence.frames = 3;
  const MultiSequenceSet streams(mopts);
  const SyntheticSequence& seq = streams.stream(0);

  std::atomic<std::thread::id> destroyed_on;
  SessionConfig config = software_session(seq);
  config.backend_factory = [&destroyed_on] {
    return std::make_unique<DestructionWitnessBackend>(&destroyed_on);
  };
  SlamService service(ServiceOptions{/*arm_workers=*/1});
  SessionHandle session = service.open_session(config);
  for (int f = 0; f < 3; ++f) session.feed(seq.frame(f));
  EXPECT_EQ(session.close().size(), 3u);
  // The device lane's registry snapshot may still hold the session for a
  // moment; the tracker (and the backend it owns) must not live on there.
  EXPECT_EQ(destroyed_on.load(), std::this_thread::get_id());
}

TEST(SlamService, HandlesAreMovable) {
  MultiSequenceOptions mopts;
  mopts.streams = 1;
  mopts.sequence.frames = 2;
  const MultiSequenceSet streams(mopts);
  const SyntheticSequence& seq = streams.stream(0);

  SlamService service;
  SessionHandle a = service.open_session(software_session(seq));
  a.feed(seq.frame(0));
  SessionHandle b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): tested
  EXPECT_TRUE(b.valid());
  b.feed(seq.frame(1));
  EXPECT_EQ(b.drain().size(), 2u);
  SessionHandle c;
  c = std::move(b);
  EXPECT_TRUE(c.valid());
  c.close();
  EXPECT_EQ(service.session_count(), 0);
}

}  // namespace
}  // namespace eslam
