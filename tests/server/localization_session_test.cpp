// Served localization sessions: SessionKind::kLocalization opens into a
// shared FrozenMap, runs on the ARM pool (never the device lane), stays
// bit-identical to a solo sequential Localizer run, takes its tuning from
// SessionConfig::tracker, and coexists with mapping sessions.  Per-kind
// service stats and the frozen-map ref-count observability ride along.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "dataset/sequence.h"
#include "server/slam_service.h"
#include "slam/map_snapshot.h"

namespace eslam {
namespace {

constexpr int kMapFrames = 24;

OrbConfig small_orb() {
  OrbConfig orb;
  orb.n_features = 400;
  return orb;
}

const SyntheticSequence& desk_sequence() {
  static const SyntheticSequence seq = [] {
    SequenceOptions opts;
    opts.frames = kMapFrames;
    return SyntheticSequence(SequenceId::kFr1Desk, opts);
  }();
  return seq;
}

const std::shared_ptr<const FrozenMap>& frozen_map() {
  static const std::shared_ptr<const FrozenMap> frozen = [] {
    const SyntheticSequence& seq = desk_sequence();
    TrackerOptions options;
    options.backend.enabled = true;
    Tracker tracker(seq.camera(),
                    std::make_unique<SoftwareBackend>(small_orb()), options);
    for (int i = 0; i < seq.size(); ++i) tracker.process(seq.frame(i));
    return FrozenMap::from_snapshot(capture_snapshot(
        tracker.map(), tracker.keyframe_graph(), seq.camera()));
  }();
  return frozen;
}

SessionConfig localization_config() {
  SessionConfig config;
  config.kind = SessionKind::kLocalization;
  config.frozen_map = frozen_map();
  config.backend.platform = Platform::kSoftware;
  config.backend.orb = small_orb();
  return config;
}

std::vector<TrackResult> solo_localization(
    const std::vector<int>& frames, const TrackingOptions& options = {}) {
  Localizer solo(frozen_map(), std::make_unique<SoftwareBackend>(small_orb()),
                 options);
  std::vector<TrackResult> results;
  for (int i : frames) results.push_back(solo.process(desk_sequence().frame(i)));
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
    EXPECT_EQ(a[i].lost, b[i].lost) << label << " frame " << i;
    EXPECT_EQ(a[i].n_features, b[i].n_features) << label << " frame " << i;
    EXPECT_EQ(a[i].n_matches, b[i].n_matches) << label << " frame " << i;
    EXPECT_EQ(a[i].n_inliers, b[i].n_inliers) << label << " frame " << i;
    EXPECT_EQ(a[i].match_tier, b[i].match_tier) << label << " frame " << i;
  }
}

TEST(LocalizationSession, BitIdenticalToSoloSequentialRun) {
  SlamService service(ServiceOptions{/*arm_workers=*/2});
  SessionHandle a = service.open_session(localization_config());
  SessionHandle b = service.open_session(localization_config());
  EXPECT_EQ(a.kind(), SessionKind::kLocalization);

  for (int f = 0; f < desk_sequence().size(); ++f) {
    a.feed(desk_sequence().frame(f));
    b.feed(desk_sequence().frame(f));
  }
  const std::vector<TrackResult> served_a = a.drain();
  const std::vector<TrackResult> served_b = b.drain();
  const std::vector<TrackResult> solo =
      solo_localization(iota_frames(desk_sequence().size()));
  expect_bit_identical(served_a, solo, "session a");
  expect_bit_identical(served_b, solo, "session b");

  // Every frame localized after the cold start, and the cold start itself
  // went through the recognition index: each session made at least one
  // cold-start attempt, and each recovered a pose from one.
  EXPECT_TRUE(solo[0].relocalized);
  int coldstart_attempts = 0, coldstart_successes = 0;
  for (const std::vector<TrackResult>* served : {&served_a, &served_b})
    for (const TrackResult& r : *served) {
      coldstart_attempts += r.reloc_attempted;
      coldstart_successes += r.reloc_attempted && r.relocalized;
    }
  EXPECT_GE(coldstart_attempts, 2);
  EXPECT_GE(coldstart_successes, 2);
  EXPECT_LE(coldstart_successes, coldstart_attempts);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.localization_sessions_open, 2);
  EXPECT_EQ(stats.mapping_sessions_open, 0);
  EXPECT_EQ(stats.localization_sessions_opened_total, 2);

  // A localization session has no backend lane and no tracker.
  EXPECT_EQ(a.backend_stats().keyframes_inserted, 0);
}

TEST(LocalizationSession, TrackerTuningReachesLocalization) {
  const int frames = desk_sequence().size();
  // With defaults the gate answers tracked frames...
  const std::vector<TrackResult> solo_default =
      solo_localization(iota_frames(frames));
  EXPECT_TRUE(std::any_of(
      solo_default.begin(), solo_default.end(),
      [](const TrackResult& r) { return r.match_tier == MatchTier::kGated; }));

  // ...and switching it off through the session's tracker tuning keeps
  // every served frame off the gated tier, exactly as a solo Localizer
  // with the same tuning runs.
  SessionConfig config = localization_config();
  config.tracker.match.use_gate = false;
  SlamService service(ServiceOptions{/*arm_workers=*/2});
  SessionHandle session = service.open_session(config);
  for (int f = 0; f < frames; ++f) session.feed(desk_sequence().frame(f));
  const std::vector<TrackResult> served = session.drain();
  ASSERT_EQ(served.size(), static_cast<std::size_t>(frames));
  for (std::size_t i = 0; i < served.size(); ++i)
    EXPECT_NE(served[i].match_tier, MatchTier::kGated) << "frame " << i;
  expect_bit_identical(served,
                       solo_localization(iota_frames(frames), config.tracker),
                       "gate off");
}

TEST(LocalizationSession, FrozenMapRefCountTracksOwners) {
  const long baseline = frozen_map().use_count();
  SlamService service(ServiceOptions{/*arm_workers=*/2});
  {
    SessionHandle a = service.open_session(localization_config());
    SessionHandle b = service.open_session(localization_config());
    // Each session's localizer holds one reference; the config copies have
    // been destroyed by now.
    EXPECT_EQ(a.frozen_map_use_count(), baseline + 2);
    EXPECT_EQ(b.frozen_map_use_count(), baseline + 2);
    a.close();
    EXPECT_EQ(b.frozen_map_use_count(), baseline + 1);
  }
  EXPECT_EQ(frozen_map().use_count(), baseline);
}

TEST(LocalizationSession, CoexistsWithMappingSessions) {
  const SyntheticSequence& seq = desk_sequence();
  SlamService service(ServiceOptions{/*arm_workers=*/2});

  SessionConfig mapping;
  mapping.camera = seq.camera();
  mapping.backend.platform = Platform::kSoftware;
  mapping.backend.orb = small_orb();
  SessionHandle mapper = service.open_session(mapping);
  SessionHandle localizer = service.open_session(localization_config());
  EXPECT_EQ(mapper.kind(), SessionKind::kMapping);
  EXPECT_EQ(mapper.frozen_map_use_count(), 0);

  const int frames = seq.size() / 2;
  for (int f = 0; f < frames; ++f) {
    mapper.feed(seq.frame(f));
    localizer.feed(seq.frame(f));
  }
  const std::vector<TrackResult> mapped = mapper.drain();
  const std::vector<TrackResult> localized = localizer.drain();

  // The mapping session matches a solo sequential Tracker run...
  Tracker solo_tracker(seq.camera(),
                       std::make_unique<SoftwareBackend>(small_orb()));
  std::vector<TrackResult> solo_mapped;
  for (int f = 0; f < frames; ++f)
    solo_mapped.push_back(solo_tracker.process(seq.frame(f)));
  expect_bit_identical(mapped, solo_mapped, "mapping beside localization");
  // ...and the localization session matches a solo sequential Localizer.
  expect_bit_identical(localized, solo_localization(iota_frames(frames)),
                       "localization beside mapping");

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.mapping_sessions_open, 1);
  EXPECT_EQ(stats.localization_sessions_open, 1);
  EXPECT_EQ(stats.sessions_open, 2);
}

}  // namespace
}  // namespace eslam
