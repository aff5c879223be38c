// Localizer: the read-only session kind's frame loop.  A localizer over a
// frozen map must cold-start through indexed relocalization (the
// kidnapped-robot path as the entry path), then track frames against the
// frozen SoA planes without ever touching the map; runs are deterministic
// (two identical runs are bit-identical) and poses agree with the mapping
// run that built the map.
#include "slam/localizer.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "dataset/sequence.h"
#include "slam/map_snapshot.h"
#include "slam/tracker.h"

namespace eslam {
namespace {

constexpr int kMapFrames = 30;

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

// The mapping run that builds the frozen map, plus its own trajectory as
// the pose reference for the localization runs.
struct MappedWorld {
  std::shared_ptr<const FrozenMap> frozen;
  std::vector<TrackResult> trajectory;
};

const MappedWorld& mapped_world() {
  static const MappedWorld world = [] {
    const SyntheticSequence& seq = desk_sequence();
    TrackerOptions options;
    options.backend.enabled = true;
    Tracker tracker(seq.camera(), std::make_unique<SoftwareBackend>(small_orb()),
                    options);
    MappedWorld w;
    for (int i = 0; i < seq.size(); ++i)
      w.trajectory.push_back(tracker.process(seq.frame(i)));
    w.frozen = FrozenMap::from_snapshot(capture_snapshot(
        tracker.map(), tracker.keyframe_graph(), seq.camera()));
    return w;
  }();
  return world;
}

std::unique_ptr<Localizer> make_localizer() {
  return std::make_unique<Localizer>(
      mapped_world().frozen, std::make_unique<SoftwareBackend>(small_orb()));
}

TEST(Localizer, ColdStartsThroughIndexedRelocalization) {
  const std::unique_ptr<Localizer> loc = make_localizer();
  EXPECT_FALSE(loc->tracking());
  const TrackResult first = loc->process(desk_sequence().frame(0));
  // The very first frame engages the recognition index — no lost-streak
  // delay — and recovers a pose from it.
  EXPECT_TRUE(first.reloc_attempted);
  EXPECT_EQ(first.match_tier, MatchTier::kRelocIndex);
  EXPECT_FALSE(first.lost);
  EXPECT_TRUE(first.relocalized);
  EXPECT_TRUE(loc->tracking());
  // The recovered pose is where the mapping run put this frame.
  const SE3& reference = mapped_world().trajectory[0].pose_wc;
  EXPECT_LT((first.pose_wc.translation() - reference.translation()).norm(),
            0.10);
}

TEST(Localizer, ColdStartsMidSequence) {
  const std::unique_ptr<Localizer> loc = make_localizer();
  const int start = kMapFrames / 2;
  const TrackResult first = loc->process(desk_sequence().frame(start));
  EXPECT_TRUE(first.reloc_attempted);
  EXPECT_FALSE(first.lost);
  const SE3& reference = mapped_world().trajectory[
      static_cast<std::size_t>(start)].pose_wc;
  EXPECT_LT((first.pose_wc.translation() - reference.translation()).norm(),
            0.15);
}

TEST(Localizer, TracksSequenceAgainstFrozenMap) {
  const std::unique_ptr<Localizer> loc = make_localizer();
  const SyntheticSequence& seq = desk_sequence();
  int lost = 0, gated = 0;
  double worst_m = 0.0;
  for (int i = 0; i < seq.size(); ++i) {
    const TrackResult r = loc->process(seq.frame(i));
    lost += r.lost;
    gated += r.match_tier == MatchTier::kGated;
    if (!r.lost) {
      const SE3& reference =
          mapped_world().trajectory[static_cast<std::size_t>(i)].pose_wc;
      worst_m = std::max(
          worst_m, (r.pose_wc.translation() - reference.translation()).norm());
    }
    // A localizer never emits map-updating artifacts.
    EXPECT_FALSE(r.keyframe);
    EXPECT_EQ(r.times.map_updating, 0.0);
  }
  EXPECT_EQ(lost, 0);
  // After warm-up the gated tier carries the stream (the frozen SoA
  // planes feed the candidate-gather kernels directly).
  EXPECT_GT(gated, seq.size() / 2);
  EXPECT_LT(worst_m, 0.15);
  // The frozen map is untouched by construction; its point count is the
  // cheap witness.
  EXPECT_EQ(loc->map().size(), mapped_world().frozen->size());
}

TEST(Localizer, RunsAreBitIdentical) {
  const std::unique_ptr<Localizer> a = make_localizer();
  const std::unique_ptr<Localizer> b = make_localizer();
  const SyntheticSequence& seq = desk_sequence();
  for (int i = 0; i < seq.size(); ++i) {
    const TrackResult ra = a->process(seq.frame(i));
    const TrackResult rb = b->process(seq.frame(i));
    EXPECT_EQ((ra.pose_wc.translation() - rb.pose_wc.translation()).max_abs(),
              0.0)
        << "frame " << i;
    EXPECT_EQ((ra.pose_wc.rotation() - rb.pose_wc.rotation()).max_abs(), 0.0)
        << "frame " << i;
    EXPECT_EQ(ra.lost, rb.lost) << "frame " << i;
    EXPECT_EQ(ra.n_features, rb.n_features) << "frame " << i;
    EXPECT_EQ(ra.n_matches, rb.n_matches) << "frame " << i;
    EXPECT_EQ(ra.n_inliers, rb.n_inliers) << "frame " << i;
    EXPECT_EQ(ra.match_tier, rb.match_tier) << "frame " << i;
  }
}

TEST(Localizer, SharedFrozenMapCountsItsOwners) {
  const std::shared_ptr<const FrozenMap>& frozen = mapped_world().frozen;
  const long baseline = frozen.use_count();
  {
    const std::unique_ptr<Localizer> a = make_localizer();
    const std::unique_ptr<Localizer> b = make_localizer();
    EXPECT_EQ(a->map_ptr().use_count(), baseline + 2);
    EXPECT_EQ(b->map_ptr().use_count(), baseline + 2);
  }
  EXPECT_EQ(frozen.use_count(), baseline);
}

TEST(Localizer, EmptyFrozenMapStaysLost) {
  Localizer loc(FrozenMap::from_snapshot(MapSnapshot{}),
                std::make_unique<SoftwareBackend>(small_orb()));
  const TrackResult r = loc.process(desk_sequence().frame(0));
  EXPECT_TRUE(r.lost);
  EXPECT_FALSE(r.reloc_attempted);
  EXPECT_FALSE(loc.tracking());
}

}  // namespace
}  // namespace eslam
