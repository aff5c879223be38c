// Integration tests: the full sequential tracker on synthetic sequences,
// in both platform modes and both descriptor modes — the code paths behind
// every benchmark binary.  Each test builds its Tracker the way the benches
// do, from make_feature_backend(), and keeps what process() returns.
#include <gtest/gtest.h>

#include "accel/backend_factory.h"
#include "accel/timing_model.h"
#include "dataset/sequence.h"
#include "eval/ate.h"

namespace eslam {
namespace {

Tracker make_tracker(const SyntheticSequence& seq, Platform platform,
                     DescriptorMode descriptor = BackendConfig{}.descriptor) {
  BackendConfig backend;
  backend.platform = platform;
  backend.descriptor = descriptor;
  return Tracker(seq.camera(), make_feature_backend(backend));
}

std::vector<TrackResult> process_frames(Tracker& tracker,
                                        const SyntheticSequence& seq,
                                        int frames) {
  std::vector<TrackResult> results;
  for (int i = 0; i < frames; ++i)
    results.push_back(tracker.process(seq.frame(i)));
  return results;
}

AteResult ate_of(const std::vector<TrackResult>& results,
                 const SyntheticSequence& seq) {
  std::vector<SE3> poses;
  for (const TrackResult& r : results) poses.push_back(r.pose_wc);
  std::vector<SE3> gt(seq.ground_truth().begin(),
                      seq.ground_truth().begin() +
                          static_cast<std::ptrdiff_t>(results.size()));
  return absolute_trajectory_error(poses, gt);
}

SequenceOptions short_seq() {
  SequenceOptions opts;
  opts.frames = 12;
  return opts;
}

TEST(Integration, SoftwarePlatformTracksAccurately) {
  const SyntheticSequence seq(SequenceId::kFr1Xyz, short_seq());
  Tracker tracker = make_tracker(seq, Platform::kSoftware);
  const std::vector<TrackResult> results =
      process_frames(tracker, seq, seq.size());
  EXPECT_LT(ate_of(results, seq).rmse, 0.05);  // centimetre-level, clean data
  EXPECT_EQ(results.size(), 12u);
}

TEST(Integration, AcceleratedPlatformTracksAccurately) {
  const SyntheticSequence seq(SequenceId::kFr1Xyz, short_seq());
  Tracker tracker = make_tracker(seq, Platform::kAccelerated);
  EXPECT_LT(ate_of(process_frames(tracker, seq, seq.size()), seq).rmse, 0.05);
}

TEST(Integration, AcceleratedTimesAreSimulatedNotWallClock) {
  const SyntheticSequence seq(SequenceId::kFr1Desk, short_seq());
  Tracker tracker = make_tracker(seq, Platform::kAccelerated);
  const StageDurations mean =
      mean_stage_times(process_frames(tracker, seq, 4));
  // Simulated FE on 640x480x4 levels sits in the 7.5-10 ms band regardless
  // of host speed; software FE would be tens of ms and vary.
  EXPECT_GT(mean.feature_extraction, 7.0);
  EXPECT_LT(mean.feature_extraction, 10.5);
  EXPECT_GT(mean.feature_matching, 0.0);
}

TEST(Integration, BothDescriptorModesWork) {
  // Enough frames that the desk sweep's inter-frame motion stays small
  // (the tracker seeds PnP from the previous pose).
  SequenceOptions opts;
  opts.frames = 30;
  const SyntheticSequence seq(SequenceId::kFr1Desk, opts);
  for (DescriptorMode mode :
       {DescriptorMode::kRsBrief, DescriptorMode::kOrbLut}) {
    Tracker tracker = make_tracker(seq, Platform::kSoftware, mode);
    EXPECT_LT(ate_of(process_frames(tracker, seq, 12), seq).rmse, 0.08)
        << "mode " << static_cast<int>(mode);
  }
}

TEST(Integration, ResultsAggregateSensibly) {
  const SyntheticSequence seq(SequenceId::kFr2Xyz, short_seq());
  Tracker tracker = make_tracker(seq, Platform::kAccelerated);
  const std::vector<TrackResult> results = process_frames(tracker, seq, 10);
  ASSERT_EQ(results.size(), 10u);
  int key_frames = 0, lost_frames = 0;
  double features = 0, inliers = 0;
  for (const TrackResult& r : results) {
    key_frames += r.keyframe;
    lost_frames += r.lost;
    features += r.n_features;
    inliers += r.n_inliers;
  }
  EXPECT_GE(key_frames, 1);  // bootstrap frame at minimum
  EXPECT_EQ(lost_frames, 0);
  EXPECT_GT(features / 10, 500.0);
  EXPECT_GT(inliers / 10, 50.0);
  EXPECT_GT(tracker.map().size(), 500u);
}

TEST(Integration, KeyframesUpdateMap) {
  // fr1/room has large motion: keyframes beyond the bootstrap must appear
  // and grow the map.  (Dense enough sampling that per-frame motion stays
  // trackable — the real sequence runs at 30 fps.)
  SequenceOptions opts;
  opts.frames = 36;
  const SyntheticSequence seq(SequenceId::kFr1Room, opts);
  Tracker tracker = make_tracker(seq, Platform::kSoftware);
  int key_frames = tracker.process(seq.frame(0)).keyframe;
  const std::size_t after_bootstrap = tracker.map().size();
  for (int i = 1; i < 18; ++i)
    key_frames += tracker.process(seq.frame(i)).keyframe;
  EXPECT_GT(key_frames, 1);
  EXPECT_GT(tracker.map().size(), after_bootstrap);
}

TEST(Integration, BackendNamesReflectPlatform) {
  const SyntheticSequence seq(SequenceId::kFr1Xyz, short_seq());
  Tracker sw = make_tracker(seq, Platform::kSoftware);
  Tracker hw = make_tracker(seq, Platform::kAccelerated);
  EXPECT_STREQ(sw.backend().name(), "software");
  EXPECT_STREQ(hw.backend().name(), "eslam-accel");
}

}  // namespace
}  // namespace eslam
