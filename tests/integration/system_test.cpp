// Integration tests: the full eslam::System on synthetic sequences, in
// both platform modes and both descriptor modes — the code paths behind
// every benchmark binary.
#include "core/eslam.h"

#include <gtest/gtest.h>

#include "dataset/sequence.h"
#include "eval/ate.h"

namespace eslam {
namespace {

AteResult track_sequence(System& slam, const SyntheticSequence& seq,
                         int frames) {
  for (int i = 0; i < frames; ++i) slam.process(seq.frame(i));
  std::vector<SE3> gt(seq.ground_truth().begin(),
                      seq.ground_truth().begin() + frames);
  return absolute_trajectory_error(slam.poses(), gt);
}

SequenceOptions short_seq() {
  SequenceOptions opts;
  opts.frames = 12;
  return opts;
}

TEST(System, SoftwarePlatformTracksAccurately) {
  const SyntheticSequence seq(SequenceId::kFr1Xyz, short_seq());
  SystemConfig cfg;
  cfg.backend.platform = Platform::kSoftware;
  System slam(seq.camera(), cfg);
  const AteResult ate = track_sequence(slam, seq, seq.size());
  EXPECT_LT(ate.rmse, 0.05);  // centimetre-level on clean synthetic data
  EXPECT_EQ(slam.results().size(), 12u);
}

TEST(System, AcceleratedPlatformTracksAccurately) {
  const SyntheticSequence seq(SequenceId::kFr1Xyz, short_seq());
  SystemConfig cfg;
  cfg.backend.platform = Platform::kAccelerated;
  System slam(seq.camera(), cfg);
  const AteResult ate = track_sequence(slam, seq, seq.size());
  EXPECT_LT(ate.rmse, 0.05);
}

TEST(System, AcceleratedTimesAreSimulatedNotWallClock) {
  const SyntheticSequence seq(SequenceId::kFr1Desk, short_seq());
  SystemConfig cfg;
  cfg.backend.platform = Platform::kAccelerated;
  System slam(seq.camera(), cfg);
  for (int i = 0; i < 4; ++i) slam.process(seq.frame(i));
  const SystemStats stats = slam.stats();
  // Simulated FE on 640x480x4 levels sits in the 7.5-10 ms band regardless
  // of host speed; software FE would be tens of ms and vary.
  EXPECT_GT(stats.mean_times.feature_extraction, 7.0);
  EXPECT_LT(stats.mean_times.feature_extraction, 10.5);
  EXPECT_GT(stats.mean_times.feature_matching, 0.0);
}

TEST(System, BothDescriptorModesWork) {
  // Enough frames that the desk sweep's inter-frame motion stays small
  // (the tracker seeds PnP from the previous pose).
  SequenceOptions opts;
  opts.frames = 30;
  const SyntheticSequence seq(SequenceId::kFr1Desk, opts);
  for (DescriptorMode mode :
       {DescriptorMode::kRsBrief, DescriptorMode::kOrbLut}) {
    SystemConfig cfg;
    cfg.backend.platform = Platform::kSoftware;
    cfg.backend.descriptor = mode;
    System slam(seq.camera(), cfg);
    const AteResult ate = track_sequence(slam, seq, 12);
    EXPECT_LT(ate.rmse, 0.08) << "mode " << static_cast<int>(mode);
  }
}

TEST(System, StatsAggregateSensibly) {
  const SyntheticSequence seq(SequenceId::kFr2Xyz, short_seq());
  SystemConfig cfg;
  cfg.backend.platform = Platform::kAccelerated;
  System slam(seq.camera(), cfg);
  for (int i = 0; i < 10; ++i) slam.process(seq.frame(i));
  const SystemStats stats = slam.stats();
  EXPECT_EQ(stats.frames, 10);
  EXPECT_GE(stats.key_frames, 1);  // bootstrap frame at minimum
  EXPECT_EQ(stats.lost_frames, 0);
  EXPECT_GT(stats.mean_features, 500.0);
  EXPECT_GT(stats.mean_inliers, 50.0);
  EXPECT_GT(slam.map().size(), 500u);
}

TEST(System, KeyframesUpdateMap) {
  // fr1/room has large motion: keyframes beyond the bootstrap must appear
  // and grow the map.  (Dense enough sampling that per-frame motion stays
  // trackable — the real sequence runs at 30 fps.)
  SequenceOptions opts;
  opts.frames = 36;
  const SyntheticSequence seq(SequenceId::kFr1Room, opts);
  SystemConfig cfg;
  cfg.backend.platform = Platform::kSoftware;
  System slam(seq.camera(), cfg);
  const std::size_t after_bootstrap = [&] {
    slam.process(seq.frame(0));
    return slam.map().size();
  }();
  for (int i = 1; i < 18; ++i) slam.process(seq.frame(i));
  EXPECT_GT(slam.stats().key_frames, 1);
  EXPECT_GT(slam.map().size(), after_bootstrap);
}

TEST(System, PosesMatchResultsTrajectory) {
  const SyntheticSequence seq(SequenceId::kFr1Xyz, short_seq());
  SystemConfig cfg;
  System slam(seq.camera(), cfg);
  for (int i = 0; i < 5; ++i) slam.process(seq.frame(i));
  const auto poses = slam.poses();
  ASSERT_EQ(poses.size(), slam.results().size());
  for (std::size_t i = 0; i < poses.size(); ++i)
    EXPECT_NEAR((poses[i].translation() -
                 slam.results()[i].pose_wc.translation()).max_abs(),
                0.0, 1e-15);
}

TEST(System, BackendNamesReflectPlatform) {
  const SyntheticSequence seq(SequenceId::kFr1Xyz, short_seq());
  SystemConfig sw_cfg, hw_cfg;
  sw_cfg.backend.platform = Platform::kSoftware;
  hw_cfg.backend.platform = Platform::kAccelerated;
  System sw(seq.camera(), sw_cfg), hw(seq.camera(), hw_cfg);
  EXPECT_STREQ(sw.backend().name(), "software");
  EXPECT_STREQ(hw.backend().name(), "eslam-accel");
}

}  // namespace
}  // namespace eslam
