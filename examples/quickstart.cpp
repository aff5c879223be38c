// Quickstart: run the full eSLAM system (simulated accelerator) on a short
// synthetic RGB-D sequence and report tracking quality and stage timings.
//
//   ./examples/quickstart
#include <cstdio>
#include <vector>

#include "accel/backend_factory.h"
#include "accel/timing_model.h"
#include "dataset/sequence.h"
#include "eval/ate.h"

int main() {
  using namespace eslam;

  // A short fr1/xyz-like sequence (translation-dominant hand-held motion).
  SequenceOptions seq_opts;
  seq_opts.frames = 40;
  SyntheticSequence sequence(SequenceId::kFr1Xyz, seq_opts);

  BackendConfig backend;
  backend.platform = Platform::kAccelerated;
  Tracker tracker(sequence.camera(), make_feature_backend(backend));

  std::printf("eSLAM quickstart: %d frames of %s (synthetic)\n",
              sequence.size(), sequence.name().c_str());
  std::vector<TrackResult> results;
  std::vector<SE3> poses;
  int key_frames = 0;
  for (int i = 0; i < sequence.size(); ++i) {
    const TrackResult r = tracker.process(sequence.frame(i));
    results.push_back(r);
    poses.push_back(r.pose_wc);
    key_frames += r.keyframe;
    if (i % 10 == 0 || r.lost) {
      const Vec3& t = r.pose_wc.translation();
      std::printf(
          "  frame %3d: pos=(%+.3f %+.3f %+.3f) features=%4d inliers=%4d%s%s\n",
          i, t[0], t[1], t[2], r.n_features, r.n_inliers,
          r.keyframe ? " [keyframe]" : "", r.lost ? " [LOST]" : "");
    }
  }

  const AteResult ate =
      absolute_trajectory_error(poses, sequence.ground_truth());
  const StageDurations mean = mean_stage_times(results);

  std::printf("\nTrajectory error: rmse=%.2f cm, mean=%.2f cm, max=%.2f cm\n",
              ate.rmse * 100, ate.mean * 100, ate.max * 100);
  std::printf("Mean stage times (ms): FE=%.2f FM=%.2f PE=%.2f PO=%.2f MU=%.2f\n",
              mean.feature_extraction, mean.feature_matching,
              mean.pose_estimation, mean.pose_optimization,
              mean.map_updating);
  std::printf("Key frames: %d / %zu, map size: %zu points\n", key_frames,
              results.size(), tracker.map().size());
  return ate.rmse < 0.5 ? 0 : 1;  // sanity gate for CI use
}
