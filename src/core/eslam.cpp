#include "core/eslam.h"

namespace eslam {

System::System(const PinholeCamera& camera, const SystemConfig& config)
    : config_(config),
      tracker_(std::make_unique<Tracker>(
          camera, make_feature_backend(config.backend), config.tracker)) {}

TrackResult System::process(const FrameInput& frame) {
  return tracker_->process(frame);
}

std::vector<SE3> System::poses() const {
  std::vector<SE3> out;
  out.reserve(tracker_->trajectory().size());
  for (const TrackResult& r : tracker_->trajectory()) out.push_back(r.pose_wc);
  return out;
}

SystemStats System::stats() const {
  SystemStats s;
  const auto& results = tracker_->trajectory();
  s.frames = static_cast<int>(results.size());
  if (results.empty()) return s;

  auto accumulate = [](StageDurations& acc, const StageTimesMs& t) {
    acc.feature_extraction += t.feature_extraction;
    acc.feature_matching += t.feature_matching;
    acc.pose_estimation += t.pose_estimation;
    acc.pose_optimization += t.pose_optimization;
    acc.map_updating += t.map_updating;
  };
  auto divide = [](StageDurations& acc, int n) {
    if (n == 0) return;
    acc.feature_extraction /= n;
    acc.feature_matching /= n;
    acc.pose_estimation /= n;
    acc.pose_optimization /= n;
    acc.map_updating /= n;
  };

  int normal = 0;
  for (const TrackResult& r : results) {
    accumulate(s.mean_times, r.times);
    if (r.keyframe) {
      accumulate(s.mean_times_key, r.times);
      ++s.key_frames;
    } else {
      accumulate(s.mean_times_normal, r.times);
      ++normal;
    }
    if (r.lost) ++s.lost_frames;
    s.mean_features += r.n_features;
    s.mean_matches += r.n_matches;
    s.mean_inliers += r.n_inliers;
  }
  divide(s.mean_times, s.frames);
  divide(s.mean_times_normal, normal);
  divide(s.mean_times_key, s.key_frames);
  s.mean_features /= s.frames;
  s.mean_matches /= s.frames;
  s.mean_inliers /= s.frames;
  return s;
}

}  // namespace eslam
