// eslam::System — the library's public entry point.
//
// Wraps the full heterogeneous pipeline of the paper behind one
// sequential facade:
//
//   eslam::SystemConfig cfg;
//   cfg.backend.platform = eslam::Platform::kAccelerated;  // FPGA simulation
//   eslam::System slam(eslam::PinholeCamera::tum_freiburg1(), cfg);
//   for (auto& frame : frames) eslam::TrackResult r = slam.process(frame);
//   auto ate = eslam::absolute_trajectory_error(slam.poses(), ground_truth);
//
// Platform::kSoftware runs the pure-CPU ORB pipeline (the paper's ARM/i7
// baseline); Platform::kAccelerated runs the cycle-simulated eSLAM fabric
// for feature extraction/matching with the same ARM-side tracker.
//
// process() runs all five stages inline, one frame start-to-finish at a
// time: the reference schedule.  Streaming through the concurrent
// Figure-7 runtime (FE+FM of frame N+1 on the fabric lane while PE/PO/MU
// of frame N run on the ARM side) is TrackerScheduler's job — one
// add_session() on a one-worker scheduler for a single stream, or
// SlamService for many — and reproduces process() bit-for-bit with the
// local-mapping backend disabled.
#pragma once

#include <memory>
#include <vector>

#include "accel/backend_factory.h"
#include "accel/eslam_accel.h"
#include "accel/timing_model.h"
#include "slam/tracker.h"

namespace eslam {

// The same backend + tracker pair as server/SessionConfig: the backend
// half (platform, descriptor, extractor and matcher settings) goes to
// make_feature_backend() in accel/backend_factory.h.
struct SystemConfig {
  BackendConfig backend;
  TrackerOptions tracker;
};

struct SystemStats {
  StageDurations mean_times;       // average per-stage ms over all frames
  StageDurations mean_times_normal; // over normal frames only
  StageDurations mean_times_key;    // over key frames only
  int frames = 0;
  int key_frames = 0;
  int lost_frames = 0;
  double mean_features = 0;
  double mean_matches = 0;
  double mean_inliers = 0;
};

class System {
 public:
  System(const PinholeCamera& camera, const SystemConfig& config = {});

  // Processes one RGB-D frame synchronously and returns the tracking
  // result.
  TrackResult process(const FrameInput& frame);

  // Estimated camera-in-world poses so far (one per processed frame).
  std::vector<SE3> poses() const;

  const std::vector<TrackResult>& results() const {
    return tracker_->trajectory();
  }
  const Map& map() const { return tracker_->map(); }
  const SystemConfig& config() const { return config_; }

  // Aggregated per-stage timing statistics.
  SystemStats stats() const;

  // The underlying backend (e.g. to query accelerator cycle reports).
  FeatureBackend& backend() { return tracker_->backend(); }

 private:
  SystemConfig config_;
  std::unique_ptr<Tracker> tracker_;
};

}  // namespace eslam
