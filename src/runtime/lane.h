// Lane abstraction of the Figure-7 runtime (server/SlamService): which
// heterogeneous unit executes a stage (the simulated FPGA fabric vs the
// ARM host), the five pipeline stages, the platform-emulation pacer, and
// the per-session occupancy/progress statistics.  Where each stage of a
// frame ran travels with the frame's result (TrackResult::windows).
#pragma once

#include <functional>

namespace eslam {

enum class PipeLane { kFpga, kArm };
enum class PipeStage {
  kFeatureExtraction,
  kFeatureMatching,
  kPoseEstimation,
  kPoseOptimization,
  kMapUpdating,  // includes commit (trajectory/motion-model bookkeeping)
};

inline const char* to_string(PipeStage stage) {
  switch (stage) {
    case PipeStage::kFeatureExtraction: return "FE";
    case PipeStage::kFeatureMatching: return "FM";
    case PipeStage::kPoseEstimation: return "PE";
    case PipeStage::kPoseOptimization: return "PO";
    case PipeStage::kMapUpdating: return "MU";
  }
  return "?";
}

// Pads an executed stage to a modeled platform duration: after running a
// stage, the owning lane sleeps out `pacer(stage) - measured_ms`.  This is
// the emulation hook that lets a fast host reproduce the paper's
// ARM-Cortex-A9 / 100 MHz-fabric schedule proportions (cf. timing_model's
// arm_from_host): the lane stays *occupied* for the modeled time, exactly
// as the slower platform's unit would be.  Return <= 0 for "no pacing".
using StagePacer = std::function<double(PipeStage)>;

// Per-session progress and lane-occupancy statistics (lane busy-ms are
// the shared lane's time spent on *this* session's stages).
struct PipelineStats {
  int frames_fed = 0;
  int frames_retired = 0;       // through map updating / commit
  int max_in_flight = 0;        // max frames_fed - frames_retired observed
  int speculative_matches = 0;  // FM runs issued before the barrier cleared
  int replayed_matches = 0;     // ...of those, discarded by a key frame
  int rejected_feeds = 0;       // try_feed() calls bounced by back-pressure
  int malformed_feeds = 0;      // frames refused: gray image (or, on a
                                //   mapping session, depth) not the
                                //   camera's size, or timestamp not finite
  int device_dispatches = 0;    // device-lane scheduling turns consumed
  double fpga_busy_ms = 0;      // summed FE+FM wall time (lane occupancy)
  double arm_busy_ms = 0;       // summed PE+PO+MU wall time
  double wall_ms = 0;           // runtime lifetime so far

  // Local-mapping backend (the background-job lane), per session.  What
  // the jobs did (BA vs loop jobs, loops applied, points culled) is the
  // tracker's BackendStats; these count what only the runtime sees.
  int backend_jobs = 0;           // backend jobs executed on the ARM pool
  int backend_jobs_rejected = 0;  // bounded background-queue overflow skips
  int backend_deltas_applied = 0; // deltas folded into the map at keyframes
  double backend_busy_ms = 0;     // summed job wall time (pool occupancy)
  // Summed loop-verification queue latency: time from enqueue to a
  // worker pop.  The mean divides by BackendStats' loop_jobs_run.
  double backend_loop_queue_ms = 0;
};

}  // namespace eslam
