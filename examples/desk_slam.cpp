// Domain example: full SLAM on the fr1/desk-like sequence, comparing the
// paper's RS-BRIEF descriptor against the original ORB descriptor (the
// experiment behind Figures 8 and 9), and writing TUM-format trajectories
// that external tools can plot.
//
//   ./examples/desk_slam [frames] [--trace out.json]
//
// With --trace, the run's span timeline (both descriptor passes) is
// exported as Chrome trace-event JSON for Perfetto / chrome://tracing.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "accel/backend_factory.h"
#include "dataset/sequence.h"
#include "dataset/tum_io.h"
#include "eval/ate.h"
#include "obs/trace_export.h"

namespace {

eslam::AteResult run(const eslam::SyntheticSequence& sequence,
                     eslam::DescriptorMode mode, const char* traj_path,
                     eslam::MapViewStats* view_stats) {
  using namespace eslam;
  BackendConfig backend;
  backend.platform = Platform::kSoftware;
  backend.descriptor = mode;
  Tracker tracker(sequence.camera(), make_feature_backend(backend));

  std::vector<TimedPose> trajectory;
  std::vector<SE3> poses;
  for (int i = 0; i < sequence.size(); ++i) {
    const TrackResult r = tracker.process(sequence.frame(i));
    trajectory.push_back(TimedPose{r.timestamp, r.pose_wc});
    poses.push_back(r.pose_wc);
  }
  write_tum_trajectory(traj_path, trajectory);
  if (view_stats) *view_stats = tracker.map().view_stats();
  return absolute_trajectory_error(poses, sequence.ground_truth());
}

void print_view_stats(const char* label, const eslam::MapViewStats& s) {
  std::printf("  %-13s: %llu views published, %llu block copies, "
              "%.2f MB copied, %.2f MB shared, %lld alive\n",
              label, static_cast<unsigned long long>(s.publishes),
              static_cast<unsigned long long>(s.block_copies),
              static_cast<double>(s.bytes_copied) / 1e6,
              static_cast<double>(s.bytes_shared) / 1e6,
              static_cast<long long>(s.views_alive));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace eslam;
  SequenceOptions opts;
  opts.frames = 60;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc)
      trace_path = argv[++i];
    else
      opts.frames = std::atoi(argv[i]);
  }
  if (opts.frames < 10) opts.frames = 10;

  SyntheticSequence sequence(SequenceId::kFr1Desk, opts);
  std::printf("desk_slam: %d frames of %s, software pipeline\n\n",
              sequence.size(), sequence.name().c_str());

  MapViewStats rs_views, orb_views;
  const AteResult rs = run(sequence, DescriptorMode::kRsBrief,
                           "desk_rsbrief.tum", &rs_views);
  const AteResult orb = run(sequence, DescriptorMode::kOrbLut,
                            "desk_original_orb.tum", &orb_views);

  // Ground truth for external comparison.
  std::vector<TimedPose> gt;
  for (int i = 0; i < sequence.size(); ++i)
    gt.push_back(TimedPose{sequence.timestamp(i), sequence.ground_truth(i)});
  write_tum_trajectory("desk_groundtruth.tum", gt);

  std::printf("Average trajectory error (mean ATE, as in Fig. 8):\n");
  std::printf("  RS-BRIEF     : %.2f cm (rmse %.2f cm)\n", rs.mean * 100,
              rs.rmse * 100);
  std::printf("  original ORB : %.2f cm (rmse %.2f cm)\n", orb.mean * 100,
              orb.rmse * 100);
  std::printf("\nMap read-view publication (wait-free read path, "
              "README \"Map concurrency model\"):\n");
  print_view_stats("RS-BRIEF", rs_views);
  print_view_stats("original ORB", orb_views);

  std::printf("\nTrajectories written: desk_rsbrief.tum,"
              " desk_original_orb.tum, desk_groundtruth.tum\n");
  if (!trace_path.empty() && obs::write_chrome_trace(trace_path))
    std::printf("Trace written: %s (open at https://ui.perfetto.dev)\n",
                trace_path.c_str());
  return 0;
}
