// Domain example: localize against a saved map — the consumer half of the
// persistence pair (see examples/save_map.cpp).  Loads the snapshot into
// an immutable FrozenMap (all derived state — SoA planes, keyframe graph,
// recognition index — is rebuilt deterministically on load), then runs a
// read-only Localizer over the sequence: it cold-starts through indexed
// relocalization and tracks match -> estimate_pose -> optimize_pose with
// no map updating at all.  Writes the localized trajectory in TUM format.
//
//   ./examples/localize [map] [frames] [out.tum]
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "dataset/sequence.h"
#include "dataset/tum_io.h"
#include "slam/localizer.h"
#include "slam/map_snapshot.h"
#include "slam/tracker.h"

int main(int argc, char** argv) {
  using namespace eslam;
  const char* map_path = argc > 1 ? argv[1] : "desk.map";
  SequenceOptions opts;
  opts.frames = argc > 2 ? std::atoi(argv[2]) : 60;
  if (opts.frames < 10) opts.frames = 10;
  const char* out_path = argc > 3 ? argv[3] : "localized.tum";

  std::string error;
  const std::shared_ptr<const FrozenMap> frozen =
      FrozenMap::load(map_path, &error);
  if (!frozen) {
    std::fprintf(stderr,
                 "error: cannot load %s: %s\n(run ./examples/save_map "
                 "first)\n",
                 map_path, error.c_str());
    return 1;
  }
  std::printf("localize: loaded %s — %zu points, %zu keyframes, camera "
              "%dx%d\n",
              map_path, frozen->size(), frozen->graph().size(),
              frozen->camera().width(), frozen->camera().height());

  // The localizer projects with the camera the map was built with.
  SyntheticSequence sequence(SequenceId::kFr1Desk, opts);
  OrbConfig orb;
  orb.n_features = 500;
  Localizer localizer(frozen, std::make_unique<SoftwareBackend>(orb));

  std::vector<TimedPose> trajectory;
  int lost = 0, relocalized = 0;
  for (int i = 0; i < sequence.size(); ++i) {
    const TrackResult r = localizer.process(sequence.frame(i));
    lost += r.lost;
    relocalized += r.relocalized;
    if (!r.lost) trajectory.push_back(TimedPose{r.timestamp, r.pose_wc});
    if (i == 0)
      std::printf("  cold start: %s (tier %s)\n",
                  r.lost ? "LOST" : "relocalized",
                  r.match_tier == MatchTier::kRelocIndex ? "reloc-index"
                  : r.match_tier == MatchTier::kGated    ? "gated"
                                                         : "brute-force");
  }
  std::printf("  localized %d/%d frames (%d relocalizations); map still "
              "has %zu points\n",
              sequence.size() - lost, sequence.size(), relocalized,
              frozen->size());

  if (!write_tum_trajectory(out_path, trajectory)) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path);
    return 1;
  }
  std::printf("  trajectory written: %s\n", out_path);
  return 0;
}
