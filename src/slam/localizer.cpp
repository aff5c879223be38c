#include "slam/localizer.h"

#include <atomic>
#include <optional>
#include <string>

#include "geometry/wall_timer.h"

namespace eslam {

namespace {
std::atomic<int> g_localization_session_ordinal{0};

// The core copies the map's camera at construction, so the map is checked
// before anything reads it.
const PinholeCamera& frozen_camera(
    const std::shared_ptr<const FrozenMap>& map) {
  ESLAM_ASSERT(map != nullptr, "localizer needs a frozen map");
  return map->camera();
}
}  // namespace

Localizer::Localizer(std::shared_ptr<const FrozenMap> map,
                     std::unique_ptr<FeatureBackend> backend,
                     const TrackingOptions& options)
    : map_(std::move(map)),
      backend_(std::move(backend)),
      core_(frozen_camera(map_), backend_.get(), options) {
  const int ordinal =
      g_localization_session_ordinal.fetch_add(1, std::memory_order_relaxed);
  obs_.pid = obs::register_process("localization-" + std::to_string(ordinal));
  obs_.frame_track = obs::register_track(obs_.pid, "frame");
  obs_.frame_ms = &obs::metrics().histogram("eslam_localizer_frame_ms");
  obs_.coldstart_ms =
      &obs::metrics().histogram("eslam_localizer_coldstart_ms");
}

TrackResult Localizer::process(const FrameInput& frame) {
  ESLAM_TRACE_SCOPE(obs_.frame_track, "frame");
  const WallTimer frame_timer;
  fs_.reset();
  fs_.result.timestamp = frame.timestamp;
  {
    ESLAM_TRACE_SCOPE(obs_.frame_track, "FE");
    core_.extract(fs_, frame.gray);
  }
  // No lock, no epoch check: the frozen tier is the degenerate
  // one-version case of the live map's published-view read path — the
  // FrozenMap pins a single MapReadView forever, so this borrow is valid
  // unconditionally and a match is never replayed.
  const MapReadView& view = *map_->view();
  {
    ESLAM_TRACE_SCOPE(obs_.frame_track, "FM");
    // Tracking: gate off the fresh motion model.  Cold or lost:
    // recognition, at once.
    const Places places{map_->graph(), map_->keyframe_index()};
    core_.match(fs_, view,
                tracking_ ? std::optional<SE3>(core_.predicted_pose_cw())
                          : std::nullopt,
                tracking_ ? nullptr : &places);
  }
  {
    ESLAM_TRACE_SCOPE(obs_.frame_track, "PE");
    core_.estimate_pose(fs_, view);
  }
  if (!fs_.result.lost) {
    ESLAM_TRACE_SCOPE(obs_.frame_track, "PO");
    core_.optimize_pose(fs_);
  }

  // Commit — pose state only; there is no map to update.
  core_.retire(fs_.result);
  tracking_ = !fs_.result.lost;
  // Latency rollups: every frame, plus the cold-start distribution for
  // frames that engaged the relocalization entry path (the tier's
  // time-to-first-pose signal).
  const double frame_ms = frame_timer.elapsed_ms();
  obs_.frame_ms->record(frame_ms);
  if (fs_.result.reloc_attempted) obs_.coldstart_ms->record(frame_ms);
  return fs_.result;
}

}  // namespace eslam
