// Localizer — the read-only session kind's frame loop.
//
// A Localizer is the mapping Tracker without map updating: the same
// TrackingCore (slam/tracking_core.h) runs feature extraction -> feature
// matching -> pose estimation -> pose optimization against an immutable
// FrozenMap, tuned by the same TrackingOptions.  There are no keyframe
// insertions, no pruning, no backend jobs, no gate-prior publication
// protocol, no lock and no epoch check anywhere on the frame path.  The
// map cannot change, so the speculative-match machinery the mapping tier
// needs is simply absent, and N localizers sharing one FrozenMap read it
// concurrently with zero coordination.
//
// What it hands the core differs from the Tracker in two ways:
//   - Entry path (the kidnapped-robot path as the front door): a
//     Localizer starts cold — no pose, no motion model.  Until it acquires
//     a pose (and again whenever tracking is lost) each frame may run the
//     recognition tier against the frozen graph + index, then P3P under
//     the absolute-inlier + plausibility gates — the tracker's post-loss
//     recovery without the lost-streak delay (a cold localizer has no
//     motion prior worth waiting for, so RelocOptions::min_lost_frames is
//     not consulted here).  When the index comes up empty the map-wide
//     brute-force tier is the deterministic fallback.
//   - The projection gate's prior on tracked frames is the *fresh* motion
//     model, not the mapping tier's two-frame-stale published slot — with
//     no device/ARM split per frame there is nothing to pre-publish for.
//
// Steady-state tracked frames are zero-heap-allocation: one recycled
// FrameState carries every per-frame output, scratch comes from its
// arena, the caller's FrameInput is read in place (never copied into the
// FrameState) and the frozen view is borrowed by reference (asserted by
// tests/runtime/steady_state_alloc_test.cpp).  Cold-start / reloc frames
// may allocate, matching the tracker's documented exemption.
//
// Threading: one Localizer is driven by one thread at a time (the
// scheduler serializes a session's frames); distinct Localizers sharing a
// FrozenMap are fully independent.  Determinism: given the same frame
// sequence and map, the output sequence is bit-identical across runs and
// across solo/served execution.
#pragma once

#include <memory>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "slam/frozen_map.h"
#include "slam/tracking_core.h"

namespace eslam {

class Localizer {
 public:
  // The camera comes from the frozen map (the mapping session's
  // intrinsics) — frames fed here must match it.  A mapping session's
  // TrackerOptions pass here as-is, so a localizer can be tuned exactly
  // like the tracker that built the map.
  Localizer(std::shared_ptr<const FrozenMap> map,
            std::unique_ptr<FeatureBackend> backend,
            const TrackingOptions& options = {});

  // One frame through FE -> FM -> PE -> PO (no MU).  TrackResult fields
  // that only map updating produces (keyframe, prune/cull counts,
  // loop_closed) stay at their defaults.
  TrackResult process(const FrameInput& frame);

  // True after a pose was acquired and not since lost; false means the
  // next frame takes the cold-start relocalization path.
  bool tracking() const { return tracking_; }

  // --- observability -------------------------------------------------------
  // This session's trace process row ("localization-N") with one "frame"
  // track (FE/FM/PE/PO nest inside the frame span), plus the tier's two
  // latency histograms: per-frame, and cold-start (frames that engaged
  // the relocalization entry path).  Registered at construction; the
  // frame loop only touches the resolved handles (zero-alloc contract).
  struct LocalizerObs {
    int pid = 0;
    obs::TrackId frame_track = obs::kDefaultTrack;
    obs::Histogram* frame_ms = nullptr;
    obs::Histogram* coldstart_ms = nullptr;
  };
  const LocalizerObs& observability() const { return obs_; }

  const FrozenMap& map() const { return *map_; }
  // The shared handle itself — its use_count is the tier's "how many
  // owners share this map" observability signal.
  const std::shared_ptr<const FrozenMap>& map_ptr() const { return map_; }
  FeatureBackend& backend() { return *backend_; }
  const PinholeCamera& camera() const { return map_->camera(); }

 private:
  std::shared_ptr<const FrozenMap> map_;
  std::unique_ptr<FeatureBackend> backend_;
  TrackingCore core_;
  bool tracking_ = false;
  // The one frame in flight, recycled: frames never cross a lane boundary.
  FrameState fs_;

  LocalizerObs obs_;
};

}  // namespace eslam
