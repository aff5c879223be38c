// TrackingCore — the tracking half of the paper's pipeline, shared by both
// session kinds: feature extraction -> feature matching -> pose estimation
// -> pose optimization, plus the constant-velocity motion model those
// stages start from.
//
// A mapping Tracker composes it with map updating, the gate-prior seqlock,
// the keyframe-graph lock and the local-mapping backend; a Localizer
// composes it alone over a FrozenMap.  Everything the two kinds do
// differently is something the owner passes in, not an option:
//   - the projection gate's prior: the Tracker's slot published two frames
//     back (so a speculative device-lane match can read it), the
//     Localizer's current motion model;
//   - whether recognition may run this frame: the Tracker after
//     RelocOptions::min_lost_frames lost retirements (under its graph
//     lock), the Localizer whenever it is not tracking;
//   - the map version: a borrowed MapReadView, live or frozen.
//
// Threading: match() reads only the frame, the view, what the owner hands
// it and the immutable options — never the motion model — so the Tracker
// can run it on the device lane while update_map() of an earlier frame
// retires a pose on the ARM lane.  estimate_pose(), optimize_pose() and
// retire() read or write the motion model and must run serially in frame
// order.  The core records one metric, the projection gate's build time
// (eslam_match_gate_build_ms, wherever the gate runs); each owner wraps
// the stages in its own trace tracks and histograms.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "backend/keyframe_graph.h"
#include "backend/keyframe_index.h"
#include "core/arena.h"
#include "features/matcher.h"
#include "features/orb.h"
#include "geometry/camera.h"
#include "geometry/se3.h"
#include "slam/map_view.h"
#include "slam/match_gate.h"
#include "slam/pnp.h"
#include "slam/ransac.h"

namespace eslam {

namespace obs {
class Histogram;
}

// Abstraction over "who computes features and matches" (ARM software vs
// FPGA fabric).  last_*_time_ms() report the backend's own notion of time:
// wall-clock for software, cycles / 100 MHz for the simulated accelerator.
//
// Matching is two-tier: match() is the full-scan tier (bootstrap /
// relocalization / fallback), match_candidates() the gated tier — each
// query scans only the candidate list the projection gate built for it.
// Every backend must implement both with consistent acceptance semantics,
// so the tracker can fall back between tiers within one frame.
class FeatureBackend {
 public:
  virtual ~FeatureBackend() = default;
  virtual FeatureList extract(const ImageU8& image) = 0;
  virtual std::vector<Match> match(std::span<const Descriptor256> queries,
                                   std::span<const Descriptor256> train) = 0;
  virtual std::vector<Match> match_candidates(
      std::span<const Descriptor256> queries,
      std::span<const Descriptor256> train,
      const CandidateSet& candidates) = 0;

  // Allocation-free variants the tracker's hot path calls: outputs land in
  // recycled buffers, matcher scratch comes from the frame's arena, and the
  // train side arrives as a TrainView so SoA-capable backends can use the
  // map's word-plane mirror.  The default adapters below stage through the
  // allocating API, so existing backends (the simulated fabric, test mocks)
  // keep working unchanged; backends on the steady-state path override.
  virtual void extract_into(const ImageU8& image, FeatureList& out) {
    out = extract(image);
  }
  virtual void match_into(std::span<const Feature> queries,
                          const TrainView& train, Arena* /*scratch*/,
                          std::vector<Match>& out) {
    std::vector<Descriptor256> staged;
    staged.reserve(queries.size());
    for (const Feature& f : queries) staged.push_back(f.descriptor);
    out = match(staged, train.aos);
  }
  virtual void match_candidates_into(std::span<const Feature> queries,
                                     const TrainView& train,
                                     const CandidateSet& candidates,
                                     Arena* /*scratch*/,
                                     std::vector<Match>& out) {
    std::vector<Descriptor256> staged;
    staged.reserve(queries.size());
    for (const Feature& f : queries) staged.push_back(f.descriptor);
    out = match_candidates(staged, train.aos, candidates);
  }

  virtual double last_extract_time_ms() const = 0;
  virtual double last_match_time_ms() const = 0;
  virtual const char* name() const = 0;
};

struct FrameInput {
  ImageU8 gray;
  ImageU16 depth;       // raw sensor units; metres = value / depth_factor
  double timestamp = 0;
};

struct StageTimesMs {
  double feature_extraction = 0;
  double feature_matching = 0;
  double pose_estimation = 0;
  double pose_optimization = 0;
  double map_updating = 0;
  double total() const {
    return feature_extraction + feature_matching + pose_estimation +
           pose_optimization + map_updating;
  }
};

// When one stage of a frame ran on a SlamService lane: ms on the service's
// clock (since its construction), pacer padding included.
struct StageWindow {
  double start_ms = 0;
  double end_ms = 0;
};

// The schedule of one frame, stage by stage (FE and FM on the device lane,
// PE, PO and MU on an ARM worker).  FM is the authoritative run: a replay
// after a key frame overwrites the speculative window.
struct StageWindows {
  StageWindow fe, fm, pe, po, mu;
};

struct TrackResult {
  SE3 pose_cw;  // world-to-camera (the PnP estimate)
  SE3 pose_wc;  // camera-in-world (what trajectories record)
  bool lost = false;
  bool keyframe = false;
  int n_features = 0;
  int n_matches = 0;
  int n_inliers = 0;
  // Which matching tier produced this frame's matches (after fallback).
  MatchTier match_tier = MatchTier::kBruteForce;
  // Map maintenance visibility: age-pruned points from this frame's map
  // update, and — when a local-mapping backend delta was applied at this
  // keyframe — the culled/fused point counts it removed.
  int n_points_pruned = 0;
  int n_points_culled = 0;
  int n_points_fused = 0;
  bool backend_applied = false;
  // Recovery/correction visibility (a lost tracker used to burn full-map
  // matches with no signal anywhere): reloc_attempted marks a post-loss
  // frame that engaged the keyframe-recognition path (match_tier then
  // tells whether the index answered or the brute-force fallback ran);
  // relocalized marks the frame that actually recovered a pose from that
  // state; loop_closed marks a frame whose map update applied a verified
  // loop-closure correction.
  bool reloc_attempted = false;
  bool relocalized = false;
  bool loop_closed = false;
  double timestamp = 0;
  StageTimesMs times;
  // Set only on mapping results a SlamService delivers; zero on
  // Tracker::process() and localization results.
  StageWindows windows;
};

// Recognition-based relocalization policy, for both session kinds: a
// mapping Tracker engages it after persistent loss with the local-mapping
// backend on (the keyframe graph + recognition index are its data); a
// Localizer engages it whenever it has no pose, against the graph and index
// its frozen map carries.  Before the graph holds min_keyframes, a lost
// frame falls back to the map-wide brute-force scan.
struct RelocOptions {
  // Consecutive lost retirements before a mapping Tracker engages
  // recognition.  A momentary flake (a 1-2 frame RANSAC dropout) recovers
  // best through the existing motion-model path — its prior is still
  // good, and on the desk regime routing those frames through recognition
  // measurably worsened ATE.  Recognition is for *persistent* loss, where
  // the prior is meaningfully stale (ORB-SLAM's lost mode).  A Localizer
  // does not wait: without a pose it has no prior worth keeping.
  int min_lost_frames = 3;
  // Graph size before the index is trusted for recovery.
  int min_keyframes = 3;
  // Ranked index hits to try before falling back to brute force.
  int max_candidates = 3;
  // Best keyframe + its top covisible neighbours form the match set.
  int neighbourhood = 5;
  // A candidate neighbourhood must yield at least this many descriptor
  // matches to feed P3P; fewer means the recognition was wrong and the
  // next candidate (or the full-map fallback) runs.
  int min_matches = 20;
  // Recovery matching is verification-grade, like the loop job's: the
  // tracking tiers deliberately run at 64 bits without cross-check (and
  // the map's near-duplicates forbid a ratio test everywhere), but a lost
  // tracker matching a recognized neighbourhood needs precision — junk
  // matches are what kept P3P from ever finding the true consensus.  A
  // tighter distance plus symmetric cross-check prunes them without
  // starving on duplicates (the agreed best pair still agrees when the
  // corner exists twice).
  MatcherOptions matcher{/*max_distance=*/48, /*ratio=*/1.0,
                         /*cross_check=*/true};
  // Absolute consensus to accept a relocalized pose.  The tracking path
  // gates on an inlier *ratio* because a map-wide match set is mostly
  // aliased junk on novel views — which is exactly why a lost tracker
  // could never pass it (genuine consensus ~100 of ~1000 "matches" loses
  // to a 20% ratio floor) and stayed lost forever.  The reloc tier
  // matches only the recognized keyframe's neighbourhood, where aliasing
  // is bounded, so an absolute gate (ORB-SLAM accepts at 50) is both safe
  // and the thing that makes recovery actually terminate.
  int min_inliers = 50;
  // Plausibility gate on the recovered pose: recognizing keyframe K means
  // the camera sees K's scene, so the recovered camera centre must lie
  // within visibility range of K and face roughly the same way.  On
  // repetitive texture a wrong-place consensus can be large — without
  // this gate one such acceptance seeds map points at a phantom location
  // and every later recovery compounds it (observed: poses km out of the
  // room within 150 frames).
  double max_distance_m = 2.5;
  double max_rotation_rad = 1.3;
};

// Tuning of the tracking half, shared by both session kinds (a Localizer
// takes exactly these; TrackerOptions extends them with map updating's).
struct TrackingOptions {
  TrackingOptions() {
    // NOTE: no ratio test against the map — the map accumulates near-
    // duplicate points over keyframes, so best/second-best are often the
    // same physical corner and a ratio test starves the matcher.
    // Degenerate consensus is handled by min_inlier_ratio + P3P instead.
    // 4-point samples need more draws once the inlier share drops below
    // ~50% under viewpoint change.
    ransac.max_iterations = 256;
    // Keypoints detected on pyramid level l are quantized by scale^l when
    // mapped to level-0 coordinates; 3 px is too strict at level 3.
    ransac.inlier_threshold_px = 4.0;
  }

  // Tier selection for feature matching against the map (projection gate
  // vs brute force); see slam/match_gate.h.  Per-session when threaded
  // through server/SessionConfig::tracker.
  MatchPolicy match;
  // Recovery via the keyframe-recognition index; see RelocOptions.
  RelocOptions reloc;
  RansacOptions ransac;
  PnpOptions pose_optimization{/*max_iterations=*/15,
                               /*initial_lambda=*/1e-4,
                               /*huber_delta=*/2.5,
                               /*convergence_step=*/1e-8};
  int min_tracked_inliers = 10;
  // A pose is only accepted (and allowed to trigger a key frame) when the
  // RANSAC consensus covers at least this share of the matches; guards
  // against degenerate consensus sets on repetitive texture, which would
  // otherwise pollute the map with misplaced points.
  double min_inlier_ratio = 0.2;
  // ...unless the consensus is large in absolute terms.  This must stay
  // conservative: on repetitive texture a *wrong* pose can collect tens of
  // aliased-but-consistent matches out of ~1000, so a small override
  // silently poisons the map (observed at 60; 400 keeps the gate honest
  // while still accepting overwhelming consensus on sparse match sets).
  int strong_consensus_inliers = 400;
};

// Everything one frame carries between pipeline stages.  A mapping
// Tracker hands one out per frame from begin_frame() and threads it
// through the five stage methods; because all per-frame intermediates live
// here (not in the Tracker), stages of different frames can execute
// concurrently under the lane contract documented on the stage methods.
// A Localizer recycles a single one.
struct FrameState {
  // Mapping frames only: map updating reads the depth image.  A Localizer
  // extracts straight from its caller's input and leaves this empty.
  FrameInput input;
  int index = 0;  // frame index, assigned in feed order by begin_frame()
  FeatureList features;
  std::vector<Match> matches;
  // Tier that produced `matches` (gated candidate search vs brute force).
  MatchTier match_tier = MatchTier::kBruteForce;
  // Map structural epoch the matches were computed under.  Matches are
  // index-based, so they are only usable while the map still has this
  // epoch; the pipeline runtime replays match() when a key frame's map
  // update intervened (the paper's "FM waits for MU" dependency).  The
  // epoch check covers the gated tier too: the gate prior for frame N is
  // frozen when frame N-2 retires (see Tracker::match), so between a
  // speculative match and its finalize the only input that can move is
  // the map itself.
  std::uint64_t map_epoch = 0;
  // Mapping frames only: the immutable map version `matches` were computed
  // against, borrowed wait-free from Map::read_view() at the top of
  // Tracker::match() (one refcount acquisition, no lock shared with any
  // writer) and held until the frame is recycled, so the descriptor/
  // position spans estimate_pose() reads stay frozen even while a
  // concurrent session's map update publishes a successor view.
  // map_epoch mirrors view->epoch() for the replay check.  A Localizer's
  // frozen view never changes, so it passes it by reference instead.
  std::shared_ptr<const MapReadView> view;
  bool bootstrap = false;  // map was empty: frame initializes the map
  // Relocalization tier only (match_tier == kRelocIndex): the 3D side of
  // each match, aligned with `matches`, reconstructed from the recognized
  // keyframes' own depth observations (pose_wc * point_cam) rather than
  // from live map positions — recovery must not depend on what pruning
  // or drift did to the map since the keyframe was made.  A match whose
  // map point is gone carries train == -1 (pose evidence only).
  std::vector<Vec3> reloc_positions;
  // The recognized keyframe's stored pose — the plausibility reference
  // for RelocOptions::max_distance_m / max_rotation_rad.
  SE3 reloc_reference_cw;
  RansacResult ransac;
  std::vector<Correspondence> correspondences;
  TrackResult result;
  // Per-frame bump arena for stage scratch (matcher distance rows, gate
  // CSR, RANSAC index buffers, the map-maintenance matched mask).  Reset
  // once per frame by reset(); after warm-up its slab chain is
  // capacity-stable, so every arena draw on the steady-state path is
  // pointer arithmetic, not heap traffic.  unique_ptr (rather than a
  // plain member) keeps FrameState cheaply movable through the pipeline
  // queues.
  std::unique_ptr<Arena> arena;
  // Gated tier's candidate structure, built into recycled vectors.
  GateResult gate;
  // Scratch result for estimate_pose()'s retry attempts (reused so a retry
  // does not allocate a fresh inlier vector every lost-ish frame).
  RansacResult ransac_retry;
  // A SlamService's record of where this frame's stages ran, copied
  // into the result it delivers (the stages never read it).
  StageWindows windows;

  // Clears the per-frame state for reuse, keeping every container's
  // capacity and the arena's slabs (creates the arena on first use).
  void reset();
};

// What the reloc tier reads: a keyframe graph and its recognition index.
// The caller keeps both unchanged for the duration of the match() it
// hands them to.
struct Places {
  const backend::KeyframeGraph& graph;
  const backend::KeyframeIndex& index;
};

// Constant-velocity motion state over retired poses.
struct MotionModel {
  SE3 last_pose_cw;
  SE3 prev_pose_cw;  // pose two frames back (for the velocity)
  bool have_velocity = false;
};

class TrackingCore {
 public:
  // `backend` (required) must outlive the core.
  TrackingCore(const PinholeCamera& camera, FeatureBackend* backend,
               const TrackingOptions& options);

  // Feature extraction (FPGA in the paper) from `gray` into fs.features.
  void extract(FrameState& fs, const ImageU8& gray) const;

  // Feature matching against `view` (FPGA in the paper) — the tier
  // ladder.  Re-entrant for the same frame (a replay overwrites the
  // previous matches).
  //   1. Projection gate: when MatchPolicy allows, the view is big enough
  //      and `prior` is set, map points are projected through it into
  //      per-feature candidate lists matched via the backend's
  //      match_candidates(); accepted only when enough matches survive.
  //   2. Recognition: when the gate did not answer and the owner passes
  //      `places` (only on frames where can_relocalize() holds), query the
  //      recognition index and match the best keyframe's covisible
  //      neighbourhood with the verification-grade matcher; P3P is left to
  //      estimate_pose().
  //   3. Brute force over the whole view answers everything else.
  // An empty view leaves no matches (the owner bootstraps or stays lost).
  void match(FrameState& fs, const MapReadView& view,
             const std::optional<SE3>& prior, const Places* places) const;
  // Whether the recognition tier can engage for this frame at all: the
  // indexed tier is on and the frame has enough features to feed it (a
  // blank frame cannot relocalize by any tier and is not an attempt).
  bool can_relocalize(const FrameState& fs) const;

  // PnP + RANSAC (ARM): the motion-model prior, one retry from the raw
  // previous pose, then prior-free P3P; reloc-tier matches pass the
  // absolute-inlier and plausibility gates, map-wide sets the ratio gate.
  // A rejected frame is lost at the previous pose.
  void estimate_pose(FrameState& fs, const MapReadView& view) const;
  // LM refinement on the RANSAC inliers (ARM).  Tracked frames only.
  void optimize_pose(FrameState& fs) const;

  // The motion prior `frames_ahead` frames past the last retired one
  // (constant-velocity extrapolation; the last pose without a velocity).
  SE3 predicted_pose_cw(int frames_ahead = 1) const;
  // Advances the motion model past a retired frame: a lost frame drops
  // the velocity; a tracked one becomes the latest pose and, when it came
  // through recognition, is marked relocalized and restarts the velocity
  // (the pre-loss pose pair says nothing about how the camera got here).
  void retire(TrackResult& result);
  // For owners that move the world under the camera (the Tracker's
  // bootstrap and loop-correction rebase).
  MotionModel& motion() { return motion_; }

 private:
  // Recognition tier: ranked index hits, best first; the first
  // neighbourhood yielding reloc.min_matches matches produces fs.matches.
  bool match_against_places(FrameState& fs, const MapReadView& view,
                            const Places& places,
                            std::span<const Descriptor256> query) const;

  PinholeCamera camera_;
  FeatureBackend* backend_;
  TrackingOptions options_;
  MotionModel motion_;
  obs::Histogram* gate_build_ms_;  // resolved once; recorded per gate build
};

}  // namespace eslam
