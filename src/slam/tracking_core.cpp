#include "slam/tracking_core.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "features/simd_kernels.h"
#include "geometry/wall_timer.h"
#include "obs/metrics.h"

namespace eslam {

void FrameState::reset() {
  features.clear();
  matches.clear();
  match_tier = MatchTier::kBruteForce;
  map_epoch = 0;
  view.reset();  // release the borrowed map view (refcount only)
  bootstrap = false;
  reloc_positions.clear();
  reloc_reference_cw = SE3{};
  ransac.pose = SE3{};
  ransac.inliers.clear();
  ransac.success = false;
  ransac.iterations = 0;
  ransac_retry.inliers.clear();
  correspondences.clear();
  gate.candidates.clear();
  gate.projected = 0;
  gate.build_ms = 0;
  result = TrackResult{};
  windows = StageWindows{};
  if (arena)
    arena->reset();
  else
    arena = std::make_unique<Arena>();
}

TrackingCore::TrackingCore(const PinholeCamera& camera,
                           FeatureBackend* backend,
                           const TrackingOptions& options)
    : camera_(camera),
      backend_(backend),
      options_(options),
      gate_build_ms_(&obs::metrics().histogram("eslam_match_gate_build_ms")) {
  ESLAM_ASSERT(backend_ != nullptr, "tracking needs a feature backend");
}

void TrackingCore::extract(FrameState& fs, const ImageU8& gray) const {
  backend_->extract_into(gray, fs.features);
  fs.result.times.feature_extraction = backend_->last_extract_time_ms();
  fs.result.n_features = static_cast<int>(fs.features.size());
}

bool TrackingCore::can_relocalize(const FrameState& fs) const {
  return static_cast<int>(fs.features.size()) >= options_.reloc.min_matches;
}

void TrackingCore::match(FrameState& fs, const MapReadView& view,
                         const std::optional<SE3>& prior,
                         const Places* places) const {
  fs.matches.clear();
  fs.reloc_positions.clear();
  fs.match_tier = MatchTier::kBruteForce;
  if (view.empty()) {
    fs.result.times.feature_matching = 0.0;
    fs.result.n_matches = 0;
    return;
  }
  // Queries go to the backend as the features themselves (no per-frame
  // descriptor staging copy); the train side is the view's AoS span plus
  // its SoA word-plane mirror, both frozen for as long as the view is
  // borrowed.
  const TrainView train{view.descriptors(), &view.descriptor_soa()};

  double match_ms = 0.0;
  bool gated = false;
  if (options_.match.use_gate && prior &&
      static_cast<int>(view.size()) >= options_.match.min_map_points_for_gate) {
    build_candidate_set_into(view.xs(), view.ys(), view.zs(), *prior, camera_,
                             fs.features, options_.match, fs.arena.get(),
                             fs.gate);
    gate_build_ms_->record(fs.gate.build_ms);
    backend_->match_candidates_into(fs.features, train, fs.gate.candidates,
                                   fs.arena.get(), fs.matches);
    match_ms += fs.gate.build_ms + backend_->last_match_time_ms();
    const int required = std::max(
        options_.match.min_gated_matches,
        static_cast<int>(std::ceil(options_.match.min_gated_match_fraction *
                                   static_cast<double>(fs.features.size()))));
    if (static_cast<int>(fs.matches.size()) >= required) gated = true;
    // else: too few matches survived — the prior is likely wrong (fast
    // motion beyond the window, viewpoint jump), so fall through to the
    // full-map tier (which overwrites fs.matches).
  }
  bool relocated = false;
  if (!gated && places && can_relocalize(fs) &&
      static_cast<int>(places->graph.size()) >= options_.reloc.min_keyframes) {
    fs.result.reloc_attempted = true;
    // The whole recognition tier counts as FM: the index query, the
    // neighbourhood assembly and the verification matching.
    const WallTimer reloc_timer;
    // Relocalization is a rare, off-schedule path: the descriptor staging
    // copy the index query needs is allocated here, not on every frame.
    std::vector<Descriptor256> query;
    query.reserve(fs.features.size());
    for (const Feature& f : fs.features) query.push_back(f.descriptor);
    relocated = match_against_places(fs, view, *places, query);
    match_ms += reloc_timer.elapsed_ms();
  }
  if (!gated && !relocated) {
    backend_->match_into(fs.features, train, fs.arena.get(), fs.matches);
    match_ms += backend_->last_match_time_ms();
  }
  fs.match_tier = gated ? MatchTier::kGated
                : relocated ? MatchTier::kRelocIndex
                            : MatchTier::kBruteForce;
  fs.result.match_tier = fs.match_tier;
  fs.result.times.feature_matching = match_ms;
  fs.result.n_matches = static_cast<int>(fs.matches.size());
}

bool TrackingCore::match_against_places(FrameState& fs,
                                        const MapReadView& view,
                                        const Places& places,
                                        std::span<const Descriptor256> query)
    const {
  const std::vector<backend::KeyframeScore> ranked =
      places.index.query(query, options_.reloc.max_candidates);
  for (const backend::KeyframeScore& hit : ranked) {
    if (!places.graph.contains(hit.keyframe_id)) continue;
    // The candidate's local place: the keyframe plus its top covisible
    // neighbours.
    const std::vector<int> hood = places.graph.neighbourhood(
        hit.keyframe_id, options_.reloc.neighbourhood);
    // The neighbourhood's observations ARE the recovery substrate: the
    // 3D side is each observation's own depth unprojection lifted by its
    // keyframe pose — drift-consistent, immune to map pruning, and
    // O(window) to assemble.
    const std::vector<backend::KeyframeGraph::PlaceObservation> place =
        places.graph.place_observations(hood);
    std::vector<Descriptor256> subset;
    std::vector<std::int32_t> map_index;  // view index or -1
    subset.reserve(place.size());
    map_index.reserve(place.size());
    for (const auto& obs : place) {
      subset.push_back(obs.descriptor);
      // Id lookup against the borrowed view: the match train indices must
      // be consistent with the version the frame carries.
      const auto index = view.index_of(obs.point_id);
      map_index.push_back(index ? static_cast<std::int32_t>(*index) : -1);
    }
    if (static_cast<int>(subset.size()) < options_.reloc.min_matches)
      continue;
    // Verification-grade matching (see RelocOptions::matcher), host-side
    // like the loop job's — the fabric's bulk matcher has no precision
    // knobs, and a lost session is off the nominal fabric schedule anyway.
    // A hit that falls short leaves fs.matches for the next hit or the
    // brute-force fallback to overwrite.
    match_descriptors_into(query, TrainView{subset, nullptr},
                           options_.reloc.matcher, fs.arena.get(),
                           fs.matches);
    if (static_cast<int>(fs.matches.size()) < options_.reloc.min_matches)
      continue;  // recognition was wrong for this hit; try the next one
    fs.reloc_positions.clear();
    fs.reloc_positions.reserve(fs.matches.size());
    for (Match& m : fs.matches) {
      fs.reloc_positions.push_back(
          place[static_cast<std::size_t>(m.train)].position_w);
      m.train = map_index[static_cast<std::size_t>(m.train)];
    }
    fs.reloc_reference_cw = places.graph.keyframe(hit.keyframe_id).pose_cw;
    return true;
  }
  return false;
}

void TrackingCore::estimate_pose(FrameState& fs,
                                 const MapReadView& view) const {
  const WallTimer pe_timer;
  fs.correspondences.clear();
  fs.correspondences.reserve(fs.matches.size());
  const bool reloc = fs.match_tier == MatchTier::kRelocIndex;
  for (std::size_t i = 0; i < fs.matches.size(); ++i) {
    const Match& m = fs.matches[i];
    const Feature& f = fs.features[static_cast<std::size_t>(m.query)];
    // Reloc matches carry their own 3D (keyframe-observation geometry);
    // map matches read the view's frozen position column (the values the
    // matches were computed against).
    fs.correspondences.push_back(Correspondence{
        reloc ? fs.reloc_positions[i]
              : view.position(static_cast<std::size_t>(m.train)),
        Vec2{f.keypoint.x0(), f.keypoint.y0()}});
  }
  // Relocalization matches cover only the recognized neighbourhood, so
  // the acceptance gate is absolute (see RelocOptions::min_inliers); the
  // ratio gate below assumes the map-wide match set.
  const int required_inliers =
      reloc ? std::max(options_.min_tracked_inliers,
                       options_.reloc.min_inliers)
            : std::max(options_.min_tracked_inliers,
                       std::min(options_.strong_consensus_inliers,
                                static_cast<int>(
                                    options_.min_inlier_ratio *
                                    static_cast<double>(
                                        fs.correspondences.size()))));
  ransac_pnp_into(fs.correspondences, camera_, predicted_pose_cw(),
                  options_.ransac, fs.arena.get(), fs.ransac);
  if (!fs.ransac.success ||
      static_cast<int>(fs.ransac.inliers.size()) < required_inliers) {
    // Retry once from the raw previous pose: the velocity extrapolation
    // itself can be the problem after an abrupt motion change, and a
    // low-consensus "success" is often a degenerate pose on repetitive
    // texture rather than the true one.
    if (motion_.have_velocity) {
      ransac_pnp_into(fs.correspondences, camera_, motion_.last_pose_cw,
                      options_.ransac, fs.arena.get(), fs.ransac_retry);
      if (fs.ransac_retry.inliers.size() > fs.ransac.inliers.size())
        std::swap(fs.ransac, fs.ransac_retry);
    }
  }
  if (!fs.ransac.success ||
      static_cast<int>(fs.ransac.inliers.size()) < required_inliers) {
    // Relocalization: closed-form P3P hypotheses need no pose prior (a
    // cold localizer has none at all).
    RansacOptions reloc_opts = options_.ransac;
    reloc_opts.use_p3p = true;
    ransac_pnp_into(fs.correspondences, camera_, SE3{}, reloc_opts,
                    fs.arena.get(), fs.ransac_retry);
    if (fs.ransac_retry.inliers.size() > fs.ransac.inliers.size())
      std::swap(fs.ransac, fs.ransac_retry);
  }
  fs.result.times.pose_estimation = pe_timer.elapsed_ms();
  fs.result.n_inliers = static_cast<int>(fs.ransac.inliers.size());
  if (reloc && fs.ransac.success) {
    // Plausibility: the recovered camera must be where the recognized
    // keyframe's scene is visible from.  A wrong-place consensus (large
    // on repetitive texture) that slips through would seed phantom map
    // geometry that every later recovery compounds.
    const Vec3 centre = fs.ransac.pose.inverse().translation();
    const Vec3 reference = fs.reloc_reference_cw.inverse().translation();
    const double distance = (centre - reference).norm();
    const double rotation =
        fs.ransac.pose.rotation_angle(fs.reloc_reference_cw);
    // Written as accept-only-when-provably-plausible: a NaN pose (a
    // degenerate refit can produce one) must fail this gate, and NaN
    // fails every comparison.
    if (!(distance <= options_.reloc.max_distance_m &&
          rotation <= options_.reloc.max_rotation_rad))
      fs.ransac.success = false;
  }
  if (!fs.ransac.success || fs.result.n_inliers < required_inliers) {
    // Lost: keep the previous pose; retire() drops the velocity.
    fs.result.lost = true;
    fs.result.pose_cw = motion_.last_pose_cw;
    fs.result.pose_wc = motion_.last_pose_cw.inverse();
  }
}

void TrackingCore::optimize_pose(FrameState& fs) const {
  const WallTimer po_timer;
  if (!fs.arena) fs.arena = std::make_unique<Arena>();
  const ArenaScope scope(*fs.arena);
  const simd::ReprojectionColumns inlier_set =
      columns_of(fs.correspondences, fs.ransac.inliers, *fs.arena);
  const PnpResult optimized = solve_pnp(inlier_set, camera_, fs.ransac.pose,
                                        options_.pose_optimization);
  fs.result.times.pose_optimization = po_timer.elapsed_ms();
  fs.result.pose_cw = optimized.pose;
  fs.result.pose_wc = optimized.pose.inverse();
}

SE3 TrackingCore::predicted_pose_cw(int frames_ahead) const {
  if (!motion_.have_velocity) return motion_.last_pose_cw;
  // Constant velocity: T(t+1) ~ [T(t) T(t-1)^-1] T(t).
  const SE3 step = motion_.last_pose_cw * motion_.prev_pose_cw.inverse();
  SE3 pose = motion_.last_pose_cw;
  for (int k = 0; k < frames_ahead; ++k) pose = step * pose;
  return pose;
}

void TrackingCore::retire(TrackResult& result) {
  if (result.lost) {
    motion_.have_velocity = false;
    return;
  }
  result.relocalized = result.reloc_attempted;
  motion_.prev_pose_cw = motion_.last_pose_cw;
  motion_.last_pose_cw = result.pose_cw;
  motion_.have_velocity = !result.reloc_attempted;
}

}  // namespace eslam
