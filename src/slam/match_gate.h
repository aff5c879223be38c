// Projection gate for feature matching — tier one of the two-tier
// matching subsystem.
//
// Instead of matching every frame against the whole map (brute force,
// linear in map age), the gate projects the map's positions() snapshot
// into the image under a constant-velocity prior pose, counting-sorts the
// projections into a grid of half-search-radius cells and hands the
// matcher a CandidateSet (features/matcher.h): the projections as
// cell-ordered slots (map index and padded pixel), and per feature its
// square window with the rows of slots that window's cells cover.  The
// gate does no per-point window test and writes no candidate list; the
// candidate matcher scans each feature's slot rows once, keeping the
// slots inside the window, so per-frame match cost tracks the *visible*
// map, not the whole map.
//
// Brute force remains the second tier: the tracker falls back to it when
// no prior is available (bootstrap, the frame after it, the frames after
// a tracking loss) or when gating yields too few matches (the prior was
// wrong — relocalization needs the full-map search).  MatchPolicy selects
// and tunes the tiers per tracker (and, through SessionConfig, per served
// session).
#pragma once

#include <span>

#include "features/keypoint.h"
#include "features/matcher.h"
#include "geometry/camera.h"
#include "geometry/se3.h"

namespace eslam {

// Which tier produced a frame's matches (reported in TrackResult).
enum class MatchTier {
  kBruteForce,  // full-map scan (bootstrap / index-miss fallback)
  kGated,       // projection-gated candidate search
  kRelocIndex,  // keyframe-recognition index -> best keyframe's local
                // neighbourhood (post-loss relocalization)
};

struct MatchPolicy {
  // Master switch: false pins every frame to the brute-force tier.
  bool use_gate = true;
  // Half-width of the square search window around the predicted pixel.
  // Must absorb the prior's prediction error (a one-frame-stale
  // constant-velocity extrapolation) plus keypoint quantization.  The
  // gate's grid cells are half this wide (at least 4 px).
  double search_radius_px = 24.0;
  // Below this map size brute force is at least as cheap as projecting
  // and bucketing, so the gate is skipped.
  int min_map_points_for_gate = 512;
  // Fallback triggers: a gated result is accepted only when it matches at
  // least min_gated_matches features AND at least min_gated_match_fraction
  // of the queries.  Too few surviving matches is the signature of a
  // wrong prior — fast motion beyond the window, post-loss frames,
  // relocalization — and those frames need the full-map search.  (The
  // fraction is the load-bearing guard: on violent motion a misplaced
  // window still collects hundreds of aliased matches, but nowhere near
  // the share of queries a correct window yields — a healthy gate matches
  // nearly everything a full scan would.)
  int min_gated_matches = 30;
  double min_gated_match_fraction = 0.7;
};

struct GateResult {
  CandidateSet candidates;
  int projected = 0;     // map points landing inside the (padded) image
  double build_ms = 0;   // host-side projection + sorting time
};

// Reference builder: projects `map_positions` by `prior_pose_cw`, buckets
// the projections in a GridIndex2d and collects each feature's candidate
// list by testing every point of the window's cells; the set holds those
// lists (CandidateSet::add_list, ascending).  Points projecting up to
// search_radius_px outside the image are kept — their window can still
// cover features near the border.
GateResult build_candidate_set(std::span<const Vec3> map_positions,
                               const SE3& prior_pose_cw,
                               const PinholeCamera& camera,
                               const FeatureList& features,
                               const MatchPolicy& policy);

// The hot-path builder of the same candidate sets: positions arrive as SoA
// lanes (the frame's borrowed MapReadView's xs()/ys()/zs() spans — frozen
// for the stage, no lock, no per-frame snapshot copy), projection runs
// through the batched SIMD kernel, scratch lives in `scratch` (may be
// null: thread-local fallback), and `out`'s vectors are recycled across
// frames.  The set holds the cell-ordered slots and each feature's window
// runs; projected counts and each feature's candidates (expand()) equal
// build_candidate_set()'s on the same inputs (asserted by
// tests/features/simd_parity_test.cpp).
void build_candidate_set_into(std::span<const double> xs,
                              std::span<const double> ys,
                              std::span<const double> zs,
                              const SE3& prior_pose_cw,
                              const PinholeCamera& camera,
                              const FeatureList& features,
                              const MatchPolicy& policy, Arena* scratch,
                              GateResult& out);

const char* to_string(MatchTier tier);

}  // namespace eslam
