// RANSAC wrapper around iterative PnP (paper: "RANSAC is used to eliminate
// the mismatches").  Minimal sample size is 4; each hypothesis is refit by
// a few Gauss-Newton iterations starting from the motion prior (previous
// frame pose), which is the standard choice for frame-to-frame tracking
// where inter-frame motion is small.
//
// Where the time goes: per hypothesis, the 4-point solve_pnp() refit (P3P
// first when use_p3p), about ten LM iterations whose 4-point
// normal-equation passes cost less than the 6x6 solve and SE3::exp each
// iteration also runs; then a scoring pass over the correspondences.
// After the hypotheses, one refit over the inliers, whose ~8 passes over
// hundreds of points run on the widest SIMD tier.  Every kernel reads SoA
// x/y/z/u/v columns in the caller's arena: all correspondences, built
// once per call for scoring, and each sample and the final inlier set,
// gathered for their refits.  Scoring runs on simd::reprojection_inliers()
// with the best count so far as its bound, so a hypothesis stops being
// scored once it cannot win; that is exact, because it would be dropped
// anyway.  Both kernels are bit-identical across tiers (a scored
// hypothesis gets exactly a reprojection_error_sq() loop's inliers), so
// poses, inlier sets (in ascending order) and iteration counts do not
// depend on the ISA.  Every run adds its hypothesis count
// (RansacResult::iterations) to the eslam_ransac_hypotheses_total
// counter.
#pragma once

#include <span>
#include <vector>

#include "core/arena.h"
#include "slam/p3p.h"
#include "slam/pnp.h"

namespace eslam {

struct RansacOptions {
  int max_iterations = 64;
  int sample_size = 4;
  // Hypothesis generation: false = iterative PnP refit seeded from the
  // motion prior (cheap, needs a decent prior); true = closed-form P3P on
  // the first 3 sample points, disambiguated by the 4th (prior-free; used
  // for relocalization).
  bool use_p3p = false;
  double inlier_threshold_px = 3.0;   // reprojection inlier gate
  int min_inliers = 10;               // below this the frame counts as lost
  double early_exit_ratio = 0.8;      // stop once this inlier share reached
  // Adaptive termination (standard RANSAC): after each improvement,
  // recompute the iteration count needed to sample an all-inlier minimal
  // set with this confidence, and stop there.  Keeps the easy case (good
  // prior, high inlier share) at a handful of iterations while still
  // spending max_iterations on hard frames.
  double confidence = 0.999;
  int min_iterations = 16;  // floor under the adaptive stop
  // Deterministic sampling: the same seed yields the same sample sequence
  // on every toolchain (mt19937_64 stream + the explicit bounded reduction
  // in slam/sampling.h — never std::uniform_int_distribution, which is
  // implementation-defined).
  std::uint64_t seed = 0x5eed5eedULL;
  PnpOptions refit;                   // per-hypothesis PnP settings
};

struct RansacResult {
  SE3 pose;
  std::vector<int> inliers;  // indices into the correspondence span
  bool success = false;
  int iterations = 0;
};

RansacResult ransac_pnp(std::span<const Correspondence> correspondences,
                        const PinholeCamera& camera, const SE3& prior_pose,
                        const RansacOptions& options = {});

// Allocation-free variant for the per-frame hot path: sample/index/inlier
// buffers and the scoring columns live in `scratch` (may be null:
// thread-local fallback) and the result — including its inlier vector's
// capacity — is recycled across calls.  The RNG stream, hypothesis order,
// adaptive termination, and refit are identical to ransac_pnp(), so both
// produce the same pose and inlier set for the same inputs.
void ransac_pnp_into(std::span<const Correspondence> correspondences,
                     const PinholeCamera& camera, const SE3& prior_pose,
                     const RansacOptions& options, Arena* scratch,
                     RansacResult& out);

}  // namespace eslam
