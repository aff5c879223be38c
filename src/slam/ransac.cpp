#include "slam/ransac.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <random>

#include "core/hot_align.h"
#include "features/simd_kernels.h"
#include "obs/metrics.h"
#include "slam/sampling.h"

namespace eslam {

namespace {

// Resolved once: the registry lookup allocates, the add does not.
obs::Counter& hypotheses_total() {
  static obs::Counter& counter =
      obs::metrics().counter("eslam_ransac_hypotheses_total");
  return counter;
}

}  // namespace

RansacResult ransac_pnp(std::span<const Correspondence> correspondences,
                        const PinholeCamera& camera, const SE3& prior_pose,
                        const RansacOptions& options) {
  RansacResult best;
  ransac_pnp_into(correspondences, camera, prior_pose, options, nullptr, best);
  return best;
}

ESLAM_HOT_ALIGN void ransac_pnp_into(
    std::span<const Correspondence> correspondences,
    const PinholeCamera& camera, const SE3& prior_pose,
    const RansacOptions& options, Arena* scratch, RansacResult& out) {
  RansacResult& best = out;
  best.pose = prior_pose;
  best.inliers.clear();
  best.success = false;
  best.iterations = 0;
  const int n = static_cast<int>(correspondences.size());
  if (n < options.sample_size) return;

  thread_local Arena fallback;
  Arena& arena = scratch != nullptr ? *scratch : fallback;
  const ArenaScope arena_scope(arena);

  // Explicit bounded reduction (not std::uniform_int_distribution, whose
  // mapping is implementation-defined): the same seed must yield the same
  // samples — and therefore the same pose and inlier set — on every
  // standard library, per the RansacOptions::seed contract.
  std::mt19937_64 rng(options.seed);
  auto pick = [&rng, n] {
    return static_cast<int>(bounded_draw(rng, static_cast<std::uint64_t>(n)));
  };
  const double thresh_sq =
      options.inlier_threshold_px * options.inlier_threshold_px;

  PnpOptions refit = options.refit;
  refit.max_iterations = std::max(refit.max_iterations, 5);

  const std::span<int> indices = arena.alloc_span<int>(
      static_cast<std::size_t>(options.sample_size), 0);
  const std::span<int> current =
      arena.alloc_span<int>(static_cast<std::size_t>(n));
  best.inliers.reserve(static_cast<std::size_t>(n));

  // SoA columns for the batched kernels: every correspondence for
  // scoring, built once per call; each sample and the final inlier set
  // are gathered the same way for their refits.
  const simd::ReprojectionColumns columns = columns_of(correspondences, arena);

  int needed_iterations = options.max_iterations;
  for (int iter = 0; iter < needed_iterations; ++iter) {
    best.iterations = iter + 1;
    // Draw a minimal sample without replacement.
    for (int k = 0; k < options.sample_size; ++k) {
      bool fresh;
      do {
        indices[static_cast<std::size_t>(k)] = pick();
        fresh = true;
        for (int j = 0; j < k; ++j)
          if (indices[static_cast<std::size_t>(j)] ==
              indices[static_cast<std::size_t>(k)])
            fresh = false;
      } while (!fresh);
    }
    const ArenaScope sample_scope(arena);
    const simd::ReprojectionColumns sample =
        columns_of(correspondences, indices, arena);

    SE3 hypothesis_pose;
    if (options.use_p3p) {
      ESLAM_ASSERT(options.sample_size >= 4, "P3P+1 needs 4 samples");
      std::array<Vec3, 4> world;
      std::array<Vec2, 4> pixels;
      for (std::size_t k = 0; k < 4; ++k) {
        const Correspondence& c =
            correspondences[static_cast<std::size_t>(indices[k])];
        world[k] = c.world;
        pixels[k] = c.pixel;
      }
      const auto p3p = solve_p3p_with_check(world, pixels, camera);
      if (!p3p) continue;
      // One polish step on the minimal set tightens the closed-form pose.
      hypothesis_pose = solve_pnp(sample, camera, *p3p, refit).pose;
    } else {
      hypothesis_pose = solve_pnp(sample, camera, prior_pose, refit).pose;
    }

    // A hypothesis that cannot beat the best one is dropped below either
    // way, so scoring may stop as soon as it cannot.
    const std::size_t inlier_count =
        simd::reprojection_inliers(columns, hypothesis_pose, camera, thresh_sq,
                                   current.data(), best.inliers.size());

    if (inlier_count > best.inliers.size()) {
      best.inliers.assign(current.begin(),
                          current.begin() + static_cast<std::ptrdiff_t>(
                                                inlier_count));
      best.pose = hypothesis_pose;
      if (static_cast<double>(best.inliers.size()) >=
          options.early_exit_ratio * n)
        break;
      // Adaptive termination from the observed inlier ratio w:
      // needed = log(1 - confidence) / log(1 - w^sample_size).
      const double w = static_cast<double>(best.inliers.size()) / n;
      const double all_inlier_prob =
          std::pow(w, static_cast<double>(options.sample_size));
      if (all_inlier_prob > 1e-9 && all_inlier_prob < 1.0) {
        // Clamped in double before the cast: just above the 1e-9 floor the
        // ratio exceeds INT_MAX, and converting an out-of-range double is
        // undefined (x86 yields INT_MIN, AArch64 saturates), which would
        // break the seed contract across toolchains.  A NaN falls to
        // min_iterations (std::max returns its first argument).
        const double adaptive =
            std::ceil(std::log(1.0 - options.confidence) /
                      std::log(1.0 - all_inlier_prob));
        needed_iterations = static_cast<int>(std::clamp(
            std::max(static_cast<double>(options.min_iterations), adaptive),
            static_cast<double>(iter + 1),
            static_cast<double>(options.max_iterations)));
      }
    }
  }

  if (static_cast<int>(best.inliers.size()) >= options.min_inliers) {
    // Final refit on all inliers (this is the "pose estimation" output the
    // Pose Optimization stage then polishes further).
    const simd::ReprojectionColumns inlier_set =
        columns_of(correspondences, best.inliers, arena);
    PnpOptions final_fit = options.refit;
    final_fit.max_iterations = 10;
    best.pose = solve_pnp(inlier_set, camera, best.pose, final_fit).pose;
    best.success = true;
  }
  hypotheses_total().add(best.iterations);
}

}  // namespace eslam
