// Perspective-n-Point pose estimation by iterative Gauss-Newton /
// Levenberg-Marquardt on the reprojection error (paper Eq. 1):
//   E(p) = sum_i || c_i - h(g_i, p) ||^2
// where g_i are matched world points, c_i their pixel observations and p
// the world-to-camera pose.  Used both inside RANSAC (minimal 4-point
// refits) and as the final Pose Optimization stage (with a Huber kernel).
//
// Cost: solve_pnp() makes one pass over the correspondences per LM
// iteration, plus one at the start pose.  The pass at a candidate pose
// both scores it and builds its normal equations (the upper triangle of
// H = sum w J^T J, and b = sum w J^T r), so an accepted step carries them
// into the next iteration and a rejected step keeps the ones it already
// holds.  The pass is simd::normal_equations() over SoA columns, on the
// tier core/simd_dispatch picked: AVX-512 runs 8 points per block, AVX2
// 4, the scalar loop one (features/simd_kernels.h).  Its per-point
// expressions write the two Jacobian rows of j_proj * [I | -hat(p)] in
// closed form.  The span overload copies the rows into columns first;
// RANSAC and pose optimization gather theirs into the frame's arena
// (columns_of).
//
// Bit-identity: solve_pnp() returns exactly what solve_pnp_reference()
// returns — the generic-Mat solver that evaluates every iteration twice —
// on every tier.  Every H, b and cost entry keeps the reference's
// operation order (points summed in order, no FMA, no reassociation; a
// vector tier evaluates each point in its own lane and adds the lanes to
// each sum in index order); the kernel drops only the products with a
// structurally zero Jacobian entry and the leading `0.0 +` of each dot
// product, which for finite values can change nothing but the sign of an
// exact zero, and sums that start at +0.0 absorb that.
// tests/slam/pnp_ransac_test.cpp holds the two equal bit for bit, and
// tests/features/simd_parity_test.cpp every tier's pass equal to the
// scalar one.
#pragma once

#include <span>

#include "geometry/camera.h"
#include "geometry/se3.h"

namespace eslam {

class Arena;
namespace simd {
struct ReprojectionColumns;
}

struct Correspondence {
  Vec3 world;   // g_i: matched 3D map point (world frame)
  Vec2 pixel;   // c_i: observed pixel in the current frame (level-0 coords)
};

struct PnpOptions {
  int max_iterations = 10;
  double initial_lambda = 1e-4;  // LM damping; 0 gives pure Gauss-Newton
  // Huber kernel width in pixels; <= 0 disables the robust kernel.
  double huber_delta = 0.0;
  double convergence_step = 1e-8;  // stop when |delta| drops below this
};

struct PnpResult {
  SE3 pose;               // refined world-to-camera transform
  double final_cost = 0;  // robustified mean squared reprojection error
  int iterations = 0;
  bool converged = false;
};

// Refines `initial_pose` against the correspondences.  Requires >= 3
// correspondences (6 DoF from 2 residuals each needs >= 3).
PnpResult solve_pnp(const simd::ReprojectionColumns& columns,
                    const PinholeCamera& camera, const SE3& initial_pose,
                    const PnpOptions& options = {});
// The same on AoS rows, copied into columns in thread-local scratch.
PnpResult solve_pnp(std::span<const Correspondence> correspondences,
                    const PinholeCamera& camera, const SE3& initial_pose,
                    const PnpOptions& options = {});

// The rows as SoA columns allocated in `arena`: all of them, or
// rows[pick[0]], rows[pick[1]], ... in that order.
simd::ReprojectionColumns columns_of(std::span<const Correspondence> rows,
                                     Arena& arena);
simd::ReprojectionColumns columns_of(std::span<const Correspondence> rows,
                                     std::span<const int> pick, Arena& arena);

// The generic-Mat solver: two full passes per LM iteration through
// Mat<2,3> * Mat<3,6> and Mat<6,2> * Mat<2,6> products.  The reference
// the parity test and bench/micro_kernels compare solve_pnp() against; no
// production code calls it.
PnpResult solve_pnp_reference(std::span<const Correspondence> correspondences,
                              const PinholeCamera& camera,
                              const SE3& initial_pose,
                              const PnpOptions& options = {});

// Squared reprojection error of a single correspondence under `pose`;
// returns a large sentinel (1e12) when the point falls behind the camera.
// The scalar reference for RANSAC's batched scoring kernel
// (simd::reprojection_inliers).
double reprojection_error_sq(const Correspondence& c,
                             const PinholeCamera& camera, const SE3& pose);

}  // namespace eslam
