#include "slam/pnp.h"

#include <cmath>

#include "core/arena.h"
#include "core/hot_align.h"
#include "features/simd_kernels.h"

namespace eslam {

namespace {

// Reference: accumulates the normal equations for one correspondence
// through generic Mat products.  Returns false when the point is behind
// the camera (it is then skipped).
bool accumulate(const Correspondence& c, const PinholeCamera& camera,
                const SE3& pose, double huber_delta, Mat6& h, Vec6& b,
                double& cost) {
  const Vec3 p = pose * c.world;  // camera-frame point
  if (p[2] <= PinholeCamera::kMinDepth) return false;

  const double x = p[0], y = p[1], z = p[2];
  const double inv_z = 1.0 / z;
  const Vec2 proj{camera.fx() * x * inv_z + camera.cx(),
                  camera.fy() * y * inv_z + camera.cy()};
  const Vec2 r = proj - c.pixel;

  // Projection Jacobian wrt the camera-frame point.
  Mat<2, 3> j_proj;
  j_proj(0, 0) = camera.fx() * inv_z;
  j_proj(0, 2) = -camera.fx() * x * inv_z * inv_z;
  j_proj(1, 1) = camera.fy() * inv_z;
  j_proj(1, 2) = -camera.fy() * y * inv_z * inv_z;

  // Left-perturbation pose Jacobian: d(T p)/d xi = [I | -hat(p)].
  Mat<3, 6> j_point;
  j_point.set_block(0, 0, Mat3::identity());
  j_point.set_block(0, 3, -hat(p));

  const Mat<2, 6> j = j_proj * j_point;

  const double err_sq = r.squared_norm();
  double weight = 1.0;
  if (huber_delta > 0.0) {
    const double err = std::sqrt(err_sq);
    if (err > huber_delta) weight = huber_delta / err;
    cost += weight * err_sq * (2.0 - weight);  // Huber rho
  } else {
    cost += err_sq;
  }

  const Mat<6, 2> jt = j.transposed();
  h += weight * (jt * j);
  b += weight * (jt * r);
  return true;
}

// Copies row(k) for k < n into SoA columns in `arena`.
template <typename Row>
simd::ReprojectionColumns gather_columns(std::size_t n, Arena& arena,
                                         Row row) {
  const std::span<double> x = arena.alloc_span<double>(n);
  const std::span<double> y = arena.alloc_span<double>(n);
  const std::span<double> z = arena.alloc_span<double>(n);
  const std::span<double> u = arena.alloc_span<double>(n);
  const std::span<double> v = arena.alloc_span<double>(n);
  for (std::size_t k = 0; k < n; ++k) {
    const Correspondence& c = row(k);
    x[k] = c.world[0];
    y[k] = c.world[1];
    z[k] = c.world[2];
    u[k] = c.pixel[0];
    v[k] = c.pixel[1];
  }
  return {x, y, z, u, v};
}

}  // namespace

double reprojection_error_sq(const Correspondence& c,
                             const PinholeCamera& camera, const SE3& pose) {
  const Vec3 p = pose * c.world;
  const auto proj = camera.project(p);
  if (!proj) return 1e12;
  return (*proj - c.pixel).squared_norm();
}

simd::ReprojectionColumns columns_of(std::span<const Correspondence> rows,
                                     Arena& arena) {
  return gather_columns(rows.size(), arena,
                        [&](std::size_t k) -> const Correspondence& {
                          return rows[k];
                        });
}

simd::ReprojectionColumns columns_of(std::span<const Correspondence> rows,
                                     std::span<const int> pick, Arena& arena) {
  return gather_columns(pick.size(), arena,
                        [&](std::size_t k) -> const Correspondence& {
                          return rows[static_cast<std::size_t>(pick[k])];
                        });
}

ESLAM_HOT_ALIGN PnpResult solve_pnp(
    std::span<const Correspondence> correspondences,
    const PinholeCamera& camera, const SE3& initial_pose,
    const PnpOptions& options) {
  thread_local Arena scratch;
  const ArenaScope scope(scratch);
  return solve_pnp(columns_of(correspondences, scratch), camera, initial_pose,
                   options);
}

ESLAM_HOT_ALIGN PnpResult solve_pnp(const simd::ReprojectionColumns& columns,
                                    const PinholeCamera& camera,
                                    const SE3& initial_pose,
                                    const PnpOptions& options) {
  ESLAM_ASSERT(columns.size() >= 3, "PnP needs >= 3 correspondences");
  PnpResult result;
  result.pose = initial_pose;
  if (options.max_iterations <= 0) return result;
  double lambda = options.initial_lambda;

  // The normal equations at result.pose: an accepted step replaces them
  // with the candidate's, a rejected step leaves pose and sums as they are.
  simd::NormalEquations at_pose = simd::normal_equations(
      columns, result.pose, camera, options.huber_delta);
  double prev_cost = -1.0;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    if (at_pose.used < 3) break;  // degenerate: almost everything behind
    const double cost = at_pose.cost / at_pose.used;

    // Mirroring is exact: H(i,j) and H(j,i) sum the same products.
    Mat6 h;
    for (int i = 0, k = 0; i < 6; ++i)
      for (int j = i; j < 6; ++j, ++k) h(i, j) = h(j, i) = at_pose.h[k];
    // LM damping on the diagonal.
    for (int i = 0; i < 6; ++i) h(i, i) += lambda * h(i, i) + 1e-12;
    Vec6 b;
    for (int i = 0; i < 6; ++i) b[i] = at_pose.b[i];

    Vec6 delta;
    if (!solve(h, Vec6(-1.0 * b), delta)) break;

    const SE3 candidate = SE3::exp(delta) * result.pose;

    // Evaluate the candidate; accept when cost does not increase.
    const simd::NormalEquations at_candidate = simd::normal_equations(
        columns, candidate, camera, options.huber_delta);
    double cand_cost = at_candidate.cost;
    if (at_candidate.used >= 3) cand_cost /= at_candidate.used;

    result.iterations = iter + 1;
    if (at_candidate.used >= 3 && (prev_cost < 0.0 || cand_cost <= cost)) {
      result.pose = candidate;
      result.final_cost = cand_cost;
      at_pose = at_candidate;
      lambda = std::max(lambda * 0.5, 1e-9);
      if (delta.norm() < options.convergence_step) {
        result.converged = true;
        break;
      }
    } else {
      lambda *= 8.0;  // reject step, increase damping
      result.final_cost = cost;
      if (lambda > 1e6) break;
    }
    prev_cost = cost;
  }
  return result;
}

PnpResult solve_pnp_reference(std::span<const Correspondence> correspondences,
                              const PinholeCamera& camera,
                              const SE3& initial_pose,
                              const PnpOptions& options) {
  ESLAM_ASSERT(correspondences.size() >= 3, "PnP needs >= 3 correspondences");
  PnpResult result;
  result.pose = initial_pose;
  double lambda = options.initial_lambda;

  double prev_cost = -1.0;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    Mat6 h;
    Vec6 b;
    double cost = 0.0;
    int used = 0;
    for (const Correspondence& c : correspondences)
      if (accumulate(c, camera, result.pose, options.huber_delta, h, b, cost))
        ++used;
    if (used < 3) break;  // degenerate: almost everything behind the camera
    cost /= used;

    // LM damping on the diagonal.
    for (int i = 0; i < 6; ++i) h(i, i) += lambda * h(i, i) + 1e-12;

    Vec6 delta;
    if (!solve(h, Vec6(-1.0 * b), delta)) break;

    const SE3 candidate = SE3::exp(delta) * result.pose;

    // Evaluate the candidate; accept when cost does not increase.
    double cand_cost = 0.0;
    int cand_used = 0;
    for (const Correspondence& c : correspondences) {
      Mat6 h_unused;
      Vec6 b_unused;
      if (accumulate(c, camera, candidate, options.huber_delta, h_unused,
                     b_unused, cand_cost))
        ++cand_used;
    }
    if (cand_used >= 3) cand_cost /= cand_used;

    result.iterations = iter + 1;
    if (cand_used >= 3 && (prev_cost < 0.0 || cand_cost <= cost)) {
      result.pose = candidate;
      result.final_cost = cand_cost;
      lambda = std::max(lambda * 0.5, 1e-9);
      if (delta.norm() < options.convergence_step) {
        result.converged = true;
        break;
      }
    } else {
      lambda *= 8.0;  // reject step, increase damping
      result.final_cost = cost;
      if (lambda > 1e6) break;
    }
    prev_cost = cost;
  }
  return result;
}

}  // namespace eslam
