#include "slam/pnp.h"

#include <cmath>

#include "core/hot_align.h"

namespace eslam {

namespace {

// Normal equations of the problem linearised at one pose.
struct NormalEquations {
  // Upper triangle of H = sum w J^T J, row-major: (0,0) (0,1) .. (0,5)
  // (1,1) .. (1,5) .. (5,5).  Entry (0,1) is structurally zero.
  double h[21] = {};
  double b[6] = {};   // sum w J^T r
  double cost = 0.0;  // robustified squared error, summed over used points
  int used = 0;       // points in front of the camera
};

// One pass over the correspondences at `pose`.  Each entry is summed over
// the points in order with the reference's operation order (see pnp.h).
ESLAM_HOT_ALIGN NormalEquations normal_equations(
    std::span<const Correspondence> correspondences,
    const PinholeCamera& camera, const SE3& pose, double huber_delta) {
  const Mat3& rot = pose.rotation();
  const Vec3& t = pose.translation();
  const double r00 = rot(0, 0), r01 = rot(0, 1), r02 = rot(0, 2);
  const double r10 = rot(1, 0), r11 = rot(1, 1), r12 = rot(1, 2);
  const double r20 = rot(2, 0), r21 = rot(2, 1), r22 = rot(2, 2);
  const double t0 = t[0], t1 = t[1], t2 = t[2];
  const double fx = camera.fx(), fy = camera.fy();
  const double cx = camera.cx(), cy = camera.cy();

  // Local accumulators: nothing aliases them, so they stay in registers.
  double h[21] = {};
  double b[6] = {};
  double cost = 0.0;
  int used = 0;
  for (const Correspondence& c : correspondences) {
    const double wx = c.world[0], wy = c.world[1], wz = c.world[2];
    // SE3::operator*: Mat*Vec accumulates from zero, then adds t.
    const double x = (((0.0 + r00 * wx) + r01 * wy) + r02 * wz) + t0;
    const double y = (((0.0 + r10 * wx) + r11 * wy) + r12 * wz) + t1;
    const double z = (((0.0 + r20 * wx) + r21 * wy) + r22 * wz) + t2;
    if (z <= PinholeCamera::kMinDepth) continue;  // behind the camera
    ++used;

    const double inv_z = 1.0 / z;
    const double r0 = (fx * x * inv_z + cx) - c.pixel[0];
    const double r1 = (fy * y * inv_z + cy) - c.pixel[1];

    // Rows of j_proj * [I | -hat(p)], the residual's Jacobian wrt a left
    // pose perturbation; j01 and j10 are structurally zero.
    const double j00 = fx * inv_z;
    const double j02 = -fx * x * inv_z * inv_z;
    const double j03 = j02 * y;
    const double j04 = j00 * z + j02 * -x;
    const double j05 = j00 * -y;
    const double j11 = fy * inv_z;
    const double j12 = -fy * y * inv_z * inv_z;
    const double j13 = j11 * -z + j12 * y;
    const double j14 = j12 * -x;
    const double j15 = j11 * x;

    const double err_sq = r0 * r0 + r1 * r1;
    double w = 1.0;
    if (huber_delta > 0.0) {
      const double err = std::sqrt(err_sq);
      if (err > huber_delta) w = huber_delta / err;
      cost += w * err_sq * (2.0 - w);  // Huber rho
    } else {
      cost += err_sq;
    }

    h[0] += w * (j00 * j00);
    h[2] += w * (j00 * j02);
    h[3] += w * (j00 * j03);
    h[4] += w * (j00 * j04);
    h[5] += w * (j00 * j05);
    h[6] += w * (j11 * j11);
    h[7] += w * (j11 * j12);
    h[8] += w * (j11 * j13);
    h[9] += w * (j11 * j14);
    h[10] += w * (j11 * j15);
    h[11] += w * (j02 * j02 + j12 * j12);
    h[12] += w * (j02 * j03 + j12 * j13);
    h[13] += w * (j02 * j04 + j12 * j14);
    h[14] += w * (j02 * j05 + j12 * j15);
    h[15] += w * (j03 * j03 + j13 * j13);
    h[16] += w * (j03 * j04 + j13 * j14);
    h[17] += w * (j03 * j05 + j13 * j15);
    h[18] += w * (j04 * j04 + j14 * j14);
    h[19] += w * (j04 * j05 + j14 * j15);
    h[20] += w * (j05 * j05 + j15 * j15);
    b[0] += w * (j00 * r0);
    b[1] += w * (j11 * r1);
    b[2] += w * (j02 * r0 + j12 * r1);
    b[3] += w * (j03 * r0 + j13 * r1);
    b[4] += w * (j04 * r0 + j14 * r1);
    b[5] += w * (j05 * r0 + j15 * r1);
  }

  NormalEquations out;
  for (int k = 0; k < 21; ++k) out.h[k] = h[k];
  for (int k = 0; k < 6; ++k) out.b[k] = b[k];
  out.cost = cost;
  out.used = used;
  return out;
}

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

}  // namespace

double reprojection_error_sq(const Correspondence& c,
                             const PinholeCamera& camera, const SE3& pose) {
  const Vec3 p = pose * c.world;
  const auto proj = camera.project(p);
  if (!proj) return 1e12;
  return (*proj - c.pixel).squared_norm();
}

ESLAM_HOT_ALIGN PnpResult solve_pnp(
    std::span<const Correspondence> correspondences,
    const PinholeCamera& camera, const SE3& initial_pose,
    const PnpOptions& options) {
  ESLAM_ASSERT(correspondences.size() >= 3, "PnP needs >= 3 correspondences");
  PnpResult result;
  result.pose = initial_pose;
  if (options.max_iterations <= 0) return result;
  double lambda = options.initial_lambda;

  // The normal equations at result.pose: an accepted step replaces them
  // with the candidate's, a rejected step leaves pose and sums as they are.
  NormalEquations at_pose = normal_equations(correspondences, camera,
                                             result.pose, options.huber_delta);
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
    const NormalEquations at_candidate = normal_equations(
        correspondences, camera, candidate, options.huber_delta);
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
