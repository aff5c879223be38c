#include "geometry/se3.h"

#include <cmath>

namespace eslam {

namespace {

// so3_exp(w) and the left Jacobian V of SO(3), exp([t; w]) = (exp(w), V t),
// from one |w|, hat(w), hat(w)^2, sine and cosine.  Each matrix is the
// same expression so3_exp() and the Jacobian's own formula evaluate, so
// the results are the same bits.
struct ExpAndJacobian {
  Mat3 rotation, jacobian;
};

ExpAndJacobian exp_and_left_jacobian(const Vec3& w) {
  const double theta = w.norm();
  const Mat3 k = hat(w);
  const Mat3 kk = k * k;
  if (theta < 1e-9)
    return {Mat3::identity() + k + 0.5 * kk,
            Mat3::identity() + 0.5 * k + kk / 6.0};
  const double sin_theta = std::sin(theta);
  const double t2 = theta * theta;
  const double one_minus_cos = (1.0 - std::cos(theta)) / t2;
  return {Mat3::identity() + (sin_theta / theta) * k + one_minus_cos * kk,
          Mat3::identity() + one_minus_cos * k +
              ((theta - sin_theta) / (t2 * theta)) * kk};
}

}  // namespace

SE3 SE3::exp(const Vec6& xi) {
  const Vec3 rho{xi[0], xi[1], xi[2]};
  const ExpAndJacobian e = exp_and_left_jacobian({xi[3], xi[4], xi[5]});
  return SE3{e.rotation, e.jacobian * rho};
}

Vec6 SE3::log() const {
  const Vec3 w = so3_log(r_);
  Mat3 v_inv;
  const bool ok = invert(exp_and_left_jacobian(w).jacobian, v_inv);
  ESLAM_ASSERT(ok, "left Jacobian must be invertible");
  const Vec3 rho = v_inv * t_;
  return Vec6{rho[0], rho[1], rho[2], w[0], w[1], w[2]};
}

}  // namespace eslam
