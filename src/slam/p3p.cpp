#include "slam/p3p.h"

#include <algorithm>
#include <cmath>

#include "core/hot_align.h"
#include "geometry/umeyama.h"

namespace eslam {

namespace {

// Cubic real roots (Cardano), used to find the quartic's critical points.
std::vector<double> solve_cubic(double a3, double a2, double a1, double a0) {
  if (std::abs(a3) < 1e-14) {
    // Quadratic fallback.
    if (std::abs(a2) < 1e-14) {
      if (std::abs(a1) < 1e-14) return {};
      return {-a0 / a1};
    }
    const double disc = a1 * a1 - 4 * a2 * a0;
    if (disc < 0) return {};
    const double s = std::sqrt(disc);
    return {(-a1 + s) / (2 * a2), (-a1 - s) / (2 * a2)};
  }
  const double b = a2 / a3, c = a1 / a3, d = a0 / a3;
  const double p = c - b * b / 3.0;
  const double q = 2.0 * b * b * b / 27.0 - b * c / 3.0 + d;
  const double shift = -b / 3.0;
  const double disc = q * q / 4.0 + p * p * p / 27.0;
  std::vector<double> roots;
  if (disc > 1e-18) {
    const double s = std::sqrt(disc);
    const double u = std::cbrt(-q / 2.0 + s);
    const double v = std::cbrt(-q / 2.0 - s);
    roots.push_back(u + v + shift);
  } else if (disc > -1e-18) {
    if (std::abs(q) < 1e-18) {
      roots.push_back(shift);
    } else {
      const double u = std::cbrt(-q / 2.0);
      roots.push_back(2 * u + shift);
      roots.push_back(-u + shift);
    }
  } else {
    const double r = std::sqrt(-p * p * p / 27.0);
    const double phi = std::acos(std::clamp(-q / (2.0 * r), -1.0, 1.0));
    const double m = 2.0 * std::sqrt(-p / 3.0);
    for (int k = 0; k < 3; ++k)
      roots.push_back(m * std::cos((phi + 2 * M_PI * k) / 3.0) + shift);
  }
  return roots;
}

double eval_quartic(const double* a, double x) {
  return (((a[4] * x + a[3]) * x + a[2]) * x + a[1]) * x + a[0];
}

// Newton polish from a bracketing interval.
double refine_root(const double* a, double lo, double hi) {
  double flo = eval_quartic(a, lo);
  double x = 0.5 * (lo + hi);
  for (int iter = 0; iter < 80; ++iter) {
    const double fx = eval_quartic(a, x);
    if ((fx > 0) == (flo > 0)) {
      lo = x;
      flo = fx;
    } else {
      hi = x;
    }
    x = 0.5 * (lo + hi);
  }
  // Final Newton steps for extra precision.
  for (int iter = 0; iter < 3; ++iter) {
    const double fx = eval_quartic(a, x);
    const double dfx =
        ((4 * a[4] * x + 3 * a[3]) * x + 2 * a[2]) * x + a[1];
    if (std::abs(dfx) < 1e-16) break;
    const double next = x - fx / dfx;
    if (next > lo && next < hi) x = next;
  }
  return x;
}

// Degree-bounded polynomial multiply (c = a * b).
void poly_mul(const std::vector<double>& a, const std::vector<double>& b,
              std::vector<double>& c) {
  c.assign(a.size() + b.size() - 1, 0.0);
  for (std::size_t i = 0; i < a.size(); ++i)
    for (std::size_t j = 0; j < b.size(); ++j) c[i + j] += a[i] * b[j];
}

}  // namespace

std::vector<double> solve_quartic(double a4, double a3, double a2, double a1,
                                  double a0) {
  const double coeffs[5] = {a0, a1, a2, a3, a4};
  if (std::abs(a4) < 1e-14) {
    // Degenerate: cubic (or lower).
    return solve_cubic(a3, a2, a1, a0);
  }
  // Critical points of the quartic partition the line into monotone
  // intervals; a sign change on an interval brackets exactly one root.
  std::vector<double> crit = solve_cubic(4 * a4, 3 * a3, 2 * a2, a1);
  std::sort(crit.begin(), crit.end());

  // Cauchy root bound.
  double bound = 0.0;
  for (int i = 0; i < 4; ++i)
    bound = std::max(bound, std::abs(coeffs[i] / a4));
  bound += 1.0;

  std::vector<double> knots = {-bound};
  for (double c : crit)
    if (c > -bound && c < bound) knots.push_back(c);
  knots.push_back(bound);

  std::vector<double> roots;
  for (std::size_t i = 0; i + 1 < knots.size(); ++i) {
    const double lo = knots[i], hi = knots[i + 1];
    const double flo = eval_quartic(coeffs, lo);
    const double fhi = eval_quartic(coeffs, hi);
    if (flo == 0.0) roots.push_back(lo);
    if ((flo > 0) != (fhi > 0))
      roots.push_back(refine_root(coeffs, lo, hi));
  }
  // Critical points that are themselves (double) roots.
  for (double c : crit)
    if (std::abs(eval_quartic(coeffs, c)) <
        1e-9 * std::max(1.0, std::abs(a4)) * std::max(1.0, c * c * c * c))
      roots.push_back(c);
  std::sort(roots.begin(), roots.end());
  roots.erase(std::unique(roots.begin(), roots.end(),
                          [](double a, double b) {
                            return std::abs(a - b) < 1e-9;
                          }),
              roots.end());
  return roots;
}

ESLAM_HOT_ALIGN std::vector<SE3> solve_p3p(const std::array<Vec3, 3>& world,
                                           const std::array<Vec3, 3>& rays) {
  const double a = (world[1] - world[2]).norm();
  const double b = (world[0] - world[2]).norm();
  const double c = (world[0] - world[1]).norm();
  if (a < 1e-9 || b < 1e-9 || c < 1e-9) return {};  // coincident points

  const double cos_alpha = dot(rays[1], rays[2]);
  const double cos_beta = dot(rays[0], rays[2]);
  const double cos_gamma = dot(rays[0], rays[1]);

  // Grunert's system with u = s2/s1, v = s3/s1 and
  //   u(v) = N(v) / D(v),
  //   N(v) = (m-1) v^2 - 2 m cos(beta) v + (m+1),  m = (a^2 - c^2)/b^2
  //   D(v) = 2 (cos(gamma) - cos(alpha) v)
  // substituted into
  //   u^2 - 2 cos(gamma) u + 1 - (c^2/b^2)(1 + v^2 - 2 cos(beta) v) = 0
  // giving N^2 - 2 cos(gamma) N D + D^2 Q = 0, a quartic in v, where
  //   Q(v) = 1 - (c^2/b^2)(1 + v^2 - 2 cos(beta) v).
  const double m = (a * a - c * c) / (b * b);
  const double c2b2 = (c * c) / (b * b);

  const std::vector<double> n_poly = {m + 1.0, -2.0 * m * cos_beta, m - 1.0};
  const std::vector<double> d_poly = {2.0 * cos_gamma, -2.0 * cos_alpha};
  const std::vector<double> q_poly = {1.0 - c2b2, 2.0 * c2b2 * cos_beta,
                                      -c2b2};

  std::vector<double> n2, nd, d2, d2q, quartic(5, 0.0);
  poly_mul(n_poly, n_poly, n2);
  poly_mul(n_poly, d_poly, nd);
  poly_mul(d_poly, d_poly, d2);
  poly_mul(d2, q_poly, d2q);
  for (std::size_t i = 0; i < 5; ++i) {
    double v = 0.0;
    if (i < n2.size()) v += n2[i];
    if (i < nd.size()) v -= 2.0 * cos_gamma * nd[i];
    if (i < d2q.size()) v += d2q[i];
    quartic[i] = v;
  }

  const std::vector<double> v_roots =
      solve_quartic(quartic[4], quartic[3], quartic[2], quartic[1],
                    quartic[0]);

  std::vector<SE3> poses;
  for (double v : v_roots) {
    if (v <= 1e-9) continue;  // distances must be positive
    const double denom_d = 2.0 * (cos_gamma - cos_alpha * v);
    if (std::abs(denom_d) < 1e-9) continue;
    const double u =
        ((m - 1.0) * v * v - 2.0 * m * cos_beta * v + (m + 1.0)) / denom_d;
    if (u <= 1e-9) continue;
    const double s1_sq = b * b / (1.0 + v * v - 2.0 * v * cos_beta);
    if (s1_sq <= 0.0) continue;
    const double s1 = std::sqrt(s1_sq);
    const double s2 = u * s1;
    const double s3 = v * s1;

    // Camera-frame triangle.
    std::array<Vec3, 3> cam = {s1 * rays[0], s2 * rays[1], s3 * rays[2]};

    // Rigid transform world -> camera via closed-form alignment.
    const AlignmentResult align =
        umeyama(std::span<const Vec3>(world), std::span<const Vec3>(cam));
    if (align.rmse > 1e-3 * std::max(1.0, b)) continue;  // inconsistent root
    poses.push_back(align.transform);
  }
  return poses;
}

ESLAM_HOT_ALIGN std::optional<SE3> solve_p3p_with_check(
    const std::array<Vec3, 4>& world, const std::array<Vec2, 4>& pixels,
    const PinholeCamera& camera) {
  const std::array<Vec3, 3> w3 = {world[0], world[1], world[2]};
  const std::array<Vec3, 3> rays = {camera.ray(pixels[0][0], pixels[0][1]),
                                    camera.ray(pixels[1][0], pixels[1][1]),
                                    camera.ray(pixels[2][0], pixels[2][1])};
  const std::vector<SE3> candidates = solve_p3p(w3, rays);
  std::optional<SE3> best;
  double best_err = std::numeric_limits<double>::infinity();
  for (const SE3& pose : candidates) {
    const auto proj = camera.project(pose * world[3]);
    if (!proj) continue;
    const double err = (*proj - pixels[3]).squared_norm();
    if (err < best_err) {
      best_err = err;
      best = pose;
    }
  }
  return best;
}

}  // namespace eslam
