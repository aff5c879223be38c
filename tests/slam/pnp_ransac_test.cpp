#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "../test_util.h"
#include "slam/ransac.h"

namespace eslam {
namespace {

// Builds perfect 3D->2D correspondences for a known pose.
std::vector<Correspondence> make_scene(const SE3& pose_cw,
                                       const PinholeCamera& cam, int n) {
  std::vector<Correspondence> out;
  const SE3 pose_wc = pose_cw.inverse();
  while (static_cast<int>(out.size()) < n) {
    // Sample a point in front of the camera, then map it to the world.
    const Vec3 p_cam{eslam::testing::uniform(-1.5, 1.5),
                     eslam::testing::uniform(-1.0, 1.0),
                     eslam::testing::uniform(1.0, 6.0)};
    const auto px = cam.project(p_cam);
    if (!px || !cam.in_image(*px, 5.0)) continue;
    out.push_back(Correspondence{pose_wc * p_cam, *px});
  }
  return out;
}

// A small pose perturbation to start the solver from.
SE3 perturb(const SE3& pose, double rot, double trans) {
  return SE3::exp(Vec6{trans, -trans, trans * 0.5, rot, rot * 0.7, -rot}) *
         pose;
}

TEST(Pnp, ExactRecoveryFromPerfectData) {
  eslam::testing::rng(200);
  const PinholeCamera cam = PinholeCamera::tum_freiburg1();
  const SE3 truth = SE3{so3_exp(Vec3{0.05, -0.1, 0.07}), Vec3{0.2, -0.1, 0.3}};
  const auto corr = make_scene(truth, cam, 40);
  const PnpResult r = solve_pnp(corr, cam, perturb(truth, 0.05, 0.1));
  EXPECT_NEAR((r.pose.rotation() - truth.rotation()).max_abs(), 0.0, 1e-6);
  EXPECT_NEAR((r.pose.translation() - truth.translation()).max_abs(), 0.0,
              1e-6);
  EXPECT_LT(r.final_cost, 1e-10);
}

TEST(Pnp, ReprojectionErrorIsZeroAtTruth) {
  eslam::testing::rng(201);
  const PinholeCamera cam = PinholeCamera::tum_freiburg1();
  const SE3 truth = eslam::testing::random_pose(0.3, 0.5);
  const auto corr = make_scene(truth, cam, 10);
  for (const Correspondence& c : corr)
    EXPECT_NEAR(reprojection_error_sq(c, cam, truth), 0.0, 1e-16);
}

TEST(Pnp, BehindCameraGivesSentinel) {
  const PinholeCamera cam = PinholeCamera::tum_freiburg1();
  const Correspondence c{Vec3{0, 0, -5}, Vec2{320, 240}};
  EXPECT_GE(reprojection_error_sq(c, cam, SE3{}), 1e11);
}

TEST(Pnp, MinimalFourPointSample) {
  eslam::testing::rng(202);
  const PinholeCamera cam = PinholeCamera::tum_freiburg1();
  const SE3 truth = SE3{so3_exp(Vec3{0.02, 0.04, -0.03}), Vec3{0.1, 0.05, 0.1}};
  const auto corr = make_scene(truth, cam, 4);
  PnpOptions opts;
  opts.max_iterations = 20;
  const PnpResult r = solve_pnp(corr, cam, SE3{}, opts);
  EXPECT_NEAR((r.pose.translation() - truth.translation()).max_abs(), 0.0,
              1e-4);
}

TEST(Pnp, HuberDownweightsSingleOutlier) {
  eslam::testing::rng(203);
  const PinholeCamera cam = PinholeCamera::tum_freiburg1();
  const SE3 truth = SE3{so3_exp(Vec3{0.03, 0.0, 0.05}), Vec3{0.1, 0.2, -0.1}};
  auto corr = make_scene(truth, cam, 30);
  corr[0].pixel += Vec2{80.0, -60.0};  // gross outlier

  PnpOptions robust;
  robust.huber_delta = 2.5;
  robust.max_iterations = 25;
  const PnpResult with_huber = solve_pnp(corr, cam, perturb(truth, 0.02, 0.05),
                                         robust);

  PnpOptions plain;
  plain.max_iterations = 25;
  const PnpResult without = solve_pnp(corr, cam, perturb(truth, 0.02, 0.05),
                                      plain);

  const double err_huber =
      (with_huber.pose.translation() - truth.translation()).norm();
  const double err_plain =
      (without.pose.translation() - truth.translation()).norm();
  EXPECT_LT(err_huber, err_plain);
  // One gross outlier among 30 still leaks a little bias through Huber.
  EXPECT_LT(err_huber, 0.03);
}

class PnpPoseSweep : public ::testing::TestWithParam<int> {};

TEST_P(PnpPoseSweep, RecoversRandomPosesFromPerturbedStart) {
  eslam::testing::rng(static_cast<std::uint32_t>(300 + GetParam()));
  const PinholeCamera cam = PinholeCamera::tum_freiburg1();
  for (int trial = 0; trial < 8; ++trial) {
    const SE3 truth = eslam::testing::random_pose(0.4, 0.6);
    const auto corr = make_scene(truth, cam, 50);
    PnpOptions opts;
    opts.max_iterations = 30;
    const PnpResult r =
        solve_pnp(corr, cam, perturb(truth, 0.06, 0.15), opts);
    EXPECT_NEAR((r.pose.translation() - truth.translation()).max_abs(), 0.0,
                1e-5)
        << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PnpPoseSweep, ::testing::Range(0, 6));

// ---- solve_pnp() vs solve_pnp_reference(): bit for bit ---------------------

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_bitwise_equal(const PnpResult& got, const PnpResult& want,
                          const std::string& where) {
  for (int i = 0; i < 9; ++i)
    EXPECT_EQ(bits(got.pose.rotation()[i]), bits(want.pose.rotation()[i]))
        << where << " rotation[" << i << "]";
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(bits(got.pose.translation()[i]),
              bits(want.pose.translation()[i]))
        << where << " translation[" << i << "]";
  EXPECT_EQ(bits(got.final_cost), bits(want.final_cost)) << where << " cost";
  EXPECT_EQ(got.iterations, want.iterations) << where << " iterations";
  EXPECT_EQ(got.converged, want.converged) << where << " converged";
}

// Noisy correspondences with gross outliers and, optionally, points that
// sit behind the camera at the true pose.
std::vector<Correspondence> noisy_scene(const SE3& truth,
                                        const PinholeCamera& cam, int n,
                                        int behind) {
  auto corr = make_scene(truth, cam, n);
  const SE3 truth_wc = truth.inverse();
  for (int i = 0; i < n; ++i) {
    Correspondence& c = corr[static_cast<std::size_t>(i)];
    c.pixel += Vec2{eslam::testing::uniform(-1.5, 1.5),
                    eslam::testing::uniform(-1.5, 1.5)};
    if (i % 7 == 6)
      c.pixel = Vec2{eslam::testing::uniform(0, 640),
                     eslam::testing::uniform(0, 480)};
    if (i < behind)
      c.world = truth_wc * Vec3{eslam::testing::uniform(-1.0, 1.0),
                                eslam::testing::uniform(-1.0, 1.0),
                                eslam::testing::uniform(-4.0, -0.5)};
  }
  return corr;
}

TEST(PnpParity, MatchesReferenceBitForBit) {
  eslam::testing::rng(400);
  const PinholeCamera cam = PinholeCamera::tum_freiburg1();
  PnpOptions refit;  // RANSAC's hypothesis settings
  PnpOptions damped;
  damped.initial_lambda = 0.0;  // pure Gauss-Newton: rejected steps happen
  damped.max_iterations = 30;
  PnpOptions po{/*max_iterations=*/15, /*initial_lambda=*/1e-4,
                /*huber_delta=*/2.5, /*convergence_step=*/1e-8};
  PnpOptions heavy = po;
  heavy.initial_lambda = 10.0;
  heavy.huber_delta = 1.0;
  const PnpOptions option_sets[] = {refit, damped, po, heavy};
  for (const int n : {4, 5, 37, 1000}) {
    for (int trial = 0; trial < 3; ++trial) {
      const SE3 truth = eslam::testing::random_pose(0.3, 0.5);
      const int behind = n >= 37 ? n / 10 : trial == 2 ? 1 : 0;
      const auto corr = noisy_scene(truth, cam, n, behind);
      const SE3 starts[] = {truth, perturb(truth, 0.04, 0.08),
                            perturb(truth, 0.2, 0.4)};
      for (std::size_t o = 0; o < std::size(option_sets); ++o)
        for (std::size_t s = 0; s < std::size(starts); ++s) {
          const std::string where = "n=" + std::to_string(n) + " trial " +
                                    std::to_string(trial) + " options " +
                                    std::to_string(o) + " start " +
                                    std::to_string(s);
          expect_bitwise_equal(
              solve_pnp(corr, cam, starts[s], option_sets[o]),
              solve_pnp_reference(corr, cam, starts[s], option_sets[o]),
              where);
        }
    }
  }
}

TEST(PnpParity, IdentityRotationWithExactZeros) {
  // Identity rotation and points on the axes: the transform, the residuals
  // and several Jacobian entries are exact zeros of either sign.
  const PinholeCamera cam(500.0, 500.0, 320.0, 240.0, 640, 480);
  const std::vector<Correspondence> corr = {
      {Vec3{0.0, 0.0, 2.0}, Vec2{320.0, 240.0}},
      {Vec3{1.0, 0.0, 2.0}, Vec2{570.0, 240.0}},
      {Vec3{0.0, -1.0, 2.0}, Vec2{320.0, -10.0}},
      {Vec3{-1.0, 1.0, 4.0}, Vec2{195.0, 365.0}},
      {Vec3{0.0, 0.0, 3.0}, Vec2{321.0, 240.0}},
  };
  for (const double huber : {0.0, 2.5}) {
    PnpOptions opts;
    opts.huber_delta = huber;
    const std::string where = "huber " + std::to_string(huber);
    expect_bitwise_equal(solve_pnp(corr, cam, SE3{}, opts),
                         solve_pnp_reference(corr, cam, SE3{}, opts),
                         where + " from identity");
    const SE3 shifted{Mat3::identity(), Vec3{0.0, 0.0, 0.5}};
    expect_bitwise_equal(solve_pnp(corr, cam, shifted, opts),
                         solve_pnp_reference(corr, cam, shifted, opts),
                         where + " from a pure translation");
  }
}

TEST(PnpParity, FewerThanThreeUsablePoints) {
  const PinholeCamera cam = PinholeCamera::tum_freiburg1();
  const std::vector<Correspondence> corr = {
      {Vec3{0.1, 0.2, 2.0}, Vec2{340.0, 300.0}},
      {Vec3{-0.3, 0.1, 3.0}, Vec2{270.0, 270.0}},
      {Vec3{0.0, 0.0, -2.0}, Vec2{320.0, 240.0}},
      {Vec3{0.5, 0.5, -1.0}, Vec2{320.0, 240.0}},
  };
  for (const double huber : {0.0, 2.5}) {
    PnpOptions opts;
    opts.huber_delta = huber;
    const PnpResult got = solve_pnp(corr, cam, SE3{}, opts);
    expect_bitwise_equal(got, solve_pnp_reference(corr, cam, SE3{}, opts),
                         "huber " + std::to_string(huber));
    EXPECT_EQ(got.iterations, 0);
    EXPECT_FALSE(got.converged);
  }
}

TEST(Ransac, AdaptiveBoundSaturatesBeforeTheCast) {
  // 6 exact inliers of 1000 under the identity prior: w^4 = 1.3e-9, just
  // above the 1e-9 floor, so log(1 - confidence) / log(1 - w^4) ~ 5.3e9
  // exceeds INT_MAX.  The bound must saturate at max_iterations on every
  // toolchain (an unclamped cast gives INT_MIN on x86, hence
  // min_iterations, and saturates on AArch64).
  eslam::testing::rng(240);
  const PinholeCamera cam = PinholeCamera::tum_freiburg1();
  std::vector<Correspondence> corr = make_scene(SE3{}, cam, 6);
  while (corr.size() < 1000)
    corr.push_back(Correspondence{
        Vec3{eslam::testing::uniform(-2, 2), eslam::testing::uniform(-2, 2),
             eslam::testing::uniform(-6, -1)},
        Vec2{eslam::testing::uniform(0, 640),
             eslam::testing::uniform(0, 480)}});
  const RansacOptions opts;
  const RansacResult r = ransac_pnp(corr, cam, SE3{}, opts);
  EXPECT_EQ(r.inliers.size(), 6u);
  EXPECT_EQ(r.iterations, opts.max_iterations);
  EXPECT_FALSE(r.success);  // 6 < min_inliers
}

TEST(Ransac, PerfectDataIsFullyInlying) {
  eslam::testing::rng(210);
  const PinholeCamera cam = PinholeCamera::tum_freiburg1();
  const SE3 truth = SE3{so3_exp(Vec3{0.02, -0.05, 0.01}), Vec3{0.1, 0.0, 0.2}};
  const auto corr = make_scene(truth, cam, 60);
  const RansacResult r = ransac_pnp(corr, cam, SE3{}, RansacOptions{});
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.inliers.size(), 60u);
  EXPECT_NEAR((r.pose.translation() - truth.translation()).max_abs(), 0.0,
              1e-4);
}

class RansacOutlierSweep : public ::testing::TestWithParam<double> {};

TEST_P(RansacOutlierSweep, RejectsOutliersUpToFraction) {
  eslam::testing::rng(static_cast<std::uint32_t>(220 + GetParam() * 100));
  const PinholeCamera cam = PinholeCamera::tum_freiburg1();
  const SE3 truth = SE3{so3_exp(Vec3{0.03, 0.02, -0.04}), Vec3{0.15, -0.1, 0.1}};
  auto corr = make_scene(truth, cam, 80);
  const int n_outliers = static_cast<int>(GetParam() * 80);
  for (int i = 0; i < n_outliers; ++i) {
    corr[static_cast<std::size_t>(i)].pixel =
        Vec2{eslam::testing::uniform(20, 620),
             eslam::testing::uniform(20, 460)};
  }
  RansacOptions opts;
  opts.max_iterations = 128;
  const RansacResult r = ransac_pnp(corr, cam, SE3{}, opts);
  ASSERT_TRUE(r.success);
  EXPECT_NEAR((r.pose.translation() - truth.translation()).max_abs(), 0.0,
              0.01);
  // All clean correspondences must be classified inliers.
  EXPECT_GE(static_cast<int>(r.inliers.size()), 80 - n_outliers);
}

INSTANTIATE_TEST_SUITE_P(Fractions, RansacOutlierSweep,
                         ::testing::Values(0.1, 0.25, 0.4, 0.5));

TEST(Ransac, FailsGracefullyWithTooFewPoints) {
  const PinholeCamera cam = PinholeCamera::tum_freiburg1();
  std::vector<Correspondence> corr(2);
  const RansacResult r = ransac_pnp(corr, cam, SE3{}, RansacOptions{});
  EXPECT_FALSE(r.success);
  EXPECT_TRUE(r.inliers.empty());
}

TEST(Ransac, MinInlierGateRejectsGarbage) {
  eslam::testing::rng(230);
  const PinholeCamera cam = PinholeCamera::tum_freiburg1();
  // Pure random correspondences: no consistent pose exists.
  std::vector<Correspondence> corr;
  for (int i = 0; i < 30; ++i)
    corr.push_back(Correspondence{
        Vec3{eslam::testing::uniform(-3, 3), eslam::testing::uniform(-3, 3),
             eslam::testing::uniform(1, 6)},
        Vec2{eslam::testing::uniform(0, 640),
             eslam::testing::uniform(0, 480)}});
  RansacOptions opts;
  opts.min_inliers = 15;
  const RansacResult r = ransac_pnp(corr, cam, SE3{}, opts);
  EXPECT_FALSE(r.success);
}

TEST(Ransac, DeterministicForFixedSeed) {
  eslam::testing::rng(231);
  const PinholeCamera cam = PinholeCamera::tum_freiburg1();
  const SE3 truth = SE3{so3_exp(Vec3{0.01, 0.02, 0.03}), Vec3{0.1, 0.1, 0.1}};
  auto corr = make_scene(truth, cam, 40);
  corr[0].pixel += Vec2{50, 50};
  const RansacResult a = ransac_pnp(corr, cam, SE3{}, RansacOptions{});
  const RansacResult b = ransac_pnp(corr, cam, SE3{}, RansacOptions{});
  ASSERT_EQ(a.inliers.size(), b.inliers.size());
  EXPECT_NEAR((a.pose.translation() - b.pose.translation()).max_abs(), 0.0,
              1e-12);
}

}  // namespace
}  // namespace eslam
