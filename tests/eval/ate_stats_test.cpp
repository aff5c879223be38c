#include <gtest/gtest.h>

#include "../test_util.h"
#include "eval/ate.h"
#include "eval/report.h"

namespace eslam {
namespace {

std::vector<SE3> random_trajectory(int n) {
  std::vector<SE3> traj;
  for (int i = 0; i < n; ++i) {
    const double s = i / static_cast<double>(n);
    traj.push_back(SE3{so3_exp(Vec3{0.1 * s, 0.3 * s, 0.0}),
                       Vec3{std::sin(s * 6), std::cos(s * 4), s}});
  }
  return traj;
}

class AteInvariance : public ::testing::TestWithParam<int> {};

// ATE of a rigidly transformed copy of the ground truth must be ~zero:
// the whole point of Umeyama alignment.
TEST_P(AteInvariance, RigidlyTransformedTrajectoryHasZeroError) {
  eslam::testing::rng(static_cast<std::uint32_t>(900 + GetParam()));
  const std::vector<SE3> gt = random_trajectory(40);
  const SE3 offset = eslam::testing::random_pose(2.0, 5.0);
  std::vector<SE3> est;
  for (const SE3& p : gt) est.push_back(offset * p);
  const AteResult r = absolute_trajectory_error(est, gt);
  EXPECT_NEAR(r.rmse, 0.0, 1e-9);
  EXPECT_NEAR(r.mean, 0.0, 1e-9);
  EXPECT_NEAR(r.max, 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AteInvariance, ::testing::Range(0, 8));

TEST(Ate, KnownPerturbationMagnitude) {
  const std::vector<SE3> gt = random_trajectory(50);
  std::vector<SE3> est = gt;
  // Alternate +d/-d on x: alignment cannot remove it; every residual ~d.
  const double d = 0.02;
  for (std::size_t i = 0; i < est.size(); ++i) {
    Vec3 t = est[i].translation();
    t[0] += (i % 2 == 0) ? d : -d;
    est[i] = SE3{est[i].rotation(), t};
  }
  const AteResult r = absolute_trajectory_error(est, gt);
  EXPECT_NEAR(r.rmse, d, d * 0.2);
  EXPECT_GT(r.mean, 0.5 * d);
  EXPECT_LE(r.mean, r.rmse + 1e-12);
  EXPECT_GE(r.max, r.rmse - 1e-12);
}

TEST(Ate, PerFrameErrorsAlignWithInput) {
  const std::vector<SE3> gt = random_trajectory(10);
  std::vector<SE3> est = gt;
  Vec3 t = est[4].translation();
  t[1] += 0.5;  // single bad frame
  est[4] = SE3{est[4].rotation(), t};
  const AteResult r = absolute_trajectory_error(est, gt);
  ASSERT_EQ(r.per_frame_error.size(), 10u);
  std::size_t argmax = 0;
  for (std::size_t i = 1; i < 10; ++i)
    if (r.per_frame_error[i] > r.per_frame_error[argmax]) argmax = i;
  EXPECT_EQ(argmax, 4u);
}

TEST(Ate, VectorOverloadMatchesPoseOverload) {
  const std::vector<SE3> gt = random_trajectory(20);
  const std::vector<SE3> est = random_trajectory(20);
  std::vector<Vec3> gt_t, est_t;
  for (const SE3& p : gt) gt_t.push_back(p.translation());
  for (const SE3& p : est) est_t.push_back(p.translation());
  const AteResult a = absolute_trajectory_error(est, gt);
  const AteResult b = absolute_trajectory_error(
      std::span<const Vec3>(est_t), std::span<const Vec3>(gt_t));
  EXPECT_DOUBLE_EQ(a.rmse, b.rmse);
  EXPECT_DOUBLE_EQ(a.mean, b.mean);
}

TEST(Report, TableFormatsAllRows) {
  Table t({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_separator();
  t.add_row({"333", "4"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| a "), std::string::npos);
  EXPECT_NE(s.find("333"), std::string::npos);
  // Header separator + added separator.
  EXPECT_NE(s.find("+==="), std::string::npos);
}

TEST(Report, NumberFormatting) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt(3.0, 0), "3");
  EXPECT_EQ(Table::fmt_ratio(31.02, 1), "31.0x");
}

}  // namespace
}  // namespace eslam
