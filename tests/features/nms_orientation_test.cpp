#include <gtest/gtest.h>

#include "../test_util.h"
#include "features/nms.h"
#include "features/orientation.h"
#include "image/convolve.h"

namespace eslam {
namespace {

Keypoint kp(int x, int y, std::int64_t score) {
  Keypoint k;
  k.x = x;
  k.y = y;
  k.score = score;
  return k;
}

TEST(Nms, KeepsIsolatedKeypoints) {
  const std::vector<Keypoint> in = {kp(5, 5, 10), kp(20, 20, 5)};
  EXPECT_EQ(nms_3x3(in, 32, 32).size(), 2u);
}

TEST(Nms, SuppressesWeakerNeighbour) {
  const std::vector<Keypoint> in = {kp(5, 5, 10), kp(6, 5, 20)};
  const auto out = nms_3x3(in, 32, 32);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].x, 6);
}

TEST(Nms, DiagonalNeighboursCompete) {
  const std::vector<Keypoint> in = {kp(5, 5, 10), kp(6, 6, 9), kp(4, 4, 11)};
  const auto out = nms_3x3(in, 32, 32);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].x, 4);
}

TEST(Nms, TwoApartBothSurvive) {
  const std::vector<Keypoint> in = {kp(5, 5, 10), kp(7, 5, 20)};
  EXPECT_EQ(nms_3x3(in, 32, 32).size(), 2u);
}

TEST(Nms, TieBreaksTowardEarlierKeypoint) {
  const std::vector<Keypoint> in = {kp(5, 5, 10), kp(6, 5, 10)};
  const auto out = nms_3x3(in, 32, 32);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].x, 5);
}

TEST(Nms, ChainSuppression) {
  // Ascending chain: only the last survives (each dominated by the next).
  std::vector<Keypoint> in;
  for (int i = 0; i < 8; ++i) in.push_back(kp(5 + i, 5, i));
  const auto out = nms_3x3(in, 32, 32);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].x, 12);
}

TEST(Nms, ImageEdgesDoNotWrapAcrossRows) {
  // (0, 5) and (39, 4) are 39 pixels apart; a linear y * width + x key
  // would read (39, 4) as the left neighbour of (0, 5).
  const std::vector<Keypoint> in = {kp(39, 4, 100), kp(0, 5, 10)};
  EXPECT_EQ(nms_3x3(in, 40, 40).size(), 2u);
}

TEST(Nms, MatchesBruteForceOracle) {
  eslam::testing::rng(17);
  std::vector<Keypoint> in;
  for (int trial = 0; trial < 120; ++trial) {
    const int x = static_cast<int>(eslam::testing::uniform(0, 39.99));
    const int y = static_cast<int>(eslam::testing::uniform(0, 39.99));
    bool duplicate = false;
    for (const auto& k : in)
      if (k.x == x && k.y == y) duplicate = true;
    if (!duplicate)
      in.push_back(kp(x, y,
                      static_cast<std::int64_t>(
                          eslam::testing::uniform(0, 1000))));
  }
  const auto out = nms_3x3(in, 40, 40);
  // Oracle: i survives iff no strictly-stronger (or equal-and-earlier)
  // neighbour within Chebyshev distance 1.
  std::size_t expected = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    bool survives = true;
    for (std::size_t j = 0; j < in.size(); ++j) {
      if (i == j) continue;
      if (std::abs(in[i].x - in[j].x) <= 1 &&
          std::abs(in[i].y - in[j].y) <= 1 &&
          (in[j].score > in[i].score ||
           (in[j].score == in[i].score && j < i)))
        survives = false;
    }
    expected += survives;
  }
  EXPECT_EQ(out.size(), expected);
}

TEST(Orientation, CircleSpanIsRadius15Disc) {
  EXPECT_EQ(circle_span(0), 15);
  EXPECT_EQ(circle_span(15), 3);
  for (int dy = 0; dy <= 15; ++dy) {
    const int s = circle_span(dy);
    // (s, dy) inside, (s+1, dy) outside the radius-15.5 disc ORB uses.
    EXPECT_LE(s * s + dy * dy, 16 * 16);
    EXPECT_GT((s + 1) * (s + 1) + dy * dy, 15 * 15);
  }
}

TEST(Orientation, GradientPointsAlongBrightSide) {
  // Brighter on +x side: centroid pulls along +x, angle ~ 0.
  ImageU8 img(64, 64, 0);
  for (int y = 0; y < 64; ++y)
    for (int x = 0; x < 64; ++x)
      img.at(x, y) = static_cast<std::uint8_t>(40 + 3 * x);
  EXPECT_NEAR(orientation_angle(img, 32, 32), 0.0, 0.02);
}

TEST(Orientation, RotatedGradientRotatesAngle) {
  // Brighter toward +y: angle ~ +90 degrees.
  ImageU8 img(64, 64, 0);
  for (int y = 0; y < 64; ++y)
    for (int x = 0; x < 64; ++x)
      img.at(x, y) = static_cast<std::uint8_t>(40 + 3 * y);
  EXPECT_NEAR(orientation_angle(img, 32, 32), M_PI / 2, 0.02);
}

TEST(Orientation, FlatPatchDefaultsToZero) {
  const ImageU8 img(64, 64, 128);
  EXPECT_EQ(orientation_angle(img, 32, 32), 0.0);
}

TEST(Orientation, DiscretizeNearestBin) {
  const double step = 11.25 * M_PI / 180.0;
  EXPECT_EQ(discretize_orientation(0.0), 0);
  EXPECT_EQ(discretize_orientation(step), 1);
  EXPECT_EQ(discretize_orientation(step * 0.49), 0);
  EXPECT_EQ(discretize_orientation(step * 0.51), 1);
  EXPECT_EQ(discretize_orientation(-step), 31);
  EXPECT_EQ(discretize_orientation(M_PI), 16);
  EXPECT_EQ(discretize_orientation(-M_PI), 16);
}

class OrientationSweep : public ::testing::TestWithParam<int> {};

// A synthetic directional patch at each of the 32 canonical angles must
// discretize to that label.
TEST_P(OrientationSweep, DirectionalPatchYieldsExpectedLabel) {
  const int label = GetParam();
  const double angle = label * 11.25 * M_PI / 180.0;
  ImageU8 img(64, 64, 0);
  const double dx = std::cos(angle), dy = std::sin(angle);
  for (int y = 0; y < 64; ++y)
    for (int x = 0; x < 64; ++x) {
      const double proj = (x - 32) * dx + (y - 32) * dy;
      img.at(x, y) =
          static_cast<std::uint8_t>(std::clamp(128.0 + 4.0 * proj, 0.0, 255.0));
    }
  const double measured = orientation_angle(img, 32, 32);
  EXPECT_EQ(discretize_orientation(measured), label);
}

INSTANTIATE_TEST_SUITE_P(AllLabels, OrientationSweep, ::testing::Range(0, 32));

}  // namespace
}  // namespace eslam
