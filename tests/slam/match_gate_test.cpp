#include "slam/match_gate.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "../test_util.h"

namespace eslam {
namespace {

PinholeCamera camera() { return PinholeCamera::tum_freiburg1(); }

Feature feature_at(double x, double y) {
  Feature f;
  f.keypoint.x = static_cast<int>(x);
  f.keypoint.y = static_cast<int>(y);
  f.keypoint.scale = 1.0;
  return f;
}

// World point that projects exactly to (u, v) at depth z under identity.
Vec3 point_at(double u, double v, double z) {
  return camera().unproject(u, v, z);
}

std::vector<std::int32_t> list_of(const CandidateSet& set, std::size_t q) {
  std::vector<std::int32_t> list;
  set.expand(q, list);
  return list;
}

TEST(MatchGate, CandidatesAreMapPointsProjectingNearTheFeature) {
  const std::vector<Vec3> map = {
      point_at(100, 100, 2.0),  // near feature 0
      point_at(400, 300, 2.0),  // near feature 1
      point_at(110, 95, 3.0),   // also near feature 0
      point_at(600, 50, 2.0),   // near nobody
  };
  const FeatureList features = {feature_at(102, 99), feature_at(398, 305)};
  MatchPolicy policy;
  policy.search_radius_px = 24;
  const GateResult gate =
      build_candidate_set(map, SE3{}, camera(), features, policy);
  EXPECT_EQ(gate.projected, 4);
  ASSERT_EQ(gate.candidates.num_queries(), 2u);
  EXPECT_EQ(list_of(gate.candidates, 0), (std::vector<std::int32_t>{0, 2}));
  EXPECT_EQ(list_of(gate.candidates, 1), (std::vector<std::int32_t>{1}));
}

TEST(MatchGate, PriorPoseShiftsTheWindow) {
  // One map point straight ahead; a prior that translates the camera
  // moves the projection, and the candidate window must follow it.
  const std::vector<Vec3> map = {point_at(320, 240, 2.0)};
  const FeatureList at_center = {feature_at(320, 240)};
  MatchPolicy policy;
  policy.search_radius_px = 10;

  // Identity prior: the point lands on the feature.
  GateResult gate =
      build_candidate_set(map, SE3{}, camera(), at_center, policy);
  EXPECT_EQ(list_of(gate.candidates, 0), (std::vector<std::int32_t>{0}));

  // Camera translated 0.5 m right: the projection shifts ~130 px left,
  // out of the 10 px window around the same pixel...
  const SE3 shifted{Mat3::identity(), Vec3{-0.5, 0, 0}};
  gate = build_candidate_set(map, shifted, camera(), at_center, policy);
  EXPECT_TRUE(list_of(gate.candidates, 0).empty());

  // ...but a feature at the *predicted* pixel finds it again.
  const Vec3 cam_point = shifted * map[0];
  const Vec2 predicted = *camera().project(cam_point);
  const FeatureList at_predicted = {feature_at(predicted[0], predicted[1])};
  gate = build_candidate_set(map, shifted, camera(), at_predicted, policy);
  EXPECT_EQ(list_of(gate.candidates, 0), (std::vector<std::int32_t>{0}));
}

TEST(MatchGate, BehindCameraPointsAreCulled) {
  const std::vector<Vec3> map = {point_at(320, 240, 2.0),
                                 Vec3{0, 0, -2.0}};  // behind the camera
  const FeatureList features = {feature_at(320, 240)};
  const GateResult gate =
      build_candidate_set(map, SE3{}, camera(), features, MatchPolicy{});
  EXPECT_EQ(gate.projected, 1);
  EXPECT_EQ(list_of(gate.candidates, 0), (std::vector<std::int32_t>{0}));
}

TEST(MatchGate, OutOfImagePointsAreCulledBeyondTheMargin) {
  MatchPolicy policy;
  policy.search_radius_px = 24;
  // Projects ~60 px left of the image: outside even the padded grid.
  const std::vector<Vec3> far_out = {point_at(-60, 240, 2.0)};
  GateResult gate = build_candidate_set(far_out, SE3{}, camera(),
                                        {feature_at(2, 240)}, policy);
  EXPECT_EQ(gate.projected, 0);
  // Projects 10 px outside: within the margin, still a candidate for a
  // border feature.
  const std::vector<Vec3> just_out = {point_at(-10, 240, 2.0)};
  gate = build_candidate_set(just_out, SE3{}, camera(),
                             {feature_at(2, 240)}, policy);
  EXPECT_EQ(gate.projected, 1);
  EXPECT_EQ(list_of(gate.candidates, 0), (std::vector<std::int32_t>{0}));
}

TEST(MatchGate, CandidateListsAreAscending) {
  eslam::testing::rng(21);
  std::vector<Vec3> map;
  for (int i = 0; i < 400; ++i)
    map.push_back(point_at(eslam::testing::uniform(0, 640),
                           eslam::testing::uniform(0, 480),
                           eslam::testing::uniform(1.0, 5.0)));
  FeatureList features;
  for (int i = 0; i < 30; ++i)
    features.push_back(feature_at(eslam::testing::uniform(0, 640),
                                  eslam::testing::uniform(0, 480)));
  MatchPolicy policy;
  policy.search_radius_px = 80;
  const GateResult gate =
      build_candidate_set(map, SE3{}, camera(), features, policy);
  ASSERT_EQ(gate.candidates.num_queries(), features.size());
  bool any = false;
  for (std::size_t q = 0; q < features.size(); ++q) {
    const auto list = list_of(gate.candidates, q);
    any = any || !list.empty();
    EXPECT_TRUE(std::is_sorted(list.begin(), list.end()));
  }
  EXPECT_TRUE(any);
}

TEST(MatchGate, EmptyMapAndEmptyFeatures) {
  const GateResult no_map = build_candidate_set(
      {}, SE3{}, camera(), {feature_at(10, 10)}, MatchPolicy{});
  EXPECT_EQ(no_map.projected, 0);
  ASSERT_EQ(no_map.candidates.num_queries(), 1u);
  EXPECT_TRUE(list_of(no_map.candidates, 0).empty());

  const std::vector<Vec3> map = {point_at(320, 240, 2.0)};
  const GateResult no_features =
      build_candidate_set(map, SE3{}, camera(), {}, MatchPolicy{});
  EXPECT_EQ(no_features.candidates.num_queries(), 0u);
  EXPECT_EQ(no_features.candidates.total_candidates(), 0u);
}

}  // namespace
}  // namespace eslam
