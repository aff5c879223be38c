// Tests for the accelerated FeatureBackend and the resize HW model —
// the glue between the cycle simulators and the tracker.
#include <gtest/gtest.h>

#include "../test_util.h"
#include "accel/eslam_accel.h"
#include "dataset/scene.h"

namespace eslam {
namespace {

ImageU8 rendered_frame() {
  const BoxRoomScene scene;
  const PinholeCamera cam(260.0, 260.0, 160.0, 120.0, 320, 240);
  return scene.render(cam, SE3{}, 0).gray;
}

TEST(AcceleratedBackend, ExtractReportsSimulatedTime) {
  AcceleratedBackend backend;
  const FeatureList f = backend.extract(rendered_frame());
  EXPECT_FALSE(f.empty());
  // QVGA x 4 levels ~ 0.55 Mpixels -> ~2 ms at 1 px/cycle, never the tens
  // of wall-clock ms the functional simulation takes.
  EXPECT_GT(backend.last_extract_time_ms(), 1.0);
  EXPECT_LT(backend.last_extract_time_ms(), 4.0);
}

TEST(AcceleratedBackend, MatchAppliesHostAcceptanceGates) {
  MatcherOptions accept;
  accept.max_distance = 10;  // very strict
  AcceleratedBackend backend({}, {}, accept);
  eslam::testing::rng(42);
  std::vector<Descriptor256> queries(8), train(32);
  for (auto& d : queries) d = eslam::testing::random_descriptor();
  for (auto& d : train) d = eslam::testing::random_descriptor();
  // Random pairs sit near distance 128: all rejected.
  EXPECT_TRUE(backend.match(queries, train).empty());
  // An exact copy passes.
  queries[0] = train[7];
  const auto matches = backend.match(queries, train);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].train, 7);
}

TEST(AcceleratedBackend, MatchTimeScalesWithMap) {
  AcceleratedBackend backend;
  eslam::testing::rng(43);
  std::vector<Descriptor256> queries(64), small(256), large(2048);
  for (auto& d : queries) d = eslam::testing::random_descriptor();
  for (auto& d : small) d = eslam::testing::random_descriptor();
  for (auto& d : large) d = eslam::testing::random_descriptor();
  backend.match(queries, small);
  const double t_small = backend.last_match_time_ms();
  backend.match(queries, large);
  const double t_large = backend.last_match_time_ms();
  EXPECT_GT(t_large, t_small * 4);
}

}  // namespace
}  // namespace eslam
