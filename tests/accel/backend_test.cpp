// Tests for the accelerated FeatureBackend — the glue between the cycle
// simulators and the tracker.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

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

void expect_same_matches(const std::vector<Match>& got,
                         const std::vector<Match>& want,
                         const MatcherOptions& options) {
  const auto label = ::testing::Message()
                     << "max_distance " << options.max_distance << " ratio "
                     << options.ratio << " cross_check " << options.cross_check;
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].query, want[i].query) << label;
    EXPECT_EQ(got[i].train, want[i].train) << label;
    EXPECT_EQ(got[i].distance, want[i].distance) << label;
    EXPECT_EQ(got[i].second_best, want[i].second_best) << label;
  }
}

// The fabric's raw results go through the matcher module's acceptance
// rule: both tiers accept exactly what the software matchers accept, under
// every gate, cross-check included.
TEST(AcceleratedBackend, AcceptsExactlyWhatTheSoftwareMatchersAccept) {
  std::mt19937& rng = eslam::testing::rng(44);
  std::vector<Descriptor256> train(48), queries(40);
  for (auto& d : train) d = eslam::testing::random_descriptor();
  // Most queries are noisy copies of a train point, several of the same
  // one, so cross-check has competing queries to reject; every fifth is
  // unrelated.
  std::uniform_int_distribution<int> pick(0, 47), flips(0, 40), bit(0, 255);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    queries[q] = q % 5 == 4 ? eslam::testing::random_descriptor()
                            : train[static_cast<std::size_t>(pick(rng) % 16)];
    for (int k = flips(rng); k > 0; --k) {
      const int b = bit(rng);
      queries[q].words()[static_cast<std::size_t>(b / 64)] ^=
          std::uint64_t{1} << (b % 64);
    }
  }
  // Each query's candidates: a random half of the train points.
  CandidateSet candidates;
  std::vector<std::int32_t> list;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    list.clear();
    for (std::int32_t t = 0; t < static_cast<std::int32_t>(train.size()); ++t)
      if (pick(rng) % 2 == 0) list.push_back(t);
    candidates.add_list(list);
  }
  // The data must give cross-check something to reject.
  ASSERT_LT(match_descriptors(queries, train, {64, 1.0, true}).size(),
            match_descriptors(queries, train, {64, 1.0, false}).size());

  for (const int max_distance : {24, 64, 256})
    for (const double ratio : {1.0, 0.8, 0.6})
      for (const bool cross_check : {false, true}) {
        const MatcherOptions options{max_distance, ratio, cross_check};
        AcceleratedBackend backend({}, {}, options);
        expect_same_matches(backend.match(queries, train),
                            match_descriptors(queries, train, options),
                            options);
        expect_same_matches(
            backend.match_candidates(queries, train, candidates),
            match_candidates(queries, train, candidates, options), options);
      }
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
