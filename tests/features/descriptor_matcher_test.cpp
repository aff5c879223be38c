#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "../test_util.h"
#include "accel/matcher_hw.h"
#include "core/arena.h"
#include "features/descriptor.h"
#include "features/matcher.h"

namespace eslam {
namespace {

TEST(Descriptor256, StartsAllZero) {
  const Descriptor256 d;
  for (int i = 0; i < 256; ++i) EXPECT_FALSE(d.bit(i));
}

TEST(Descriptor256, SetAndClearBits) {
  Descriptor256 d;
  d.set_bit(0, true);
  d.set_bit(63, true);
  d.set_bit(64, true);
  d.set_bit(255, true);
  EXPECT_TRUE(d.bit(0));
  EXPECT_TRUE(d.bit(63));
  EXPECT_TRUE(d.bit(64));
  EXPECT_TRUE(d.bit(255));
  EXPECT_FALSE(d.bit(128));
  d.set_bit(64, false);
  EXPECT_FALSE(d.bit(64));
}

TEST(Descriptor256, RotationMovesLeadingBytesToEnd) {
  Descriptor256 d;
  // Mark bits 0..7 (the first byte / rotation group 0).
  for (int i = 0; i < 8; ++i) d.set_bit(i, true);
  const Descriptor256 r = d.rotated_bytes(1);
  // new bit b = old bit (b + 8) mod 256: group 0 lands at group 31.
  for (int i = 0; i < 8; ++i) {
    EXPECT_FALSE(r.bit(i));
    EXPECT_TRUE(r.bit(248 + i));
  }
}

TEST(Descriptor256, RotationBitLevelDefinition) {
  eslam::testing::rng(71);
  const Descriptor256 d = eslam::testing::random_descriptor();
  for (int n : {0, 1, 7, 8, 15, 16, 24, 31}) {
    const Descriptor256 r = d.rotated_bytes(n);
    for (int b = 0; b < 256; ++b)
      ASSERT_EQ(r.bit(b), d.bit((b + 8 * n) % 256)) << "n=" << n << " b=" << b;
  }
}

TEST(Descriptor256, RotationsCompose) {
  eslam::testing::rng(72);
  const Descriptor256 d = eslam::testing::random_descriptor();
  EXPECT_EQ(d.rotated_bytes(5).rotated_bytes(9), d.rotated_bytes(14));
  EXPECT_EQ(d.rotated_bytes(20).rotated_bytes(12), d);  // full circle
  EXPECT_EQ(d.rotated_bytes(0), d);
}

TEST(Descriptor256, RotationPreservesPopcount) {
  eslam::testing::rng(73);
  const Descriptor256 d = eslam::testing::random_descriptor();
  const Descriptor256 zero;
  const int pop = hamming_distance(d, zero);
  for (int n = 0; n < 32; ++n)
    EXPECT_EQ(hamming_distance(d.rotated_bytes(n), zero), pop);
}

TEST(Descriptor256, ToHexLengthAndContent) {
  Descriptor256 d;
  d.set_bit(0, true);
  const std::string hex = d.to_hex();
  EXPECT_EQ(hex.size(), 64u);
  EXPECT_EQ(hex.back(), '1');
  EXPECT_EQ(Descriptor256{}.to_hex(), std::string(64, '0'));
}

TEST(Hamming, IdentityAndSymmetry) {
  eslam::testing::rng(74);
  const Descriptor256 a = eslam::testing::random_descriptor();
  const Descriptor256 b = eslam::testing::random_descriptor();
  EXPECT_EQ(hamming_distance(a, a), 0);
  EXPECT_EQ(hamming_distance(a, b), hamming_distance(b, a));
}

TEST(Hamming, SingleBitFlipIsDistanceOne) {
  eslam::testing::rng(75);
  Descriptor256 a = eslam::testing::random_descriptor();
  Descriptor256 b = a;
  b.set_bit(133, !b.bit(133));
  EXPECT_EQ(hamming_distance(a, b), 1);
}

TEST(Hamming, ComplementIs256) {
  Descriptor256 a;
  Descriptor256 b;
  for (auto& w : b.words()) w = ~std::uint64_t{0};
  EXPECT_EQ(hamming_distance(a, b), 256);
}

class HammingTriangle : public ::testing::TestWithParam<int> {};

TEST_P(HammingTriangle, TriangleInequalityHolds) {
  eslam::testing::rng(static_cast<std::uint32_t>(GetParam() + 80));
  for (int trial = 0; trial < 50; ++trial) {
    const Descriptor256 a = eslam::testing::random_descriptor();
    const Descriptor256 b = eslam::testing::random_descriptor();
    const Descriptor256 c = eslam::testing::random_descriptor();
    EXPECT_LE(hamming_distance(a, c),
              hamming_distance(a, b) + hamming_distance(b, c));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HammingTriangle, ::testing::Range(0, 5));

// --- Matcher ---------------------------------------------------------------

std::vector<Descriptor256> random_set(std::size_t n, std::uint32_t seed) {
  eslam::testing::rng(seed);
  std::vector<Descriptor256> v(n);
  for (auto& d : v) d = eslam::testing::random_descriptor();
  return v;
}

TEST(Matcher, FindsExactCopy) {
  const auto train = random_set(50, 91);
  const std::vector<Descriptor256> query = {train[17]};
  MatcherOptions opts;
  const auto matches = match_descriptors(query, train, opts);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].train, 17);
  EXPECT_EQ(matches[0].distance, 0);
}

TEST(Matcher, MatchOneFindsTrueMinimumAndRunnerUp) {
  const auto train = random_set(200, 92);
  eslam::testing::rng(93);
  const Descriptor256 q = eslam::testing::random_descriptor();
  const Match m = match_one(q, train);
  int best = 257, second = 257, best_idx = -1;
  for (std::size_t j = 0; j < train.size(); ++j) {
    const int d = hamming_distance(q, train[j]);
    if (d < best) {
      second = best;
      best = d;
      best_idx = static_cast<int>(j);
    } else if (d < second) {
      second = d;
    }
  }
  EXPECT_EQ(m.train, best_idx);
  EXPECT_EQ(m.distance, best);
  EXPECT_EQ(m.second_best, second);
}

TEST(Matcher, ThresholdFiltersDistantMatches) {
  // Random 256-bit descriptors concentrate near distance 128; a strict
  // threshold rejects everything.
  const auto train = random_set(40, 94);
  const auto query = random_set(10, 95);
  MatcherOptions opts;
  opts.max_distance = 20;
  EXPECT_TRUE(match_descriptors(query, train, opts).empty());
  opts.max_distance = 256;
  EXPECT_EQ(match_descriptors(query, train, opts).size(), 10u);
}

TEST(Matcher, RatioTestRejectsAmbiguous) {
  // Two near-identical train entries make every match ambiguous.
  auto train = random_set(2, 96);
  train[1] = train[0];
  train[1].set_bit(0, !train[1].bit(0));
  const std::vector<Descriptor256> query = {train[0]};
  MatcherOptions opts;
  opts.max_distance = 256;
  opts.ratio = 0.8;
  // best = 0, second = 1 -> 0 < 0.8 * 1 holds... distance 0 passes any
  // ratio; use a query one flip away instead: best 1, second 2.
  std::vector<Descriptor256> q2 = {train[0]};
  q2[0].set_bit(200, !q2[0].bit(200));
  const auto matches = match_descriptors(q2, train, opts);
  // best=1 (train 0), second=2 (train 1): 1 < 0.8*2 -> accepted.
  ASSERT_EQ(matches.size(), 1u);
  // Now make the two train entries equidistant: rejected.
  auto train_eq = random_set(2, 97);
  train_eq[1] = train_eq[0];
  std::vector<Descriptor256> q3 = {train_eq[0]};
  q3[0].set_bit(10, !q3[0].bit(10));
  EXPECT_TRUE(match_descriptors(q3, train_eq, opts).empty());
}

TEST(Matcher, CrossCheckRejectsAsymmetric) {
  // train[0] is the best for both queries, but only one query is best for
  // train[0] — the other must be dropped by cross-checking.
  eslam::testing::rng(98);
  Descriptor256 base = eslam::testing::random_descriptor();
  Descriptor256 q_near = base;
  q_near.set_bit(0, !q_near.bit(0));  // distance 1
  Descriptor256 q_far = base;
  for (int i = 0; i < 30; ++i) q_far.set_bit(i * 7, !q_far.bit(i * 7));
  const std::vector<Descriptor256> train = {base};
  const std::vector<Descriptor256> queries = {q_near, q_far};
  MatcherOptions opts;
  opts.max_distance = 256;
  opts.cross_check = true;
  const auto matches = match_descriptors(queries, train, opts);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].query, 0);
}

TEST(Matcher, CrossCheckAppliesGatesToBackMatch) {
  // Forward direction passes every gate and the back match points back,
  // but the back match fails the *back-side* ratio test (its runner-up is
  // a different query set than the forward runner-up).  A symmetric
  // cross-check must reject the pair; a cross-check that only compares
  // indices accepts it.
  Descriptor256 a;                        // query 0: all zeros
  Descriptor256 a_prime;                  // train 0: d(a, a') = 4
  for (int i = 0; i < 4; ++i) a_prime.set_bit(i, true);
  Descriptor256 b;                        // query 1: d(a', b) = 6, d(a, b) = 8
  for (int i = 0; i < 3; ++i) b.set_bit(i, true);     // shares 3 of a' bits
  for (int i = 0; i < 5; ++i) b.set_bit(50 + i, true);
  Descriptor256 x;                        // train 1: far from everything
  for (int i = 0; i < 100; ++i) x.set_bit(100 + i, true);

  const std::vector<Descriptor256> queries = {a, b};
  const std::vector<Descriptor256> train = {a_prime, x};

  MatcherOptions opts;
  opts.max_distance = 64;
  opts.cross_check = true;
  opts.ratio = 1.0;  // ratio disabled: plain index agreement, a <-> a'
  {
    const auto matches = match_descriptors(queries, train, opts);
    ASSERT_EQ(matches.size(), 1u);
    EXPECT_EQ(matches[0].query, 0);
    EXPECT_EQ(matches[0].train, 0);
  }
  // Forward ratio for a: 4 < 0.5 * d(a, x) -> passes.  Back match from a':
  // best is a (4), runner-up is b (6); 4 < 0.5 * 6 fails, so the symmetric
  // check drops the pair even though back.train == query.
  opts.ratio = 0.5;
  EXPECT_TRUE(match_descriptors(queries, train, opts).empty());
}

TEST(Matcher, EmptyTrainYieldsNoMatches) {
  const auto query = random_set(5, 99);
  EXPECT_TRUE(match_descriptors(query, {}, MatcherOptions{}).empty());
}

TEST(Matcher, TieBreaksTowardLowestTrainIndex) {
  auto train = random_set(3, 100);
  train[2] = train[0];  // duplicate at higher index
  const std::vector<Descriptor256> query = {train[0]};
  const auto matches = match_descriptors(query, train, MatcherOptions{});
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].train, 0);
}

// --- Candidate-gated matcher ------------------------------------------------

// Full candidate lists: every query lists every train index (ascending).
CandidateSet full_candidates(std::size_t queries, std::size_t train) {
  std::vector<std::int32_t> all(train);
  for (std::size_t t = 0; t < train; ++t)
    all[t] = static_cast<std::int32_t>(t);
  CandidateSet set;
  for (std::size_t q = 0; q < queries; ++q) set.add_list(all);
  return set;
}

std::vector<std::int32_t> list_of(const CandidateSet& set, std::size_t q) {
  std::vector<std::int32_t> list;
  set.expand(q, list);
  return list;
}

TEST(CandidateMatcher, FullCandidatesEqualBruteForce) {
  const auto train = random_set(120, 110);
  const auto query = random_set(40, 111);
  for (const bool cross : {false, true}) {
    for (const double ratio : {1.0, 0.9}) {
      MatcherOptions opts;
      opts.max_distance = 140;  // random sets live near 128
      opts.ratio = ratio;
      opts.cross_check = cross;
      const auto brute = match_descriptors(query, train, opts);
      const auto gated = match_candidates(
          query, train, full_candidates(query.size(), train.size()), opts);
      ASSERT_EQ(gated.size(), brute.size())
          << "ratio=" << ratio << " cross=" << cross;
      for (std::size_t i = 0; i < brute.size(); ++i) {
        EXPECT_EQ(gated[i].query, brute[i].query);
        EXPECT_EQ(gated[i].train, brute[i].train);
        EXPECT_EQ(gated[i].distance, brute[i].distance);
        EXPECT_EQ(gated[i].second_best, brute[i].second_best);
      }
    }
  }
}

TEST(CandidateMatcher, RestrictedWindowExcludesOutOfListTrain) {
  auto train = random_set(10, 112);
  const std::vector<Descriptor256> query = {train[7]};
  CandidateSet set;
  const std::int32_t listed[] = {1, 2, 3};  // the exact copy (7) is not
  set.add_list(listed);
  MatcherOptions opts;
  opts.max_distance = 256;
  const auto matches = match_candidates(query, train, set, opts);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_NE(matches[0].train, 7);
  EXPECT_GE(matches[0].distance, 1);
  // The winner is the best among the listed candidates only.
  int best = 257, best_idx = -1;
  for (const int t : {1, 2, 3}) {
    const int d = hamming_distance(query[0],
                                   train[static_cast<std::size_t>(t)]);
    if (d < best) {
      best = d;
      best_idx = t;
    }
  }
  EXPECT_EQ(matches[0].train, best_idx);
  EXPECT_EQ(matches[0].distance, best);
}

TEST(CandidateMatcher, EmptyCandidateListYieldsNoMatch) {
  const auto train = random_set(5, 113);
  const auto query = random_set(2, 114);
  CandidateSet set;
  const std::int32_t listed[] = {0, 1, 2, 3, 4};
  set.add_list(listed);
  set.add_list({});  // query 1 has an empty list
  MatcherOptions opts;
  opts.max_distance = 256;
  const auto matches = match_candidates(query, train, set, opts);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].query, 0);
}

TEST(CandidateMatcher, TieBreaksTowardLowestTrainIndex) {
  auto train = random_set(4, 115);
  train[3] = train[1];  // duplicate at higher index
  const std::vector<Descriptor256> query = {train[1]};
  CandidateSet set;
  const std::int32_t listed[] = {1, 3};
  set.add_list(listed);
  const auto matches = match_candidates(query, train, set, MatcherOptions{});
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].train, 1);
  EXPECT_EQ(matches[0].distance, 0);
}

// The tie rule makes candidate-list order irrelevant: over train sets full
// of duplicated descriptors (so best distances tie), a shuffled list and
// the same list in ascending order give identical Match fields on every
// consumer of a CandidateSet.
TEST(CandidateMatcher, ListOrderDoesNotChangeMatches) {
  std::mt19937_64 rng(118);
  auto train = random_set(300, 119);
  for (std::size_t i = 0; i + 1 < train.size(); i += 2)
    train[i + 1] = train[i];  // every even/odd pair is an exact duplicate
  for (std::size_t i = 0; i + 5 < train.size(); i += 50)
    train[i + 5] = train[i];  // and some triples across pairs
  DescriptorSoA soa;
  soa.assign(train);
  std::vector<Descriptor256> queries = random_set(80, 120);
  for (std::size_t q = 0; q < queries.size(); q += 2) {
    queries[q] = train[rng() % train.size()];
    queries[q].set_bit(static_cast<int>(rng() % 256), true);  // near a pair
  }
  FeatureList features(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q)
    features[q].descriptor = queries[q];

  // Lists of whole duplicate pairs plus singles; the ascending set is the
  // reference, the shuffled set the same lists in random order.
  CandidateSet ascending, shuffled;
  int reordered_ties = 0;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    std::vector<std::int32_t> list;
    for (int k = 0; k < 6; ++k) {
      const auto pair = static_cast<std::int32_t>(2 * (rng() % 150));
      list.push_back(pair);
      list.push_back(pair + 1);
    }
    for (int k = 0; k < 3; ++k)
      list.push_back(static_cast<std::int32_t>(rng() % train.size()));
    if (q % 2 == 0) {  // make sure the query's own pair is listed
      for (std::size_t t = 0; t < train.size(); ++t)
        if (hamming_distance(queries[q], train[t]) <= 1)
          list.push_back(static_cast<std::int32_t>(t));
    }
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    std::vector<std::int32_t> mixed = list;
    std::shuffle(mixed.begin(), mixed.end(), rng);
    ascending.add_list(list);
    shuffled.add_list(mixed);
    // A first-minimum-wins scan over the shuffled list would pick another
    // index than the lowest-index winner here.
    const Match lowest = match_one_candidates(queries[q], train, list);
    for (const std::int32_t t : mixed) {
      if (hamming_distance(queries[q], train[static_cast<std::size_t>(t)]) ==
          lowest.distance) {
        reordered_ties += t != lowest.train ? 1 : 0;
        break;
      }
    }
  }
  ASSERT_GT(reordered_ties, 5) << "the shuffle must reorder tied winners";

  const auto expect_same = [](const std::vector<Match>& a,
                              const std::vector<Match>& b, const char* what) {
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].query, b[i].query) << what << " match " << i;
      EXPECT_EQ(a[i].train, b[i].train) << what << " match " << i;
      EXPECT_EQ(a[i].distance, b[i].distance) << what << " match " << i;
      EXPECT_EQ(a[i].second_best, b[i].second_best) << what << " match " << i;
    }
  };
  for (const bool cross_check : {false, true}) {
    MatcherOptions opts;
    opts.max_distance = 256;
    opts.cross_check = cross_check;
    expect_same(match_candidates(queries, train, shuffled, opts),
                match_candidates(queries, train, ascending, opts),
                "match_candidates");
    Arena arena;
    std::vector<Match> a, b;
    for (const DescriptorSoA* planes : {&soa, static_cast<DescriptorSoA*>(
                                                  nullptr)}) {
      match_candidates_into(features, TrainView{train, planes}, shuffled,
                            opts, &arena, a);
      match_candidates_into(features, TrainView{train, planes}, ascending,
                            opts, &arena, b);
      expect_same(a, b, "match_candidates_into");
    }
  }
  std::vector<Match> one_shuffled, one_ascending;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    one_shuffled.push_back(
        match_one_candidates(queries[q], train, list_of(shuffled, q)));
    one_ascending.push_back(
        match_one_candidates(queries[q], train, list_of(ascending, q)));
  }
  expect_same(one_shuffled, one_ascending, "match_one_candidates");
  BriefMatcherHw hw;
  expect_same(hw.match_candidates(queries, train, shuffled),
              hw.match_candidates(queries, train, ascending),
              "BriefMatcherHw::match_candidates");
}

TEST(CandidateMatcher, CrossCheckWithinCandidateGraph) {
  // Both queries list train 0; only the closer one survives cross-check.
  eslam::testing::rng(116);
  Descriptor256 base = eslam::testing::random_descriptor();
  Descriptor256 q_near = base;
  q_near.set_bit(3, !q_near.bit(3));  // distance 1
  Descriptor256 q_far = base;
  for (int i = 0; i < 20; ++i) q_far.set_bit(i * 9, !q_far.bit(i * 9));
  const std::vector<Descriptor256> train = {base};
  const std::vector<Descriptor256> queries = {q_far, q_near};
  CandidateSet set;
  const std::int32_t listed[] = {0};
  set.add_list(listed);
  set.add_list(listed);
  MatcherOptions opts;
  opts.max_distance = 256;
  opts.cross_check = true;
  const auto matches = match_candidates(queries, train, set, opts);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].query, 1);
}

TEST(CandidateMatcher, MatchOneCandidatesReturnsTrainIndices) {
  const auto train = random_set(30, 117);
  const std::vector<std::int32_t> list = {4, 11, 27};
  const Match m = match_one_candidates(train[11], train, list);
  EXPECT_EQ(m.train, 11);
  EXPECT_EQ(m.distance, 0);
  // Runner-up is the better of the two remaining listed candidates.
  const int d4 = hamming_distance(train[11], train[4]);
  const int d27 = hamming_distance(train[11], train[27]);
  EXPECT_EQ(m.second_best, std::min(d4, d27));
}

}  // namespace
}  // namespace eslam
