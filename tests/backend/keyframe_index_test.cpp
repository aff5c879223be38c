// Keyframe-recognition index: recall (a perturbed view of keyframe K must
// rank K's neighbourhood first), eviction maintenance, deterministic
// ordering, and exactness: however the index was built (one batch,
// keyframe by keyframe, or after evictions) it answers with the same ids
// and the same scores, pinned bit for bit.
#include "backend/keyframe_index.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "../test_util.h"

namespace eslam::backend {
namespace {

// Flips `n_bits` deterministic pseudo-random bit positions.
Descriptor256 perturbed(const Descriptor256& d, int n_bits) {
  Descriptor256 out = d;
  for (int k = 0; k < n_bits; ++k) {
    const int bit = static_cast<int>(
        eslam::testing::uniform(0.0, 255.999));
    out.set_bit(bit, !out.bit(bit));
  }
  return out;
}

std::vector<KeyframeObservation> observations_from(
    const std::vector<Descriptor256>& descriptors, std::int64_t first_id) {
  std::vector<KeyframeObservation> obs;
  for (std::size_t j = 0; j < descriptors.size(); ++j)
    obs.push_back({first_id + static_cast<std::int64_t>(j), Vec2{},
                   descriptors[j], {}});
  return obs;
}

// The seeded world: keyframes of 40 descriptors each; neighbours share
// half their descriptors (keyframe k reuses the second half of keyframe
// k-1's), so each keyframe has a genuine appearance neighbourhood.  A
// longer world starts with the shorter one's keyframes.
std::vector<std::vector<Descriptor256>> world_descriptors(int keyframes) {
  eslam::testing::rng(77);
  constexpr int kPerKf = 40;
  std::vector<std::vector<Descriptor256>> descriptors(
      static_cast<std::size_t>(keyframes));
  for (int k = 0; k < keyframes; ++k) {
    for (int j = 0; j < kPerKf; ++j) {
      if (k > 0 && j < kPerKf / 2) {
        descriptors[static_cast<std::size_t>(k)].push_back(
            descriptors[static_cast<std::size_t>(k - 1)]
                       [static_cast<std::size_t>(kPerKf / 2 + j)]);
      } else {
        descriptors[static_cast<std::size_t>(k)].push_back(
            eslam::testing::random_descriptor());
      }
    }
  }
  return descriptors;
}

std::vector<std::vector<KeyframeObservation>> world_observations(
    const std::vector<std::vector<Descriptor256>>& descriptors) {
  std::vector<std::vector<KeyframeObservation>> obs;
  for (std::size_t k = 0; k < descriptors.size(); ++k)
    obs.push_back(observations_from(descriptors[k],
                                    /*first_id=*/1000 * static_cast<int>(k)));
  return obs;
}

// Ten keyframes of the seeded world, added one by one.
struct IndexedWorld {
  KeyframeIndex index;
  std::vector<std::vector<Descriptor256>> descriptors = world_descriptors(10);

  IndexedWorld() {
    const auto obs = world_observations(descriptors);
    for (std::size_t k = 0; k < obs.size(); ++k)
      index.add_keyframe(static_cast<int>(k), obs[k]);
  }
};

// Every query of the seeded world: each keyframe's descriptors, exact and
// with 6 bits flipped each.
std::vector<std::vector<Descriptor256>> world_queries(
    const std::vector<std::vector<Descriptor256>>& descriptors) {
  std::vector<std::vector<Descriptor256>> queries;
  for (const auto& kf : descriptors) {
    queries.push_back(kf);
    std::vector<Descriptor256> noisy;
    for (const Descriptor256& d : kf) noisy.push_back(perturbed(d, 6));
    queries.push_back(std::move(noisy));
  }
  return queries;
}

// Same ids in the same order, and every score the same double.
void expect_same_answers(const KeyframeIndex& a, const KeyframeIndex& b,
                         const std::vector<std::vector<Descriptor256>>& queries) {
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto ra = a.query(queries[q], 100);
    const auto rb = b.query(queries[q], 100);
    ASSERT_EQ(ra.size(), rb.size()) << "query " << q;
    for (std::size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].keyframe_id, rb[i].keyframe_id)
          << "query " << q << " rank " << i;
      EXPECT_EQ(ra[i].score, rb[i].score) << "query " << q << " rank " << i;
    }
  }
}

TEST(KeyframeIndex, ExactQueryRanksTheKeyframeFirst) {
  IndexedWorld w;
  const auto ranked = w.index.query(w.descriptors[4], 5);
  ASSERT_FALSE(ranked.empty());
  EXPECT_EQ(ranked.front().keyframe_id, 4);
  EXPECT_GT(ranked.front().score, 0.0);
}

TEST(KeyframeIndex, PerturbedQueryRanksTheNeighbourhoodFirst) {
  IndexedWorld w;
  // A revisit re-detects the same corners with a few bits of noise each.
  std::vector<Descriptor256> query;
  for (const Descriptor256& d : w.descriptors[6])
    query.push_back(perturbed(d, 6));
  const auto ranked = w.index.query(query, 3);
  ASSERT_GE(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].keyframe_id, 6);
  // The half-overlapping neighbours outrank every unrelated keyframe.
  for (std::size_t i = 1; i < 3; ++i)
    EXPECT_TRUE(ranked[i].keyframe_id == 5 || ranked[i].keyframe_id == 7)
        << "rank " << i << " was keyframe " << ranked[i].keyframe_id;
}

TEST(KeyframeIndex, ScoresDropWithPerturbation) {
  IndexedWorld w;
  const auto exact = w.index.query(w.descriptors[3], 1);
  std::vector<Descriptor256> noisy;
  for (const Descriptor256& d : w.descriptors[3])
    noisy.push_back(perturbed(d, 12));
  const auto approx = w.index.query(noisy, 1);
  ASSERT_FALSE(exact.empty());
  ASSERT_FALSE(approx.empty());
  EXPECT_EQ(exact.front().keyframe_id, 3);
  EXPECT_GT(exact.front().score, approx.front().score);
}

TEST(KeyframeIndex, RemoveBelowFollowsEviction) {
  IndexedWorld w;
  EXPECT_EQ(w.index.size(), 10u);
  w.index.remove_below(5);
  EXPECT_EQ(w.index.size(), 5u);
  const auto ranked = w.index.query(w.descriptors[2], 10);
  for (const KeyframeScore& s : ranked) EXPECT_GE(s.keyframe_id, 5);
  // Keyframe 2's surviving appearance neighbour is 5 via hand-me-down
  // descriptors? No: only adjacent halves are shared, so after evicting
  // 0..4 a query for 2 may return nothing above noise — but never a dead
  // id, which is the property the tracker relies on.
}

TEST(KeyframeIndex, QueryIsDeterministic) {
  IndexedWorld w;
  std::vector<Descriptor256> query;
  for (const Descriptor256& d : w.descriptors[8]) query.push_back(d);
  const auto a = w.index.query(query, 10);
  const auto b = w.index.query(query, 10);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].keyframe_id, b[i].keyframe_id);
    EXPECT_DOUBLE_EQ(a[i].score, b[i].score);
  }
}

TEST(KeyframeIndex, OneBatchAnswersAsKeyframeByKeyframe) {
  const auto descriptors = world_descriptors(15);
  const auto obs = world_observations(descriptors);
  KeyframeIndex one_by_one, batch;
  std::vector<IndexedKeyframe> keyframes;
  for (std::size_t k = 0; k < obs.size(); ++k) {
    one_by_one.add_keyframe(static_cast<int>(k), obs[k]);
    keyframes.push_back({static_cast<int>(k), obs[k]});
  }
  batch.add_keyframes(keyframes);
  EXPECT_EQ(batch.size(), 15u);
  expect_same_answers(batch, one_by_one, world_queries(descriptors));

  // A batch on top of keyframes already indexed merges the same way.
  KeyframeIndex split;
  split.add_keyframes(std::span(keyframes).first(6));
  split.add_keyframes(std::span(keyframes).subspan(6));
  expect_same_answers(split, one_by_one, world_queries(descriptors));
}

TEST(KeyframeIndex, EvictionThenInsertsAnswerAsAFreshIndex) {
  const auto descriptors = world_descriptors(15);
  const auto obs = world_observations(descriptors);
  KeyframeIndex live, fresh;
  for (int k = 0; k < 10; ++k)
    live.add_keyframe(k, obs[static_cast<std::size_t>(k)]);
  live.remove_below(4);
  EXPECT_EQ(live.size(), 6u);
  for (int k = 10; k < 15; ++k)
    live.add_keyframe(k, obs[static_cast<std::size_t>(k)]);
  for (int k = 4; k < 15; ++k)
    fresh.add_keyframe(k, obs[static_cast<std::size_t>(k)]);
  EXPECT_EQ(live.size(), 11u);
  expect_same_answers(live, fresh, world_queries(descriptors));

  // Evicting everything leaves an index that answers nothing, and takes
  // new keyframes again.
  live.remove_below(15);
  EXPECT_TRUE(live.empty());
  EXPECT_TRUE(live.query(descriptors[3], 5).empty());
  live.add_keyframe(20, obs[3]);
  const auto ranked = live.query(descriptors[3], 5);
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_EQ(ranked[0].keyframe_id, 20);
}

TEST(KeyframeIndex, KeyframeWithoutObservationsCountsInTheIdf) {
  Descriptor256 zeros, ones;
  for (auto& w : ones.words()) w = ~std::uint64_t{0};
  const std::vector<KeyframeObservation> a = observations_from({zeros}, 0);
  const std::vector<KeyframeObservation> b = observations_from({ones}, 1);
  KeyframeIndex index;
  index.add_keyframe(0, a);
  index.add_keyframe(1, {});
  index.add_keyframe(2, b);
  EXPECT_EQ(index.size(), 3u);
  EXPECT_FALSE(index.empty());

  // Keyframe 0 holds all 16 words of `zeros`, each in a posting of one:
  // idf log(1 + 3/1) each, over the norm 1 + 16.
  double mass = 0;
  for (int c = 0; c < KeyframeIndex::kChunksPerDescriptor; ++c)
    mass += std::log(1.0 + 3.0 / 1.0);
  const std::vector<Descriptor256> query = {zeros};
  const auto ranked = index.query(query, 5);
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_EQ(ranked[0].keyframe_id, 0);
  EXPECT_EQ(ranked[0].score, mass / 17.0);

  // Evicting the empty keyframe leaves two in the idf.
  index.remove_below(2);
  EXPECT_EQ(index.size(), 1u);
  const std::vector<Descriptor256> query_b = {ones};
  double mass_b = 0;
  for (int c = 0; c < KeyframeIndex::kChunksPerDescriptor; ++c)
    mass_b += std::log(1.0 + 1.0 / 1.0);
  const auto ranked_b = index.query(query_b, 5);
  ASSERT_EQ(ranked_b.size(), 1u);
  EXPECT_EQ(ranked_b[0].keyframe_id, 2);
  EXPECT_EQ(ranked_b[0].score, mass_b / 17.0);
}

// One query's whole ranking, scores bit for bit: any change to the vote
// order, the idf or the norm moves a score.  Recorded from the hash-map
// index the flat table replaced; keyframes 5 and 3 tie, newer first.
TEST(KeyframeIndex, PinnedRankingAndScores) {
  IndexedWorld w;
  std::vector<Descriptor256> query;
  for (const int k : {2, 6})
    for (const Descriptor256& d : w.descriptors[static_cast<std::size_t>(k)])
      query.push_back(perturbed(d, 6));
  const auto ranked = w.index.query(query, 10);
  const KeyframeScore pinned[] = {
      {2, 0x1.3592bb6d684dcp+0},  {6, 0x1.34c5b4d24548dp+0},
      {5, 0x1.3890c35d9c22ep-1},  {3, 0x1.3890c35d9c22ep-1},
      {1, 0x1.349508465c885p-1},  {7, 0x1.33e428cb7c5f8p-1},
      {4, 0x1.002a649407db4p-8},  {8, 0x1.6e613f359f59fp-9},
      {9, 0x1.2bd65ba472803p-9},  {0, 0x1.002a649407db4p-9},
  };
  ASSERT_EQ(ranked.size(), std::size(pinned));
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    EXPECT_EQ(ranked[i].keyframe_id, pinned[i].keyframe_id) << "rank " << i;
    EXPECT_EQ(ranked[i].score, pinned[i].score) << "rank " << i;
  }
}

}  // namespace
}  // namespace eslam::backend
