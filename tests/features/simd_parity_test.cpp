// Scalar-vs-SIMD parity: every kernel tier (features/simd_kernels) and the
// allocation-free matcher/gate tiers built on the dispatched one must be
// BIT-exact with the scalar reference paths — same Hamming distances, same
// lowest-index tie winners, same projected pixels, same candidate sets.
// The kernel cases run once per tier the host supports, whatever dispatch
// picked, and skip a tier the CPU lacks with the reason in the log.  The
// suite runs in the default build and in the ESLAM_FORCE_SCALAR CI leg
// (dispatch pinned to the scalar kernels), so the matcher tiers see both.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <ostream>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/arena.h"
#include "core/simd_dispatch.h"
#include "features/descriptor_soa.h"
#include "features/matcher.h"
#include "features/simd_kernels.h"
#include "geometry/camera.h"
#include "slam/match_gate.h"
#include "slam/pnp.h"

namespace eslam {
namespace simd {

// Names the tier in gtest's parameter printouts.
void PrintTo(IsaLevel level, std::ostream* os) { *os << isa_name(level); }

}  // namespace simd

namespace {

Descriptor256 random_descriptor(std::mt19937_64& rng) {
  Descriptor256 d;
  for (auto& w : d.words()) w = rng();
  return d;
}

std::vector<Descriptor256> random_descriptors(std::mt19937_64& rng,
                                              std::size_t n) {
  std::vector<Descriptor256> out(n);
  for (auto& d : out) d = random_descriptor(rng);
  return out;
}

void expect_matches_equal(const std::vector<Match>& a,
                          const std::vector<Match>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].query, b[i].query) << "match " << i;
    EXPECT_EQ(a[i].train, b[i].train) << "match " << i;
    EXPECT_EQ(a[i].distance, b[i].distance) << "match " << i;
    EXPECT_EQ(a[i].second_best, b[i].second_best) << "match " << i;
  }
}

// Train sets with forced ties: every third descriptor repeats its
// predecessor, and every fifth query is a one-bit variant of a train
// descriptor (so exact duplicates decide its best match).
std::vector<Descriptor256> tied_train(std::mt19937_64& rng, std::size_t n) {
  auto train = random_descriptors(rng, n);
  for (std::size_t i = 2; i < n; i += 3) train[i] = train[i - 1];
  return train;
}

std::vector<Descriptor256> queries_near(std::mt19937_64& rng,
                                        const std::vector<Descriptor256>& train,
                                        std::size_t n) {
  auto queries = random_descriptors(rng, n);
  for (std::size_t i = 0; i < n && !train.empty(); i += 5) {
    queries[i] = train[rng() % train.size()];
    queries[i].set_bit(static_cast<int>(rng() % 256), true);
  }
  return queries;
}

FeatureList features_of(const std::vector<Descriptor256>& descriptors) {
  FeatureList features(descriptors.size());
  for (std::size_t i = 0; i < descriptors.size(); ++i)
    features[i].descriptor = descriptors[i];
  return features;
}

void expect_match_eq(const Match& got, const Match& want,
                     const std::string& where) {
  EXPECT_EQ(got.train, want.train) << where;
  EXPECT_EQ(got.distance, want.distance) << where;
  EXPECT_EQ(got.second_best, want.second_best) << where;
}

// The kernel cases, once per tier: kernels() is the tier's table, the
// _scalar functions the reference it must equal.
class TierParity : public ::testing::TestWithParam<simd::IsaLevel> {
 protected:
  void SetUp() override {
    if (!simd::isa_supported(GetParam()))
      GTEST_SKIP() << "the " << simd::isa_name(GetParam())
                   << " tier is not supported by this CPU; its kernels are "
                      "not exercised here";
  }
  const simd::KernelTable& tier() const { return simd::kernels(GetParam()); }
};

INSTANTIATE_TEST_SUITE_P(
    Tiers, TierParity, ::testing::ValuesIn(simd::kIsaLevels),
    [](const ::testing::TestParamInfo<simd::IsaLevel>& info) {
      return std::string(simd::isa_name(info.param));
    });

// ---- Hamming kernels -------------------------------------------------------

TEST_P(TierParity, BestTwoBlockEqualsMatchOne) {
  std::mt19937_64 rng(1);
  // Train sizes straddling the AVX2 step (4 train descriptors) and the
  // AVX-512 step (8, and its masked tail); query counts straddling the
  // query groups (AVX2: 2, AVX-512: 4) and their remainders.
  for (const std::size_t n :
       {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u, 64u, 130u}) {
    for (const std::size_t nq : {1u, 2u, 3u, 4u, 5u, 8u, 9u}) {
      const auto train = tied_train(rng, n);
      const auto queries = queries_near(rng, train, nq);
      DescriptorSoA soa;
      soa.assign(train);
      std::vector<Match> simd_out(nq + 1), scalar_out(nq + 1);
      simd_out[nq].query = scalar_out[nq].query = 7;  // sentinel
      tier().best_two_block(soa, n, descriptor_rows(queries), simd_out.data());
      simd::best_two_block_scalar(soa, n, descriptor_rows(queries),
                                  scalar_out.data());
      for (std::size_t i = 0; i < nq; ++i) {
        const Match want = match_one(queries[i], train);
        const std::string where =
            "n=" + std::to_string(n) + " q=" + std::to_string(i);
        expect_match_eq(simd_out[i], want, where);
        expect_match_eq(scalar_out[i], want, where);
      }
      // The kernel never writes past the last query.
      EXPECT_EQ(simd_out[nq].query, 7);
      EXPECT_EQ(scalar_out[nq].query, 7);
    }
  }
}

TEST_P(TierParity, BestTwoBlockHonoursCountAndFullDistance) {
  std::mt19937_64 rng(2);
  // A published view bounds the rows: planes longer than `count` are
  // ignored past it, also inside a vector step.
  const auto train = tied_train(rng, 37);
  DescriptorSoA soa;
  soa.assign(train);
  const auto queries = queries_near(rng, train, 6);
  for (const std::size_t count : {0u, 1u, 3u, 7u, 9u, 20u, 36u}) {
    std::vector<Match> out(queries.size());
    tier().best_two_block(soa, count, descriptor_rows(queries), out.data());
    const std::span<const Descriptor256> prefix(train.data(), count);
    for (std::size_t i = 0; i < queries.size(); ++i)
      expect_match_eq(out[i], match_one(queries[i], prefix),
                      "count=" + std::to_string(count));
  }

  // Distance 256 (the complement) is never a match, as in match_one():
  // complements only -> no match; one closer row -> it wins, runner-up 256.
  Descriptor256 q = random_descriptor(rng);
  Descriptor256 complement;
  for (int w = 0; w < Descriptor256::kWords; ++w)
    complement.words()[w] = ~q.words()[w];
  const std::vector<Descriptor256> queries_q = {q, q};
  for (const std::size_t n : {1u, 5u, 8u, 9u, 17u}) {
    std::vector<Descriptor256> rows(n, complement);
    DescriptorSoA c_soa;
    c_soa.assign(rows);
    std::vector<Match> out(2);
    const std::string where = "complements n=" + std::to_string(n);
    tier().best_two_block(c_soa, n, descriptor_rows(queries_q), out.data());
    expect_match_eq(out[0], match_one(q, rows), where);
    EXPECT_EQ(out[0].train, -1) << where;
    EXPECT_EQ(out[0].distance, 256) << where;
    expect_match_eq(tier().best_two_rows(q, descriptor_rows(rows)),
                    match_one(q, rows), where + " (rows)");
    rows[n - 1].set_bit(0, q.bit(0));  // distance 255
    c_soa.assign(rows);
    tier().best_two_block(c_soa, n, descriptor_rows(queries_q), out.data());
    expect_match_eq(out[1], match_one(q, rows), where + ", one row at 255");
    EXPECT_EQ(out[1].train, static_cast<int>(n - 1)) << where;
    EXPECT_EQ(tier().best_two_rows(q, descriptor_rows(rows)).train,
              static_cast<int>(n - 1))
        << where;
  }
}

TEST_P(TierParity, BestTwoRowsEqualsMatchOne) {
  std::mt19937_64 rng(4);
  for (const std::size_t n :
       {0u, 1u, 2u, 3u, 7u, 8u, 9u, 16u, 17u, 64u, 131u}) {
    const auto rows = tied_train(rng, n);
    const FeatureList features = features_of(rows);
    for (const Descriptor256& q : queries_near(rng, rows, 5)) {
      const Match want = match_one(q, rows);
      const std::string where = "n=" + std::to_string(n);
      // Packed rows and the same descriptors read in place from features.
      expect_match_eq(tier().best_two_rows(q, descriptor_rows(rows)), want,
                      where);
      expect_match_eq(tier().best_two_rows(q, descriptor_rows(features)),
                      want, where + " (feature rows)");
      expect_match_eq(simd::best_two_rows_scalar(q, descriptor_rows(features)),
                      want, where + " (scalar)");
    }
  }
}

// ---- Matcher tiers ---------------------------------------------------------

TEST(SimdParity, MatchDescriptorsIntoEqualsReference) {
  // Every acceptance gate, forced ties, and sizes off every block multiple
  // (up to 1023 queries x 6143 train): the fused brute-force kernel (SoA
  // view) and the verification path (no SoA; queries read in place from
  // features or from a packed array) against the AoS reference.
  std::mt19937_64 rng(4);
  for (const auto& [n_queries, n_train] :
       {std::pair<std::size_t, std::size_t>{120, 300}, {1023, 6143}}) {
    const auto train = tied_train(rng, n_train);
    const auto queries = queries_near(rng, train, n_queries);
    const FeatureList features = features_of(queries);
    DescriptorSoA soa;
    soa.assign(train);
    Arena arena;
    for (const bool cross_check : {false, true}) {
      for (const double ratio : {1.0, 0.85}) {
        MatcherOptions options;
        options.max_distance = 140;  // random descriptors center near 128
        options.cross_check = cross_check;
        options.ratio = ratio;
        const std::vector<Match> reference =
            match_descriptors(queries, train, options);
        ASSERT_FALSE(reference.empty());
        std::vector<Match> out;
        match_descriptors_into(features, TrainView{train, &soa}, options,
                               &arena, out);
        expect_matches_equal(reference, out);
        match_descriptors_into(features, TrainView{train, nullptr}, options,
                               nullptr, out);
        expect_matches_equal(reference, out);
        match_descriptors_into(queries, TrainView{train, nullptr}, options,
                               &arena, out);
        expect_matches_equal(reference, out);
      }
    }
  }
}

TEST(SimdParity, MatchDescriptorsIntoTieBreaksLikeReference) {
  // Duplicate train descriptors: ties must resolve to the lowest train
  // index on every path, and the runner-up bookkeeping must agree.
  std::mt19937_64 rng(5);
  auto train = random_descriptors(rng, 64);
  for (std::size_t i = 0; i < train.size(); i += 2)
    train[i + 1] = train[i];  // every even/odd pair is an exact duplicate
  const auto queries = random_descriptors(rng, 40);
  DescriptorSoA soa;
  soa.assign(train);
  FeatureList features(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i)
    features[i].descriptor = queries[i];
  MatcherOptions options;
  options.max_distance = 256;  // accept everything: pure tie behavior

  const std::vector<Match> reference =
      match_descriptors(queries, train, options);
  Arena arena;
  std::vector<Match> out;
  match_descriptors_into(features, TrainView{train, &soa}, options, &arena,
                         out);
  expect_matches_equal(reference, out);
  for (const Match& m : out) {
    EXPECT_EQ(m.train % 2, 0) << "tie must pick the even (lower) duplicate";
    EXPECT_EQ(m.distance, m.second_best) << "duplicate is its own runner-up";
  }
}

TEST(SimdParity, MatchCandidatesIntoEqualsReference) {
  std::mt19937_64 rng(6);
  for (const bool cross_check : {false, true}) {
    MatcherOptions options;
    options.max_distance = 140;
    options.cross_check = cross_check;
    const auto train = tied_train(rng, 200);
    const auto queries = queries_near(rng, train, 80);
    DescriptorSoA soa;
    soa.assign(train);
    FeatureList features(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i)
      features[i].descriptor = queries[i];

    // Random candidate lists (some empty), each index at most once, in
    // random order.
    CandidateSet candidates;
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const std::size_t len = rng() % 12;
      std::vector<std::int32_t> list(len);
      for (auto& c : list)
        c = static_cast<std::int32_t>(rng() % train.size());
      std::sort(list.begin(), list.end());
      list.erase(std::unique(list.begin(), list.end()), list.end());
      std::shuffle(list.begin(), list.end(), rng);
      candidates.add_list(list);
    }

    const std::vector<Match> reference =
        match_candidates(queries, train, candidates, options);
    Arena arena;
    std::vector<Match> out;
    match_candidates_into(features, TrainView{train, &soa}, candidates,
                          options, &arena, out);
    expect_matches_equal(reference, out);

    std::vector<Match> out_aos;
    match_candidates_into(features, TrainView{train, nullptr}, candidates,
                          options, nullptr, out_aos);
    expect_matches_equal(reference, out_aos);
  }
}

// ---- Projection ------------------------------------------------------------

TEST_P(TierParity, ProjectBatchBitExactWithScalarAndSourceExpression) {
  std::mt19937_64 rng(7);
  const PinholeCamera cam = PinholeCamera::tum_freiburg1();
  auto uniform = [&](double lo, double hi) {
    return lo + (hi - lo) * (static_cast<double>(rng() >> 11) * 0x1p-53);
  };
  // A non-trivial pose: rotation + translation.
  const SE3 pose = SE3::exp({0.1, -0.2, 0.05, 0.3, -0.1, 0.2});
  const double margin = 24.0;
  for (const std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 64u, 129u}) {
    std::vector<double> xs(n), ys(n), zs(n);
    for (std::size_t i = 0; i < n; ++i) {
      xs[i] = uniform(-5.0, 5.0);
      ys[i] = uniform(-5.0, 5.0);
      zs[i] = uniform(-2.0, 8.0);  // mix of in-front and behind
    }
    std::vector<double> u_a(n), v_a(n), u_b(n), v_b(n);
    std::vector<std::uint8_t> keep_a(n), keep_b(n);
    tier().project_batch(xs, ys, zs, pose, cam, margin, u_a.data(),
                         v_a.data(), keep_a.data());
    simd::project_batch_scalar(xs, ys, zs, pose, cam, margin, u_b.data(),
                               v_b.data(), keep_b.data());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(keep_a[i], keep_b[i]) << "n=" << n << " i=" << i;
      if (!keep_a[i]) continue;
      // Bit-exact, not approximately equal.
      EXPECT_EQ(u_a[i], u_b[i]) << "n=" << n << " i=" << i;
      EXPECT_EQ(v_a[i], v_b[i]) << "n=" << n << " i=" << i;
      // And identical to the original gate's arithmetic: SE3 * Vec3
      // followed by PinholeCamera::project.
      const Vec3 p_cam = pose * Vec3{xs[i], ys[i], zs[i]};
      const std::optional<Vec2> px = cam.project(p_cam);
      ASSERT_TRUE(px.has_value());
      EXPECT_EQ(u_a[i], (*px)[0]);
      EXPECT_EQ(v_a[i], (*px)[1]);
    }
  }
}

TEST_P(TierParity, ProjectBatchRejectsNaNAndBehindCamera) {
  const PinholeCamera cam = PinholeCamera::tum_freiburg1();
  const SE3 identity;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // In front; behind; at zero depth; NaN coordinate; infinite coordinate.
  const std::vector<double> xs = {0.0, 0.0, 0.0, nan, inf};
  const std::vector<double> ys = {0.0, 0.0, 0.0, 0.0, 0.0};
  const std::vector<double> zs = {2.0, -2.0, 0.0, 2.0, 2.0};
  std::vector<double> u(xs.size()), v(xs.size());
  std::vector<std::uint8_t> keep(xs.size());
  tier().project_batch(xs, ys, zs, identity, cam, 24.0, u.data(), v.data(),
                       keep.data());
  EXPECT_EQ(keep[0], 1);
  EXPECT_EQ(keep[1], 0) << "behind the camera";
  EXPECT_EQ(keep[2], 0) << "at the camera plane";
  EXPECT_EQ(keep[3], 0) << "NaN must be rejected, never kept";
  EXPECT_EQ(keep[4], 0) << "infinite projection off-image";
  std::vector<std::uint8_t> keep_s(xs.size());
  simd::project_batch_scalar(xs, ys, zs, identity, cam, 24.0, u.data(),
                             v.data(), keep_s.data());
  EXPECT_EQ(keep, keep_s);
}

// ---- RANSAC inlier scoring --------------------------------------------------

// The scoring contract: the ascending indices i with
// reprojection_error_sq(c_i) < thresh_sq, on every tier and the scalar
// reference alike.
std::vector<int> reference_inliers(const std::vector<Correspondence>& corr,
                                   const PinholeCamera& cam, const SE3& pose,
                                   double thresh_sq) {
  std::vector<int> out;
  for (std::size_t i = 0; i < corr.size(); ++i)
    if (reprojection_error_sq(corr[i], cam, pose) < thresh_sq)
      out.push_back(static_cast<int>(i));
  return out;
}

void expect_scoring_matches_reference(const simd::KernelTable& tier,
                                      const std::vector<Correspondence>& corr,
                                      const PinholeCamera& cam,
                                      const SE3& pose, double thresh_sq,
                                      const std::string& where) {
  const std::size_t n = corr.size();
  std::vector<double> xs(n), ys(n), zs(n), us(n), vs(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = corr[i].world[0];
    ys[i] = corr[i].world[1];
    zs[i] = corr[i].world[2];
    us[i] = corr[i].pixel[0];
    vs[i] = corr[i].pixel[1];
  }
  const simd::ReprojectionColumns columns{xs, ys, zs, us, vs};
  const std::vector<int> want = reference_inliers(corr, cam, pose, thresh_sq);
  std::vector<int> got(n), got_scalar(n);
  got.resize(
      tier.reprojection_inliers(columns, pose, cam, thresh_sq, got.data(), 0));
  got_scalar.resize(simd::reprojection_inliers_scalar(
      columns, pose, cam, thresh_sq, got_scalar.data(), 0));
  EXPECT_EQ(got, want) << where << " (tier)";
  EXPECT_EQ(got_scalar, want) << where << " (scalar)";
}

TEST_P(TierParity, ReprojectionInliersEqualErrorLoop) {
  std::mt19937_64 rng(23);
  auto uniform = [&](double lo, double hi) {
    return lo + (hi - lo) * (static_cast<double>(rng() >> 11) * 0x1p-53);
  };
  const PinholeCamera cam = PinholeCamera::tum_freiburg1();
  const SE3 poses[] = {SE3{},
                       SE3::exp({0.1, -0.2, 0.05, 0.3, -0.1, 0.2})};
  for (const SE3& pose : poses) {
    const SE3 pose_wc = pose.inverse();
    for (const std::size_t n : {0u, 1u, 3u, 4u, 5u, 1023u}) {
      std::vector<Correspondence> corr(n);
      for (std::size_t i = 0; i < n; ++i) {
        // Camera-frame points, mostly in front, about one in eight
        // behind; pixels within ~4 px of the projection so both sides of
        // the 3 px gate are populated.
        const Vec3 p_cam{uniform(-2.0, 2.0), uniform(-1.5, 1.5),
                         i % 8 == 3 ? uniform(-3.0, 0.0) : uniform(0.5, 6.0)};
        const Vec2 px{cam.fx() * p_cam[0] / p_cam[2] + cam.cx(),
                      cam.fy() * p_cam[1] / p_cam[2] + cam.cy()};
        corr[i] = Correspondence{
            pose_wc * p_cam,
            px + Vec2{uniform(-4.0, 4.0), uniform(-4.0, 4.0)}};
      }
      for (const double thresh_sq : {9.0, 0.0, 1e13}) {
        expect_scoring_matches_reference(
            tier(), corr, cam, pose,
            thresh_sq, "n=" + std::to_string(n) +
                           " thresh_sq=" + std::to_string(thresh_sq));
      }
    }
  }
}

TEST_P(TierParity, ReprojectionInliersEdgeCases) {
  // Integral intrinsics, so the residuals below are exact.
  const PinholeCamera cam(500.0, 500.0, 320.0, 240.0, 640, 480);
  const SE3 identity;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double min_depth = PinholeCamera::kMinDepth;
  const std::vector<Correspondence> corr = {
      {Vec3{0.0, 0.0, 1.0}, Vec2{320.0, 240.0}},    // 0: exact, inlier
      {Vec3{0.0, 0.0, 1.0}, Vec2{323.0, 240.0}},    // 1: residual^2 == 9
      {Vec3{0.0, 0.0, 1.0}, Vec2{320.0, 237.0}},    // 2: residual^2 == 9
      {Vec3{0.0, 0.0, 1.0}, Vec2{322.0, 242.0}},    // 3: residual^2 == 8
      {Vec3{0.0, 0.0, min_depth}, Vec2{320.0, 240.0}},  // 4: z == kMinDepth
      {Vec3{0.0, 0.0, -1.0}, Vec2{320.0, 240.0}},   // 5: behind
      {Vec3{nan, 0.0, 1.0}, Vec2{320.0, 240.0}},    // 6: NaN x
      {Vec3{0.0, 0.0, nan}, Vec2{320.0, 240.0}},    // 7: NaN depth
      {Vec3{0.0, 0.0, 1.0}, Vec2{nan, 240.0}},      // 8: NaN pixel
      {Vec3{0.5, -0.25, 2.0}, Vec2{445.0, 177.5}},  // 9: exact, inlier
  };
  const std::vector<int> want = {0, 3, 9};
  EXPECT_EQ(reference_inliers(corr, cam, identity, 9.0), want);
  expect_scoring_matches_reference(tier(), corr, cam, identity, 9.0,
                                   "3 px gate");
  // Above the 1e12 sentinel the reference counts points behind the
  // camera (and at z == kMinDepth) as inliers; NaN depth stays out.
  const std::vector<int> want_huge = {0, 1, 2, 3, 4, 5, 9};
  EXPECT_EQ(reference_inliers(corr, cam, identity, 1e13), want_huge);
  expect_scoring_matches_reference(tier(), corr, cam, identity, 1e13,
                                   "1e13 gate");
  // Every lane position of the 4-wide tier, with the tail: rotate the set.
  for (std::size_t shift = 1; shift < 4; ++shift) {
    std::vector<Correspondence> rotated(corr.begin() + shift, corr.end());
    rotated.insert(rotated.end(), corr.begin(), corr.begin() + shift);
    expect_scoring_matches_reference(tier(), rotated, cam, identity, 9.0,
                                     "shift " + std::to_string(shift));
  }
}

// ---- Bounded scoring and the normal equations ------------------------------

double uniform(std::mt19937_64& rng, double lo, double hi) {
  return lo + (hi - lo) * (static_cast<double>(rng() >> 11) * 0x1p-53);
}

// Correspondences as the SoA columns the kernels read.
struct ColumnStore {
  std::vector<double> x, y, z, u, v;

  explicit ColumnStore(const std::vector<Correspondence>& corr) {
    for (const Correspondence& c : corr) {
      x.push_back(c.world[0]);
      y.push_back(c.world[1]);
      z.push_back(c.world[2]);
      u.push_back(c.pixel[0]);
      v.push_back(c.pixel[1]);
    }
  }
  simd::ReprojectionColumns columns() const { return {x, y, z, u, v}; }
};

// n correspondences under `pose`: camera-frame points mostly in front and
// about one in eight behind, pixels within ~4 px of the projection, so
// both sides of a 3 px gate and of Huber widths 1 and 2.5 are populated.
std::vector<Correspondence> random_correspondences(std::mt19937_64& rng,
                                                   const PinholeCamera& cam,
                                                   const SE3& pose,
                                                   std::size_t n) {
  const SE3 pose_wc = pose.inverse();
  std::vector<Correspondence> corr(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Vec3 p_cam{uniform(rng, -2.0, 2.0), uniform(rng, -1.5, 1.5),
                     i % 8 == 3 ? uniform(rng, -3.0, 0.0)
                                : uniform(rng, 0.5, 6.0)};
    const Vec2 px{cam.fx() * p_cam[0] / p_cam[2] + cam.cx(),
                  cam.fy() * p_cam[1] / p_cam[2] + cam.cy()};
    corr[i] = Correspondence{
        pose_wc * p_cam,
        px + Vec2{uniform(rng, -4.0, 4.0), uniform(rng, -4.0, 4.0)}};
  }
  return corr;
}

TEST_P(TierParity, BoundedScoringStopsOnlyWhenItCannotWin) {
  std::mt19937_64 rng(29);
  const PinholeCamera cam = PinholeCamera::tum_freiburg1();
  const double thresh_sq = 9.0;
  for (const std::size_t n : {0u, 1u, 3u, 4u, 5u, 7u, 8u, 9u, 1023u}) {
    const SE3 pose = SE3::exp({uniform(rng, -0.2, 0.2), uniform(rng, -0.2, 0.2),
                               uniform(rng, -0.2, 0.2), uniform(rng, -0.3, 0.3),
                               uniform(rng, -0.3, 0.3),
                               uniform(rng, -0.3, 0.3)});
    const ColumnStore store(random_correspondences(rng, cam, pose, n));
    const simd::ReprojectionColumns columns = store.columns();
    std::vector<int> full(n);
    full.resize(simd::reprojection_inliers_scalar(columns, pose, cam,
                                                  thresh_sq, full.data(), 0));
    const std::size_t count = full.size();
    for (const std::size_t to_beat :
         {std::size_t{0}, std::size_t{1}, count > 0 ? count - 1 : 0, count,
          count + 1, n / 2, n, n + 5}) {
      const std::string where =
          "n=" + std::to_string(n) + " to_beat=" + std::to_string(to_beat);
      for (const bool scalar : {false, true}) {
        std::vector<int> got(n);
        got.resize(scalar ? simd::reprojection_inliers_scalar(
                                columns, pose, cam, thresh_sq, got.data(),
                                to_beat)
                          : tier().reprojection_inliers(columns, pose, cam,
                                                        thresh_sq, got.data(),
                                                        to_beat));
        if (count > to_beat)
          EXPECT_EQ(got, full) << where << (scalar ? " (scalar)" : " (tier)");
        else
          EXPECT_LE(got.size(), to_beat)
              << where << (scalar ? " (scalar)" : " (tier)");
      }
    }
  }
}

// Bit for bit, except that any NaN matches any NaN: which operand's NaN
// an add passes on depends on the order the compiler puts them in.
bool same_value(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b) ||
         (std::isnan(a) && std::isnan(b));
}

void expect_equations_equal(const simd::NormalEquations& got,
                            const simd::NormalEquations& want,
                            const std::string& where) {
  for (int k = 0; k < 21; ++k)
    EXPECT_TRUE(same_value(got.h[k], want.h[k]))
        << where << " h[" << k << "] " << got.h[k] << " vs " << want.h[k];
  for (int k = 0; k < 6; ++k)
    EXPECT_TRUE(same_value(got.b[k], want.b[k]))
        << where << " b[" << k << "] " << got.b[k] << " vs " << want.b[k];
  EXPECT_TRUE(same_value(got.cost, want.cost))
      << where << " cost " << got.cost << " vs " << want.cost;
  EXPECT_EQ(got.used, want.used) << where;
}

void expect_equations_match_scalar(const simd::KernelTable& tier,
                                   const std::vector<Correspondence>& corr,
                                   const PinholeCamera& cam, const SE3& pose,
                                   const std::string& where) {
  const ColumnStore store(corr);
  for (const double huber : {0.0, 2.5, 1.0})
    expect_equations_equal(
        tier.normal_equations(store.columns(), pose, cam, huber),
        simd::normal_equations_scalar(store.columns(), pose, cam, huber),
        where + " huber=" + std::to_string(huber));
}

TEST_P(TierParity, NormalEquationsBitExactWithScalar) {
  std::mt19937_64 rng(31);
  const PinholeCamera cam = PinholeCamera::tum_freiburg1();
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 19; ++n) sizes.push_back(n);
  sizes.push_back(1000);
  for (int trial = 0; trial < 4; ++trial) {
    const SE3 pose = SE3::exp({uniform(rng, -0.5, 0.5), uniform(rng, -0.5, 0.5),
                               uniform(rng, -0.5, 0.5), uniform(rng, -1.0, 1.0),
                               uniform(rng, -1.0, 1.0),
                               uniform(rng, -1.0, 1.0)});
    for (const std::size_t n : sizes) {
      const std::vector<Correspondence> corr =
          random_correspondences(rng, cam, pose, n);
      expect_equations_match_scalar(
          tier(), corr, cam, pose,
          "trial " + std::to_string(trial) + " n=" + std::to_string(n));
      // Evaluated away from the truth as well, as LM's candidates are.
      const SE3 off = SE3::exp({0.05, -0.03, 0.02, 0.01, 0.02, -0.01}) * pose;
      expect_equations_match_scalar(
          tier(), corr, cam, off,
          "trial " + std::to_string(trial) + " off n=" + std::to_string(n));
    }
  }
}

TEST_P(TierParity, NormalEquationsEdgeCases) {
  // Integral intrinsics and exact poses, so depths and residuals below are
  // exact.
  const PinholeCamera cam(500.0, 500.0, 320.0, 240.0, 640, 480);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double min_depth = PinholeCamera::kMinDepth;
  const std::vector<Correspondence> special = {
      {Vec3{0.0, 0.0, 1.0}, Vec2{320.0, 240.0}},      // exact zero residual
      {Vec3{-0.0, -0.0, 1.0}, Vec2{320.0, 240.0}},    // negative zeros
      {Vec3{0.0, 0.0, 1.0}, Vec2{-0.0, 240.0}},       // -0 pixel
      {Vec3{0.0, 0.0, min_depth}, Vec2{320.0, 240.0}},  // z == kMinDepth
      {Vec3{0.5, 0.5, -1.0}, Vec2{320.0, 240.0}},     // behind
      {Vec3{0.5, -0.25, 2.0}, Vec2{446.0, 176.5}},    // 1 px residual
      {Vec3{0.5, -0.25, 2.0}, Vec2{480.0, 120.0}},    // large residual
  };
  const std::vector<Correspondence> poison = {
      {Vec3{nan, 0.0, 1.0}, Vec2{320.0, 240.0}},   // NaN x
      {Vec3{0.0, 0.0, nan}, Vec2{320.0, 240.0}},   // NaN depth: used
      {Vec3{0.0, 0.0, 1.0}, Vec2{nan, 240.0}},     // NaN pixel
      {Vec3{inf, 0.0, 1.0}, Vec2{320.0, 240.0}},   // +inf x
      {Vec3{0.0, -inf, 1.0}, Vec2{320.0, 240.0}},  // -inf y
      {Vec3{0.0, 0.0, inf}, Vec2{320.0, 240.0}},   // +inf depth
      {Vec3{0.0, 0.0, -inf}, Vec2{320.0, 240.0}},  // -inf depth: behind
      {Vec3{0.0, 0.0, 1.0}, Vec2{-inf, 240.0}},    // -inf pixel
  };
  const SE3 poses[] = {SE3{}, SE3{Mat3::identity(), Vec3{0.5, -0.25, 2.0}}};
  std::mt19937_64 rng(37);
  for (const SE3& pose : poses) {
    // The exact cases alone, then each case (one poison point at most,
    // since NaN absorbs the sums) in every lane of a 19-point set, which
    // runs an 8-point block, a 4-point block and a scalar tail.
    expect_equations_match_scalar(tier(), special, cam, pose, "special");
    std::vector<Correspondence> cases = special;
    cases.insert(cases.end(), poison.begin(), poison.end());
    const std::vector<Correspondence> filler =
        random_correspondences(rng, cam, pose, 19);
    for (std::size_t c = 0; c < cases.size(); ++c) {
      for (std::size_t lane = 0; lane < 19; ++lane) {
        std::vector<Correspondence> corr = filler;
        corr[lane] = cases[c];
        expect_equations_match_scalar(
            tier(), corr, cam, pose,
            "case " + std::to_string(c) + " at " + std::to_string(lane));
      }
    }
  }
  // A NaN depth is used and a depth of exactly kMinDepth is not, as in the
  // scalar loop's `continue`.
  const ColumnStore nan_depth({poison[1], special[3], special[0]});
  EXPECT_EQ(simd::normal_equations_scalar(nan_depth.columns(), SE3{}, cam, 0.0)
                .used,
            2);
}

// ---- Gate and window scan -----------------------------------------------

// One gate input: map points (as Vec3s for the reference builder and as
// SoA lanes for the hot path), the prior, the features and the policy.
struct GateScene {
  PinholeCamera cam = PinholeCamera::tum_freiburg1();
  SE3 pose;
  MatchPolicy policy;
  std::vector<Vec3> positions;
  std::vector<double> xs, ys, zs;
  FeatureList features;

  void add_point(const Vec3& p) {
    positions.push_back(p);
    xs.push_back(p[0]);
    ys.push_back(p[1]);
    zs.push_back(p[2]);
  }
  void add_feature(int x, int y, double scale = 1.0) {
    Feature f;
    f.keypoint.x = x;
    f.keypoint.y = y;
    f.keypoint.scale = scale;
    features.push_back(f);
  }
  GateResult reference() const {
    return build_candidate_set(positions, pose, cam, features, policy);
  }
  void build_into(Arena& arena, GateResult& out) const {
    build_candidate_set_into(xs, ys, zs, pose, cam, features, policy, &arena,
                             out);
  }
};

// Points in and around the frustum under a non-trivial prior: most
// project into the padded image, one in ten lies behind the camera and
// one in ten projects far outside it.  Features anywhere in the image;
// with few points most of their windows are empty.
GateScene random_scene(std::mt19937_64& rng, double radius,
                       std::size_t n_points, std::size_t n_features) {
  GateScene scene;
  scene.pose = SE3::exp({0.02, 0.01, -0.03, 0.1, 0.05, -0.08});
  scene.policy.search_radius_px = radius;
  const SE3 pose_wc = scene.pose.inverse();
  for (std::size_t i = 0; i < n_points; ++i) {
    const double z = uniform(rng, 0.5, 4.0);
    Vec3 p_cam = scene.cam.unproject(uniform(rng, -radius - 10, 650 + radius),
                                     uniform(rng, -radius - 10, 490 + radius),
                                     z);
    if (i % 10 == 3) p_cam[2] = -z;
    if (i % 10 == 7) p_cam = Vec3{uniform(rng, -20.0, 20.0), 0.0, 0.3};
    scene.add_point(pose_wc * p_cam);
  }
  for (std::size_t i = 0; i < n_features; ++i)
    scene.add_feature(static_cast<int>(uniform(rng, 0.0, 640.0)),
                      static_cast<int>(uniform(rng, 0.0, 480.0)));
  return scene;
}

// Unit focal length and depth 1 under the identity pose: a point at
// (x, y, 1) projects to exactly (x, y), so placements land on the window
// and cell edges exactly.
GateScene edge_scene(std::mt19937_64& rng, double radius) {
  GateScene scene;
  scene.cam = PinholeCamera(1.0, 1.0, 0.0, 0.0, 640, 480);
  scene.policy.search_radius_px = radius;
  const double cell = std::max(radius / 2, 4.0);
  // Window edges on cell boundaries (padded x0 - r and x0 + r are cell
  // multiples), image corners (windows cross the padded grid's border),
  // a generic pixel and scaled pyramid-level coordinates.
  const int on_edge = static_cast<int>(std::lround(10 * cell));
  scene.add_feature(on_edge, on_edge);
  scene.add_feature(0, 0);
  scene.add_feature(639, 479);
  scene.add_feature(0, 479);
  scene.add_feature(639, 0);
  scene.add_feature(301, 203);
  scene.add_feature(83, 61, 1.2);
  scene.add_feature(250, 190, 1.2 * 1.2 * 1.2);

  const auto add_point = [&](double u, double v) {
    scene.add_point({u, v, 1.0});
  };
  const double below = std::nextafter(radius, 0.0);
  const double above = std::nextafter(radius, 1e9);
  for (std::size_t q = 0; q < scene.features.size(); ++q) {
    const double x0 = scene.features[q].keypoint.x0();
    const double y0 = scene.features[q].keypoint.y0();
    // Exactly +-r from the feature, one ulp inside and outside, and on
    // the window's corners.
    for (const double d : {radius, below, above, radius + 1e-9}) {
      add_point(x0 + d, y0);
      add_point(x0 - d, y0);
      add_point(x0, y0 + d);
      add_point(x0, y0 - d);
      add_point(x0 + d, y0 + d);
      add_point(x0 - d, y0 - d);
    }
  }
  // Points on and around the cell edges crossed by the first window
  // (image coordinate = padded coordinate - margin).
  for (int k = 0; k < 30; ++k) {
    const double edge = k * cell - radius;
    for (const double e :
         {edge, std::nextafter(edge, -1e9), std::nextafter(edge, 1e9)}) {
      add_point(e, on_edge);
      add_point(on_edge, e);
      add_point(e, e);
    }
  }
  // The padded grid's border: the first kept coordinate (-margin), the
  // last one below width/height + margin, and the first one past it.
  for (const double u : {-radius, std::nextafter(640 + radius, 0.0),
                         640 + radius, 0.0, 639.0}) {
    for (const double v : {-radius, std::nextafter(480 + radius, 0.0),
                           480 + radius, 0.0, 479.0})
      add_point(u, v);
  }
  // Plus a random scatter.
  for (int i = 0; i < 400; ++i)
    add_point(static_cast<double>(rng() % 7000) / 10.0 - 30.0,
              static_cast<double>(rng() % 5400) / 10.0 - 30.0);
  return scene;
}

// Train descriptors for the scene's points, and feature descriptors, with
// ties across cells: every third point carries one of two shared
// descriptors, every third feature is one of those two (distance 0 to
// points scattered over many cells), and every third feature after it is
// a one-bit variant of some point's descriptor.
std::vector<Descriptor256> tie_descriptors(std::mt19937_64& rng,
                                           GateScene& scene) {
  const auto pool = random_descriptors(rng, 2);
  auto train = tied_train(rng, scene.positions.size());
  for (std::size_t i = 0; i < train.size(); i += 3) train[i] = pool[i % 2];
  for (std::size_t q = 0; q < scene.features.size(); ++q) {
    Descriptor256& d = scene.features[q].descriptor;
    d = random_descriptor(rng);
    if (q % 3 == 0) d = pool[q % 2];
    if (q % 3 == 1 && !train.empty()) {
      d = train[rng() % train.size()];
      d.set_bit(static_cast<int>(rng() % 256), true);
    }
  }
  return train;
}

std::vector<std::int32_t> list_of(const CandidateSet& set, std::size_t q) {
  std::vector<std::int32_t> list;
  set.expand(q, list);
  return list;
}

// The gate contract: each feature's candidates equal the reference
// builder's list as a set (no index twice), and projected counts agree.
void expect_same_candidate_sets(const GateResult& reference,
                                const GateResult& out,
                                const std::string& where) {
  EXPECT_EQ(reference.projected, out.projected) << where;
  ASSERT_EQ(reference.candidates.num_queries(), out.candidates.num_queries())
      << where;
  for (std::size_t q = 0; q < out.candidates.num_queries(); ++q) {
    std::vector<std::int32_t> sorted = list_of(out.candidates, q);
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
        << where << " feature " << q << ": an index listed twice";
    EXPECT_EQ(sorted, list_of(reference.candidates, q))
        << where << " feature " << q;
  }
}

// Slot descriptors in slot order, padded as best_two_windows reads them.
std::vector<Descriptor256> slot_rows(const CandidateSet& set,
                                     const std::vector<Descriptor256>& train) {
  std::vector<Descriptor256> rows(set.num_slots() + simd::kSlotRowPad);
  for (std::size_t s = 0; s < set.num_slots(); ++s)
    rows[s] = train[static_cast<std::size_t>(set.slot_train[s])];
  return rows;
}

TEST(SimdParity, BuildCandidateSetIntoEqualsReference) {
  std::mt19937_64 rng(8);
  const GateScene scene = random_scene(rng, 24.0, 600, 150);
  const GateResult reference = scene.reference();
  Arena arena;
  GateResult out;
  scene.build_into(arena, out);
  ASSERT_GT(reference.candidates.total_candidates(), 0u);
  EXPECT_EQ(out.candidates.total_candidates(),
            reference.candidates.total_candidates());
  expect_same_candidate_sets(reference, out, "random");

  // Recycled-output reuse: a second build into the same GateResult must
  // not accumulate stale state.
  const GateResult first = out;
  scene.build_into(arena, out);
  EXPECT_EQ(first.candidates.slot_train, out.candidates.slot_train);
  EXPECT_EQ(first.candidates.slot_u, out.candidates.slot_u);
  EXPECT_EQ(first.candidates.slot_v, out.candidates.slot_v);
  EXPECT_EQ(first.candidates.query_u, out.candidates.query_u);
  EXPECT_EQ(first.candidates.query_v, out.candidates.query_v);
  EXPECT_EQ(first.candidates.run_offsets, out.candidates.run_offsets);
  EXPECT_EQ(first.candidates.runs, out.candidates.runs);
}

TEST(SimdParity, BuildCandidateSetIntoEdgePlacements) {
  std::mt19937_64 rng(9);
  for (const double radius : {24.0, 10.0, 5.0, 37.5}) {
    const GateScene scene = edge_scene(rng, radius);
    const GateResult reference = scene.reference();
    Arena arena;
    GateResult out;
    scene.build_into(arena, out);
    const std::string where = "radius=" + std::to_string(radius);
    expect_same_candidate_sets(reference, out, where);

    // The window is closed: on a level-0 feature a point exactly r away
    // (on one axis or both) is a candidate, one just beyond is not.
    for (std::size_t q = 0; q < scene.features.size(); ++q) {
      if (scene.features[q].keypoint.scale != 1.0) continue;
      const double x0 = scene.features[q].keypoint.x0();
      const double y0 = scene.features[q].keypoint.y0();
      const std::vector<std::int32_t> list = list_of(out.candidates, q);
      const auto listed = [&](double u, double v) {
        for (const std::int32_t i : list)
          if (scene.xs[static_cast<std::size_t>(i)] == u &&
              scene.ys[static_cast<std::size_t>(i)] == v)
            return true;
        return false;
      };
      const std::string at = where + " feature " + std::to_string(q);
      EXPECT_TRUE(listed(x0 + radius, y0)) << at;
      EXPECT_TRUE(listed(x0 - radius, y0)) << at;
      EXPECT_TRUE(listed(x0, y0 + radius)) << at;
      EXPECT_TRUE(listed(x0, y0 - radius)) << at;
      EXPECT_TRUE(listed(x0 + radius, y0 + radius)) << at;
      EXPECT_TRUE(listed(x0 - radius, y0 - radius)) << at;
      EXPECT_FALSE(listed(x0 + radius + 1e-9, y0)) << at;
      EXPECT_FALSE(listed(x0, y0 - (radius + 1e-9))) << at;
    }
  }
}

// Scenes for the window scan: dense and sparse random maps at the default
// radius and under the 4 px cell floor, an empty map, and the edge
// placements at four radii.
std::vector<std::pair<std::string, GateScene>> window_scenes(
    std::mt19937_64& rng) {
  std::vector<std::pair<std::string, GateScene>> scenes;
  scenes.emplace_back("dense r=24", random_scene(rng, 24.0, 3000, 200));
  scenes.emplace_back("dense r=5", random_scene(rng, 5.0, 3000, 200));
  scenes.emplace_back("sparse r=24", random_scene(rng, 24.0, 40, 120));
  scenes.emplace_back("empty map", random_scene(rng, 24.0, 0, 20));
  for (const double radius : {24.0, 10.0, 5.0, 37.5})
    scenes.emplace_back("edges r=" + std::to_string(radius),
                        edge_scene(rng, radius));
  return scenes;
}

TEST_P(TierParity, BestTwoWindowsEqualsMatchOneOverReferenceLists) {
  // Per query, the tier's scan of the gate's windows (and of the reference
  // builder's explicit lists) equals match_one_candidates() over the
  // reference list: same winner, distance and runner-up, ties across
  // cells to the lowest train index.
  std::mt19937_64 rng(10);
  for (auto& [where, scene] : window_scenes(rng)) {
    const std::vector<Descriptor256> train = tie_descriptors(rng, scene);
    const GateResult reference = scene.reference();
    Arena arena;
    GateResult out;
    scene.build_into(arena, out);
    const std::size_t nq = scene.features.size();
    int ties = 0;
    for (const GateResult* gate :
         {static_cast<const GateResult*>(&out), &reference}) {
      const CandidateSet& set = gate->candidates;
      const std::vector<Descriptor256> rows = slot_rows(set, train);
      std::vector<Match> got(nq + 1), scalar(nq + 1);
      got[nq].query = scalar[nq].query = 7;  // sentinel
      tier().best_two_windows(set, rows.data(),
                              descriptor_rows(scene.features), got.data());
      simd::best_two_windows_scalar(set, rows.data(),
                                    descriptor_rows(scene.features),
                                    scalar.data());
      for (std::size_t q = 0; q < nq; ++q) {
        const std::vector<std::int32_t> list =
            list_of(reference.candidates, q);
        const Match want =
            match_one_candidates(scene.features[q].descriptor, train, list);
        const std::string at = where + " feature " + std::to_string(q) +
                               (gate == &out ? " (windows)" : " (lists)");
        expect_match_eq(got[q], want, at);
        expect_match_eq(scalar[q], want, at + " scalar");
        ties += want.train >= 0 && want.distance == want.second_best ? 1 : 0;
      }
      // The kernel never writes past the last query.
      EXPECT_EQ(got[nq].query, 7) << where;
      EXPECT_EQ(scalar[nq].query, 7) << where;
    }
    if (where == "dense r=24") {
      EXPECT_GT(ties, 20) << where << ": the scene must tie across cells";
    }
  }
}

TEST(SimdParity, MatchCandidatesIntoOverWindowsEqualsReferenceLists) {
  // The whole gated matcher over the gate's windows against the allocating
  // reference over the reference builder's lists, under every acceptance
  // option: max distance, ratio test and cross-check.
  std::mt19937_64 rng(11);
  for (auto& [where, scene] : window_scenes(rng)) {
    const std::vector<Descriptor256> train = tie_descriptors(rng, scene);
    std::vector<Descriptor256> queries;
    for (const Feature& f : scene.features) queries.push_back(f.descriptor);
    DescriptorSoA soa;
    soa.assign(train);
    const GateResult reference = scene.reference();
    Arena arena;
    GateResult out;
    scene.build_into(arena, out);
    for (const int max_distance : {64, 256}) {
      for (const double ratio : {1.0, 0.8}) {
        for (const bool cross_check : {false, true}) {
          MatcherOptions options;
          options.max_distance = max_distance;
          options.ratio = ratio;
          options.cross_check = cross_check;
          const std::vector<Match> want =
              match_candidates(queries, train, reference.candidates, options);
          std::vector<Match> got;
          match_candidates_into(scene.features, TrainView{train, &soa},
                                out.candidates, options, &arena, got);
          SCOPED_TRACE(where + " max_distance=" +
                       std::to_string(max_distance) +
                       " ratio=" + std::to_string(ratio) +
                       " cross_check=" + std::to_string(cross_check));
          expect_matches_equal(want, got);
        }
      }
    }
  }
}

TEST(SimdParity, DispatchReportsConsistentIsa) {
  using simd::IsaLevel;
  const IsaLevel isa = simd::active_isa();
  EXPECT_TRUE(simd::isa_supported(isa));
  EXPECT_TRUE(simd::isa_supported(IsaLevel::kScalar));
  // Each tier's CPU requirements include the ones of the tier below.
  if (simd::isa_supported(IsaLevel::kAvx512)) {
    EXPECT_TRUE(simd::isa_supported(IsaLevel::kAvx2));
  }
  // Dispatch takes the highest supported tier unless an override pins the
  // scalar one.
  IsaLevel highest = IsaLevel::kScalar;
  for (const IsaLevel level : simd::kIsaLevels)
    if (simd::isa_supported(level)) highest = level;
#if defined(ESLAM_FORCE_SCALAR)
  EXPECT_EQ(isa, IsaLevel::kScalar);
#else
  const char* env = std::getenv("ESLAM_FORCE_SCALAR");
  const bool forced = env != nullptr && env[0] != '\0' &&
                      std::string(env) != "0";
  EXPECT_EQ(isa, forced ? IsaLevel::kScalar : highest);
#endif
  // Distinct names; every supported tier has its kernel table.
  for (const IsaLevel a : simd::kIsaLevels) {
    EXPECT_STRNE(simd::isa_name(a), "?");
    for (const IsaLevel b : simd::kIsaLevels) {
      if (a != b) {
        EXPECT_STRNE(simd::isa_name(a), simd::isa_name(b));
      }
    }
    if (simd::isa_supported(a)) {
      EXPECT_NE(simd::kernels(a).best_two_block, nullptr) << simd::isa_name(a);
    }
  }
}

}  // namespace
}  // namespace eslam
