#include "features/simd_kernels.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstring>

#include "core/hot_align.h"
#include "geometry/assert.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace eslam::simd {

// ---- Scalar reference paths -----------------------------------------------

namespace {

// Selection keys: distance << 32 | train index.  The smaller key is the
// smaller distance, and on equal distances the lower index — exactly the
// winner of match_one()'s ascending scan.  kNoKey stands for match_one()'s
// initial state (distance 256, no index); it ranks after every real key.
constexpr std::uint64_t kNoKey = (std::uint64_t{256} << 32) | 0xFFFFFFFFu;

inline void fold_key(std::uint64_t k, std::uint64_t& best,
                     std::uint64_t& second) {
  if (k < best) {
    second = best;
    best = k;
  } else if (k < second) {
    second = k;
  }
}

// The two smallest keys are the best match and the runner-up; a best
// distance of 256 leaves no match, as in match_one().
inline Match match_from_keys(std::uint64_t best, std::uint64_t second) {
  Match m;
  m.distance = static_cast<int>(best >> 32);
  m.second_best = static_cast<int>(second >> 32);
  if (m.distance < 256) m.train = static_cast<int>(best & 0xFFFFFFFFu);
  return m;
}

// match_one()'s update for the distance of train index j in an ascending
// scan: the first minimum wins, the runner-up is the second smallest.
inline void keep_best_two(int d, int j, Match& m) {
  if (d < m.distance) {
    m.second_best = m.distance;
    m.distance = d;
    m.train = j;
  } else if (d < m.second_best) {
    m.second_best = d;
  }
}

// Pose and intrinsics hoisted into scalars.  project() keeps the exact
// operation order of SE3::operator* (Mat*Vec accumulates from a
// zero-initialised element, then the translation is added last) and of
// PinholeCamera::project; u/v are meaningful only when zc > kMinDepth.
struct Projector {
  double r00, r01, r02, r10, r11, r12, r20, r21, r22;
  double t0, t1, t2, fx, fy, cx, cy;

  Projector(const SE3& pose, const PinholeCamera& camera) {
    const Mat3& r = pose.rotation();
    const Vec3& t = pose.translation();
    r00 = r(0, 0), r01 = r(0, 1), r02 = r(0, 2);
    r10 = r(1, 0), r11 = r(1, 1), r12 = r(1, 2);
    r20 = r(2, 0), r21 = r(2, 1), r22 = r(2, 2);
    t0 = t[0], t1 = t[1], t2 = t[2];
    fx = camera.fx(), fy = camera.fy(), cx = camera.cx(), cy = camera.cy();
  }

  void project(double px, double py, double pz, double& u, double& v,
               double& zc) const {
    const double xc = (((0.0 + r00 * px) + r01 * py) + r02 * pz) + t0;
    const double yc = (((0.0 + r10 * px) + r11 * py) + r12 * pz) + t1;
    zc = (((0.0 + r20 * px) + r21 * py) + r22 * pz) + t2;
    u = fx * xc / zc + cx;
    v = fy * yc / zc + cy;
  }
};

}  // namespace

ESLAM_HOT_ALIGN void best_two_block_scalar(const DescriptorSoA& train,
                                           std::size_t count,
                                           DescriptorRows queries, Match* out) {
  const std::uint64_t* p0 = train.plane(0);
  const std::uint64_t* p1 = train.plane(1);
  const std::uint64_t* p2 = train.plane(2);
  const std::uint64_t* p3 = train.plane(3);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::uint64_t q0 = queries[i].words()[0];
    const std::uint64_t q1 = queries[i].words()[1];
    const std::uint64_t q2 = queries[i].words()[2];
    const std::uint64_t q3 = queries[i].words()[3];
    Match m;
    for (std::size_t j = 0; j < count; ++j) {
      const int d = std::popcount(p0[j] ^ q0) + std::popcount(p1[j] ^ q1) +
                    std::popcount(p2[j] ^ q2) + std::popcount(p3[j] ^ q3);
      keep_best_two(d, static_cast<int>(j), m);
    }
    out[i] = m;
  }
}

ESLAM_HOT_ALIGN void best_two_windows_scalar(const CandidateSet& set,
                                             const Descriptor256* slot_rows,
                                             DescriptorRows queries,
                                             Match* out) {
  for (std::size_t q = 0; q < queries.size(); ++q) {
    std::uint64_t best = kNoKey, second = kNoKey;
    for (const SlotRun& run : set.runs_of(q)) {
      for (std::int32_t j = run.begin; j < run.end; ++j) {
        const auto s = static_cast<std::size_t>(j);
        if (!set.in_window(q, s)) continue;
        const auto d = static_cast<std::uint64_t>(
            hamming_distance(queries[q], slot_rows[s]));
        fold_key((d << 32) | static_cast<std::uint32_t>(set.slot_train[s]),
                 best, second);
      }
    }
    out[q] = match_from_keys(best, second);
  }
}

ESLAM_HOT_ALIGN Match best_two_rows_scalar(const Descriptor256& query,
                                           DescriptorRows rows) {
  Match m;
  for (std::size_t j = 0; j < rows.size(); ++j)
    keep_best_two(hamming_distance(query, rows[j]), static_cast<int>(j), m);
  return m;
}

ESLAM_HOT_ALIGN void project_batch_scalar(
    std::span<const double> xs, std::span<const double> ys,
    std::span<const double> zs, const SE3& pose_cw, const PinholeCamera& camera,
    double margin, double* out_u, double* out_v, std::uint8_t* out_keep) {
  const Projector projector(pose_cw, camera);
  const double u_min = -margin, u_max = camera.width() + margin;
  const double v_min = -margin, v_max = camera.height() + margin;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    double u, v, zc;
    projector.project(xs[i], ys[i], zs[i], u, v, zc);
    const bool keep = zc > PinholeCamera::kMinDepth && u >= u_min &&
                      u < u_max && v >= v_min && v < v_max;
    out_u[i] = u;
    out_v[i] = v;
    out_keep[i] = keep ? 1 : 0;
  }
}

namespace {

// reprojection_inliers() over [begin, columns.size()), writing absolute
// indices.  The residual is squared and summed from zero like
// Vec2::squared_norm, as in reprojection_error_sq().
ESLAM_HOT_ALIGN std::size_t reprojection_inliers_from(
    const ReprojectionColumns& columns, std::size_t begin, const SE3& pose_cw,
    const PinholeCamera& camera, double thresh_sq, int* out_inliers,
    std::size_t to_beat) {
  const Projector projector(pose_cw, camera);
  // reprojection_error_sq() scores a point behind the camera 1e12.
  const bool behind_is_inlier = 1e12 < thresh_sq;
  std::size_t count = 0;
  for (std::size_t i = begin; i < columns.size(); ++i) {
    if (count + (columns.size() - i) <= to_beat) break;
    double u, v, zc;
    projector.project(columns.x[i], columns.y[i], columns.z[i], u, v, zc);
    const double du = u - columns.u[i];
    const double dv = v - columns.v[i];
    const double err_sq = (0.0 + du * du) + dv * dv;
    const bool inlier =
        (zc > PinholeCamera::kMinDepth && err_sq < thresh_sq) ||
        (behind_is_inlier && zc <= PinholeCamera::kMinDepth);
    out_inliers[count] = static_cast<int>(i);
    count += inlier ? 1 : 0;
  }
  return count;
}

}  // namespace

ESLAM_HOT_ALIGN std::size_t reprojection_inliers_scalar(
    const ReprojectionColumns& columns, const SE3& pose_cw,
    const PinholeCamera& camera, double thresh_sq, int* out_inliers,
    std::size_t to_beat) {
  return reprojection_inliers_from(columns, 0, pose_cw, camera, thresh_sq,
                                   out_inliers, to_beat);
}

// The normal-equation kernels run without FP contraction: under a target
// with FMA (AVX-512F implies it, and so does -march=native), GCC would
// otherwise fuse a multiply and an add into one rounding.
#if defined(__clang__)
#pragma clang fp contract(off)
#elif defined(__GNUC__)
#pragma GCC push_options
#pragma GCC optimize("fp-contract=off")
#endif

namespace {

// normal_equations() over [begin, columns.size()), continuing the sums in
// `ne`.  Each sum adds the points in order; the sums are local while the
// loop runs, so nothing aliases them and they stay in registers.
ESLAM_HOT_ALIGN void normal_equations_from(const ReprojectionColumns& columns,
                                           std::size_t begin,
                                           const SE3& pose_cw,
                                           const PinholeCamera& camera,
                                           double huber_delta,
                                           NormalEquations& ne) {
  const Projector k(pose_cw, camera);
  double h[21], b[6];
  for (int s = 0; s < 21; ++s) h[s] = ne.h[s];
  for (int s = 0; s < 6; ++s) b[s] = ne.b[s];
  double cost = ne.cost;
  int used = ne.used;
  for (std::size_t i = begin; i < columns.size(); ++i) {
    const double wx = columns.x[i], wy = columns.y[i], wz = columns.z[i];
    // SE3::operator*: Mat*Vec accumulates from zero, then adds t.
    const double x = (((0.0 + k.r00 * wx) + k.r01 * wy) + k.r02 * wz) + k.t0;
    const double y = (((0.0 + k.r10 * wx) + k.r11 * wy) + k.r12 * wz) + k.t1;
    const double z = (((0.0 + k.r20 * wx) + k.r21 * wy) + k.r22 * wz) + k.t2;
    if (z <= PinholeCamera::kMinDepth) continue;  // behind the camera
    ++used;

    const double inv_z = 1.0 / z;
    const double r0 = (k.fx * x * inv_z + k.cx) - columns.u[i];
    const double r1 = (k.fy * y * inv_z + k.cy) - columns.v[i];

    // Rows of j_proj * [I | -hat(p)], the residual's Jacobian wrt a left
    // pose perturbation; j01 and j10 are structurally zero.
    const double j00 = k.fx * inv_z;
    const double j02 = -k.fx * x * inv_z * inv_z;
    const double j03 = j02 * y;
    const double j04 = j00 * z + j02 * -x;
    const double j05 = j00 * -y;
    const double j11 = k.fy * inv_z;
    const double j12 = -k.fy * y * inv_z * inv_z;
    const double j13 = j11 * -z + j12 * y;
    const double j14 = j12 * -x;
    const double j15 = j11 * x;

    const double err_sq = r0 * r0 + r1 * r1;
    double w = 1.0;
    if (huber_delta > 0.0) {
      const double err = std::sqrt(err_sq);
      if (err > huber_delta) w = huber_delta / err;
      cost += w * err_sq * (2.0 - w);  // Huber rho
    } else {
      cost += err_sq;
    }

    h[0] += w * (j00 * j00);
    h[2] += w * (j00 * j02);
    h[3] += w * (j00 * j03);
    h[4] += w * (j00 * j04);
    h[5] += w * (j00 * j05);
    h[6] += w * (j11 * j11);
    h[7] += w * (j11 * j12);
    h[8] += w * (j11 * j13);
    h[9] += w * (j11 * j14);
    h[10] += w * (j11 * j15);
    h[11] += w * (j02 * j02 + j12 * j12);
    h[12] += w * (j02 * j03 + j12 * j13);
    h[13] += w * (j02 * j04 + j12 * j14);
    h[14] += w * (j02 * j05 + j12 * j15);
    h[15] += w * (j03 * j03 + j13 * j13);
    h[16] += w * (j03 * j04 + j13 * j14);
    h[17] += w * (j03 * j05 + j13 * j15);
    h[18] += w * (j04 * j04 + j14 * j14);
    h[19] += w * (j04 * j05 + j14 * j15);
    h[20] += w * (j05 * j05 + j15 * j15);
    b[0] += w * (j00 * r0);
    b[1] += w * (j11 * r1);
    b[2] += w * (j02 * r0 + j12 * r1);
    b[3] += w * (j03 * r0 + j13 * r1);
    b[4] += w * (j04 * r0 + j14 * r1);
    b[5] += w * (j05 * r0 + j15 * r1);
  }
  for (int s = 0; s < 21; ++s) ne.h[s] = h[s];
  for (int s = 0; s < 6; ++s) ne.b[s] = b[s];
  ne.cost = cost;
  ne.used = used;
}

}  // namespace

ESLAM_HOT_ALIGN NormalEquations normal_equations_scalar(
    const ReprojectionColumns& columns, const SE3& pose_cw,
    const PinholeCamera& camera, double huber_delta) {
  NormalEquations ne;
  normal_equations_from(columns, 0, pose_cw, camera, huber_delta, ne);
  return ne;
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC pop_options
#endif

// ---- AVX2 (+ POPCNT) --------------------------------------------------------

#if defined(__x86_64__) || defined(__i386__)
namespace {

// Nibble-LUT per-byte popcount of 256 bits (Mula's algorithm): two pshufb
// lookups, one per nibble.
__attribute__((target("avx2"))) inline __m256i popcount_bytes(__m256i v) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1,
                       2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                         _mm256_shuffle_epi8(lut, hi));
}

// Distances of one query (words broadcast in q[0..3]) to the four train
// descriptors whose plane words are w[0..3], one per 64-bit lane.  The
// four planes' byte counts are summed before the reduction (at most
// 4 * 8 = 32 per byte), so a single psadbw yields each lane's distance.
__attribute__((target("avx2"))) inline __m256i distance4(const __m256i* w,
                                                         const __m256i* q) {
  __m256i c = popcount_bytes(_mm256_xor_si256(w[0], q[0]));
  c = _mm256_add_epi8(c, popcount_bytes(_mm256_xor_si256(w[1], q[1])));
  c = _mm256_add_epi8(c, popcount_bytes(_mm256_xor_si256(w[2], q[2])));
  c = _mm256_add_epi8(c, popcount_bytes(_mm256_xor_si256(w[3], q[3])));
  return _mm256_sad_epu8(c, _mm256_setzero_si256());
}

// Lane-wise fold of keys k into (best, second): best keeps the smaller
// key, second the smaller of itself and the key that lost.  Keys stay
// below 2^41, so the signed 64-bit compare orders them correctly.
__attribute__((target("avx2"))) inline void fold_keys(__m256i k,
                                                      __m256i& best,
                                                      __m256i& second) {
  const __m256i k_wins = _mm256_cmpgt_epi64(best, k);
  const __m256i loser = _mm256_blendv_epi8(k, best, k_wins);
  best = _mm256_blendv_epi8(best, k, k_wins);
  second = _mm256_blendv_epi8(second, loser,
                              _mm256_cmpgt_epi64(second, loser));
}

// Folds another lane set's (best, second) keys into (best, second): its
// best as a key, then its runner-up against the runner-up.
__attribute__((target("avx2"))) inline void merge_keys(__m256i other_best,
                                                       __m256i other_second,
                                                       __m256i& best,
                                                       __m256i& second) {
  fold_keys(other_best, best, second);
  second = _mm256_blendv_epi8(second, other_second,
                              _mm256_cmpgt_epi64(second, other_second));
}

// The two smallest of the four lanes' keys: after merging with the swapped
// halves and then the swapped pairs, every lane holds them.
__attribute__((target("avx2"))) inline void merge_lanes4(
    __m256i best, __m256i second, std::uint64_t& best_key,
    std::uint64_t& second_key) {
  merge_keys(_mm256_permute4x64_epi64(best, 0x4E),
             _mm256_permute4x64_epi64(second, 0x4E), best, second);
  merge_keys(_mm256_permute4x64_epi64(best, 0xB1),
             _mm256_permute4x64_epi64(second, 0xB1), best, second);
  best_key = static_cast<std::uint64_t>(_mm256_extract_epi64(best, 0));
  second_key = static_cast<std::uint64_t>(_mm256_extract_epi64(second, 0));
}

__attribute__((target("avx2,popcnt"))) inline int popcnt_distance(
    const Descriptor256& a, const Descriptor256& b) {
  return __builtin_popcountll(a.words()[0] ^ b.words()[0]) +
         __builtin_popcountll(a.words()[1] ^ b.words()[1]) +
         __builtin_popcountll(a.words()[2] ^ b.words()[2]) +
         __builtin_popcountll(a.words()[3] ^ b.words()[3]);
}

// Fused brute force for Q queries at once: each iteration loads four train
// descriptors (one 256-bit load per word plane) and folds their keys into
// every query's per-lane best/second registers.  The four lanes are merged
// once at the end, then the count % 4 tail is folded in scalar.
template <int Q>
ESLAM_HOT_ALIGN __attribute__((target("avx2,popcnt"))) void
best_two_block_avx2_q(const DescriptorSoA& train, std::size_t count,
                      DescriptorRows queries, std::size_t first, Match* out) {
  const std::uint64_t* plane[4] = {train.plane(0), train.plane(1),
                                   train.plane(2), train.plane(3)};
  const Descriptor256* q[Q];
  __m256i qw[Q][4];
  __m256i best[Q], second[Q];
  for (int k = 0; k < Q; ++k) {
    q[k] = &queries[first + static_cast<std::size_t>(k)];
    for (int w = 0; w < 4; ++w)
      qw[k][w] =
          _mm256_set1_epi64x(static_cast<long long>(q[k]->words()[w]));
    best[k] = _mm256_set1_epi64x(static_cast<long long>(kNoKey));
    second[k] = best[k];
  }
  __m256i index = _mm256_setr_epi64x(0, 1, 2, 3);
  const __m256i step = _mm256_set1_epi64x(4);
  std::size_t j = 0;
  for (; j + 4 <= count; j += 4) {
    __m256i w[4];
    for (int p = 0; p < 4; ++p)
      w[p] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(plane[p] + j));
    for (int k = 0; k < Q; ++k)
      fold_keys(_mm256_or_si256(_mm256_slli_epi64(distance4(w, qw[k]), 32),
                                index),
                best[k], second[k]);
    index = _mm256_add_epi64(index, step);
  }
  for (int k = 0; k < Q; ++k) {
    std::uint64_t b, s;
    merge_lanes4(best[k], second[k], b, s);
    const std::uint64_t* qd = q[k]->words().data();
    for (std::size_t t = j; t < count; ++t) {
      const std::uint64_t d = static_cast<std::uint64_t>(
          __builtin_popcountll(plane[0][t] ^ qd[0]) +
          __builtin_popcountll(plane[1][t] ^ qd[1]) +
          __builtin_popcountll(plane[2][t] ^ qd[2]) +
          __builtin_popcountll(plane[3][t] ^ qd[3]));
      fold_key((d << 32) | t, b, s);
    }
    out[first + static_cast<std::size_t>(k)] = match_from_keys(b, s);
  }
}

ESLAM_HOT_ALIGN __attribute__((target("avx2,popcnt"))) void best_two_block_avx2(
    const DescriptorSoA& train, std::size_t count, DescriptorRows queries,
    Match* out) {
  std::size_t i = 0;
  for (; i + 2 <= queries.size(); i += 2)
    best_two_block_avx2_q<2>(train, count, queries, i, out);
  if (i < queries.size())
    best_two_block_avx2_q<1>(train, count, queries, i, out);
}

// Gated tier, four slots per step: the four rows are transposed into word
// planes for distance4(), and a lane's key enters the fold only when its
// slot is inside the run and the window (masked loads read nothing past
// the run's end).
ESLAM_HOT_ALIGN __attribute__((target("avx2,popcnt"))) void
best_two_windows_avx2(const CandidateSet& set, const Descriptor256* slot_rows,
                      DescriptorRows queries, Match* out) {
  const __m256d radius = _mm256_set1_pd(set.radius);
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7FFFFFFFFFFFFFFF));
  const __m256i no_key = _mm256_set1_epi64x(static_cast<long long>(kNoKey));
  const __m256i lane64 = _mm256_setr_epi64x(0, 1, 2, 3);
  const __m128i lane32 = _mm_setr_epi32(0, 1, 2, 3);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    __m256i qw[4];
    for (int w = 0; w < 4; ++w)
      qw[w] = _mm256_set1_epi64x(static_cast<long long>(queries[q].words()[w]));
    const __m256d qu = _mm256_set1_pd(set.query_u[q]);
    const __m256d qv = _mm256_set1_pd(set.query_v[q]);
    __m256i best = no_key, second = no_key;
    for (const SlotRun& run : set.runs_of(q)) {
      for (std::int32_t j = run.begin; j < run.end; j += 4) {
        const auto s = static_cast<std::size_t>(j);
        const int left = run.end - j;
        const __m256i valid =
            _mm256_cmpgt_epi64(_mm256_set1_epi64x(left), lane64);
        const __m128i valid32 = _mm_cmpgt_epi32(_mm_set1_epi32(left), lane32);
        const auto* rows = reinterpret_cast<const __m256i*>(slot_rows + s);
        const __m256i r0 = _mm256_loadu_si256(rows + 0);
        const __m256i r1 = _mm256_loadu_si256(rows + 1);
        const __m256i r2 = _mm256_loadu_si256(rows + 2);
        const __m256i r3 = _mm256_loadu_si256(rows + 3);
        const __m256i lo01 = _mm256_unpacklo_epi64(r0, r1);
        const __m256i hi01 = _mm256_unpackhi_epi64(r0, r1);
        const __m256i lo23 = _mm256_unpacklo_epi64(r2, r3);
        const __m256i hi23 = _mm256_unpackhi_epi64(r2, r3);
        const __m256i w[4] = {_mm256_permute2x128_si256(lo01, lo23, 0x20),
                              _mm256_permute2x128_si256(hi01, hi23, 0x20),
                              _mm256_permute2x128_si256(lo01, lo23, 0x31),
                              _mm256_permute2x128_si256(hi01, hi23, 0x31)};
        const __m256d u = _mm256_maskload_pd(set.slot_u.data() + s, valid);
        const __m256d v = _mm256_maskload_pd(set.slot_v.data() + s, valid);
        const __m256d in_u = _mm256_cmp_pd(
            _mm256_and_pd(_mm256_sub_pd(u, qu), abs_mask), radius, _CMP_LE_OQ);
        const __m256d in_v = _mm256_cmp_pd(
            _mm256_and_pd(_mm256_sub_pd(v, qv), abs_mask), radius, _CMP_LE_OQ);
        const __m256i in = _mm256_and_si256(
            valid, _mm256_castpd_si256(_mm256_and_pd(in_u, in_v)));
        const __m256i train = _mm256_cvtepu32_epi64(
            _mm_maskload_epi32(set.slot_train.data() + s, valid32));
        const __m256i key = _mm256_or_si256(
            _mm256_slli_epi64(distance4(w, qw), 32), train);
        fold_keys(_mm256_blendv_epi8(no_key, key, in), best, second);
      }
    }
    std::uint64_t best_key, second_key;
    merge_lanes4(best, second, best_key, second_key);
    out[q] = match_from_keys(best_key, second_key);
  }
}

ESLAM_HOT_ALIGN __attribute__((target("avx2,popcnt"))) Match best_two_rows_avx2(
    const Descriptor256& query, DescriptorRows rows) {
  Match m;
  for (std::size_t j = 0; j < rows.size(); ++j)
    keep_best_two(popcnt_distance(query, rows[j]), static_cast<int>(j), m);
  return m;
}

// Projector's pose and intrinsics broadcast to four lanes; project() runs
// its operations per lane in the same association, with no FMA anywhere
// (bit-parity with scalar).
struct LaneProjector {
  __m256d r00, r01, r02, r10, r11, r12, r20, r21, r22;
  __m256d t0, t1, t2, fx, fy, cx, cy;

  __attribute__((target("avx2"))) LaneProjector(const SE3& pose,
                                                const PinholeCamera& camera) {
    const Mat3& r = pose.rotation();
    const Vec3& t = pose.translation();
    r00 = _mm256_set1_pd(r(0, 0)), r01 = _mm256_set1_pd(r(0, 1));
    r02 = _mm256_set1_pd(r(0, 2)), r10 = _mm256_set1_pd(r(1, 0));
    r11 = _mm256_set1_pd(r(1, 1)), r12 = _mm256_set1_pd(r(1, 2));
    r20 = _mm256_set1_pd(r(2, 0)), r21 = _mm256_set1_pd(r(2, 1));
    r22 = _mm256_set1_pd(r(2, 2));
    t0 = _mm256_set1_pd(t[0]), t1 = _mm256_set1_pd(t[1]);
    t2 = _mm256_set1_pd(t[2]);
    fx = _mm256_set1_pd(camera.fx()), fy = _mm256_set1_pd(camera.fy());
    cx = _mm256_set1_pd(camera.cx()), cy = _mm256_set1_pd(camera.cy());
  }

  // Projects the four points at xs[0..3], ys[0..3], zs[0..3].
  __attribute__((target("avx2"))) void project(const double* xs,
                                               const double* ys,
                                               const double* zs, __m256d& u,
                                               __m256d& v,
                                               __m256d& zc) const {
    const __m256d zero = _mm256_setzero_pd();
    const __m256d px = _mm256_loadu_pd(xs);
    const __m256d py = _mm256_loadu_pd(ys);
    const __m256d pz = _mm256_loadu_pd(zs);
    __m256d xc = _mm256_add_pd(zero, _mm256_mul_pd(r00, px));
    xc = _mm256_add_pd(xc, _mm256_mul_pd(r01, py));
    xc = _mm256_add_pd(xc, _mm256_mul_pd(r02, pz));
    xc = _mm256_add_pd(xc, t0);
    __m256d yc = _mm256_add_pd(zero, _mm256_mul_pd(r10, px));
    yc = _mm256_add_pd(yc, _mm256_mul_pd(r11, py));
    yc = _mm256_add_pd(yc, _mm256_mul_pd(r12, pz));
    yc = _mm256_add_pd(yc, t1);
    zc = _mm256_add_pd(zero, _mm256_mul_pd(r20, px));
    zc = _mm256_add_pd(zc, _mm256_mul_pd(r21, py));
    zc = _mm256_add_pd(zc, _mm256_mul_pd(r22, pz));
    zc = _mm256_add_pd(zc, t2);
    u = _mm256_add_pd(_mm256_div_pd(_mm256_mul_pd(fx, xc), zc), cx);
    v = _mm256_add_pd(_mm256_div_pd(_mm256_mul_pd(fy, yc), zc), cy);
  }
};

ESLAM_HOT_ALIGN __attribute__((target("avx2"))) void project_batch_avx2(
    std::span<const double> xs, std::span<const double> ys,
    std::span<const double> zs, const SE3& pose_cw, const PinholeCamera& camera,
    double margin, double* out_u, double* out_v, std::uint8_t* out_keep) {
  const LaneProjector projector(pose_cw, camera);
  const __m256d min_depth = _mm256_set1_pd(PinholeCamera::kMinDepth);
  const __m256d u_min = _mm256_set1_pd(-margin);
  const __m256d u_max = _mm256_set1_pd(camera.width() + margin);
  const __m256d v_min = _mm256_set1_pd(-margin);
  const __m256d v_max = _mm256_set1_pd(camera.height() + margin);
  const std::size_t n = xs.size();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d u, v, zc;
    projector.project(xs.data() + i, ys.data() + i, zs.data() + i, u, v, zc);
    // Ordered comparisons: any NaN lane fails every test, like the scalar
    // &&-chain.
    __m256d keep = _mm256_cmp_pd(zc, min_depth, _CMP_GT_OQ);
    keep = _mm256_and_pd(keep, _mm256_cmp_pd(u, u_min, _CMP_GE_OQ));
    keep = _mm256_and_pd(keep, _mm256_cmp_pd(u, u_max, _CMP_LT_OQ));
    keep = _mm256_and_pd(keep, _mm256_cmp_pd(v, v_min, _CMP_GE_OQ));
    keep = _mm256_and_pd(keep, _mm256_cmp_pd(v, v_max, _CMP_LT_OQ));
    _mm256_storeu_pd(out_u + i, u);
    _mm256_storeu_pd(out_v + i, v);
    const int mask = _mm256_movemask_pd(keep);
    out_keep[i + 0] = static_cast<std::uint8_t>(mask & 1);
    out_keep[i + 1] = static_cast<std::uint8_t>((mask >> 1) & 1);
    out_keep[i + 2] = static_cast<std::uint8_t>((mask >> 2) & 1);
    out_keep[i + 3] = static_cast<std::uint8_t>((mask >> 3) & 1);
  }
  if (i < n)
    project_batch_scalar(xs.subspan(i), ys.subspan(i), zs.subspan(i), pose_cw,
                         camera, margin, out_u + i, out_v + i, out_keep + i);
}

// Four correspondences per step; the residual is squared and summed from
// zero like Vec2::squared_norm.
ESLAM_HOT_ALIGN __attribute__((target("avx2"))) std::size_t
reprojection_inliers_avx2(const ReprojectionColumns& columns,
                          const SE3& pose_cw, const PinholeCamera& camera,
                          double thresh_sq, int* out_inliers,
                          std::size_t to_beat) {
  const LaneProjector projector(pose_cw, camera);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d min_depth = _mm256_set1_pd(PinholeCamera::kMinDepth);
  const __m256d thresh = _mm256_set1_pd(thresh_sq);
  const bool behind_is_inlier = 1e12 < thresh_sq;
  const std::size_t n = columns.size();
  std::size_t i = 0, count = 0;
  for (; i + 4 <= n; i += 4) {
    if (count + (n - i) <= to_beat) return count;
    __m256d u, v, zc;
    projector.project(columns.x.data() + i, columns.y.data() + i,
                      columns.z.data() + i, u, v, zc);
    const __m256d du = _mm256_sub_pd(u, _mm256_loadu_pd(columns.u.data() + i));
    const __m256d dv = _mm256_sub_pd(v, _mm256_loadu_pd(columns.v.data() + i));
    const __m256d err_sq = _mm256_add_pd(
        _mm256_add_pd(zero, _mm256_mul_pd(du, du)), _mm256_mul_pd(dv, dv));
    // Ordered comparisons: a NaN lane is neither in front nor behind, and
    // its NaN residual fails the threshold — an outlier, as in scalar.
    __m256d inlier =
        _mm256_and_pd(_mm256_cmp_pd(zc, min_depth, _CMP_GT_OQ),
                      _mm256_cmp_pd(err_sq, thresh, _CMP_LT_OQ));
    if (behind_is_inlier)
      inlier = _mm256_or_pd(inlier, _mm256_cmp_pd(zc, min_depth, _CMP_LE_OQ));
    const int mask = _mm256_movemask_pd(inlier);
    for (int k = 0; k < 4; ++k) {
      out_inliers[count] = static_cast<int>(i) + k;
      count += static_cast<std::size_t>((mask >> k) & 1);
    }
  }
  return count + reprojection_inliers_from(
                     columns, i, pose_cw, camera, thresh_sq,
                     out_inliers + count, to_beat > count ? to_beat - count : 0);
}

// ---- AVX-512 (+ VPOPCNTDQ) ---------------------------------------------------

// vpopcntq on AVX-512F registers (AVX-512F implies AVX2); neither VL nor
// BW is needed.
#define ESLAM_TARGET_AVX512 \
  __attribute__((target("avx512f,avx512vpopcntdq")))

// GCC 12's AVX-512 intrinsics initialise their "undefined" vectors from
// themselves, which -Wuninitialized reports at every inlined use.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

// fold_keys over eight lanes: best keeps the smaller key, second the
// smaller of itself and the larger of (best, k) — the key that lost.
// Keys are compared unsigned; they stay below 2^41 either way.
ESLAM_TARGET_AVX512 inline void fold_keys8(__m512i k, __m512i& best,
                                           __m512i& second) {
  second = _mm512_min_epu64(second, _mm512_max_epu64(best, k));
  best = _mm512_min_epu64(best, k);
}

// Keys of eight distances at train indices `index`.  Lanes outside
// `valid` (past the end of the set) get kNoKey, which displaces nothing.
ESLAM_TARGET_AVX512 inline __m512i keys8(__m512i distance, __m512i index,
                                         __mmask8 valid) {
  return _mm512_mask_or_epi64(
      _mm512_set1_epi64(static_cast<long long>(kNoKey)), valid,
      _mm512_slli_epi64(distance, 32), index);
}

// merge_keys over eight lanes.
ESLAM_TARGET_AVX512 inline void merge_keys8(__m512i other_best,
                                            __m512i other_second,
                                            __m512i& best, __m512i& second) {
  fold_keys8(other_best, best, second);
  second = _mm512_min_epu64(second, other_second);
}

// A query's result from its eight lanes' keys: after merging with the
// swapped halves, blocks and pairs, every lane holds the two smallest.
ESLAM_TARGET_AVX512 inline Match match_from_lanes8(__m512i best,
                                                   __m512i second) {
  merge_keys8(_mm512_shuffle_i64x2(best, best, 0x4E),
              _mm512_shuffle_i64x2(second, second, 0x4E), best, second);
  merge_keys8(_mm512_shuffle_i64x2(best, best, 0xB1),
              _mm512_shuffle_i64x2(second, second, 0xB1), best, second);
  merge_keys8(_mm512_permutex_epi64(best, 0xB1),
              _mm512_permutex_epi64(second, 0xB1), best, second);
  return match_from_keys(
      static_cast<std::uint64_t>(
          _mm_cvtsi128_si64(_mm512_castsi512_si128(best))),
      static_cast<std::uint64_t>(
          _mm_cvtsi128_si64(_mm512_castsi512_si128(second))));
}

// The first `n` (at most 8) lanes.
inline __mmask8 first_lanes(std::size_t n) {
  return static_cast<__mmask8>((1u << std::min<std::size_t>(n, 8)) - 1);
}

// One brute-force step for Q queries: the eight train descriptors from j
// (those in `valid`; the masked load reads nothing past the end), one
// 512-bit load per word plane and one vpopcntq per plane and query.
template <int Q>
ESLAM_TARGET_AVX512 inline void fold_block8(
    const std::uint64_t* const* plane, std::size_t j, __mmask8 valid,
    __m512i index, const __m512i (*qw)[4], __m512i* best, __m512i* second) {
  __m512i w[4];
  for (int p = 0; p < 4; ++p)
    w[p] = _mm512_maskz_loadu_epi64(valid, plane[p] + j);
  for (int k = 0; k < Q; ++k) {
    __m512i d = _mm512_popcnt_epi64(_mm512_xor_si512(w[0], qw[k][0]));
    for (int p = 1; p < 4; ++p)
      d = _mm512_add_epi64(
          d, _mm512_popcnt_epi64(_mm512_xor_si512(w[p], qw[k][p])));
    fold_keys8(keys8(d, index, valid), best[k], second[k]);
  }
}

// Fused brute force for Q queries at once; the count % 8 tail is one
// masked step, and the eight lanes merge once per query at the end.
template <int Q>
ESLAM_HOT_ALIGN ESLAM_TARGET_AVX512 void best_two_block_avx512_q(
    const DescriptorSoA& train, std::size_t count, DescriptorRows queries,
    std::size_t first, Match* out) {
  const std::uint64_t* plane[4] = {train.plane(0), train.plane(1),
                                   train.plane(2), train.plane(3)};
  __m512i qw[Q][4];
  __m512i best[Q], second[Q];
  for (int k = 0; k < Q; ++k) {
    const Descriptor256& q = queries[first + static_cast<std::size_t>(k)];
    for (int w = 0; w < 4; ++w)
      qw[k][w] = _mm512_set1_epi64(static_cast<long long>(q.words()[w]));
    best[k] = _mm512_set1_epi64(static_cast<long long>(kNoKey));
    second[k] = best[k];
  }
  __m512i index = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7);
  const __m512i step = _mm512_set1_epi64(8);
  std::size_t j = 0;
  for (; j + 8 <= count; j += 8) {
    fold_block8<Q>(plane, j, 0xFF, index, qw, best, second);
    index = _mm512_add_epi64(index, step);
  }
  if (j < count)
    fold_block8<Q>(plane, j, first_lanes(count - j), index, qw, best, second);
  for (int k = 0; k < Q; ++k)
    out[first + static_cast<std::size_t>(k)] =
        match_from_lanes8(best[k], second[k]);
}

ESLAM_HOT_ALIGN ESLAM_TARGET_AVX512 void best_two_block_avx512(
    const DescriptorSoA& train, std::size_t count, DescriptorRows queries,
    Match* out) {
  std::size_t i = 0;
  for (; i + 4 <= queries.size(); i += 4)
    best_two_block_avx512_q<4>(train, count, queries, i, out);
  for (; i < queries.size(); ++i)
    best_two_block_avx512_q<1>(train, count, queries, i, out);
}

// The query's four words in both 256-bit halves.
ESLAM_TARGET_AVX512 inline __m512i broadcast_rows(const Descriptor256& query) {
  return _mm512_broadcast_i64x4(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(&query)));
}

// Per-word popcounts of rows lo (lanes 0-3) and hi (lanes 4-7) against q.
ESLAM_TARGET_AVX512 inline __m512i count_row_pair(const Descriptor256* lo,
                                                  const Descriptor256* hi,
                                                  __m512i q) {
  const __m512i rows = _mm512_inserti64x4(
      _mm512_castsi256_si512(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lo))),
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(hi)), 1);
  return _mm512_popcnt_epi64(_mm512_xor_si512(rows, q));
}

// Row sums of four registers of per-word popcounts, two rows each (one
// per 256-bit half): with a = (R0 | R1), b = (R2 | R3), c = (R4 | R5) and
// d = (R6 | R7), the lanes hold the sums of rows R0, R2, R1, R3, R4, R6,
// R5, R7 in that order.  An unpack-add leaves each row's two half sums in
// the same lane of two 128-bit blocks, and one 128-bit shuffle pair plus
// an add completes every sum.
ESLAM_TARGET_AVX512 inline __m512i sum_row_pairs(__m512i a, __m512i b,
                                                 __m512i c, __m512i d) {
  // Blocks of ab: [0+1 of R0, R2] [2+3 of R0, R2] [0+1 of R1, R3]
  // [2+3 of R1, R3] (words summed); cd likewise for R4-R7.
  const __m512i ab = _mm512_add_epi64(_mm512_unpacklo_epi64(a, b),
                                      _mm512_unpackhi_epi64(a, b));
  const __m512i cd = _mm512_add_epi64(_mm512_unpacklo_epi64(c, d),
                                      _mm512_unpackhi_epi64(c, d));
  return _mm512_add_epi64(_mm512_shuffle_i64x2(ab, cd, 0x88),
                          _mm512_shuffle_i64x2(ab, cd, 0xDD));
}

// Distances of the query (q, from broadcast_rows) to rows r[0..7], one
// per 64-bit lane in row order: registers pair rows (0,2), (1,3), (4,6)
// and (5,7), which sum_row_pairs returns in row order.
ESLAM_TARGET_AVX512 inline __m512i distance_rows8(const Descriptor256* const* r,
                                                  __m512i q) {
  return sum_row_pairs(
      count_row_pair(r[0], r[2], q), count_row_pair(r[1], r[3], q),
      count_row_pair(r[4], r[6], q), count_row_pair(r[5], r[7], q));
}

// Fills r[0..7] with rows(j + k) for k < n - j and the query for the lanes
// past the end, which then count distance 0 and are never used.  Returns
// the valid lanes.
template <typename Row>
inline __mmask8 rows8(std::size_t j, std::size_t n, const Descriptor256& query,
                      Row row, const Descriptor256** r) {
  for (std::size_t k = 0; k < 8; ++k) r[k] = j + k < n ? &row(j + k) : &query;
  return first_lanes(n - j);
}

// Per-word popcounts of the contiguous rows r[0] (lanes 0-3) and r[1]
// (lanes 4-7) against q.
ESLAM_TARGET_AVX512 inline __m512i count_slot_pair(const Descriptor256* r,
                                                   __m512i q) {
  return _mm512_popcnt_epi64(_mm512_xor_si512(_mm512_loadu_si512(r), q));
}

// Distances of the query (q, from broadcast_rows) to the eight contiguous
// rows r[0..7], one per lane in row order.  Each load holds two adjacent
// rows, so sum_row_pairs returns rows 0, 2, 1, 3, 4, 6, 5, 7, and one
// permute puts them back in order.
ESLAM_TARGET_AVX512 inline __m512i distance_slots8(const Descriptor256* r,
                                                   __m512i q) {
  const __m512i sums =
      sum_row_pairs(count_slot_pair(r, q), count_slot_pair(r + 2, q),
                    count_slot_pair(r + 4, q), count_slot_pair(r + 6, q));
  return _mm512_permutexvar_epi64(_mm512_setr_epi64(0, 2, 1, 3, 4, 6, 5, 7),
                                  sums);
}

// Gated tier, eight slots per step: a lane's key enters the fold only when
// its slot is inside the run and the window (masked loads read nothing
// past the run's end).
ESLAM_HOT_ALIGN ESLAM_TARGET_AVX512 void best_two_windows_avx512(
    const CandidateSet& set, const Descriptor256* slot_rows,
    DescriptorRows queries, Match* out) {
  const __m512d radius = _mm512_set1_pd(set.radius);
  const __m512i no_key = _mm512_set1_epi64(static_cast<long long>(kNoKey));
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const __m512i query = broadcast_rows(queries[q]);
    const __m512d qu = _mm512_set1_pd(set.query_u[q]);
    const __m512d qv = _mm512_set1_pd(set.query_v[q]);
    __m512i best = no_key, second = no_key;
    for (const SlotRun& run : set.runs_of(q)) {
      for (std::int32_t j = run.begin; j < run.end; j += 8) {
        const auto s = static_cast<std::size_t>(j);
        const __mmask8 valid =
            first_lanes(static_cast<std::size_t>(run.end - j));
        const __m512d u = _mm512_maskz_loadu_pd(valid, set.slot_u.data() + s);
        const __m512d v = _mm512_maskz_loadu_pd(valid, set.slot_v.data() + s);
        __mmask8 in = _mm512_mask_cmp_pd_mask(
            valid, _mm512_abs_pd(_mm512_sub_pd(u, qu)), radius, _CMP_LE_OQ);
        in = _mm512_mask_cmp_pd_mask(in, _mm512_abs_pd(_mm512_sub_pd(v, qv)),
                                     radius, _CMP_LE_OQ);
        const __m512i train = _mm512_cvtepu32_epi64(_mm512_castsi512_si256(
            _mm512_maskz_loadu_epi32(valid, set.slot_train.data() + s)));
        const __m512i distance = distance_slots8(slot_rows + s, query);
        fold_keys8(_mm512_mask_or_epi64(no_key, in,
                                        _mm512_slli_epi64(distance, 32), train),
                   best, second);
      }
    }
    out[q] = match_from_lanes8(best, second);
  }
}

ESLAM_HOT_ALIGN ESLAM_TARGET_AVX512 Match best_two_rows_avx512(
    const Descriptor256& query, DescriptorRows rows) {
  const __m512i q = broadcast_rows(query);
  __m512i best = _mm512_set1_epi64(static_cast<long long>(kNoKey));
  __m512i second = best;
  __m512i index = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7);
  const __m512i step = _mm512_set1_epi64(8);
  const auto row = [&](std::size_t j) -> const Descriptor256& {
    return rows[j];
  };
  const std::size_t n = rows.size();
  for (std::size_t j = 0; j < n; j += 8) {
    const Descriptor256* r[8];
    const __mmask8 valid = rows8(j, n, query, row, r);
    fold_keys8(keys8(distance_rows8(r, q), index, valid), best, second);
    index = _mm512_add_epi64(index, step);
  }
  return match_from_lanes8(best, second);
}

// ---- Normal equations (AVX2 and AVX-512) ---------------------------------

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC push_options
#pragma GCC optimize("fp-contract=off")
#endif

// One block's points as GCC vector types, one point per lane: +, -, *, /
// and comparisons on them are the scalar IEEE operations lane by lane, so
// block_terms() below states each per-point expression once, in the
// scalar loop's words, for both widths.
using Lanes4 = double __attribute__((vector_size(32)));
using Lanes8 = double __attribute__((vector_size(64)));
template <typename V>
using LaneMask = decltype(V{} <= 0.0);  // -1 in a lane where true, else 0

// The helpers without a target attribute pass vectors by reference: by
// value, their untargeted signatures would pass them in memory.
template <typename V>
[[gnu::always_inline]] inline void load_lanes(V& v, const double* p) {
  std::memcpy(&v, p, sizeof v);
}

template <typename V>
[[gnu::always_inline]] inline void splat(V& v, double s) {
  for (std::size_t l = 0; l < sizeof(V) / sizeof(double); ++l) v[l] = s;
}

__attribute__((target("avx2"))) inline void lane_sqrt(const Lanes4& v,
                                                      Lanes4& root) {
  root = _mm256_sqrt_pd(v);
}
ESLAM_TARGET_AVX512 inline void lane_sqrt(const Lanes8& v, Lanes8& root) {
  root = _mm512_sqrt_pd(v);
}

// Projector's pose and intrinsics in every lane.
template <typename V>
struct PoseLanes {
  V r00, r01, r02, r10, r11, r12, r20, r21, r22, t0, t1, t2, fx, fy, cx, cy;

  [[gnu::always_inline]] explicit PoseLanes(const Projector& p) {
    splat(r00, p.r00), splat(r01, p.r01), splat(r02, p.r02);
    splat(r10, p.r10), splat(r11, p.r11), splat(r12, p.r12);
    splat(r20, p.r20), splat(r21, p.r21), splat(r22, p.r22);
    splat(t0, p.t0), splat(t1, p.t1), splat(t2, p.t2);
    splat(fx, p.fx), splat(fy, p.fy), splat(cx, p.cx), splat(cy, p.cy);
  }
};

// The vector tiers hold the running sums in NormalEquations' order, one
// slot each: h[0..20] (slot 1, H(0,1), only ever adds +0.0), b[0..5] and
// the cost.  Registers of sums are copied to and from a NormalEquations
// as these 28 doubles; a last register's slots past them are never read.
constexpr int kSumSlots = 28;
static_assert(offsetof(NormalEquations, h) == 0 &&
              offsetof(NormalEquations, b) == 21 * sizeof(double) &&
              offsetof(NormalEquations, cost) == 27 * sizeof(double));

// The points of one block (lane l holds point i + l): term[s] receives,
// per lane, what the scalar loop adds to running sum s, in the same
// association.  A lane whose point the loop skips (depth <= kMinDepth; a
// NaN depth is kept) has its Jacobian entries and residuals selected to
// +0.0 (1/z may be inf or NaN there, so no multiply may zero it): every
// term built from them is then +0.0, and adding +0.0 leaves a sum
// unchanged, since a sum that starts at +0.0 is never -0.0.  Kept lanes
// subtract one from their lane of `kept`.
template <typename V, bool kHuber>
[[gnu::always_inline]] inline void block_terms(const PoseLanes<V>& k,
                                               const ReprojectionColumns& c,
                                               std::size_t i,
                                               double huber_delta, V* term,
                                               LaneMask<V>& kept) {
  V wx, wy, wz, pu, pv;
  load_lanes(wx, c.x.data() + i);
  load_lanes(wy, c.y.data() + i);
  load_lanes(wz, c.z.data() + i);
  load_lanes(pu, c.u.data() + i);
  load_lanes(pv, c.v.data() + i);
  const V x = (((0.0 + k.r00 * wx) + k.r01 * wy) + k.r02 * wz) + k.t0;
  const V y = (((0.0 + k.r10 * wx) + k.r11 * wy) + k.r12 * wz) + k.t1;
  const V z = (((0.0 + k.r20 * wx) + k.r21 * wy) + k.r22 * wz) + k.t2;
  const LaneMask<V> keep = !(z <= PinholeCamera::kMinDepth);
  kept += keep;

  const V inv_z = 1.0 / z;
  const V zero{};
  const V r0 = keep ? (k.fx * x * inv_z + k.cx) - pu : zero;
  const V r1 = keep ? (k.fy * y * inv_z + k.cy) - pv : zero;

  const V j00 = keep ? k.fx * inv_z : zero;
  const V j02 = keep ? -k.fx * x * inv_z * inv_z : zero;
  const V j03 = keep ? j02 * y : zero;
  const V j04 = keep ? j00 * z + j02 * -x : zero;
  const V j05 = keep ? j00 * -y : zero;
  const V j11 = keep ? k.fy * inv_z : zero;
  const V j12 = keep ? -k.fy * y * inv_z * inv_z : zero;
  const V j13 = keep ? j11 * -z + j12 * y : zero;
  const V j14 = keep ? j12 * -x : zero;
  const V j15 = keep ? j11 * x : zero;

  const V err_sq = r0 * r0 + r1 * r1;
  V w;  // without Huber, w * a is a: the products fold away
  splat(w, 1.0);
  V cost = err_sq;
  if constexpr (kHuber) {
    V delta, err;
    splat(delta, huber_delta);
    lane_sqrt(err_sq, err);
    w = err > delta ? delta / err : w;
    cost = w * err_sq * (2.0 - w);  // Huber rho
  }

  term[0] = w * (j00 * j00);
  term[1] = zero;
  term[2] = w * (j00 * j02);
  term[3] = w * (j00 * j03);
  term[4] = w * (j00 * j04);
  term[5] = w * (j00 * j05);
  term[6] = w * (j11 * j11);
  term[7] = w * (j11 * j12);
  term[8] = w * (j11 * j13);
  term[9] = w * (j11 * j14);
  term[10] = w * (j11 * j15);
  term[11] = w * (j02 * j02 + j12 * j12);
  term[12] = w * (j02 * j03 + j12 * j13);
  term[13] = w * (j02 * j04 + j12 * j14);
  term[14] = w * (j02 * j05 + j12 * j15);
  term[15] = w * (j03 * j03 + j13 * j13);
  term[16] = w * (j03 * j04 + j13 * j14);
  term[17] = w * (j03 * j05 + j13 * j15);
  term[18] = w * (j04 * j04 + j14 * j14);
  term[19] = w * (j04 * j05 + j14 * j15);
  term[20] = w * (j05 * j05 + j15 * j15);
  term[21] = w * (j00 * r0);
  term[22] = w * (j11 * r1);
  term[23] = w * (j02 * r0 + j12 * r1);
  term[24] = w * (j03 * r0 + j13 * r1);
  term[25] = w * (j04 * r0 + j14 * r1);
  term[26] = w * (j05 * r0 + j15 * r1);
  term[27] = cost;
}

// The points block_terms() kept, from its per-lane counts.
template <typename M>
[[gnu::always_inline]] inline int kept_count(const M& kept) {
  int n = 0;
  for (std::size_t l = 0; l < sizeof(M) / sizeof(kept[0]); ++l)
    n -= static_cast<int>(kept[l]);
  return n;
}

// Adds four points' terms for four slots (term[j], lane p = point p) to
// the slots' sums (lane j of `sum`), point 0 first: a 4x4 transpose puts
// each point's four terms in one register.
__attribute__((target("avx2"))) inline void add_points4(const Lanes4* term,
                                                        Lanes4& sum) {
  const __m256d lo01 = _mm256_unpacklo_pd(term[0], term[1]);  // points 0, 2
  const __m256d hi01 = _mm256_unpackhi_pd(term[0], term[1]);  // points 1, 3
  const __m256d lo23 = _mm256_unpacklo_pd(term[2], term[3]);
  const __m256d hi23 = _mm256_unpackhi_pd(term[2], term[3]);
  sum += _mm256_permute2f128_pd(lo01, lo23, 0x20);
  sum += _mm256_permute2f128_pd(hi01, hi23, 0x20);
  sum += _mm256_permute2f128_pd(lo01, lo23, 0x31);
  sum += _mm256_permute2f128_pd(hi01, hi23, 0x31);
}

// add_points4 for eight points and slots: pairs of slots interleave, then
// 128-bit blocks and 256-bit halves gather each point's eight terms.
ESLAM_TARGET_AVX512 inline void add_points8(const Lanes8* term, Lanes8& sum) {
  __m512d pair[8];  // slots 2q, 2q+1: even points (2q), odd points (2q+1)
  for (int q = 0; q < 4; ++q) {
    pair[2 * q] = _mm512_unpacklo_pd(term[2 * q], term[2 * q + 1]);
    pair[2 * q + 1] = _mm512_unpackhi_pd(term[2 * q], term[2 * q + 1]);
  }
  // quad[m] for m = 0, 1, 2, 3 holds points (0, 4), (2, 6), (1, 5) and
  // (3, 7) of slots 0-3; quad[m + 4] the same points of slots 4-7.
  __m512d quad[8];
  for (int half = 0; half < 2; ++half) {
    const __m512d* pr = pair + 4 * half;
    quad[4 * half + 0] = _mm512_shuffle_f64x2(pr[0], pr[2], 0x88);
    quad[4 * half + 1] = _mm512_shuffle_f64x2(pr[0], pr[2], 0xDD);
    quad[4 * half + 2] = _mm512_shuffle_f64x2(pr[1], pr[3], 0x88);
    quad[4 * half + 3] = _mm512_shuffle_f64x2(pr[1], pr[3], 0xDD);
  }
  constexpr int kQuadOfPoint[4] = {0, 2, 1, 3};  // points p and p + 4
  for (int p = 0; p < 8; ++p) {
    const int m = kQuadOfPoint[p % 4];
    sum += p < 4 ? _mm512_shuffle_f64x2(quad[m], quad[m + 4], 0x88)
                 : _mm512_shuffle_f64x2(quad[m], quad[m + 4], 0xDD);
  }
}

// Every whole 4-point block from i on, continuing the sums in `ne`.
// Returns the first point left.
template <bool kHuber>
[[gnu::always_inline]] __attribute__((target("avx2"))) inline std::size_t
normal_equations_blocks4(const ReprojectionColumns& c, std::size_t i,
                         const Projector& p, double huber_delta,
                         NormalEquations& ne) {
  const PoseLanes<Lanes4> k(p);
  Lanes4 sum[kSumSlots / 4];
  std::memcpy(sum, &ne, sizeof sum);
  LaneMask<Lanes4> kept = {};
  for (; i + 4 <= c.size(); i += 4) {
    Lanes4 term[kSumSlots];
    block_terms<Lanes4, kHuber>(k, c, i, huber_delta, term, kept);
    for (int g = 0; g < kSumSlots / 4; ++g) add_points4(term + 4 * g, sum[g]);
  }
  std::memcpy(static_cast<void*>(&ne), sum, sizeof sum);
  ne.used += kept_count(kept);
  return i;
}

template <bool kHuber>
[[gnu::always_inline]] __attribute__((target("avx2"))) inline NormalEquations
normal_equations_avx2_h(const ReprojectionColumns& c, const SE3& pose_cw,
                        const PinholeCamera& camera, double huber_delta) {
  const Projector p(pose_cw, camera);
  NormalEquations ne;
  const std::size_t i =
      normal_equations_blocks4<kHuber>(c, 0, p, huber_delta, ne);
  if (i < c.size())
    normal_equations_from(c, i, pose_cw, camera, huber_delta, ne);
  return ne;
}

ESLAM_HOT_ALIGN __attribute__((target("avx2"))) NormalEquations
normal_equations_avx2(const ReprojectionColumns& columns, const SE3& pose_cw,
                      const PinholeCamera& camera, double huber_delta) {
  return huber_delta > 0.0 ? normal_equations_avx2_h<true>(
                                 columns, pose_cw, camera, huber_delta)
                           : normal_equations_avx2_h<false>(
                                 columns, pose_cw, camera, huber_delta);
}

template <bool kHuber>
[[gnu::always_inline]] ESLAM_TARGET_AVX512 inline NormalEquations
normal_equations_avx512_h(const ReprojectionColumns& c, const SE3& pose_cw,
                          const PinholeCamera& camera, double huber_delta) {
  const Projector p(pose_cw, camera);
  NormalEquations ne;
  std::size_t i = 0;
  if (c.size() >= 8) {
    const PoseLanes<Lanes8> k(p);
    Lanes8 sum[4] = {};
    LaneMask<Lanes8> kept = {};
    for (; i + 8 <= c.size(); i += 8) {
      Lanes8 term[32];
      block_terms<Lanes8, kHuber>(k, c, i, huber_delta, term, kept);
      for (int s = kSumSlots; s < 32; ++s) term[s] = Lanes8{};
      for (int g = 0; g < 4; ++g) add_points8(term + 8 * g, sum[g]);
    }
    std::memcpy(static_cast<void*>(&ne), sum, kSumSlots * sizeof(double));
    ne.used = kept_count(kept);
  }
  i = normal_equations_blocks4<kHuber>(c, i, p, huber_delta, ne);
  if (i < c.size())
    normal_equations_from(c, i, pose_cw, camera, huber_delta, ne);
  return ne;
}

ESLAM_HOT_ALIGN ESLAM_TARGET_AVX512 NormalEquations normal_equations_avx512(
    const ReprojectionColumns& columns, const SE3& pose_cw,
    const PinholeCamera& camera, double huber_delta) {
  return huber_delta > 0.0 ? normal_equations_avx512_h<true>(
                                 columns, pose_cw, camera, huber_delta)
                           : normal_equations_avx512_h<false>(
                                 columns, pose_cw, camera, huber_delta);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC pop_options
#endif

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#undef ESLAM_TARGET_AVX512

}  // namespace
#endif  // x86

// ---- Tiers and dispatch -----------------------------------------------------

namespace {

const KernelTable& table_of(IsaLevel level) {
  static constexpr KernelTable kScalarTable{
      best_two_block_scalar, best_two_windows_scalar, best_two_rows_scalar,
      project_batch_scalar,  reprojection_inliers_scalar,
      normal_equations_scalar};
#if defined(__x86_64__) || defined(__i386__)
  static constexpr KernelTable kAvx2Table{
      best_two_block_avx2, best_two_windows_avx2,     best_two_rows_avx2,
      project_batch_avx2,  reprojection_inliers_avx2, normal_equations_avx2};
  // The Hamming kernels and the normal equations at 512 bits; projection
  // and scoring stay AVX2.
  static constexpr KernelTable kAvx512Table{
      best_two_block_avx512, best_two_windows_avx512, best_two_rows_avx512,
      project_batch_avx2,    reprojection_inliers_avx2,
      normal_equations_avx512};
  switch (level) {
    case IsaLevel::kAvx512: return kAvx512Table;
    case IsaLevel::kAvx2: return kAvx2Table;
    case IsaLevel::kScalar: break;
  }
#endif
  (void)level;
  return kScalarTable;
}

const KernelTable& active_kernels() {
  static const KernelTable& table = table_of(active_isa());
  return table;
}

}  // namespace

const KernelTable& kernels(IsaLevel level) {
  ESLAM_ASSERT(isa_supported(level), "kernel tier not supported by this CPU");
  return table_of(level);
}

ESLAM_HOT_ALIGN void best_two_block(const DescriptorSoA& train,
                                    std::size_t count, DescriptorRows queries,
                                    Match* out) {
  active_kernels().best_two_block(train, count, queries, out);
}

ESLAM_HOT_ALIGN void best_two_windows(const CandidateSet& set,
                                      const Descriptor256* slot_rows,
                                      DescriptorRows queries, Match* out) {
  active_kernels().best_two_windows(set, slot_rows, queries, out);
}

ESLAM_HOT_ALIGN Match best_two_rows(const Descriptor256& query,
                                    DescriptorRows rows) {
  return active_kernels().best_two_rows(query, rows);
}

ESLAM_HOT_ALIGN void project_batch(
    std::span<const double> xs, std::span<const double> ys,
    std::span<const double> zs, const SE3& pose_cw, const PinholeCamera& camera,
    double margin, double* out_u, double* out_v, std::uint8_t* out_keep) {
  active_kernels().project_batch(xs, ys, zs, pose_cw, camera, margin, out_u,
                                 out_v, out_keep);
}

ESLAM_HOT_ALIGN std::size_t reprojection_inliers(
    const ReprojectionColumns& columns, const SE3& pose_cw,
    const PinholeCamera& camera, double thresh_sq, int* out_inliers,
    std::size_t to_beat) {
  return active_kernels().reprojection_inliers(columns, pose_cw, camera,
                                               thresh_sq, out_inliers, to_beat);
}

ESLAM_HOT_ALIGN NormalEquations normal_equations(
    const ReprojectionColumns& columns, const SE3& pose_cw,
    const PinholeCamera& camera, double huber_delta) {
  return active_kernels().normal_equations(columns, pose_cw, camera,
                                           huber_delta);
}

}  // namespace eslam::simd
