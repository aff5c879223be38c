// Vectorized hot-path kernels with bit-exact scalar parity.
//
// Feature matching (paper section 3.2: the BRIEF Matcher; on the host it
// is the ARM-side bottleneck) runs on three Hamming kernels, one per
// matching tier, each computing exact integer distances so every tier is
// bit-identical to hamming_distance().  The vector kernels (and the
// scalar window scan) select with 64-bit keys (distance << 32 | train
// index): the smaller key is the smaller distance and, on equal distances,
// the lower index, so a lane-wise minimum is the lowest-index winner
// whatever order the candidates arrive in.
//
//   1. best_two_block — brute force: every query against a whole
//      DescriptorSoA train set.  Several queries share each train load
//      (AVX2: two queries, four train descriptors per step; AVX-512: four
//      queries, eight train descriptors).
//   2. best_two_windows — gated tier: each query scans the slot runs of
//      its CandidateSet window, reading the slots' descriptors as
//      contiguous rows, and keeps the slots that pass the exact in-window
//      test (AVX2: four slots per step; AVX-512: eight, two rows per
//      load).
//   3. best_two_rows — verification matching: one descriptor against
//      strided AoS rows (a train set without SoA planes, or the queries in
//      the cross-check's back scan).
//
// Keys stay in registers, one best and one runner-up per lane, and the
// lanes merge once per query; AVX2's best_two_rows and the other scalar
// kernels keep match_one()'s running update instead.  AVX2 counts bits
// with a nibble lookup in the vector kernels and with four POPCNT
// instructions per row in best_two_rows; AVX-512 counts eight words per
// vpopcntq.  All three
// produce match_one()'s result over their candidates: best distance,
// runner-up distance (second smallest over the set) and the lowest train
// index at the best distance, or -1 when no distance is below 256.
//
// Batched map-point projection for the match gate: SE3 transform + pinhole
// projection + padded-bounds mask over x/y/z lanes.  The scalar path
// replicates the exact FP operation order of `SE3::operator*` /
// `PinholeCamera::project` (sum association, no FMA), and the AVX2 path
// performs the same operations per lane, so kept u/v coordinates are
// bit-identical across tiers.  NaN inputs fail the keep mask on every path.
//
// RANSAC inlier scoring: the same transform and projection per
// correspondence, then the squared pixel residual against a threshold,
// written as an ascending list of inlier indices.  Bit-identical to a
// loop over reprojection_error_sq() (slam/pnp.h), including its
// behind-camera sentinel: depth <= kMinDepth scores 1e12.  Ordered
// comparisons make a NaN lane an outlier on every path.  The AVX2 code
// runs 4 lanes with project_batch's association.  A hypothesis that can
// no longer beat the best one stops early (exact: RANSAC drops it either
// way).
//
// Pose estimation's normal equations (solve_pnp's one pass per LM
// iteration): each lane evaluates the scalar loop's per-point
// expressions, a dropped lane becomes +0.0 by select, and each block's
// 27 sums are transposed so that every running sum still adds the points
// in index order (no lane-wise partial sums).  AVX2 runs 4 points per
// block; AVX-512 runs 8, then one 4-point block; the scalar loop takes
// the rest and continues the same sums.  FP contraction is off in these
// kernels: AVX-512F implies FMA, and a fused multiply-add rounds once
// where the scalar loop rounds twice.
//
// Each entry point runs the kernel of the tier core/simd_dispatch picked
// (active_isa()); kernels() is the one place a tier maps to its kernels —
// the AVX-512 tier widens the three Hamming kernels and the normal
// equations, and keeps the AVX2 projection and scoring.  The _scalar
// variants are the portable reference; the parity suite and
// bench_micro_kernels reach every other tier the host supports through
// kernels().
#pragma once

#include <cstdint>
#include <span>

#include "core/simd_dispatch.h"
#include "features/descriptor_soa.h"
#include "features/matcher.h"
#include "geometry/camera.h"
#include "geometry/se3.h"

namespace eslam::simd {

// out[i] = match_one(queries[i], train[0, count)) for every query: train,
// distance and second_best are set, query is left untouched.  `count` may
// be smaller than train.size() (a published map view bounds its rows).
void best_two_block(const DescriptorSoA& train, std::size_t count,
                    DescriptorRows queries, Match* out);
void best_two_block_scalar(const DescriptorSoA& train, std::size_t count,
                           DescriptorRows queries, Match* out);

// The read-ahead best_two_windows needs: slot_rows holds
// set.num_slots() + kSlotRowPad rows, the last kSlotRowPad read but never
// used.
inline constexpr std::size_t kSlotRowPad = 8;

// out[q] = match_one over query q's candidates in `set` (train, distance
// and second_best; query left at -1), where slot s's descriptor is
// slot_rows[s].  queries.size() == set.num_queries().
void best_two_windows(const CandidateSet& set, const Descriptor256* slot_rows,
                      DescriptorRows queries, Match* out);
void best_two_windows_scalar(const CandidateSet& set,
                             const Descriptor256* slot_rows,
                             DescriptorRows queries, Match* out);

// match_one(query, rows): the best row index, its distance and the
// runner-up distance (query left at -1).
Match best_two_rows(const Descriptor256& query, DescriptorRows rows);
Match best_two_rows_scalar(const Descriptor256& query, DescriptorRows rows);

// Projects n map points (xs/ys/zs lanes) through pose_cw and the pinhole
// model.  out_keep[i] != 0 iff depth > PinholeCamera::kMinDepth and the
// pixel lands inside the image padded by `margin` on every side; out_u/v
// are only meaningful for kept lanes.  Matches the scalar gate math
// bit-for-bit on kept lanes.
void project_batch(std::span<const double> xs, std::span<const double> ys,
                   std::span<const double> zs, const SE3& pose_cw,
                   const PinholeCamera& camera, double margin, double* out_u,
                   double* out_v, std::uint8_t* out_keep);
void project_batch_scalar(std::span<const double> xs,
                          std::span<const double> ys,
                          std::span<const double> zs, const SE3& pose_cw,
                          const PinholeCamera& camera, double margin,
                          double* out_u, double* out_v,
                          std::uint8_t* out_keep);

// Correspondences as SoA columns: world point (x, y, z) and the observed
// pixel (u, v), all of one length.
struct ReprojectionColumns {
  std::span<const double> x, y, z;
  std::span<const double> u, v;

  std::size_t size() const { return x.size(); }
};

// Writes to out_inliers, ascending, every index i whose squared
// reprojection error under pose_cw is below thresh_sq, and returns how
// many.  out_inliers must hold columns.size() entries.
//
// `to_beat` is the count a caller keeps only when exceeded (RANSAC's best
// so far; 0 keeps any).  The scan stops once the count so far plus the
// points left cannot exceed it, and then returns a count <= to_beat with
// the list cut short; a count above to_beat is always the full answer.
std::size_t reprojection_inliers(const ReprojectionColumns& columns,
                                 const SE3& pose_cw,
                                 const PinholeCamera& camera,
                                 double thresh_sq, int* out_inliers,
                                 std::size_t to_beat);
std::size_t reprojection_inliers_scalar(const ReprojectionColumns& columns,
                                        const SE3& pose_cw,
                                        const PinholeCamera& camera,
                                        double thresh_sq, int* out_inliers,
                                        std::size_t to_beat);

// Normal equations of the reprojection error (slam/pnp.h) linearised at
// one pose, summed over the correspondences in index order.
struct NormalEquations {
  // Upper triangle of H = sum w J^T J, row-major: (0,0) (0,1) .. (0,5)
  // (1,1) .. (1,5) .. (5,5).  Entry (0,1) is structurally zero.
  double h[21] = {};
  double b[6] = {};   // sum w J^T r
  double cost = 0.0;  // robustified squared error, summed over used points
  int used = 0;       // points in front of the camera
};

// One pass over the columns at pose_cw: J is the residual's Jacobian
// with respect to a left pose perturbation, w the Huber weight
// (huber_delta <= 0: w = 1, plain squared error).  A point is skipped
// when its depth is <= kMinDepth (a NaN depth is used).  Every tier adds
// the points in index order with the scalar loop's per-point expressions
// and no FMA, so all of them return the same bits.
NormalEquations normal_equations(const ReprojectionColumns& columns,
                                 const SE3& pose_cw,
                                 const PinholeCamera& camera,
                                 double huber_delta);
NormalEquations normal_equations_scalar(const ReprojectionColumns& columns,
                                        const SE3& pose_cw,
                                        const PinholeCamera& camera,
                                        double huber_delta);

// One tier's kernels, with the entry points' signatures.
struct KernelTable {
  decltype(&best_two_block_scalar) best_two_block;
  decltype(&best_two_windows_scalar) best_two_windows;
  decltype(&best_two_rows_scalar) best_two_rows;
  decltype(&project_batch_scalar) project_batch;
  decltype(&reprojection_inliers_scalar) reprojection_inliers;
  decltype(&normal_equations_scalar) normal_equations;
};

// The kernels `level` runs.  Aborts unless isa_supported(level): the CPU
// would fault on the instructions.
const KernelTable& kernels(IsaLevel level);

}  // namespace eslam::simd
