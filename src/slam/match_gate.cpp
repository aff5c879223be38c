#include "slam/match_gate.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>

#include "core/hot_align.h"
#include "features/grid_index.h"
#include "features/simd_kernels.h"

namespace eslam {

namespace {

// Bucket edge of the gate's grid, derived from the search window: with
// half-radius cells the middle cells of a window lie wholly inside it, and
// the gate appends those without testing.  The floor bounds the cell count
// for tiny radii.
double gate_cell_px(const MatchPolicy& policy) {
  return std::max(policy.search_radius_px / 2, 4.0);
}

// A point's cell comes from floor(u / cell) in floating point, which can
// place it a rounding error outside the cell's nominal edges; a cell only
// counts as inside a feature's window when it clears the window's edges by
// this much.
constexpr double kInteriorSlackPx = 1e-6;

}  // namespace

const char* to_string(MatchTier tier) {
  switch (tier) {
    case MatchTier::kBruteForce: return "brute";
    case MatchTier::kGated: return "gated";
    case MatchTier::kRelocIndex: return "reloc-index";
  }
  return "?";
}

GateResult build_candidate_set(std::span<const Vec3> map_positions,
                               const SE3& prior_pose_cw,
                               const PinholeCamera& camera,
                               const FeatureList& features,
                               const MatchPolicy& policy) {
  const auto start = std::chrono::steady_clock::now();
  GateResult out;

  // Project every map point under the prior.  The grid is padded by the
  // search radius on every side (coordinates shifted by +margin) so
  // points projecting just outside the image stay indexable.
  const double margin = policy.search_radius_px;
  GridIndex2d grid(camera.width() + 2 * margin, camera.height() + 2 * margin,
                   gate_cell_px(policy));
  std::vector<GridEntry> entries;
  entries.reserve(map_positions.size());
  for (std::size_t i = 0; i < map_positions.size(); ++i) {
    const Vec3 p_cam = prior_pose_cw * map_positions[i];
    const std::optional<Vec2> px = camera.project(p_cam);
    if (!px) continue;  // behind the camera
    const double u = (*px)[0];
    const double v = (*px)[1];
    if (u < -margin || u >= camera.width() + margin || v < -margin ||
        v >= camera.height() + margin)
      continue;
    entries.push_back(
        GridEntry{u + margin, v + margin, static_cast<std::int32_t>(i)});
  }
  out.projected = static_cast<int>(entries.size());
  grid.build(std::move(entries));

  out.candidates.offsets.reserve(features.size() + 1);
  out.candidates.offsets.push_back(0);
  for (const Feature& f : features) {
    grid.query(f.keypoint.x0() + margin, f.keypoint.y0() + margin,
               policy.search_radius_px, out.candidates.indices);
    out.candidates.offsets.push_back(
        static_cast<std::int32_t>(out.candidates.indices.size()));
  }

  out.build_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  return out;
}

ESLAM_HOT_ALIGN void build_candidate_set_into(
    std::span<const double> xs, std::span<const double> ys,
    std::span<const double> zs, const SE3& prior_pose_cw,
    const PinholeCamera& camera, const FeatureList& features,
    const MatchPolicy& policy, Arena* scratch, GateResult& out) {
  const auto start = std::chrono::steady_clock::now();
  out.candidates.indices.clear();
  out.candidates.offsets.clear();
  out.projected = 0;

  thread_local Arena fallback;
  Arena& arena = scratch != nullptr ? *scratch : fallback;
  const ArenaScope scope(arena);

  const std::size_t n = xs.size();
  const double margin = policy.search_radius_px;
  const std::span<double> u = arena.alloc_span<double>(n);
  const std::span<double> v = arena.alloc_span<double>(n);
  const std::span<std::uint8_t> keep = arena.alloc_span<std::uint8_t>(n);
  simd::project_batch(xs, ys, zs, prior_pose_cw, camera, margin, u.data(),
                      v.data(), keep.data());

  // Grid over the padded image (coordinates shifted by +margin), with
  // GridIndex2d's cell math.
  const double cell = gate_cell_px(policy);
  const double grid_w = camera.width() + 2 * margin;
  const double grid_h = camera.height() + 2 * margin;
  const int cols = std::max(1, static_cast<int>(std::ceil(grid_w / cell)));
  const int rows = std::max(1, static_cast<int>(std::ceil(grid_h / cell)));
  const auto cell_x = [cols, cell](double uu) {
    return std::clamp(static_cast<int>(std::floor(uu / cell)), 0, cols - 1);
  };
  const auto cell_y = [rows, cell](double vv) {
    return std::clamp(static_cast<int>(std::floor(vv / cell)), 0, rows - 1);
  };

  // Counting sort of the kept projections into cell-sorted SoA columns
  // (row-major cells; ascending map index within a cell).
  const std::size_t n_cells = static_cast<std::size_t>(cols) * rows;
  const std::span<std::int32_t> cell_start =
      arena.alloc_span<std::int32_t>(n_cells + 1, 0);
  const std::span<std::int32_t> cell_of = arena.alloc_span<std::int32_t>(n);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!keep[i]) continue;
    u[i] += margin;
    v[i] += margin;
    cell_of[i] = cell_y(v[i]) * cols + cell_x(u[i]);
    ++cell_start[static_cast<std::size_t>(cell_of[i]) + 1];
    ++kept;
  }
  out.projected = static_cast<int>(kept);
  for (std::size_t c = 0; c < n_cells; ++c) cell_start[c + 1] += cell_start[c];
  const std::span<std::int32_t> cursor =
      arena.alloc_span<std::int32_t>(n_cells);
  std::copy(cell_start.begin(), cell_start.end() - 1, cursor.begin());
  const std::span<double> su = arena.alloc_span<double>(kept);
  const std::span<double> sv = arena.alloc_span<double>(kept);
  const std::span<std::int32_t> sid = arena.alloc_span<std::int32_t>(kept);
  for (std::size_t i = 0; i < n; ++i) {
    if (!keep[i]) continue;
    const auto at = static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(cell_of[i])]++);
    su[at] = u[i];
    sv[at] = v[i];
    sid[at] = static_cast<std::int32_t>(i);
  }

  // Per-feature window queries.  In a cell row the window's cells are one
  // contiguous run of the sorted columns.  Cells wholly inside the window
  // are appended untested; the boundary cells keep the exact
  // |u - qu| <= r && |v - qv| <= r test.  Lists come out in cell order,
  // which CandidateSet allows.
  const double radius = policy.search_radius_px;
  const double slack = kInteriorSlackPx;
  std::vector<std::int32_t>& indices = out.candidates.indices;
  out.candidates.offsets.reserve(features.size() + 1);
  out.candidates.offsets.push_back(0);
  std::size_t count = 0;
  for (const Feature& f : features) {
    const double qu = f.keypoint.x0() + margin;
    const double qv = f.keypoint.y0() + margin;
    const int x0 = cell_x(qu - radius);
    const int x1 = cell_x(qu + radius);
    const int y0 = cell_y(qv - radius);
    const int y1 = cell_y(qv + radius);
    int ix0 = x0, ix1 = x1, iy0 = y0, iy1 = y1;
    while (ix0 <= x1 && ix0 * cell - slack < qu - radius) ++ix0;
    while (ix1 >= ix0 && (ix1 + 1) * cell + slack > qu + radius) --ix1;
    while (iy0 <= y1 && iy0 * cell - slack < qv - radius) ++iy0;
    while (iy1 >= iy0 && (iy1 + 1) * cell + slack > qv + radius) --iy1;

    std::size_t bound = 0;
    for (int y = y0; y <= y1; ++y) {
      const std::size_t row = static_cast<std::size_t>(y) * cols;
      bound += static_cast<std::size_t>(cell_start[row + x1 + 1] -
                                        cell_start[row + x0]);
    }
    if (count + bound > indices.size()) indices.resize(count + bound);
    std::int32_t* const dst = indices.data() + count;
    std::size_t k = 0;
    const auto test = [&](std::int32_t first, std::int32_t last) {
      for (std::int32_t i = first; i < last; ++i) {
        const auto e = static_cast<std::size_t>(i);
        dst[k] = sid[e];
        k += static_cast<std::size_t>((std::abs(su[e] - qu) <= radius) &
                                      (std::abs(sv[e] - qv) <= radius));
      }
    };
    for (int y = y0; y <= y1; ++y) {
      const std::size_t row = static_cast<std::size_t>(y) * cols;
      const std::int32_t a = cell_start[row + x0];
      const std::int32_t b = cell_start[row + x1 + 1];
      if (y < iy0 || y > iy1 || ix0 > ix1) {
        test(a, b);
        continue;
      }
      const std::int32_t ia = cell_start[row + ix0];
      const std::int32_t ib = cell_start[row + ix1 + 1];
      test(a, ia);
      if (ib > ia) {  // (an empty run may carry null pointers)
        std::memcpy(dst + k, sid.data() + ia,
                    static_cast<std::size_t>(ib - ia) * sizeof(std::int32_t));
        k += static_cast<std::size_t>(ib - ia);
      }
      test(ib, b);
    }
    count += k;
    out.candidates.offsets.push_back(static_cast<std::int32_t>(count));
  }
  indices.resize(count);

  out.build_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count();
}

}  // namespace eslam
