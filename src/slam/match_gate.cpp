#include "slam/match_gate.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "core/hot_align.h"
#include "features/grid_index.h"
#include "features/simd_kernels.h"

namespace eslam {

namespace {

// Bucket edge of the gate's grid, derived from the search window: a window
// touches at most five half-radius cells per axis.  The floor bounds the
// cell count for tiny radii.
double gate_cell_px(const MatchPolicy& policy) {
  return std::max(policy.search_radius_px / 2, 4.0);
}

// static_cast<int>(std::floor(x)) for x in int range, without the libm
// call the generic x86-64 target makes for std::floor.
inline int floor_to_int(double x) {
  const int t = static_cast<int>(x);
  return t - (x < t ? 1 : 0);
}

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

  std::vector<std::int32_t> list;
  for (const Feature& f : features) {
    list.clear();
    grid.query(f.keypoint.x0() + margin, f.keypoint.y0() + margin,
               policy.search_radius_px, list);
    out.candidates.add_list(list);
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
  CandidateSet& set = out.candidates;
  set.clear();
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
    return std::clamp(floor_to_int(uu / cell), 0, cols - 1);
  };
  const auto cell_y = [rows, cell](double vv) {
    return std::clamp(floor_to_int(vv / cell), 0, rows - 1);
  };

  // Counting sort of the kept projections into the cell-ordered slots
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
  set.slot_train.resize(kept);
  set.slot_u.resize(kept);
  set.slot_v.resize(kept);
  for (std::size_t i = 0; i < n; ++i) {
    if (!keep[i]) continue;
    const auto at = static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(cell_of[i])]++);
    set.slot_train[at] = static_cast<std::int32_t>(i);
    set.slot_u[at] = u[i];
    set.slot_v[at] = v[i];
  }

  // Each feature's window: one run of slots per cell row it touches (in a
  // cell row the window's cells are contiguous slots).  The matcher tests
  // every slot of a run against the window, so no per-point work is done
  // here.
  const double radius = policy.search_radius_px;
  set.radius = radius;
  set.query_u.resize(features.size());
  set.query_v.resize(features.size());
  set.run_offsets.resize(features.size() + 1);
  set.run_offsets[0] = 0;
  // A window spans at most 2 * radius / cell + 2 cell rows.
  set.runs.reserve(features.size() *
                   static_cast<std::size_t>(2 * radius / cell + 2));
  for (std::size_t q = 0; q < features.size(); ++q) {
    const double qu = features[q].keypoint.x0() + margin;
    const double qv = features[q].keypoint.y0() + margin;
    set.query_u[q] = qu;
    set.query_v[q] = qv;
    const int x0 = cell_x(qu - radius);
    const int x1 = cell_x(qu + radius);
    const int y0 = cell_y(qv - radius);
    const int y1 = cell_y(qv + radius);
    for (int y = y0; y <= y1; ++y) {
      const std::size_t row = static_cast<std::size_t>(y) * cols;
      const std::int32_t a = cell_start[row + x0];
      const std::int32_t b = cell_start[row + x1 + 1];
      if (a < b) set.runs.push_back({a, b});
    }
    set.run_offsets[q + 1] = static_cast<std::int32_t>(set.runs.size());
  }

  out.build_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count();
}

}  // namespace eslam
