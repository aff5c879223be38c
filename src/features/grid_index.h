// 2D spatial bucket grid over the image plane, used by the matching gate's
// reference builder (slam/match_gate build_candidate_set) to turn "all map
// points" into "map points projecting near this feature".
//
// Built from the projected map points (CSR layout: one counting sort, no
// per-cell allocations), then queried once per feature with a square
// window.  Queries return the caller-supplied ids of every entry whose
// exact position falls inside the window, in ascending id order — a
// canonical form the hot-path gate's unsorted lists are compared against
// as sets.
#pragma once

#include <cstdint>
#include <vector>

namespace eslam {

// One indexed point: a position in pixels plus the caller's id for it
// (the matching gate stores map-point indices).
struct GridEntry {
  double u = 0;
  double v = 0;
  std::int32_t id = 0;
};

class GridIndex2d {
 public:
  // Grid covering [0, width) x [0, height); entries outside are clamped
  // into the border cells, so nothing inserted is ever lost.
  GridIndex2d(double width, double height, double cell_size);

  // Replaces the contents with `entries` (previous build discarded).
  void build(std::vector<GridEntry> entries);

  // Appends the ids of entries within the square window of half-width
  // `radius` around (u, v) to `out`, in ascending id order.
  void query(double u, double v, double radius,
             std::vector<std::int32_t>& out) const;

  std::size_t size() const { return entries_.size(); }
  int cols() const { return cols_; }
  int rows() const { return rows_; }

 private:
  int cell_x(double u) const;
  int cell_y(double v) const;

  double cell_size_;
  int cols_;
  int rows_;
  std::vector<GridEntry> entries_;       // sorted by cell (counting sort)
  std::vector<std::int32_t> cell_start_; // CSR offsets, size cols*rows + 1
};

}  // namespace eslam
