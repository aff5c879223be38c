#include "features/grid_index.h"

#include <algorithm>
#include <cmath>

#include "geometry/assert.h"

namespace eslam {

GridIndex2d::GridIndex2d(double width, double height, double cell_size)
    : cell_size_(cell_size) {
  ESLAM_ASSERT(width > 0 && height > 0, "grid extent must be positive");
  ESLAM_ASSERT(cell_size > 0, "grid cell size must be positive");
  cols_ = std::max(1, static_cast<int>(std::ceil(width / cell_size)));
  rows_ = std::max(1, static_cast<int>(std::ceil(height / cell_size)));
  cell_start_.assign(static_cast<std::size_t>(cols_) * rows_ + 1, 0);
}

int GridIndex2d::cell_x(double u) const {
  return std::clamp(static_cast<int>(std::floor(u / cell_size_)), 0,
                    cols_ - 1);
}

int GridIndex2d::cell_y(double v) const {
  return std::clamp(static_cast<int>(std::floor(v / cell_size_)), 0,
                    rows_ - 1);
}

void GridIndex2d::build(std::vector<GridEntry> entries) {
  const std::size_t n_cells = static_cast<std::size_t>(cols_) * rows_;
  std::vector<std::int32_t> counts(n_cells, 0);
  for (const GridEntry& e : entries)
    ++counts[static_cast<std::size_t>(cell_y(e.v)) * cols_ + cell_x(e.u)];

  cell_start_.assign(n_cells + 1, 0);
  for (std::size_t c = 0; c < n_cells; ++c)
    cell_start_[c + 1] = cell_start_[c] + counts[c];

  // Counting-sort into place; within a cell the input order (ascending map
  // index, the way the gate inserts) is preserved.
  std::vector<std::int32_t> cursor(cell_start_.begin(), cell_start_.end() - 1);
  entries_.resize(entries.size());
  for (const GridEntry& e : entries) {
    const std::size_t cell =
        static_cast<std::size_t>(cell_y(e.v)) * cols_ + cell_x(e.u);
    entries_[static_cast<std::size_t>(cursor[cell]++)] = e;
  }
}

void GridIndex2d::query(double u, double v, double radius,
                        std::vector<std::int32_t>& out) const {
  const std::size_t first = out.size();
  const int x0 = cell_x(u - radius);
  const int x1 = cell_x(u + radius);
  const int y0 = cell_y(v - radius);
  const int y1 = cell_y(v + radius);
  for (int y = y0; y <= y1; ++y) {
    for (int x = x0; x <= x1; ++x) {
      const std::size_t cell = static_cast<std::size_t>(y) * cols_ + x;
      const std::int32_t a = cell_start_[cell];
      const std::int32_t b = cell_start_[cell + 1];
      for (std::int32_t i = a; i < b; ++i) {
        const GridEntry& e = entries_[static_cast<std::size_t>(i)];
        if (std::abs(e.u - u) <= radius && std::abs(e.v - v) <= radius)
          out.push_back(e.id);
      }
    }
  }
  // Cells are visited in row-major order, not id order; the contract is
  // ascending ids, so sort the appended slice.
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end());
}

}  // namespace eslam
