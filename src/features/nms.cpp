#include "features/nms.h"

#include "geometry/assert.h"

namespace eslam {

std::vector<Keypoint> nms_3x3(const std::vector<Keypoint>& keypoints,
                              int width, int height) {
  NmsScratch scratch;
  std::vector<Keypoint> out;
  nms_3x3_into(keypoints, width, height, scratch, out);
  return out;
}

void nms_3x3_into(const std::vector<Keypoint>& keypoints, int width,
                  int height, NmsScratch& scratch,
                  std::vector<Keypoint>& out) {
  out.clear();
  const std::int64_t cells =
      static_cast<std::int64_t>(width) * height;
  if (static_cast<std::int64_t>(scratch.grid.size()) < cells)
    scratch.grid.assign(static_cast<std::size_t>(cells), -1);
  std::vector<std::int32_t>& grid = scratch.grid;
  auto key = [width](int x, int y) {
    return static_cast<std::size_t>(static_cast<std::int64_t>(y) * width + x);
  };
  // First keypoint at a pixel wins.
  for (std::size_t i = 0; i < keypoints.size(); ++i) {
    const Keypoint& kp = keypoints[i];
    ESLAM_ASSERT(kp.x >= 0 && kp.x < width && kp.y >= 0 && kp.y < height,
                 "keypoint outside grid");
    std::int32_t& cell = grid[key(kp.x, kp.y)];
    if (cell < 0) cell = static_cast<std::int32_t>(i);
  }

  out.reserve(keypoints.size());
  for (std::size_t i = 0; i < keypoints.size(); ++i) {
    const Keypoint& kp = keypoints[i];
    bool is_max = true;
    for (int dy = -1; dy <= 1 && is_max; ++dy)
      for (int dx = -1; dx <= 1 && is_max; ++dx) {
        if (dx == 0 && dy == 0) continue;
        const int nx = kp.x + dx, ny = kp.y + dy;
        if (nx < 0 || nx >= width || ny < 0 || ny >= height) continue;
        const std::int32_t j = grid[key(nx, ny)];
        if (j < 0) continue;
        const Keypoint& other = keypoints[static_cast<std::size_t>(j)];
        // Strictly greater neighbour wins; equal score resolves by raster
        // order (earlier keypoint survives).
        if (other.score > kp.score ||
            (other.score == kp.score &&
             static_cast<std::size_t>(j) < i))
          is_max = false;
      }
    if (is_max) out.push_back(kp);
  }

  // Restore the touched cells so the next call starts empty.
  for (const Keypoint& kp : keypoints) grid[key(kp.x, kp.y)] = -1;
}

}  // namespace eslam
