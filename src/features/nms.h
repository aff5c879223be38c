// 3x3 non-maximum suppression over keypoint scores (paper's NMS module):
// keeps a keypoint only when its Harris score is the maximum within its
// 3x3 pixel neighbourhood.
#pragma once

#include <vector>

#include "features/keypoint.h"

namespace eslam {

// Suppresses keypoints that are not the local score maximum.  `width` and
// `height` bound the grid; neighbours outside it are skipped, never wrapped
// to the adjacent row.  Ties are broken toward the earlier (raster-order)
// keypoint, matching the streaming hardware which emits the first maximal
// candidate it sees.
std::vector<Keypoint> nms_3x3(const std::vector<Keypoint>& keypoints,
                              int width, int height);

// Reusable scratch for nms_3x3_into: a dense keypoint-index grid, grown to
// the largest image seen and restored to "empty" (-1) after every call, so
// repeated calls never allocate.  Own one per extractor.
struct NmsScratch {
  std::vector<std::int32_t> grid;
};

// Same suppression into recycled buffers; nms_3x3() wraps it.
void nms_3x3_into(const std::vector<Keypoint>& keypoints, int width,
                  int height, NmsScratch& scratch, std::vector<Keypoint>& out);

}  // namespace eslam
