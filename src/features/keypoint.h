// Keypoint and feature records shared by the software and hardware paths.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "features/descriptor.h"

namespace eslam {

struct Keypoint {
  // Position in the coordinates of the pyramid level it was detected on.
  int x = 0;
  int y = 0;
  int level = 0;
  // Scale of that level (level coords * scale = level-0 coords).
  double scale = 1.0;
  // Harris corner response used for filtering (fixed-point in the HW path).
  std::int64_t score = 0;
  // Continuous orientation (radians, atan2 convention) — software path.
  double angle = 0.0;
  // Discretized orientation label n in [0, 32): n * 11.25 degrees.
  int orientation_label = 0;

  double x0() const { return x * scale; }  // level-0 pixel coordinates
  double y0() const { return y * scale; }
};

struct Feature {
  Keypoint keypoint;
  Descriptor256 descriptor;
};

using FeatureList = std::vector<Feature>;

// The features' descriptors, read in place (no staging copy).
inline DescriptorRows descriptor_rows(std::span<const Feature> features) {
  return {features.empty() ? nullptr : &features.front().descriptor,
          sizeof(Feature), features.size()};
}

}  // namespace eslam
