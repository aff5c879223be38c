// Software ORB extractor: the end-to-end reference pipeline
// (pyramid -> FAST -> Harris -> NMS -> orientation -> descriptor -> top-N),
// configurable between the paper's RS-BRIEF and the original ORB descriptor.
// This is the "software implementation" the paper times on ARM/Intel; the
// bit-faithful FPGA pipeline lives in accel/orb_extractor_hw.
#pragma once

#include <vector>

#include "features/brief.h"
#include "features/fast.h"
#include "features/keypoint.h"
#include "features/nms.h"
#include "image/pyramid.h"

namespace eslam {

enum class DescriptorMode {
  kRsBrief,    // paper's rotationally symmetric pattern + byte rotation
  kOrbLut,     // original ORB: 30-angle pre-rotated pattern LUT
  kOrbExact,   // original BRIEF with exact per-feature rotation (Eq. 2)
};

struct OrbConfig {
  int n_features = 1024;        // heap capacity in the paper
  int fast_threshold = kFastDefaultThreshold;
  int levels = kPyramidLevels;  // 4-layer pyramid
  double scale = kPyramidScale; // 1.2
  DescriptorMode mode = DescriptorMode::kRsBrief;
  // Border inside which no keypoint is accepted; covers the FAST circle,
  // the Harris window and the radius-15 descriptor/orientation patch.
  int border = kPatternRadius + 1;
};

struct OrbExtractionStats {
  int detected = 0;    // M: FAST corners surviving NMS, all levels
  int described = 0;   // descriptors computed (== detected when rescheduled)
  int kept = 0;        // N: features after top-N filtering
};

class OrbExtractor {
 public:
  explicit OrbExtractor(const OrbConfig& config = {});

  // Extracts features from a grayscale frame.  Stats from the last call are
  // available via last_stats().
  FeatureList extract(const ImageU8& image);

  // Same output into a recycled FeatureList.  The extractor recycles its
  // pyramid, keypoint, NMS-grid, and smoothing buffers across calls, so a
  // steady-state extraction performs zero heap allocations.  Not
  // reentrant (the scratch is per-extractor state, like stats_).
  void extract_into(const ImageU8& image, FeatureList& out);

  const OrbConfig& config() const { return config_; }
  const OrbExtractionStats& last_stats() const { return stats_; }

 private:
  OrbConfig config_;
  RsBriefPattern rs_pattern_;
  OriginalBriefPattern orb_pattern_;
  OrbExtractionStats stats_;
  // Per-frame scratch, reused across extract_into() calls.
  ImagePyramid pyramid_;
  std::vector<Keypoint> raw_kps_;
  std::vector<Keypoint> nms_kps_;
  NmsScratch nms_grid_;
  Image<std::uint16_t> smooth_tmp_;
  ImageU8 smoothed_;
};

}  // namespace eslam
