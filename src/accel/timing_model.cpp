#include "accel/timing_model.h"

#include <algorithm>

namespace eslam {

StageDurations mean_stage_times(std::span<const TrackResult> results) {
  StageDurations mean;
  if (results.empty()) return mean;
  for (const TrackResult& r : results) {
    mean.feature_extraction += r.times.feature_extraction;
    mean.feature_matching += r.times.feature_matching;
    mean.pose_estimation += r.times.pose_estimation;
    mean.pose_optimization += r.times.pose_optimization;
    mean.map_updating += r.times.map_updating;
  }
  const double n = static_cast<double>(results.size());
  mean.feature_extraction /= n;
  mean.feature_matching /= n;
  mean.pose_estimation /= n;
  mean.pose_optimization /= n;
  mean.map_updating /= n;
  return mean;
}

StageDurations arm_from_host(const StageDurations& host,
                             const PlatformScaling& scaling) {
  StageDurations arm;
  arm.feature_extraction = host.feature_extraction * scaling.fe;
  arm.feature_matching = host.feature_matching * scaling.fm;
  arm.pose_estimation = host.pose_estimation * scaling.pe;
  arm.pose_optimization = host.pose_optimization * scaling.po;
  arm.map_updating = host.map_updating * scaling.mu;
  return arm;
}

StageDurations paper_eslam_times() {
  StageDurations d;
  d.feature_extraction = 9.1;
  d.feature_matching = 4.0;
  d.pose_estimation = 9.2;   // runs on the ARM host
  d.pose_optimization = 8.7;
  d.map_updating = 9.9;
  return d;
}

StageDurations paper_arm_times() {
  StageDurations d;
  d.feature_extraction = 291.6;
  d.feature_matching = 246.2;
  d.pose_estimation = 9.2;
  d.pose_optimization = 8.7;
  d.map_updating = 9.9;
  return d;
}

StageDurations paper_i7_times() {
  StageDurations d;
  d.feature_extraction = 32.5;
  d.feature_matching = 19.7;
  d.pose_estimation = 0.9;
  d.pose_optimization = 0.5;
  d.map_updating = 1.2;
  return d;
}

double eslam_normal_frame_ms(const StageDurations& d) {
  return std::max(d.feature_extraction + d.feature_matching,
                  d.pose_estimation + d.pose_optimization);
}

double eslam_key_frame_ms(const StageDurations& d) {
  return std::max(d.feature_extraction,
                  d.pose_estimation + d.pose_optimization) +
         d.feature_matching + d.map_updating;
}

double software_normal_frame_ms(const StageDurations& d) {
  return d.feature_extraction + d.feature_matching + d.pose_estimation +
         d.pose_optimization;
}

double software_key_frame_ms(const StageDurations& d) {
  return software_normal_frame_ms(d) + d.map_updating;
}

std::vector<TimelineSegment> pipeline_timeline(const StageDurations& d,
                                               bool key_frame) {
  std::vector<TimelineSegment> t;
  // Frame N work on the ARM (its FE/FM already happened last period).
  double arm = 0.0;
  t.push_back({"ARM", "PE", 0, arm, arm + d.pose_estimation});
  arm += d.pose_estimation;
  t.push_back({"ARM", "PO", 0, arm, arm + d.pose_optimization});
  arm += d.pose_optimization;

  if (!key_frame) {
    // FPGA works on frame N+1 concurrently from time 0.
    double fpga = 0.0;
    t.push_back({"FPGA", "FE", 1, fpga, fpga + d.feature_extraction});
    fpga += d.feature_extraction;
    t.push_back({"FPGA", "FM", 1, fpga, fpga + d.feature_matching});
  } else {
    // Key frame: MU follows PO on the ARM; FE overlaps, FM waits for MU.
    t.push_back({"ARM", "MU", 0, arm, arm + d.map_updating});
    const double mu_end = arm + d.map_updating;
    t.push_back({"FPGA", "FE", 1, 0.0, d.feature_extraction});
    const double fm_start = std::max(mu_end, d.feature_extraction);
    t.push_back({"FPGA", "FM", 1, fm_start, fm_start + d.feature_matching});
  }
  return t;
}

}  // namespace eslam
