// Platform timing & pipeline arithmetic for Tables 2/3 and Figure 7.
//
// Stage durations come from three sources:
//   * eSLAM FPGA stages (FE, FM): cycle simulation at 100 MHz.
//   * Host-measured software stages: wall clock of this build machine,
//     treated as the paper's "Intel i7" column (an x86 desktop-class CPU).
//   * ARM Cortex-A9: host times scaled by the per-stage ARM/i7 ratios
//     derived from the paper's own Table 2 (documented in EXPERIMENTS.md;
//     we cannot run on a real A9 here).
#pragma once

#include <span>

#include "slam/tracker.h"

namespace eslam {

// Stage-time bundle in ms (same fields as StageTimesMs, semantic alias).
using StageDurations = StageTimesMs;

// Per-stage mean over a run's results (all zero for an empty run): the
// measured stage durations Tables 2 and 3 feed the models below.
StageDurations mean_stage_times(std::span<const TrackResult> results);

// Per-stage ARM/i7 runtime ratios from the paper's Table 2:
// FE 291.6/32.5, FM 246.2/19.7, PE 9.2/0.9, PO 8.7/0.5, MU 9.9/1.2.
struct PlatformScaling {
  double fe = 291.6 / 32.5;
  double fm = 246.2 / 19.7;
  double pe = 9.2 / 0.9;
  double po = 8.7 / 0.5;
  double mu = 9.9 / 1.2;
};

// Models ARM stage times from host-measured ("i7-class") stage times.
StageDurations arm_from_host(const StageDurations& host,
                             const PlatformScaling& scaling = {});

// The paper's reported stage durations (Table 2), for side-by-side output.
StageDurations paper_eslam_times();
StageDurations paper_arm_times();
StageDurations paper_i7_times();

// ---- Frame-level pipeline (Figure 7 / Table 3) ---------------------------

// eSLAM heterogeneous pipeline:
//   normal frame: FPGA(FE+FM of frame N+1) overlaps ARM(PE+PO of frame N)
//     -> per-frame latency = max(FE + FM, PE + PO)
//   key frame: FE overlaps PE+PO, but FM must wait for MU
//     -> per-frame latency = max(FE, PE + PO) + FM + MU
double eslam_normal_frame_ms(const StageDurations& d);
double eslam_key_frame_ms(const StageDurations& d);

// Sequential software platform: straight sum (plus MU on key frames).
double software_normal_frame_ms(const StageDurations& d);
double software_key_frame_ms(const StageDurations& d);

// ---- Figure 7 timeline ----------------------------------------------------

struct TimelineSegment {
  const char* unit;   // "FPGA" or "ARM"
  const char* stage;  // "FE", "FM", "PE", "PO", "MU"
  int frame = 0;      // frame index the work belongs to
  double start_ms = 0;
  double end_ms = 0;
};

// Generates the steady-state two-frame pipeline timeline of Figure 7 for a
// normal frame (key_frame = false) or a key frame (key_frame = true).
std::vector<TimelineSegment> pipeline_timeline(const StageDurations& d,
                                               bool key_frame);

}  // namespace eslam
