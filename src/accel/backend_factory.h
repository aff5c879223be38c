// Per-session feature-backend construction: a sequential Tracker is built
// from make_feature_backend(config), and the multi-session SlamService
// (server/) builds each session's backend the same way.
//
// Backends are deliberately cheap to instantiate per session: all heavy
// inputs (the RS-BRIEF pattern tables, cycle-model configs) are small
// value types rebuilt from the config, and each instance owns its own
// mutable state — cycle reports, wall timers and the last-stage timing
// caches — so N sessions never share a mutable backend.  The only fields
// read across threads are the atomic last_*_time_ms() caches (stats
// readers poll them while a device lane drives extract()/match()), which
// is why they must stay atomics (see FeatureBackend).
#pragma once

#include <memory>

#include "accel/eslam_accel.h"
#include "features/orb.h"
#include "slam/tracker.h"

namespace eslam {

enum class Platform {
  kSoftware,     // all five stages in software (baseline)
  kAccelerated,  // FE + FM on the simulated FPGA fabric (eSLAM)
};

// Everything needed to build one session's feature backend.
struct BackendConfig {
  Platform platform = Platform::kAccelerated;
  // Descriptor for the software platform (the accelerator is RS-BRIEF by
  // construction — that is the paper's point).
  DescriptorMode descriptor = DescriptorMode::kRsBrief;
  OrbConfig orb;                   // software extractor settings
  HwExtractorConfig hw_extractor;  // accelerated extractor settings
  HwMatcherConfig hw_matcher;
  MatcherOptions matcher;          // host-side acceptance gates
};

// Builds a fresh backend instance for one session/tracker.
std::unique_ptr<FeatureBackend> make_feature_backend(
    const BackendConfig& config);

}  // namespace eslam
