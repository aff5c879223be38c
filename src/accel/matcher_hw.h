// Cycle-level model of the BRIEF Matcher (paper Figure 6).
//
// The Distance Computing module holds P parallel 256-bit XOR + popcount
// units: each cycle it compares one query descriptor against P map
// descriptors.  The Comparator keeps the running minimum; results stream
// into the Result Cache and back to SDRAM.  Map descriptors arrive from
// SDRAM over AXI, double-buffered so the load overlaps compute.
//
// Two modes share the datapath:
//   * full scan (match): every query against every map descriptor — the
//     load streams the whole map once, compute is |q| * ceil(m/P) cycles;
//   * gated (match_candidates): the host uploads each query's candidate
//     index list (its gate window, expanded), and the fabric gathers only
//     those descriptors — compute is sum_q max(1, ceil(|cand_q|/P)) cycles
//     and the SDRAM load shrinks to the candidate descriptors plus the
//     index lists themselves, so simulated FPGA time reflects the reduced
//     workload.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "features/matcher.h"
#include "hw/axi.h"
#include "hw/clock.h"

namespace eslam {

struct HwMatcherConfig {
  int parallelism = 8;        // distance units (P)
  int pipeline_depth = 6;     // XOR + popcount adder tree latency
  AxiConfig axi;
};

struct HwMatcherReport {
  std::uint64_t compute_cycles = 0;
  std::uint64_t load_cycles = 0;       // map descriptors (+ candidate lists)
  std::uint64_t writeback_cycles = 0;  // results to SDRAM
  std::uint64_t total_cycles = 0;      // max(compute, load) + writeback
  int queries = 0;
  int map_points = 0;
  bool gated = false;                  // candidate-gated mode
  std::uint64_t candidates = 0;        // total candidate pairs (gated mode)
  double ms() const { return cycles_to_ms(total_cycles); }
};

class BriefMatcherHw {
 public:
  explicit BriefMatcherHw(const HwMatcherConfig& config = {});

  // Minimum-distance match per query (no thresholding — the host applies
  // acceptance gates, as in the paper where raw results return to SDRAM).
  // Functionally identical to match_one() for every query.
  std::vector<Match> match(std::span<const Descriptor256> queries,
                           std::span<const Descriptor256> map_descriptors);

  // Gated mode: each query scans only its candidate list
  // (CandidateSet::expand()).  Functionally identical to
  // match_one_candidates() for every query; a query with an empty list
  // reports train == -1.
  std::vector<Match> match_candidates(
      std::span<const Descriptor256> queries,
      std::span<const Descriptor256> map_descriptors,
      const CandidateSet& candidates);

  const HwMatcherReport& report() const { return report_; }
  const HwMatcherConfig& config() const { return config_; }

 private:
  HwMatcherConfig config_;
  HwMatcherReport report_;
};

}  // namespace eslam
