// Hamming matching kernels — the software counterparts of the BRIEF
// Matcher module.  Two tiers:
//
//   * match_descriptors(): brute force — for every query descriptor, scan
//     all train descriptors, keep the minimum-distance candidate (paper
//     section 3.2).  This is the bootstrap/relocalization/fallback tier.
//   * match_candidates(): windowed search — each query scans only its
//     candidate list (built by the slam/match_gate projection gate), with
//     identical acceptance semantics (max_distance, ratio, cross-check)
//     restricted to the candidate graph.
//
// Equal distances go to the lower train index on every path: the brute
// scan meets indices in ascending order and keeps the first minimum, and
// the candidate consumers apply the rule explicitly, so their result does
// not depend on the order of a candidate list.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/arena.h"
#include "features/descriptor.h"
#include "features/descriptor_soa.h"
#include "features/keypoint.h"

namespace eslam {

struct Match {
  int query = -1;       // index into the query set
  int train = -1;       // index into the train set (global map)
  int distance = 256;   // Hamming distance of the winning pair
  int second_best = 256;  // runner-up distance (for the ratio test)
};

struct MatcherOptions {
  // Accept only matches at or below this Hamming distance.  64/256 bits is
  // the usual ORB operating point.
  int max_distance = 64;
  // Lowe-style ratio test: require distance < ratio * second_best.
  // Disabled when >= 1.
  double ratio = 1.0;
  // Keep a match only when the reverse direction agrees: train's best
  // query is query as well, AND that back match passes the ratio test on
  // its own (query-side) runner-up.  The check is symmetric: a back match
  // the matcher would reject as a forward match cannot confirm anything.
  // (max_distance needs no back-side gate — the agreed pair's distance is
  // one symmetric Hamming value, already gated on the forward side.)
  bool cross_check = false;
};

// Per-query candidate lists in CSR form: the candidates of query q are
// train indices indices[offsets[q] .. offsets[q+1]).  A list may come in
// any order but names each train index at most once.  Every consumer
// breaks equal distances by the lower train index
// (d < best || (d == best && index < best_index)), so the best match, the
// runner-up and the cross-check outcome are the same for any order of the
// list, and a list covering the true match yields the brute-force winner.
struct CandidateSet {
  std::vector<std::int32_t> indices;
  std::vector<std::int32_t> offsets;  // size num_queries + 1 (or empty)

  std::size_t num_queries() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  std::size_t total_candidates() const { return indices.size(); }
  std::span<const std::int32_t> candidates(std::size_t q) const {
    return std::span<const std::int32_t>(indices)
        .subspan(static_cast<std::size_t>(offsets[q]),
                 static_cast<std::size_t>(offsets[q + 1] - offsets[q]));
  }
};

// Returns matches for each query that passes the filters, ordered by query
// index.  O(|queries| * |train|), exactly the work the HW matcher arrays.
std::vector<Match> match_descriptors(std::span<const Descriptor256> queries,
                                     std::span<const Descriptor256> train,
                                     const MatcherOptions& options = {});

// Windowed tier: like match_descriptors() but each query only scans its
// candidate list.  candidates.num_queries() must equal queries.size().
// The ratio test's runner-up is the second-best *candidate*; cross-check
// confirms against the best query among those listing the winning train
// point (the brute-force semantics restricted to the candidate graph).
// O(total_candidates) Hamming comparisons.
std::vector<Match> match_candidates(std::span<const Descriptor256> queries,
                                    std::span<const Descriptor256> train,
                                    const CandidateSet& candidates,
                                    const MatcherOptions& options = {});

// Single query against the train set (min + second-min distances).
Match match_one(const Descriptor256& query,
                std::span<const Descriptor256> train);

// Single query against a candidate list (indices into `train`, any order,
// each at most once).  m.train is a train index, not a list position.
Match match_one_candidates(const Descriptor256& query,
                           std::span<const Descriptor256> train,
                           std::span<const std::int32_t> candidates);

// ---- Zero-allocation / SIMD tier ------------------------------------------
//
// The _into variants are the steady-state hot path and the verification
// path: queries come straight from the frame's FeatureList (no staging
// copy of descriptors) or from a packed descriptor array, every distance
// comes from the runtime-dispatched kernels in features/simd_kernels.h,
// and all scratch lives in the caller's arena.  Output semantics are
// bit-identical to the AoS functions above (same distances, same
// lowest-index tie winners, same acceptance order) — the tests in
// tests/features/simd_parity_test.cpp hold the two tiers equal on
// randomized inputs.

// Both views describe the same descriptor sequence.  Brute force scans the
// SoA word planes when `soa` is set and the AoS rows otherwise; the gated
// tier and the cross-check back scan always read AoS rows.
struct TrainView {
  std::span<const Descriptor256> aos;
  const DescriptorSoA* soa = nullptr;

  std::size_t size() const { return aos.size(); }
  bool empty() const { return aos.empty(); }
};

// Brute-force tier into a recycled output vector.  `scratch` may be null
// (an internal thread-local arena is used).  The second overload takes
// packed query descriptors (the verification matchers: relocalization and
// loop closure, both with cross_check).
void match_descriptors_into(std::span<const Feature> queries,
                            const TrainView& train,
                            const MatcherOptions& options, Arena* scratch,
                            std::vector<Match>& out);
void match_descriptors_into(std::span<const Descriptor256> queries,
                            const TrainView& train,
                            const MatcherOptions& options, Arena* scratch,
                            std::vector<Match>& out);

// Windowed tier into a recycled output vector.
void match_candidates_into(std::span<const Feature> queries,
                           const TrainView& train,
                           const CandidateSet& candidates,
                           const MatcherOptions& options, Arena* scratch,
                           std::vector<Match>& out);

}  // namespace eslam
