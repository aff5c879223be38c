// Hamming matching kernels — the software counterparts of the BRIEF
// Matcher module.  Two tiers:
//
//   * match_descriptors(): brute force — for every query descriptor, scan
//     all train descriptors, keep the minimum-distance candidate (paper
//     section 3.2).  This is the bootstrap/relocalization/fallback tier.
//   * match_candidates(): windowed search — each query scans only its
//     candidates (the CandidateSet the slam/match_gate projection gate
//     hands over), with identical acceptance semantics (max_distance,
//     ratio, cross-check) restricted to the candidate graph.
//
// Equal distances go to the lower train index on every path: the brute
// scan meets indices in ascending order and keeps the first minimum, and
// the candidate consumers apply the rule explicitly, so their result does
// not depend on the order in which a query's candidates are visited.
#pragma once

#include <cmath>
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

// A run of consecutive candidate slots [begin, end).
struct SlotRun {
  std::int32_t begin = 0;
  std::int32_t end = 0;

  bool operator==(const SlotRun&) const = default;
};

// The gated tier's candidates: what the projection gate hands the
// matchers.
//
// Slots are map points: slot s is train index slot_train[s] at pixel
// (slot_u[s], slot_v[s]).  The gate stores its kept projections in grid
// cell order, so the slots of one cell row are contiguous.  Query q has a
// square window of half-width `radius` centred at (query_u[q],
// query_v[q]) and scans the runs runs[run_offsets[q] .. run_offsets[q+1]);
// its candidates are the scanned slots inside its window (in_window).  The
// gate's runs are the rows of grid cells the window touches, and its
// coordinates all carry the same +margin shift, so the differences are
// the ones its reference builder tests.  A query's runs name each train
// index at most once.
//
// An explicit list is a query whose slots sit at its window's centre
// (add_list): every slot it scans is a candidate.
//
// Every consumer breaks equal distances by the lower train index
// (d < best || (d == best && index < best_index)), so the best match, the
// runner-up and the cross-check outcome do not depend on the order in
// which a query's candidates are visited, and a set covering the true
// match yields the brute-force winner.  Consumers that work on explicit
// lists (the fabric model, the allocating match_candidates) take each
// query's list from expand().
struct CandidateSet {
  std::vector<std::int32_t> slot_train;
  std::vector<double> slot_u, slot_v;
  std::vector<double> query_u, query_v;
  std::vector<std::int32_t> run_offsets;  // size num_queries + 1 (or empty)
  std::vector<SlotRun> runs;
  double radius = 0;

  std::size_t num_queries() const { return query_u.size(); }
  std::size_t num_slots() const { return slot_train.size(); }
  std::span<const SlotRun> runs_of(std::size_t q) const {
    return std::span<const SlotRun>(runs).subspan(
        static_cast<std::size_t>(run_offsets[q]),
        static_cast<std::size_t>(run_offsets[q + 1] - run_offsets[q]));
  }
  bool in_window(std::size_t q, std::size_t s) const {
    return std::abs(slot_u[s] - query_u[q]) <= radius &&
           std::abs(slot_v[s] - query_v[q]) <= radius;
  }

  // Replaces `out` with query q's candidates: run by run, ascending slots.
  void expand(std::size_t q, std::vector<std::int32_t>& out) const;
  // Candidates summed over every query.
  std::size_t total_candidates() const;

  void clear();
  // Appends a query whose candidates are exactly `train`.
  void add_list(std::span<const std::int32_t> train);
};

// Returns matches for each query that passes the filters, ordered by query
// index.  O(|queries| * |train|), exactly the work the HW matcher arrays.
std::vector<Match> match_descriptors(std::span<const Descriptor256> queries,
                                     std::span<const Descriptor256> train,
                                     const MatcherOptions& options = {});

// Windowed tier: like match_descriptors() but each query only scans its
// candidates (expand()).  candidates.num_queries() must equal
// queries.size().
// The ratio test's runner-up is the second-best *candidate*; cross-check
// confirms against the best query among those listing the winning train
// point (the brute-force semantics restricted to the candidate graph).
// O(total_candidates) Hamming comparisons.
std::vector<Match> match_candidates(std::span<const Descriptor256> queries,
                                    std::span<const Descriptor256> train,
                                    const CandidateSet& candidates,
                                    const MatcherOptions& options = {});

// The acceptance rule of both tiers (max_distance, ratio, cross-check),
// over raw per-query results: raw[q] is query q's best train index (-1
// for none), distance and runner-up, as match_one() and
// match_one_candidates() report them.  With `candidates` null the
// cross-check's back match scans every query (brute force); otherwise the
// queries whose candidates name the train point.
std::vector<Match> accept_matches(std::span<const Match> raw,
                                  std::span<const Descriptor256> queries,
                                  std::span<const Descriptor256> train,
                                  const CandidateSet* candidates,
                                  const MatcherOptions& options);

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
