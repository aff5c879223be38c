#include "features/matcher.h"

#include <algorithm>

#include "core/hot_align.h"
#include "features/simd_kernels.h"
#include "geometry/assert.h"

namespace eslam {

namespace {

Arena& fallback_arena() {
  thread_local Arena arena;
  return arena;
}

// Candidate-list update: a distance below the best, or equal to it at a
// lower train index, takes the lead.  With each index listed at most once
// the outcome is the same for any list order — the lowest-index minimum
// and the second smallest distance, as match_one()'s ascending scan finds.
inline void keep_best_candidate(int d, std::int32_t idx, Match& m) {
  if (d < m.distance || (d == m.distance && idx < m.train)) {
    m.second_best = m.distance;
    m.distance = d;
    m.train = idx;
  } else if (d < m.second_best) {
    m.second_best = d;
  }
}

// The brute-force/verification tier over query rows (features read in
// place, or packed descriptors).
ESLAM_HOT_ALIGN void match_rows_into(
    DescriptorRows queries, const TrainView& train,
    const MatcherOptions& options, Arena* scratch, std::vector<Match>& out) {
  out.clear();
  if (train.empty()) return;
  Arena& arena = scratch != nullptr ? *scratch : fallback_arena();
  const ArenaScope scope(arena);
  const std::span<Match> best = arena.alloc_span<Match>(queries.size());
  if (train.soa != nullptr) {
    simd::best_two_block(*train.soa, train.size(), queries, best.data());
  } else {
    const DescriptorRows rows = descriptor_rows(train.aos);
    for (std::size_t i = 0; i < queries.size(); ++i)
      best[i] = simd::best_two_rows(queries[i], rows);
  }
  out.reserve(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    Match m = best[i];
    m.query = static_cast<int>(i);
    if (m.train < 0 || m.distance > options.max_distance) continue;
    if (options.ratio < 1.0 && !(m.distance < options.ratio * m.second_best))
      continue;
    if (options.cross_check) {
      // Back match over the query rows, same gates as match_descriptors().
      const Match back = simd::best_two_rows(
          train.aos[static_cast<std::size_t>(m.train)], queries);
      if (back.train != static_cast<int>(i)) continue;
      if (options.ratio < 1.0 &&
          !(back.distance < options.ratio * back.second_best))
        continue;
    }
    out.push_back(m);
  }
}

}  // namespace

Match match_one(const Descriptor256& query,
                std::span<const Descriptor256> train) {
  Match m;
  for (std::size_t j = 0; j < train.size(); ++j) {
    const int d = hamming_distance(query, train[j]);
    if (d < m.distance) {
      m.second_best = m.distance;
      m.distance = d;
      m.train = static_cast<int>(j);
    } else if (d < m.second_best) {
      m.second_best = d;
    }
  }
  return m;
}

std::vector<Match> match_descriptors(std::span<const Descriptor256> queries,
                                     std::span<const Descriptor256> train,
                                     const MatcherOptions& options) {
  std::vector<Match> out;
  if (train.empty()) return out;
  out.reserve(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    Match m = match_one(queries[i], train);
    m.query = static_cast<int>(i);
    if (m.train < 0 || m.distance > options.max_distance) continue;
    if (options.ratio < 1.0 &&
        !(m.distance < options.ratio * m.second_best))
      continue;
    if (options.cross_check) {
      // Symmetric check: the back match must itself pass the acceptance
      // gates, not just point back.  Once back.train == m.query the two
      // distances are the same Hamming pair, so max_distance holds by the
      // forward gate — the back-side condition that can differ is the
      // ratio test, whose runner-up comes from the query set instead of
      // the train set.  An out-of-gate back match (ratio failure) would
      // never be emitted as a forward match and must not confirm one.
      const Match back = match_one(train[static_cast<std::size_t>(m.train)],
                                   queries);
      if (back.train != m.query) continue;
      if (options.ratio < 1.0 &&
          !(back.distance < options.ratio * back.second_best))
        continue;
    }
    out.push_back(m);
  }
  return out;
}

Match match_one_candidates(const Descriptor256& query,
                           std::span<const Descriptor256> train,
                           std::span<const std::int32_t> candidates) {
  Match m;
  for (const std::int32_t idx : candidates)
    keep_best_candidate(
        hamming_distance(query, train[static_cast<std::size_t>(idx)]), idx,
        m);
  return m;
}

std::vector<Match> match_candidates(std::span<const Descriptor256> queries,
                                    std::span<const Descriptor256> train,
                                    const CandidateSet& candidates,
                                    const MatcherOptions& options) {
  ESLAM_ASSERT(candidates.num_queries() == queries.size(),
               "candidate set does not cover the query set");
  std::vector<Match> out;
  if (train.empty() || queries.empty()) return out;

  // Forward pass: per-query best/second over its candidate list.  When
  // cross-checking, track each train point's best/second query over the
  // same candidate graph in the same pass — queries arrive in ascending
  // order, which is the scan order match_one() would use for the back
  // match, whatever the order inside each list.
  std::vector<Match> forward(queries.size());
  std::vector<int> train_best_d, train_second_d;
  std::vector<std::int32_t> train_best_q;
  if (options.cross_check) {
    train_best_d.assign(train.size(), 256);
    train_second_d.assign(train.size(), 256);
    train_best_q.assign(train.size(), -1);
  }
  for (std::size_t q = 0; q < queries.size(); ++q) {
    for (const std::int32_t idx : candidates.candidates(q)) {
      const int d =
          hamming_distance(queries[q], train[static_cast<std::size_t>(idx)]);
      keep_best_candidate(d, idx, forward[q]);
      if (options.cross_check) {
        const std::size_t t = static_cast<std::size_t>(idx);
        if (d < train_best_d[t]) {
          train_second_d[t] = train_best_d[t];
          train_best_d[t] = d;
          train_best_q[t] = static_cast<std::int32_t>(q);
        } else if (d < train_second_d[t]) {
          train_second_d[t] = d;
        }
      }
    }
  }

  out.reserve(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    Match m = forward[q];
    m.query = static_cast<int>(q);
    if (m.train < 0 || m.distance > options.max_distance) continue;
    if (options.ratio < 1.0 && !(m.distance < options.ratio * m.second_best))
      continue;
    if (options.cross_check) {
      const std::size_t t = static_cast<std::size_t>(m.train);
      if (train_best_q[t] != static_cast<std::int32_t>(q)) continue;
      if (options.ratio < 1.0 &&
          !(train_best_d[t] < options.ratio * train_second_d[t]))
        continue;
    }
    out.push_back(m);
  }
  return out;
}

void match_descriptors_into(std::span<const Feature> queries,
                            const TrainView& train,
                            const MatcherOptions& options, Arena* scratch,
                            std::vector<Match>& out) {
  match_rows_into(descriptor_rows(queries), train, options, scratch, out);
}

void match_descriptors_into(std::span<const Descriptor256> queries,
                            const TrainView& train,
                            const MatcherOptions& options, Arena* scratch,
                            std::vector<Match>& out) {
  match_rows_into(descriptor_rows(queries), train, options, scratch, out);
}

ESLAM_HOT_ALIGN void match_candidates_into(
    std::span<const Feature> queries, const TrainView& train,
    const CandidateSet& candidates, const MatcherOptions& options,
    Arena* scratch, std::vector<Match>& out) {
  ESLAM_ASSERT(candidates.num_queries() == queries.size(),
               "candidate set does not cover the query set");
  out.clear();
  if (train.empty() || queries.empty()) return;
  Arena& arena = scratch != nullptr ? *scratch : fallback_arena();
  const ArenaScope scope(arena);

  std::size_t max_list = 0;
  for (std::size_t q = 0; q < queries.size(); ++q)
    max_list = std::max(max_list, candidates.candidates(q).size());
  const std::span<std::uint16_t> dist =
      arena.alloc_span<std::uint16_t>(max_list);

  const std::span<Match> forward = arena.alloc_span<Match>(
      queries.size(), Match{});
  std::span<int> train_best_d, train_second_d;
  std::span<std::int32_t> train_best_q;
  if (options.cross_check) {
    train_best_d = arena.alloc_span<int>(train.size(), 256);
    train_second_d = arena.alloc_span<int>(train.size(), 256);
    train_best_q = arena.alloc_span<std::int32_t>(train.size(), -1);
  }

  for (std::size_t q = 0; q < queries.size(); ++q) {
    const std::span<const std::int32_t> list = candidates.candidates(q);
    if (list.empty()) continue;
    simd::hamming_gather(train.aos, queries[q].descriptor, list, dist.data());
    Match& m = forward[q];
    for (std::size_t j = 0; j < list.size(); ++j) {
      const int d = dist[j];
      const std::int32_t idx = list[j];
      keep_best_candidate(d, idx, m);
      if (options.cross_check) {
        const std::size_t t = static_cast<std::size_t>(idx);
        if (d < train_best_d[t]) {
          train_second_d[t] = train_best_d[t];
          train_best_d[t] = d;
          train_best_q[t] = static_cast<std::int32_t>(q);
        } else if (d < train_second_d[t]) {
          train_second_d[t] = d;
        }
      }
    }
  }

  out.reserve(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    Match m = forward[q];
    m.query = static_cast<int>(q);
    if (m.train < 0 || m.distance > options.max_distance) continue;
    if (options.ratio < 1.0 && !(m.distance < options.ratio * m.second_best))
      continue;
    if (options.cross_check) {
      const std::size_t t = static_cast<std::size_t>(m.train);
      if (train_best_q[t] != static_cast<std::int32_t>(q)) continue;
      if (options.ratio < 1.0 &&
          !(train_best_d[t] < options.ratio * train_second_d[t]))
        continue;
    }
    out.push_back(m);
  }
}

}  // namespace eslam
