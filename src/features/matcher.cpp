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

// Cross-check's back side over the candidate graph: each train point's
// best query and runner-up distance.  Fed in ascending query order, the
// order match_one() scans the queries in for the back match, so the lower
// query wins a tie.
struct BackMatches {
  std::span<int> best_d, second_d;
  std::span<std::int32_t> best_q;

  void add(int d, std::size_t t, std::size_t q) {
    if (d < best_d[t]) {
      second_d[t] = best_d[t];
      best_d[t] = d;
      best_q[t] = static_cast<std::int32_t>(q);
    } else if (d < second_d[t]) {
      second_d[t] = d;
    }
  }
};

// The gated tier's acceptance of each query's best candidate forward[q];
// `back` is null unless cross-checking.
void accept_candidates(std::span<const Match> forward, const BackMatches* back,
                       const MatcherOptions& options, std::vector<Match>& out) {
  out.reserve(forward.size());
  for (std::size_t q = 0; q < forward.size(); ++q) {
    Match m = forward[q];
    m.query = static_cast<int>(q);
    if (m.train < 0 || m.distance > options.max_distance) continue;
    if (options.ratio < 1.0 && !(m.distance < options.ratio * m.second_best))
      continue;
    if (back != nullptr) {
      const std::size_t t = static_cast<std::size_t>(m.train);
      if (back->best_q[t] != static_cast<std::int32_t>(q)) continue;
      if (options.ratio < 1.0 &&
          !(back->best_d[t] < options.ratio * back->second_d[t]))
        continue;
    }
    out.push_back(m);
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

void CandidateSet::expand(std::size_t q, std::vector<std::int32_t>& out) const {
  out.clear();
  for (const SlotRun& run : runs_of(q))
    for (std::int32_t s = run.begin; s < run.end; ++s)
      if (in_window(q, static_cast<std::size_t>(s)))
        out.push_back(slot_train[static_cast<std::size_t>(s)]);
}

std::size_t CandidateSet::total_candidates() const {
  std::size_t total = 0;
  for (std::size_t q = 0; q < num_queries(); ++q)
    for (const SlotRun& run : runs_of(q))
      for (std::int32_t s = run.begin; s < run.end; ++s)
        total += in_window(q, static_cast<std::size_t>(s)) ? 1 : 0;
  return total;
}

void CandidateSet::clear() {
  slot_train.clear();
  slot_u.clear();
  slot_v.clear();
  query_u.clear();
  query_v.clear();
  run_offsets.clear();
  runs.clear();
  radius = 0;
}

void CandidateSet::add_list(std::span<const std::int32_t> train) {
  if (run_offsets.empty()) run_offsets.push_back(0);
  const auto begin = static_cast<std::int32_t>(slot_train.size());
  slot_train.insert(slot_train.end(), train.begin(), train.end());
  slot_u.resize(slot_train.size(), 0.0);
  slot_v.resize(slot_train.size(), 0.0);
  query_u.push_back(0.0);
  query_v.push_back(0.0);
  runs.push_back({begin, static_cast<std::int32_t>(slot_train.size())});
  run_offsets.push_back(static_cast<std::int32_t>(runs.size()));
}

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

  // Forward pass: per-query best/second over its candidate list, and the
  // back side over the same candidate graph when cross-checking.
  std::vector<Match> forward(queries.size());
  std::vector<int> best_d, second_d;
  std::vector<std::int32_t> best_q;
  if (options.cross_check) {
    best_d.assign(train.size(), 256);
    second_d.assign(train.size(), 256);
    best_q.assign(train.size(), -1);
  }
  BackMatches back{best_d, second_d, best_q};
  std::vector<std::int32_t> list;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    candidates.expand(q, list);
    for (const std::int32_t idx : list) {
      const int d =
          hamming_distance(queries[q], train[static_cast<std::size_t>(idx)]);
      keep_best_candidate(d, idx, forward[q]);
      if (options.cross_check) back.add(d, static_cast<std::size_t>(idx), q);
    }
  }
  accept_candidates(forward, options.cross_check ? &back : nullptr, options,
                    out);
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

  // Each slot's descriptor in slot order, so a run is a block of
  // contiguous rows, with the zeroed tail the window kernels read past a
  // run's end.
  const std::size_t slots = candidates.num_slots();
  const std::size_t padded = slots + simd::kSlotRowPad;
  auto* const rows = static_cast<Descriptor256*>(
      arena.allocate(padded * sizeof(Descriptor256), 64));
  for (std::size_t s = 0; s < slots; ++s)
    rows[s] = train.aos[static_cast<std::size_t>(candidates.slot_train[s])];
  std::fill(rows + slots, rows + padded, Descriptor256{});

  const std::span<Match> forward = arena.alloc_span<Match>(queries.size());
  simd::best_two_windows(candidates, rows, descriptor_rows(queries),
                         forward.data());

  // Cross-check: the back side over the same candidate graph.
  BackMatches back;
  if (options.cross_check) {
    back = {arena.alloc_span<int>(train.size(), 256),
            arena.alloc_span<int>(train.size(), 256),
            arena.alloc_span<std::int32_t>(train.size(), -1)};
    for (std::size_t q = 0; q < queries.size(); ++q) {
      for (const SlotRun& run : candidates.runs_of(q)) {
        for (std::int32_t s = run.begin; s < run.end; ++s) {
          const auto slot = static_cast<std::size_t>(s);
          if (!candidates.in_window(q, slot)) continue;
          back.add(hamming_distance(queries[q].descriptor, rows[slot]),
                   static_cast<std::size_t>(candidates.slot_train[slot]), q);
        }
      }
    }
  }
  accept_candidates(forward, options.cross_check ? &back : nullptr, options,
                    out);
}

}  // namespace eslam
