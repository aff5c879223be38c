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
  // Train point t's back match: its best query (as .train) and distances.
  Match operator()(std::size_t t) const {
    return {-1, best_q[t], best_d[t], second_d[t]};
  }
};

// The acceptance rule of every tier, over each query's best match
// forward[q] (train == -1 for none): max_distance, the ratio test and,
// with cross_check, the back match back(t) of the winning train point t
// over the graph the forward side searched, which must name q and pass
// the ratio test on its own runner-up.  An out-of-gate back match would
// never be emitted as a forward match, so it must not confirm one.
// (max_distance needs no back-side gate: the agreed pair's distance is
// one symmetric Hamming value.)
template <typename BackMatch>
void accept(std::span<const Match> forward, const MatcherOptions& options,
            const BackMatch& back, std::vector<Match>& out) {
  out.reserve(forward.size());
  for (std::size_t q = 0; q < forward.size(); ++q) {
    Match m = forward[q];
    m.query = static_cast<int>(q);
    if (m.train < 0 || m.distance > options.max_distance) continue;
    if (options.ratio < 1.0 && !(m.distance < options.ratio * m.second_best))
      continue;
    if (options.cross_check) {
      const Match b = back(static_cast<std::size_t>(m.train));
      if (b.train != m.query) continue;
      if (options.ratio < 1.0 && !(b.distance < options.ratio * b.second_best))
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
  // The back match scans the query rows.
  const auto back = [&](std::size_t t) {
    return simd::best_two_rows(train.aos[t], queries);
  };
  accept(best, options, back, out);
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
  std::vector<Match> raw;
  raw.reserve(queries.size());
  for (const Descriptor256& query : queries)
    raw.push_back(match_one(query, train));
  return accept_matches(raw, queries, train, nullptr, options);
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
  if (train.empty()) return {};
  std::vector<Match> raw;
  raw.reserve(queries.size());
  std::vector<std::int32_t> list;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    candidates.expand(q, list);
    raw.push_back(match_one_candidates(queries[q], train, list));
  }
  return accept_matches(raw, queries, train, &candidates, options);
}

std::vector<Match> accept_matches(std::span<const Match> raw,
                                  std::span<const Descriptor256> queries,
                                  std::span<const Descriptor256> train,
                                  const CandidateSet* candidates,
                                  const MatcherOptions& options) {
  std::vector<Match> out;
  if (candidates == nullptr) {
    accept(raw, options,
           [&](std::size_t t) { return match_one(train[t], queries); }, out);
    return out;
  }
  std::vector<int> best_d, second_d;
  std::vector<std::int32_t> best_q;
  if (options.cross_check) {
    best_d.assign(train.size(), 256);
    second_d.assign(train.size(), 256);
    best_q.assign(train.size(), -1);
  }
  BackMatches back{best_d, second_d, best_q};
  std::vector<std::int32_t> list;
  for (std::size_t q = 0; options.cross_check && q < queries.size(); ++q) {
    candidates->expand(q, list);
    for (const std::int32_t t : list) {
      const auto idx = static_cast<std::size_t>(t);
      back.add(hamming_distance(queries[q], train[idx]), idx, q);
    }
  }
  accept(raw, options, back, out);
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
  accept(forward, options, back, out);
}

}  // namespace eslam
