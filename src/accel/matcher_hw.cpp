#include "accel/matcher_hw.h"

#include "geometry/assert.h"

namespace eslam {

BriefMatcherHw::BriefMatcherHw(const HwMatcherConfig& config)
    : config_(config) {
  ESLAM_ASSERT(config.parallelism > 0, "parallelism must be positive");
}

std::vector<Match> BriefMatcherHw::match(
    std::span<const Descriptor256> queries,
    std::span<const Descriptor256> map_descriptors) {
  report_ = {};
  report_.queries = static_cast<int>(queries.size());
  report_.map_points = static_cast<int>(map_descriptors.size());

  std::vector<Match> out;
  out.reserve(queries.size());
  if (map_descriptors.empty()) return out;

  // Functional result: exact running-minimum scan per query; ties resolve
  // to the lowest map index, the order the hardware scans the cache.
  for (std::size_t i = 0; i < queries.size(); ++i) {
    Match m = match_one(queries[i], map_descriptors);
    m.query = static_cast<int>(i);
    out.push_back(m);
  }

  // Timing: each query takes ceil(m / P) cycles of distance computing.
  const std::uint64_t m = map_descriptors.size();
  const std::uint64_t p = static_cast<std::uint64_t>(config_.parallelism);
  const std::uint64_t batches_per_query = (m + p - 1) / p;
  report_.compute_cycles =
      static_cast<std::uint64_t>(queries.size()) * batches_per_query +
      static_cast<std::uint64_t>(config_.pipeline_depth);

  AxiBusModel axi(config_.axi);
  report_.load_cycles = axi.read_cycles(m * 32u);  // 256-bit descriptors
  report_.writeback_cycles =
      axi.write_cycles(static_cast<std::uint64_t>(queries.size()) * 8u);

  // Descriptor load is double-buffered behind compute; writeback follows.
  report_.total_cycles =
      std::max(report_.compute_cycles, report_.load_cycles) +
      report_.writeback_cycles;
  return out;
}

std::vector<Match> BriefMatcherHw::match_candidates(
    std::span<const Descriptor256> queries,
    std::span<const Descriptor256> map_descriptors,
    const CandidateSet& candidates) {
  ESLAM_ASSERT(candidates.num_queries() == queries.size(),
               "candidate set does not cover the query set");
  report_ = {};
  report_.gated = true;
  report_.queries = static_cast<int>(queries.size());
  report_.map_points = static_cast<int>(map_descriptors.size());
  report_.candidates = candidates.total_candidates();

  std::vector<Match> out;
  out.reserve(queries.size());
  if (map_descriptors.empty()) return out;

  // Functional result: running minimum over each query's candidate list,
  // whose tie rule (lower map index wins) resolves ties exactly as the full
  // scan's lowest-index rule.
  const std::uint64_t p = static_cast<std::uint64_t>(config_.parallelism);
  std::uint64_t compute = 0;
  std::vector<std::int32_t> list;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    candidates.expand(i, list);
    Match m = match_one_candidates(queries[i], map_descriptors, list);
    m.query = static_cast<int>(i);
    out.push_back(m);
    // Each query occupies the comparator at least one cycle (issue/drain),
    // then ceil(|candidates| / P) distance batches.
    compute += std::max<std::uint64_t>(1, (list.size() + p - 1) / p);
  }
  report_.compute_cycles =
      compute + static_cast<std::uint64_t>(config_.pipeline_depth);

  // SDRAM traffic: the gather streams each referenced descriptor once per
  // candidate entry (32 bytes) plus the candidate index lists themselves
  // (4 bytes each) — no cross-query dedup, matching a streaming gather.
  AxiBusModel axi(config_.axi);
  report_.load_cycles =
      axi.read_cycles(report_.candidates * 32u) +
      axi.read_cycles(report_.candidates * 4u);
  report_.writeback_cycles =
      axi.write_cycles(static_cast<std::uint64_t>(queries.size()) * 8u);
  report_.total_cycles =
      std::max(report_.compute_cycles, report_.load_cycles) +
      report_.writeback_cycles;
  return out;
}

}  // namespace eslam
