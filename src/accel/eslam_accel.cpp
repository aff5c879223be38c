#include "accel/eslam_accel.h"

namespace eslam {

AcceleratedBackend::AcceleratedBackend(const HwExtractorConfig& extractor,
                                       const HwMatcherConfig& matcher,
                                       const MatcherOptions& accept)
    : extractor_(extractor), matcher_(matcher), accept_(accept) {}

FeatureList AcceleratedBackend::extract(const ImageU8& image) {
  FeatureList features = extractor_.extract(image);
  extract_ms_.store(extractor_.report().ms());
  return features;
}

// The fabric returns each query's raw minimum-distance result; the host
// applies the matcher module's acceptance rule to it (accept_matches), on
// the ARM and outside the simulated fabric time.  Both tiers share it, so
// they only differ in how candidates are found.
std::vector<Match> AcceleratedBackend::match(
    std::span<const Descriptor256> queries,
    std::span<const Descriptor256> train) {
  std::vector<Match> accepted = accept_matches(
      matcher_.match(queries, train), queries, train, nullptr, accept_);
  match_ms_.store(matcher_.report().ms());
  return accepted;
}

std::vector<Match> AcceleratedBackend::match_candidates(
    std::span<const Descriptor256> queries,
    std::span<const Descriptor256> train, const CandidateSet& candidates) {
  std::vector<Match> accepted =
      accept_matches(matcher_.match_candidates(queries, train, candidates),
                     queries, train, &candidates, accept_);
  match_ms_.store(matcher_.report().ms());
  return accepted;
}

}  // namespace eslam
