#include "backend/keyframe_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "geometry/assert.h"

namespace eslam::backend {

void KeyframeIndex::words_of(const Descriptor256& d,
                             std::uint32_t out[kChunksPerDescriptor]) {
  for (int c = 0; c < kChunksPerDescriptor; ++c) {
    const std::uint64_t word64 = d.words()[static_cast<std::size_t>(c / 4)];
    const std::uint32_t value =
        static_cast<std::uint32_t>((word64 >> ((c % 4) * 16)) & 0xffffu);
    out[c] = (static_cast<std::uint32_t>(c) << 16) | value;
  }
}

void KeyframeIndex::add_keyframe(
    int keyframe_id, std::span<const KeyframeObservation> observations) {
  ESLAM_ASSERT(words_by_kf_.find(keyframe_id) == words_by_kf_.end(),
               "keyframe already indexed");
  std::vector<std::uint32_t> words;
  words.reserve(observations.size() * kChunksPerDescriptor);
  std::uint32_t w[kChunksPerDescriptor];
  for (const KeyframeObservation& obs : observations) {
    words_of(obs.descriptor, w);
    words.insert(words.end(), w, w + kChunksPerDescriptor);
  }
  std::sort(words.begin(), words.end());
  words.erase(std::unique(words.begin(), words.end()), words.end());
  for (const std::uint32_t word : words) {
    std::vector<int>& posting = postings_[word];
    // Ids arrive ascending, so appending keeps postings sorted.
    ESLAM_ASSERT(posting.empty() || posting.back() < keyframe_id,
                 "keyframe ids must be inserted in ascending order");
    posting.push_back(keyframe_id);
  }
  words_by_kf_.emplace(keyframe_id, std::move(words));
}

void KeyframeIndex::remove_below(int first_live_id) {
  std::vector<int> dead;
  for (const auto& [id, words] : words_by_kf_)
    if (id < first_live_id) dead.push_back(id);
  if (dead.empty()) return;
  for (const int id : dead) {
    const auto it = words_by_kf_.find(id);
    for (const std::uint32_t word : it->second) {
      const auto posting = postings_.find(word);
      if (posting == postings_.end()) continue;
      // Evictions remove the oldest ids, which sit at the front.
      std::erase(posting->second, id);
      if (posting->second.empty()) postings_.erase(posting);
    }
    words_by_kf_.erase(it);
  }
}

std::vector<KeyframeScore> KeyframeIndex::query(
    std::span<const Descriptor256> descriptors, int max_results) const {
  std::vector<KeyframeScore> ranked;
  if (descriptors.empty() || words_by_kf_.empty() || max_results <= 0)
    return ranked;

  // Votes go to a dense array over the live id range, each keyframe's in
  // the order the scan meets them (descriptor, chunk, posting); `touched`
  // lists the keyframes voted for.  Every idf is positive, so a zero vote
  // is a keyframe not yet touched.
  int first_id = std::numeric_limits<int>::max(), last_id = 0;
  for (const auto& [id, words] : words_by_kf_) {
    first_id = std::min(first_id, id);
    last_id = std::max(last_id, id);
  }
  std::vector<double> votes(static_cast<std::size_t>(last_id - first_id) + 1,
                            0.0);
  std::vector<int> touched;
  // Rare words are discriminative; a word present in every keyframe
  // carries no recognition signal (the textbook idf weighting).  A
  // posting lists each live keyframe at most once, so its length indexes
  // this table.
  const std::size_t n_keyframes = words_by_kf_.size();
  std::vector<double> idf_of_length(n_keyframes + 1);
  for (std::size_t len = 1; len <= n_keyframes; ++len)
    idf_of_length[len] = std::log(1.0 + static_cast<double>(n_keyframes) /
                                            static_cast<double>(len));
  std::uint32_t w[kChunksPerDescriptor];
  for (const Descriptor256& d : descriptors) {
    words_of(d, w);
    for (int c = 0; c < kChunksPerDescriptor; ++c) {
      const auto posting = postings_.find(w[c]);
      if (posting == postings_.end()) continue;
      const double idf = idf_of_length[posting->second.size()];
      for (const int kf : posting->second) {
        double& vote = votes[static_cast<std::size_t>(kf - first_id)];
        if (vote == 0.0) touched.push_back(kf);
        vote += idf;
      }
    }
  }

  ranked.reserve(touched.size());
  for (const int kf : touched) {
    const auto words = words_by_kf_.find(kf);
    const double norm =
        1.0 + static_cast<double>(words->second.size());
    ranked.push_back(
        {kf, votes[static_cast<std::size_t>(kf - first_id)] / norm});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const KeyframeScore& a, const KeyframeScore& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.keyframe_id > b.keyframe_id;  // ties: newer first
            });
  if (static_cast<int>(ranked.size()) > max_results)
    ranked.resize(static_cast<std::size_t>(max_results));
  return ranked;
}

}  // namespace eslam::backend
