#include "backend/keyframe_index.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "core/hot_align.h"
#include "geometry/assert.h"

namespace eslam::backend {
namespace {

constexpr int kWordShift = 32;  // a pair is (word << 32) | id
constexpr std::size_t kValueBits = std::size_t{1} << KeyframeIndex::kChunkBits;
constexpr int kRadixBits = 10;  // two passes cover the 20-bit word

using ChunkBits = std::array<std::uint64_t, kValueBits / 64>;

std::uint32_t word_of(std::uint64_t pair) {
  return static_cast<std::uint32_t>(pair >> kWordShift);
}

// The 16-bit value of chunk c, as KeyframeIndex::words_of() cuts it.
std::uint32_t chunk_value(const Descriptor256& d, int c) {
  return static_cast<std::uint32_t>(
      (d.words()[static_cast<std::size_t>(c / 4)] >> ((c % 4) * 16)) &
      0xffffu);
}

// Appends keyframe `id`'s unique words, ascending, as (word, id) pairs:
// per chunk, the observations' values go into a 64K-bit set, which is read
// back in order and cleared as it is read.
void append_unique_words(const IndexedKeyframe& kf, ChunkBits& bits,
                         std::vector<std::uint64_t>& pairs) {
  const std::uint64_t id = static_cast<std::uint32_t>(kf.id);
  for (int c = 0; c < KeyframeIndex::kChunksPerDescriptor; ++c) {
    for (const KeyframeObservation& obs : kf.observations) {
      const std::uint32_t value = chunk_value(obs.descriptor, c);
      bits[value >> 6] |= std::uint64_t{1} << (value & 63);
    }
    const std::uint64_t chunk = static_cast<std::uint64_t>(c)
                                << KeyframeIndex::kChunkBits;
    for (std::size_t b = 0; b < bits.size(); ++b) {
      std::uint64_t set = bits[b];
      if (set == 0) continue;
      bits[b] = 0;
      for (; set != 0; set &= set - 1) {
        const std::uint64_t value = b * 64 + static_cast<std::uint64_t>(
                                                 std::countr_zero(set));
        pairs.push_back(((chunk | value) << kWordShift) | id);
      }
    }
  }
}

// Stable LSD radix sort on the word: pairs appended keyframe by keyframe
// in ascending id come out sorted by word, then id.
void sort_by_word(std::vector<std::uint64_t>& pairs) {
  std::vector<std::uint64_t> sorted(pairs.size());
  for (const int shift : {kWordShift, kWordShift + kRadixBits}) {
    std::array<std::size_t, (1u << kRadixBits) + 1> start{};
    for (const std::uint64_t p : pairs)
      ++start[((p >> shift) & ((1u << kRadixBits) - 1)) + 1];
    for (std::size_t d = 1; d < start.size(); ++d) start[d] += start[d - 1];
    for (const std::uint64_t p : pairs)
      sorted[start[(p >> shift) & ((1u << kRadixBits) - 1)]++] = p;
    pairs.swap(sorted);
  }
}

}  // namespace

void KeyframeIndex::words_of(const Descriptor256& d,
                             std::uint32_t out[kChunksPerDescriptor]) {
  for (int c = 0; c < kChunksPerDescriptor; ++c)
    out[c] = (static_cast<std::uint32_t>(c) << 16) | chunk_value(d, c);
}

void KeyframeIndex::add_keyframe(
    int keyframe_id, std::span<const KeyframeObservation> observations) {
  const IndexedKeyframe kf{keyframe_id, observations};
  add_keyframes({&kf, 1});
}

void KeyframeIndex::add_keyframes(std::span<const IndexedKeyframe> keyframes) {
  std::size_t bound = 0;
  for (const IndexedKeyframe& kf : keyframes)
    bound += kf.observations.size() * kChunksPerDescriptor;
  std::vector<std::uint64_t> pairs;
  pairs.reserve(bound);
  ChunkBits bits{};
  for (const IndexedKeyframe& kf : keyframes) {
    ESLAM_ASSERT(kf_ids_.empty() || kf_ids_.back() < kf.id,
                 "keyframe ids must be inserted in ascending order");
    const std::size_t before = pairs.size();
    append_unique_words(kf, bits, pairs);
    kf_ids_.push_back(kf.id);
    kf_words_.push_back(static_cast<std::uint32_t>(pairs.size() - before));
  }
  if (keyframes.size() > 1) sort_by_word(pairs);
  merge(pairs);
}

std::size_t KeyframeIndex::slot_of(std::uint32_t word) const {
  const std::size_t bucket = word >> kPrefixShift;
  const std::uint32_t* first = words_.data() + prefix_[bucket];
  const std::uint32_t* last = words_.data() + prefix_[bucket + 1];
  return static_cast<std::size_t>(std::lower_bound(first, last, word) -
                                  words_.data());
}

// Back to front: the table grows by the batch's new words and pairs, and
// every old entry moves up by the count of new ones after it.  Runs of old
// words the batch does not touch move as blocks; a touched posting moves
// up and takes its new ids after its old ones.  Writes land at or above
// what is still to be read, so nothing is overwritten before it moves.
ESLAM_HOT_ALIGN void KeyframeIndex::merge(
    std::span<const std::uint64_t> pairs) {
  struct Group {
    std::uint32_t word;
    std::uint32_t slot;  // lower bound in the old words_
    bool found;
  };
  std::vector<Group> groups;
  std::size_t added = 0;
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const std::uint32_t word = word_of(pairs[p]);
    if (!groups.empty() && groups.back().word == word) continue;
    const std::size_t slot = slot_of(word);
    const bool found = slot < words_.size() && words_[slot] == word;
    groups.push_back({word, static_cast<std::uint32_t>(slot), found});
    added += found ? 0 : 1;
  }

  const std::size_t old_words = words_.size();
  const std::uint32_t old_ids = static_cast<std::uint32_t>(ids_.size());
  words_.resize(old_words + added);
  offsets_.resize(words_.size() + 1);
  ids_.resize(ids_.size() + pairs.size());
  std::size_t read_word = old_words;  // old words [0, read_word) unmoved
  std::uint32_t read_end = old_ids;   // where old posting read_word - 1 ends
  std::size_t write_word = words_.size();
  std::uint32_t write_end = static_cast<std::uint32_t>(ids_.size());
  offsets_[write_word] = write_end;
  // Moves the untouched old words [first, read_word) up as one block.
  auto move_block = [&](std::size_t first) {
    if (first == read_word) return;
    const std::uint32_t begin = offsets_[first];
    const std::size_t word_shift = write_word - read_word;
    const std::uint32_t id_shift = write_end - read_end;
    std::copy_backward(ids_.begin() + begin, ids_.begin() + read_end,
                       ids_.begin() + write_end);
    std::copy_backward(words_.begin() + static_cast<std::ptrdiff_t>(first),
                       words_.begin() + static_cast<std::ptrdiff_t>(read_word),
                       words_.begin() + static_cast<std::ptrdiff_t>(write_word));
    for (std::size_t k = read_word; k-- > first;)
      offsets_[k + word_shift] = offsets_[k] + id_shift;
    write_word -= read_word - first;
    write_end -= read_end - begin;
    read_word = first;
    read_end = begin;
  };
  std::size_t pair_end = pairs.size();
  for (std::size_t g = groups.size(); g-- > 0;) {
    const Group& group = groups[g];
    std::size_t pair_begin = pair_end - 1;
    while (pair_begin > 0 && word_of(pairs[pair_begin - 1]) == group.word)
      --pair_begin;
    move_block(group.found ? group.slot + 1 : group.slot);
    write_end -= static_cast<std::uint32_t>(pair_end - pair_begin);
    for (std::size_t p = pair_begin; p < pair_end; ++p)
      ids_[write_end + (p - pair_begin)] =
          static_cast<int>(static_cast<std::uint32_t>(pairs[p]));
    if (group.found) {
      const std::uint32_t begin = offsets_[group.slot];
      std::copy_backward(ids_.begin() + begin, ids_.begin() + read_end,
                         ids_.begin() + write_end);
      write_end -= read_end - begin;
      read_word = group.slot;
      read_end = begin;
    }
    --write_word;
    words_[write_word] = group.word;
    offsets_[write_word] = write_end;
    pair_end = pair_begin;
  }
  ESLAM_ASSERT(write_word == read_word && write_end == read_end,
               "merge left a gap");

  // Each bucket's first entry moves up by the new words below the bucket.
  std::size_t below = 0, g = 0;
  for (std::size_t b = 0; b <= kBuckets; ++b) {
    for (; g < groups.size() && (groups[g].word >> kPrefixShift) < b; ++g)
      below += groups[g].found ? 0 : 1;
    prefix_[b] += static_cast<std::uint32_t>(below);
  }
}

// One pass: a posting's dead ids are its front (ids ascend), so each
// posting keeps a suffix.  Surviving ids move down as blocks between the
// postings that lose ids; words whose posting empties are dropped.
void KeyframeIndex::remove_below(int first_live_id) {
  const auto live =
      std::lower_bound(kf_ids_.begin(), kf_ids_.end(), first_live_id);
  if (live == kf_ids_.begin()) return;
  kf_words_.erase(kf_words_.begin(),
                  kf_words_.begin() + (live - kf_ids_.begin()));
  kf_ids_.erase(kf_ids_.begin(), live);

  std::size_t kept = 0, bucket = 0;
  std::uint32_t shift = 0;  // ids dropped so far
  std::uint32_t run = 0;    // first id of the block not yet moved down
  std::uint32_t begin = 0;
  for (std::size_t k = 0; k < words_.size(); ++k) {
    const std::uint32_t end = offsets_[k + 1];
    std::uint32_t first = begin;
    while (first < end && ids_[first] < first_live_id) ++first;
    if (first != begin) {
      if (shift != 0)
        std::copy(ids_.begin() + run, ids_.begin() + begin,
                  ids_.begin() + (run - shift));
      shift += first - begin;
      run = first;
    }
    if (first != end) {
      const std::uint32_t word = words_[k];
      for (; bucket <= (word >> kPrefixShift); ++bucket)
        prefix_[bucket] = static_cast<std::uint32_t>(kept);
      words_[kept] = word;
      offsets_[kept] = first - shift;
      ++kept;
    }
    begin = end;
  }
  const std::uint32_t total = static_cast<std::uint32_t>(ids_.size());
  if (shift != 0)
    std::copy(ids_.begin() + run, ids_.end(), ids_.begin() + (run - shift));
  for (; bucket <= kBuckets; ++bucket)
    prefix_[bucket] = static_cast<std::uint32_t>(kept);
  words_.resize(kept);
  offsets_.resize(kept + 1);
  offsets_[kept] = total - shift;
  ids_.resize(total - shift);
}

ESLAM_HOT_ALIGN std::vector<KeyframeScore> KeyframeIndex::query(
    std::span<const Descriptor256> descriptors, int max_results) const {
  std::vector<KeyframeScore> ranked;
  if (descriptors.empty() || kf_ids_.empty() || max_results <= 0)
    return ranked;

  // Votes go to a dense array over the live id range, each keyframe's in
  // the order the scan meets them (descriptor, chunk, posting); `touched`
  // lists the keyframes voted for.  Every idf is positive, so a zero vote
  // is a keyframe not yet touched.
  const int first_id = kf_ids_.front();
  std::vector<double> votes(
      static_cast<std::size_t>(kf_ids_.back() - first_id) + 1, 0.0);
  std::vector<int> touched;
  // Rare words are discriminative; a word present in every keyframe
  // carries no recognition signal (the textbook idf weighting).  A
  // posting lists each live keyframe at most once, so its length indexes
  // this table.
  const std::size_t n_keyframes = kf_ids_.size();
  std::vector<double> idf_of_length(n_keyframes + 1);
  for (std::size_t len = 1; len <= n_keyframes; ++len)
    idf_of_length[len] = std::log(1.0 + static_cast<double>(n_keyframes) /
                                            static_cast<double>(len));
  std::uint32_t w[kChunksPerDescriptor];
  for (const Descriptor256& d : descriptors) {
    words_of(d, w);
    for (int c = 0; c < kChunksPerDescriptor; ++c) {
      const std::size_t k = slot_of(w[c]);
      if (k == words_.size() || words_[k] != w[c]) continue;
      const std::uint32_t begin = offsets_[k], end = offsets_[k + 1];
      const double idf = idf_of_length[end - begin];
      for (std::uint32_t i = begin; i < end; ++i) {
        const int kf = ids_[i];
        double& vote = votes[static_cast<std::size_t>(kf - first_id)];
        if (vote == 0.0) touched.push_back(kf);
        vote += idf;
      }
    }
  }

  ranked.reserve(touched.size());
  for (const int kf : touched) {
    const std::size_t slot = static_cast<std::size_t>(
        std::lower_bound(kf_ids_.begin(), kf_ids_.end(), kf) -
        kf_ids_.begin());
    const double norm = 1.0 + static_cast<double>(kf_words_[slot]);
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
