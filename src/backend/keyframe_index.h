// Keyframe recognition index — binary-descriptor voting over the
// per-keyframe observations stored in backend::KeyframeGraph.
//
// The classic loop-closure front-end (ORB-SLAM's DBoW2) quantizes each
// descriptor against a pre-trained vocabulary tree.  This project has no
// offline training data, so the index uses a *structural* vocabulary
// instead: every 256-bit descriptor is split into 16 chunks of 16 bits,
// and chunk c with value v is the word (c << 16) | v.  Two descriptors
// within a few bits of Hamming distance share most of their 16 words
// (flipping k bits corrupts at most k chunks), so word collisions are a
// cheap, training-free proxy for descriptor similarity — the same
// locality-sensitive trick HBST and LDB-style binary vocabularies use.
//
// Per keyframe, the index stores the *set* of words its observation
// descriptors produce; an inverted file maps each word to the keyframes
// containing it.  A query accumulates, per keyframe, the idf-weighted
// count of shared words, normalized by the keyframe's own word count so
// observation-rich keyframes are not favored.  Scores are comparable
// within one query only (they scale with query size) — callers gate on a
// reference score from the same query (e.g. the covisible neighbours'
// scores), not on absolute thresholds alone.
//
// Layout: the inverted file is one flat CSR (compressed sparse row) table,
// the flat form of DBoW2's (Gálvez-López & Tardós, T-RO 2012).  `words_`
// lists the words present, ascending; word k's posting is
// ids_[offsets_[k], offsets_[k + 1]), the keyframes containing it,
// ascending.  Each live keyframe keeps its id and unique-word count (the
// idf's keyframe count and the score norm).  A 4,097-entry prefix table
// on a word's top 12 bits brackets its slot in `words_`, so a lookup is
// one table read and a binary search over at most 256 words.  On
// slambench's loc_serve map (21 keyframes of 1,024 observations) the
// table holds 0.85 MB of heap, against 5.0 MB for the per-word hashed
// vectors it replaced.
//
// Building: a keyframe's sorted unique words come from one pass per chunk
// over a 64K-bit set, cleared as it is read.  Every insert is one merge
// of a sorted batch of (word, id) pairs, in place from the back: postings
// the batch does not touch move as blocks, so a live insert costs about
// one pass over the table.  With the FIFO eviction after it, that is
// ~1.2 ms at 25 and at 100 live keyframes and ~2 ms at 512
// (`bench_micro_kernels`' keyframe_index rows, 4-thread Xeon).  A
// snapshot load indexes every keyframe as one batch, sorted by word in
// two stable 10-bit radix passes: loc_serve's map in ~6 ms, against
// ~50 ms keyframe by keyframe into the hash map.  Eviction compacts the
// table in one pass.  The result does not depend on how the keyframes
// were batched, so a reloaded map answers exactly as the live session
// that saved it.
//
// Ownership/threading mirrors KeyframeGraph: the Tracker mutates the
// index only from its map-updating stage (under the exclusive map lock)
// and the device lane reads it under the shared lock, so the index itself
// needs no locking.  Determinism: ties rank the newer keyframe first.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "backend/keyframe_graph.h"
#include "features/descriptor.h"

namespace eslam::backend {

struct KeyframeScore {
  int keyframe_id = -1;
  double score = 0;  // idf-weighted shared-word mass, length-normalized
};

// One keyframe of a batch: its id and the observations it is indexed by.
struct IndexedKeyframe {
  int id = -1;
  std::span<const KeyframeObservation> observations;
};

class KeyframeIndex {
 public:
  static constexpr int kChunkBits = 16;
  static constexpr int kChunksPerDescriptor =
      Descriptor256::kBits / kChunkBits;

  // The 16 words of one descriptor (chunk index tagged into the high bits).
  static void words_of(const Descriptor256& d,
                       std::uint32_t out[kChunksPerDescriptor]);

  // Indexes a keyframe's observation descriptors.  Ids must be inserted in
  // ascending order (the graph's insertion order).
  void add_keyframe(int keyframe_id,
                    std::span<const KeyframeObservation> observations);

  // Indexes several keyframes, ids ascending, in one merge.  Answers
  // exactly as the same keyframes added one by one.
  void add_keyframes(std::span<const IndexedKeyframe> keyframes);

  // Drops every keyframe with id < first_live_id — call after the graph's
  // FIFO bound evicts, with graph.first_live_id().
  void remove_below(int first_live_id);

  // Keyframes ranked by descending score (ties: newer keyframe first), at
  // most max_results entries; keyframes sharing no word are absent.
  std::vector<KeyframeScore> query(std::span<const Descriptor256> descriptors,
                                   int max_results) const;

  std::size_t size() const { return kf_ids_.size(); }
  bool empty() const { return kf_ids_.empty(); }

 private:
  // A word's top 12 of 20 bits (the chunk index and the value's top byte)
  // select its prefix-table bucket.
  static constexpr int kPrefixShift = 8;
  static constexpr std::size_t kBuckets = std::size_t{1}
                                          << (4 + kChunkBits - kPrefixShift);

  // Index of the first entry of words_ not below `word`.
  std::size_t slot_of(std::uint32_t word) const;
  // Merges (word << 32 | id) pairs sorted by word, then id, where every id
  // is above every id already indexed.
  void merge(std::span<const std::uint64_t> pairs);

  std::vector<std::uint32_t> words_;         // ascending
  std::vector<std::uint32_t> offsets_{0};    // words_.size() + 1 entries
  std::vector<int> ids_;                     // each posting ascending
  std::vector<int> kf_ids_;                  // live keyframes, ascending
  std::vector<std::uint32_t> kf_words_;      // unique words per keyframe
  // prefix_[b]: the first entry of words_ whose bucket is >= b.
  std::vector<std::uint32_t> prefix_ =
      std::vector<std::uint32_t>(kBuckets + 1, 0);
};

}  // namespace eslam::backend
