// The Heap module (paper section 3.1): stores descriptors, coordinates and
// Harris scores of streaming features and keeps only the 1024 with the
// best scores.  Implemented exactly as the hardware would: a fixed-storage
// binary min-heap over scores — when full, a new feature replaces the root
// (the weakest kept feature) iff it scores higher, then sifts down.
//
// Cycle cost: 1 cycle to compare against the root + 1 compare-exchange per
// level traversed (log2(1024) = 10 levels worst case).
#pragma once

#include <cstdint>
#include <vector>

#include "features/keypoint.h"

namespace eslam {

class FilterHeap {
 public:
  explicit FilterHeap(std::size_t capacity = 1024);

  // Offers a feature; returns true when it was kept (possibly evicting a
  // weaker one).  Accumulates the cycle cost of the operation.
  bool offer(const Feature& feature);

  std::size_t size() const { return items_.size(); }
  std::size_t capacity() const { return capacity_; }

  // Weakest currently-kept score (heap root); only valid when non-empty.
  std::int64_t min_score() const;

  // Drains the heap contents (unspecified order, as the hardware streams
  // them to SDRAM).  The heap is empty afterwards.
  FeatureList drain();

  std::uint64_t cycles() const { return cycles_; }

  // Storage footprint in bits: capacity x (256b descriptor + 2 x 16b
  // coords + 32b score + 8b level/orientation).
  std::size_t storage_bits() const {
    return capacity_ * (256 + 32 + 32 + 8);
  }

 private:
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  bool weaker(const Feature& a, const Feature& b) const;

  std::size_t capacity_;
  FeatureList items_;  // binary min-heap by score
  std::uint64_t cycles_ = 0;
};

}  // namespace eslam
