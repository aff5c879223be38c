// 256-bit binary descriptors and Hamming distance.
//
// Bit i of the descriptor is test pair i of the BRIEF/RS-BRIEF pattern.
// For RS-BRIEF, bits are grouped 8 per rotation increment: bits
// [8j, 8j+7] hold the tests of rotation group j (j in 0..31).  Steering by
// orientation label n is then the 256-bit rotation moving the first 8n bits
// to the end (paper section 3.1, "BRIEF Rotator").
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <string>

#include "geometry/assert.h"

namespace eslam {

class Descriptor256 {
 public:
  constexpr Descriptor256() : words_{} {}

  static constexpr int kBits = 256;
  static constexpr int kWords = 4;

  constexpr bool bit(int i) const {
    ESLAM_ASSERT(i >= 0 && i < kBits, "bit index out of range");
    return (words_[static_cast<std::size_t>(i) / 64] >> (i % 64)) & 1u;
  }
  constexpr void set_bit(int i, bool v) {
    ESLAM_ASSERT(i >= 0 && i < kBits, "bit index out of range");
    const std::uint64_t mask = std::uint64_t{1} << (i % 64);
    if (v)
      words_[static_cast<std::size_t>(i) / 64] |= mask;
    else
      words_[static_cast<std::size_t>(i) / 64] &= ~mask;
  }

  const std::array<std::uint64_t, kWords>& words() const { return words_; }
  std::array<std::uint64_t, kWords>& words() { return words_; }

  // Moves the first `n_bytes` bytes (8*n_bytes bits) of the bit sequence to
  // its end — the BRIEF Rotator's barrel shift.  n_bytes in [0, 32).
  Descriptor256 rotated_bytes(int n_bytes) const {
    ESLAM_ASSERT(n_bytes >= 0 && n_bytes < 32, "rotation out of range");
    Descriptor256 out;
    const int shift = n_bytes * 8;
    if (shift == 0) return *this;
    // 256-bit rotate right by `shift`: new bit b = old bit (b + shift) % 256.
    const int word_shift = shift / 64;
    const int bit_shift = shift % 64;
    for (int w = 0; w < kWords; ++w) {
      const std::uint64_t lo = words_[(w + word_shift) % kWords];
      const std::uint64_t hi = words_[(w + word_shift + 1) % kWords];
      out.words_[w] =
          bit_shift == 0 ? lo : (lo >> bit_shift) | (hi << (64 - bit_shift));
    }
    return out;
  }

  std::string to_hex() const;

  friend constexpr bool operator==(const Descriptor256& a,
                                   const Descriptor256& b) {
    return a.words_ == b.words_;
  }
  friend constexpr bool operator!=(const Descriptor256& a,
                                   const Descriptor256& b) {
    return !(a == b);
  }

 private:
  std::array<std::uint64_t, kWords> words_;
};

// Hamming distance; the HW Distance Computing module evaluates this with a
// popcount adder tree in one cycle per descriptor pair.
constexpr int hamming_distance(const Descriptor256& a, const Descriptor256& b) {
  int d = 0;
  for (int w = 0; w < Descriptor256::kWords; ++w)
    d += std::popcount(a.words()[w] ^ b.words()[w]);
  return d;
}

// `count` descriptors spaced `stride` bytes apart: a packed Descriptor256
// array (stride 32), or the descriptor member of every record in an array
// of records (a FeatureList read in place, see keypoint.h).
struct DescriptorRows {
  const Descriptor256* first = nullptr;
  std::size_t stride = sizeof(Descriptor256);
  std::size_t count = 0;

  std::size_t size() const { return count; }
  const Descriptor256& operator[](std::size_t i) const {
    return *reinterpret_cast<const Descriptor256*>(
        reinterpret_cast<const unsigned char*>(first) + i * stride);
  }
};

inline DescriptorRows descriptor_rows(std::span<const Descriptor256> d) {
  return {d.data(), sizeof(Descriptor256), d.size()};
}

}  // namespace eslam
