// Runtime ISA selection for the vectorized hot-path kernels.
//
// Three tiers, each on x86-64 a superset of the one below:
//   kAvx512 — AVX2, POPCNT, AVX-512F and AVX512_VPOPCNTDQ: the Hamming
//             kernels run 512 bits wide, one vpopcntq per eight words,
//             and pose estimation's normal equations 8 points per block;
//   kAvx2   — AVX2 and POPCNT (the tier uses each); the normal equations
//             run 4 points per block;
//   kScalar — the portable reference, on every other CPU (AArch64 too).
// features/simd_kernels maps each tier to the kernels it runs.
//
// active_isa() is the highest tier the CPU supports.  Two overrides force
// the scalar tier: building with -DESLAM_FORCE_SCALAR=ON, or setting the
// ESLAM_FORCE_SCALAR environment variable to anything but "0" before the
// first kernel call.  The choice is made once and cached; every kernel is
// bit-exact across tiers, so the choice only changes speed, never output.
// isa_supported() reports what the CPU can run, whatever the overrides say,
// so the parity tests and bench_micro_kernels can drive every tier the host
// has.
#pragma once

namespace eslam::simd {

enum class IsaLevel { kScalar, kAvx2, kAvx512 };

inline constexpr IsaLevel kIsaLevels[] = {IsaLevel::kScalar, IsaLevel::kAvx2,
                                          IsaLevel::kAvx512};

// Whether this CPU can run the tier's kernels.  kScalar always can.
bool isa_supported(IsaLevel level);

// Cached; first call performs detection.
IsaLevel active_isa();

const char* isa_name(IsaLevel level);
inline const char* active_isa_name() { return isa_name(active_isa()); }

}  // namespace eslam::simd
