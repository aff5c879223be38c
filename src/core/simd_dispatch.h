// Runtime ISA selection for the vectorized hot-path kernels.
//
// Policy: AVX2 on x86-64 when the CPU reports both AVX2 and POPCNT (the
// tier uses each), NEON on aarch64 (baseline, always present), scalar
// otherwise.  Two overrides force the scalar path: building with
// -DESLAM_FORCE_SCALAR=ON, or setting the ESLAM_FORCE_SCALAR environment
// variable to anything but "0" before the first kernel call.  The choice
// is made once and cached; every kernel in features/simd_kernels.h is
// bit-exact across ISAs, so the override only changes speed, never
// output.
#pragma once

namespace eslam::simd {

enum class IsaLevel { kScalar, kNeon, kAvx2 };

// Cached; first call performs detection.
IsaLevel active_isa();

const char* isa_name(IsaLevel level);
inline const char* active_isa_name() { return isa_name(active_isa()); }

}  // namespace eslam::simd
