#include "core/simd_dispatch.h"

#include <cstdlib>
#include <cstring>

namespace eslam::simd {

namespace {

IsaLevel detect() {
#if !defined(ESLAM_FORCE_SCALAR)
  const char* env = std::getenv("ESLAM_FORCE_SCALAR");
  const bool forced =
      env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0;
  if (!forced) {
#if defined(__aarch64__)
    return IsaLevel::kNeon;
#elif defined(__x86_64__) || defined(__i386__)
    // The AVX2 tier's row kernels use the POPCNT instruction too.
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("popcnt"))
      return IsaLevel::kAvx2;
#endif
  }
#endif
  return IsaLevel::kScalar;
}

}  // namespace

IsaLevel active_isa() {
  static const IsaLevel level = detect();
  return level;
}

const char* isa_name(IsaLevel level) {
  switch (level) {
    case IsaLevel::kScalar: return "scalar";
    case IsaLevel::kNeon: return "neon";
    case IsaLevel::kAvx2: return "avx2";
  }
  return "?";
}

}  // namespace eslam::simd
