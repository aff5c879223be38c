#include "core/simd_dispatch.h"

#include <cstdlib>
#include <cstring>
#include <initializer_list>

namespace eslam::simd {

namespace {

IsaLevel detect() {
#if !defined(ESLAM_FORCE_SCALAR)
  const char* env = std::getenv("ESLAM_FORCE_SCALAR");
  const bool forced =
      env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0;
  if (!forced) {
    for (const IsaLevel level : {IsaLevel::kAvx512, IsaLevel::kAvx2})
      if (isa_supported(level)) return level;
  }
#endif
  return IsaLevel::kScalar;
}

}  // namespace

bool isa_supported(IsaLevel level) {
  switch (level) {
    case IsaLevel::kScalar:
      return true;
#if defined(__x86_64__) || defined(__i386__)
    case IsaLevel::kAvx2:
      // The AVX2 tier's row kernels use the POPCNT instruction too.
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("popcnt");
    case IsaLevel::kAvx512:
      // Its projection and scoring kernels are the AVX2 tier's.
      return isa_supported(IsaLevel::kAvx2) &&
             __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512vpopcntdq");
#else
    default:
      return false;
#endif
  }
  return false;
}

IsaLevel active_isa() {
  static const IsaLevel level = detect();
  return level;
}

const char* isa_name(IsaLevel level) {
  switch (level) {
    case IsaLevel::kScalar: return "scalar";
    case IsaLevel::kAvx2: return "avx2";
    case IsaLevel::kAvx512: return "avx512";
  }
  return "?";
}

}  // namespace eslam::simd
