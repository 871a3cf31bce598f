#include "common/simd.h"

namespace brickx::simd {

int runtime_width() {
#if BRICKX_SIMD_DISPATCH
  // __builtin_cpu_supports also requires the OS to save ymm state (XGETBV).
  static const int w = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") ? 4 : kActiveWidth;
  }();
  return w;
#else
  return kActiveWidth;
#endif
}

const char* isa_name() {
  if (runtime_width() != kActiveWidth) return "avx2";
#if defined(__AVX512F__)
  return "avx512f";
#elif defined(__AVX2__)
  return "avx2";
#elif defined(__AVX__)
  return "avx";
#elif defined(__SSE2__) || defined(__x86_64__)
  return "sse2";
#elif defined(__aarch64__) || defined(__ARM_NEON)
  return "neon";
#else
  return "generic";
#endif
}

}  // namespace brickx::simd
