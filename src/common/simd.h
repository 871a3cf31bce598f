#pragma once

#include <cstddef>
#include <cstdint>

/// Compile-time SIMD width selection (doubles per vector).
///
/// The explicit-SIMD kernel tier (DESIGN.md §16) is built on GCC/Clang
/// vector extensions rather than per-ISA intrinsics: a vector of W doubles
/// compiles on *any* target (the compiler emulates widths the hardware
/// lacks), so every width in {1, 2, 4, 8} is instantiable — and
/// differentially testable — in a single build, on any machine.
///
/// Compile-time width resolution, in priority order:
///   1. `-DBRICKX_SIMD_WIDTH=N` (the CMake cache option of the same name),
///      the forced override the scalar-fallback CI pass uses;
///   2. the target ISA the translation unit is compiled for:
///      AVX-512 -> 8, AVX/AVX2 -> 4, SSE2/NEON -> 2, anything else -> 1.
///
/// On top of that, a build whose width is not forced and whose target is
/// below AVX2 on x86-64 (the portable baseline, SSE2) carries one AVX2
/// clone of the kernel engine, chosen at run time by a once-per-process
/// CPUID check (BRICKX_SIMD_DISPATCH, runtime_width(); DESIGN.md §16).
///
/// The detected width is kept separately from the active one so build
/// provenance (BENCH_kernels.json) can record both.

#if defined(__AVX512F__)
#define BRICKX_SIMD_DETECTED 8
#elif defined(__AVX2__) || defined(__AVX__)
#define BRICKX_SIMD_DETECTED 4
#elif defined(__SSE2__) || defined(__x86_64__) || defined(__aarch64__) || \
    defined(__ARM_NEON)
#define BRICKX_SIMD_DETECTED 2
#else
#define BRICKX_SIMD_DETECTED 1
#endif

#if defined(BRICKX_SIMD_WIDTH)
#define BRICKX_SIMD_FORCED 1
#else
#define BRICKX_SIMD_FORCED 0
#define BRICKX_SIMD_WIDTH BRICKX_SIMD_DETECTED
#endif

/// 1 when the kernel engine carries an AVX2 clone (`[[gnu::target]]`
/// functions) that runtime_width() may select.
#if defined(__x86_64__) && defined(__GNUC__) && !BRICKX_SIMD_FORCED && \
    BRICKX_SIMD_DETECTED < 4
#define BRICKX_SIMD_DISPATCH 1
#else
#define BRICKX_SIMD_DISPATCH 0
#endif

static_assert(BRICKX_SIMD_WIDTH == 1 || BRICKX_SIMD_WIDTH == 2 ||
                  BRICKX_SIMD_WIDTH == 4 || BRICKX_SIMD_WIDTH == 8,
              "BRICKX_SIMD_WIDTH must be 1, 2, 4 or 8 (doubles per vector)");

namespace brickx::simd {

/// Doubles per vector of the build's own kernel code: the width every
/// kernel runs at unless runtime_width() selects the AVX2 clone.
inline constexpr int kActiveWidth = BRICKX_SIMD_WIDTH;

/// Width the target ISA natively supports (ignores the override).
inline constexpr int kDetectedWidth = BRICKX_SIMD_DETECTED;

/// Storage alignment (bytes) that satisfies every supported width — one
/// AVX-512 vector. BrickStorage heap allocations honor this.
inline constexpr std::size_t kAlign = 64;

/// Doubles per vector the kernels run at in this process: 4 when this is a
/// BRICKX_SIMD_DISPATCH build on a CPU with AVX2 (checked once per
/// process), else kActiveWidth.
int runtime_width();

/// Name of the vector ISA the kernels run at in this process ("avx2" when
/// runtime_width() selected the clone, else the build's target ISA).
const char* isa_name();

/// True when `p` can be the base of width-`w` aligned vector stores.
inline bool lane_aligned(const void* p, int w) {
  return reinterpret_cast<std::uintptr_t>(p) %
             (static_cast<std::size_t>(w) * sizeof(double)) ==
         0;
}

/// A vector of W doubles. Thin wrapper over the compiler vector type; the
/// kernels use it so the 7/125-point expressions keep exactly the shape of
/// their scalar counterparts (same multiplies and adds, in the same order)
/// with one cell per lane. No kernel target enables FMA: GCC contracts
/// `a * b + c` in C++ by default, and a fused multiply-add rounds once where
/// the naive kernels round twice.
///
/// Only full specializations exist (widths 1/2/4/8): GCC does not apply a
/// `vector_size` attribute whose operand depends on a template parameter
/// (the typedef silently degrades to plain `double`), so each width's
/// vector typedef must be spelled with a literal byte count.
template <int W>
struct DVec;

/// `V` is the natural (lane-aligned) vector; `VU` the same vector with
/// alignment relaxed to that of a bare double, because the halo-tile rows
/// the kernels read (row stride B + 2R) and the array kernels' output rows
/// are not lane-aligned. `may_alias`
/// makes the casts from the underlying double arrays well-defined.
///
/// Every member is forced inline. The kernel engine's AVX2 clone compiles
/// these bodies at its own target only by inlining them; an out-of-line
/// copy is baseline code, and a 32-byte vector passed by value between the
/// two targets would cross an ABI boundary (ymm register vs. memory).
/// The trailing macro arguments list `x` once per lane: broadcast builds
/// the vector from that initializer list, because a lane-by-lane store
/// loop draws a false -Wmaybe-uninitialized once inlined into the kernels.
#define BRICKX_SIMD_DVEC(W, BYTES, ...)                                   \
  template <>                                                             \
  struct DVec<W> {                                                        \
    typedef double V __attribute__((vector_size(BYTES), may_alias));      \
    typedef double VU __attribute__((vector_size(BYTES),                  \
                                     aligned(alignof(double)),            \
                                     may_alias));                         \
                                                                          \
    V v;                                                                  \
                                                                          \
    [[gnu::always_inline]] static DVec broadcast(double x) {              \
      return DVec{V{__VA_ARGS__}};                                        \
    }                                                                     \
    [[gnu::always_inline]] static DVec zero() { return DVec{V{}}; }       \
    /* Unaligned load of W consecutive doubles. */                        \
    [[gnu::always_inline]] static DVec loadu(const double* p) {           \
      return DVec{*reinterpret_cast<const VU*>(p)};                       \
    }                                                                     \
    /* Aligned store; `p` must satisfy lane_aligned(p, W). */             \
    [[gnu::always_inline]] void store(double* p) const {                  \
      *reinterpret_cast<V*>(p) = v;                                       \
    }                                                                     \
    /* Unaligned store of W consecutive doubles. */                       \
    [[gnu::always_inline]] void storeu(double* p) const {                 \
      *reinterpret_cast<VU*>(p) = v;                                      \
    }                                                                     \
                                                                          \
    [[gnu::always_inline]] double operator[](int l) const { return v[l]; } \
    [[gnu::always_inline]] DVec& operator+=(DVec o) {                     \
      v += o.v;                                                           \
      return *this;                                                       \
    }                                                                     \
    [[gnu::always_inline]] friend DVec operator+(DVec a, DVec b) {        \
      return DVec{a.v + b.v};                                             \
    }                                                                     \
    [[gnu::always_inline]] friend DVec operator*(DVec a, DVec b) {        \
      return DVec{a.v * b.v};                                             \
    }                                                                     \
  };

BRICKX_SIMD_DVEC(2, 16, x, x)
BRICKX_SIMD_DVEC(4, 32, x, x, x, x)
BRICKX_SIMD_DVEC(8, 64, x, x, x, x, x, x, x, x)

#undef BRICKX_SIMD_DVEC

/// Scalar specialization: the same API at width 1, so width-templated
/// kernels degrade to plain scalar code with no masked tail logic.
template <>
struct DVec<1> {
  double v;

  static DVec broadcast(double x) { return DVec{x}; }
  static DVec zero() { return DVec{0.0}; }
  static DVec loadu(const double* p) { return DVec{*p}; }
  void store(double* p) const { *p = v; }
  void storeu(double* p) const { *p = v; }

  double operator[](int) const { return v; }
  DVec& operator+=(DVec o) {
    v += o.v;
    return *this;
  }
  friend DVec operator+(DVec a, DVec b) { return DVec{a.v + b.v}; }
  friend DVec operator*(DVec a, DVec b) { return DVec{a.v * b.v}; }
};

}  // namespace brickx::simd
