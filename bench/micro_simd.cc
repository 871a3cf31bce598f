// Explicit-SIMD width sweep (DESIGN.md §16): wall-clock cells/s of the
// forced-width tile kernels engine_apply{7,125}_simd at W = 1, 2, 4, 8
// for brick sizes {4, 8}^3, plus the AoSoA field-count sweep at the active
// width. Widths above the hardware's are compiler-emulated, so the full
// sweep runs (and is bit-exact) on any host; the table shows where
// emulation stops paying. All of it is the build's own code: the AVX2
// clone the entry points dispatch to on an AVX2 host is timed by
// micro_kernels' `simd` rows.
//
//   --self-check    differential sweep only: every width x kernel x brick
//                   size against the naive per-access kernels over
//                   randomized output boxes; exits non-zero on any
//                   bit-mismatch (the simd-labeled ctest smoke).
//
// Without flags: measure and print the sweep (no JSON — the committed
// trajectory point lives in BENCH_kernels.json via micro_kernels).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/rng.h"
#include "common/simd.h"
#include "core/brick.h"
#include "core/decomp.h"
#include "stencil/kernel_engine.h"
#include "stencil/stencils.h"

namespace brickx {
namespace {

struct Setup {
  BrickDecomp<3> dec;
  BrickInfo<3> info;
  BrickStorage in, out;
  Setup(std::int64_t n, std::int64_t b, int fields = 1)
      : dec({n, n, n}, b, {b, b, b}, surface3d()),
        info(dec.brick_info()),
        in(dec.allocate(fields)),
        out(dec.allocate(fields)) {
    Rng rng(0x51d3);
    for (std::int64_t i = 0; i < dec.total_brick_count(); ++i) {
      double* p = in.brick(i);
      for (std::int64_t e = 0; e < dec.elements_per_brick() * fields; ++e)
        p[e] = rng.uniform() * 2.0 - 1.0;
    }
  }
};

template <typename F>
double cells_per_s(std::int64_t cells, F&& fn) {
  using clock = std::chrono::steady_clock;
  constexpr double min_s = 0.1;
  std::int64_t iters = 1;
  for (;;) {
    const auto t0 = clock::now();
    for (std::int64_t i = 0; i < iters; ++i) {
      fn();
      benchmark::ClobberMemory();
    }
    const double s = std::chrono::duration<double>(clock::now() - t0).count();
    if (s >= min_s)
      return static_cast<double>(cells * iters) / (s > 0 ? s : 1e-12);
    iters *= 2;
  }
}

template <int B, int W>
double measure_width(std::int64_t n, bool use125) {
  Setup s(n, B);
  Brick<B, B, B> bin(&s.info, &s.in, 0), bout(&s.info, &s.out, 0);
  const Box<3> box{{0, 0, 0}, {n, n, n}};
  return cells_per_s(n * n * n, [&] {
    if (use125) {
      stencil::engine_apply125_simd<B, B, B, W>(s.dec, bout, bin, box);
    } else {
      stencil::engine_apply7_simd<B, B, B, W>(s.dec, bout, bin, box);
    }
  });
}

template <int B>
void sweep_brick(std::int64_t n) {
  for (bool use125 : {false, true}) {
    const double w1 = measure_width<B, 1>(n, use125);
    const double w2 = measure_width<B, 2>(n, use125);
    const double w4 = measure_width<B, 4>(n, use125);
    const double w8 = measure_width<B, 8>(n, use125);
    std::printf("%-6s b=%d : W=1 %9.3e  W=2 %9.3e (%.2fx)  W=4 %9.3e "
                "(%.2fx)  W=8 %9.3e (%.2fx) cells/s\n",
                use125 ? "125pt" : "7pt", B, w1, w2, w2 / w1, w4, w4 / w1,
                w8, w8 / w1);
  }
}

void sweep_fields(std::int64_t n) {
  constexpr int B = 8;
  constexpr int W = simd::kActiveWidth;
  for (bool use125 : {false, true}) {
    std::printf("%-6s b=%d W=%d fields :", use125 ? "125pt" : "7pt", B, W);
    for (int F : {1, 2, 4}) {
      Setup s(n, B, F);
      const Box<3> box{{0, 0, 0}, {n, n, n}};
      const double r = cells_per_s(n * n * n * F, [&] {
        for (int f = 0; f < F; ++f) {
          const std::int64_t off = f * s.dec.elements_per_brick();
          Brick<B, B, B> bin(&s.info, &s.in, off), bout(&s.info, &s.out, off);
          if (use125) {
            stencil::engine_apply125_simd<B, B, B, W>(s.dec, bout, bin, box);
          } else {
            stencil::engine_apply7_simd<B, B, B, W>(s.dec, bout, bin, box);
          }
        }
      });
      std::printf("  F=%d %9.3e", F, r);
    }
    std::printf(" cells/s\n");
  }
}

// ---- differential self-check -----------------------------------------------

template <int B, int W>
bool check_width(bool use125, std::uint64_t seed) {
  Setup s(16, B);
  (void)seed;
  Brick<B, B, B> bin(&s.info, &s.in, 0);
  const std::vector<Box<3>> boxes = {
      {{0, 0, 0}, {16, 16, 16}},
      {{B, B, B}, {2 * B, 2 * B, 2 * B}},
      {{1, 2, 3}, {6, 15, 9}},
      {{0, 0, 0}, {0, 0, 0}}};
  for (const Box<3>& box : boxes) {
    BrickStorage vec = s.dec.allocate(1), naive = s.dec.allocate(1);
    Brick<B, B, B> bv(&s.info, &vec, 0), bn(&s.info, &naive, 0);
    if (use125) {
      stencil::engine_apply125_simd<B, B, B, W>(s.dec, bv, bin, box);
      stencil::apply125_bricks_naive<B, B, B>(s.dec, bn, bin, box);
    } else {
      stencil::engine_apply7_simd<B, B, B, W>(s.dec, bv, bin, box);
      stencil::apply7_bricks_naive<B, B, B>(s.dec, bn, bin, box);
    }
    if (std::memcmp(vec.data(), naive.data(), vec.bytes()) != 0) {
      std::fprintf(stderr,
                   "micro_simd self-check FAILED: brick=%d W=%d use125=%d\n",
                   B, W, use125 ? 1 : 0);
      return false;
    }
  }
  return true;
}

bool run_self_check() {
  bool ok = true;
  for (bool use125 : {false, true}) {
    ok = check_width<4, 1>(use125, 1) && ok;
    ok = check_width<4, 2>(use125, 2) && ok;
    ok = check_width<4, 4>(use125, 3) && ok;
    ok = check_width<4, 8>(use125, 8) && ok;
    ok = check_width<8, 1>(use125, 4) && ok;
    ok = check_width<8, 2>(use125, 5) && ok;
    ok = check_width<8, 4>(use125, 6) && ok;
    ok = check_width<8, 8>(use125, 7) && ok;
  }
  std::printf("micro_simd self-check: %s\n", ok ? "pass" : "FAIL");
  return ok;
}

}  // namespace
}  // namespace brickx

int main(int argc, char** argv) {
  bool self_check = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--self-check") self_check = true;
  if (self_check) return brickx::run_self_check() ? 0 : 1;

  std::printf("micro_simd: kernels run isa=%s W=%d; build W=%d, detected "
              "W=%d\n",
              brickx::simd::isa_name(), brickx::simd::runtime_width(),
              brickx::simd::kActiveWidth, brickx::simd::kDetectedWidth);
  const std::int64_t n = 32;
  brickx::sweep_brick<4>(n);
  brickx::sweep_brick<8>(n);
  brickx::sweep_fields(n);
  return 0;
}
