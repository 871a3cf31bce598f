// Real (single-core) microbenchmarks backing the simulation: brick vs
// array stencil kernels (fast-path engine vs naive per-access reference),
// pack/unpack copy throughput, datatype gather throughput, and mmap view
// construction cost. These are the only benches that measure this host
// rather than the virtual clock.
//
// Beyond the google-benchmark registrations, two flag-driven modes back
// the kernel perf trajectory (EXPERIMENTS.md "Real-host microbenchmarks"):
//
//   --self-check           bit-exactness sweep: fast vs naive kernels over
//                          randomized output boxes, every kernel × brick
//                          size × storage family, plus every ghost-expansion
//                          step of the k1_kernels geometry; exits non-zero
//                          on any mismatch (the `perf`-labeled ctest smoke).
//   --json-out=FILE        measure cells/s for every kernel × brick size ×
//                          path × shape, by wall clock and by the thread's
//                          CPU time, and write the BENCH_kernels.json
//                          trajectory point (scripts/bench_perf.sh). Shape
//                          `cube` applies the kernel to the whole n^3
//                          domain, where every brick is whole; `expansion`
//                          to one exchange period of ghost-expansion boxes,
//                          the boxes harness runs compute.
//
// Without either flag the binary behaves as a plain google-benchmark
// suite.

#include <benchmark/benchmark.h>

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "baseline/array_exchange.h"
#include "common/rng.h"
#include "core/brick.h"
#include "core/cell_array.h"
#include "core/decomp.h"
#include "core/exchange_view.h"
#include "memmap/view.h"
#include "simmpi/cart.h"
#include "stencil/kernel_engine.h"
#include "stencil/stencils.h"

#ifndef BRICKX_BUILD_TYPE
#define BRICKX_BUILD_TYPE "unknown"
#endif
#ifndef BRICKX_CXX_FLAGS
#define BRICKX_CXX_FLAGS "unknown"
#endif

#if defined(__clang__)
#define BRICKX_COMPILER_ID "clang"
#elif defined(__GNUC__)
#define BRICKX_COMPILER_ID "gcc"
#else
#define BRICKX_COMPILER_ID "unknown"
#endif

namespace brickx {
namespace {

struct BrickSetup {
  BrickDecomp<3> dec;
  BrickInfo<3> info;
  BrickStorage in, out;
  BrickSetup(std::int64_t n, std::int64_t b)
      : dec({n, n, n}, b, {b, b, b}, surface3d()),
        info(dec.brick_info()),
        in(dec.allocate(1)),
        out(dec.allocate(1)) {
    Rng rng(0xb71c5);
    for (std::int64_t i = 0; i < dec.total_brick_count(); ++i) {
      double* p = in.brick(i);
      for (std::int64_t e = 0; e < dec.elements_per_brick(); ++e)
        p[e] = rng.uniform() * 2.0 - 1.0;
    }
  }
};

/// One brick-kernel application along `path`: "naive" (per-access), "fast"
/// (the scalar tiles, forced W = 1) or "simd" (the dispatched entry point,
/// at simd::runtime_width()).
template <int B>
void apply_brick_path(std::string_view path, bool use125,
                      const BrickDecomp<3>& dec, const Brick<B, B, B>& out,
                      const Brick<B, B, B>& in, const Box<3>& box) {
  if (path == "naive") {
    if (use125) {
      stencil::apply125_bricks_naive<B, B, B>(dec, out, in, box);
    } else {
      stencil::apply7_bricks_naive<B, B, B>(dec, out, in, box);
    }
  } else if (path == "simd") {
    if (use125) {
      stencil::engine_apply125<B, B, B>(dec, out, in, box);
    } else {
      stencil::engine_apply7<B, B, B>(dec, out, in, box);
    }
  } else if (use125) {
    stencil::engine_apply125_simd<B, B, B, 1>(dec, out, in, box);
  } else {
    stencil::engine_apply7_simd<B, B, B, 1>(dec, out, in, box);
  }
}

/// One array-kernel application, naive or fast.
void apply_array_path(bool naive, bool use125, const CellArray3& in,
                      CellArray3& out, const Box<3>& box) {
  if (use125) {
    if (naive) {
      stencil::apply125_array_naive(in, out, box);
    } else {
      stencil::apply125_array(in, out, box);
    }
  } else if (naive) {
    stencil::apply7_array_naive(in, out, box);
  } else {
    stencil::apply7_array(in, out, box);
  }
}

/// The `expansion` shape: the k1_kernels geometry (a 24^3 subdomain,
/// brick 8, ghost 8) and the output boxes of one exchange period under
/// ghost-cell expansion, steps_per_exchange(8, r) of them — most of their
/// cells lie in clipped ghost-frame bricks.
constexpr std::int64_t kExpansionN = 24;
constexpr int kExpansionBrick = 8;

std::vector<Box<3>> expansion_boxes(bool use125) {
  const std::int64_t g = kExpansionBrick, r = use125 ? 2 : 1;
  std::vector<Box<3>> boxes;
  for (std::int64_t s = 0; s < stencil::steps_per_exchange(g, r); ++s)
    boxes.push_back(stencil::expansion_output_box<3>(
        Vec3::fill(kExpansionN), g, r, s));
  return boxes;
}

/// Random lexicographic input over the expansion geometry's cell frame.
CellArray3 expansion_array_input(const BrickDecomp<3>& dec) {
  CellArray3 in(dec.cell_frame());
  Rng rng(0xe4a1);
  for_each(in.box(), [&](const Vec3& p) { in.at(p) = rng.uniform() - 0.5; });
  return in;
}

// ---- google-benchmark registrations (interactive use) ----------------------

template <bool Naive>
void BM_Brick7Point(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  BrickSetup s(n, 8);
  Brick<8, 8, 8> bin(&s.info, &s.in, 0), bout(&s.info, &s.out, 0);
  const Box<3> box{{0, 0, 0}, {n, n, n}};
  for (auto _ : state) {
    if (Naive) {
      stencil::apply7_bricks_naive<8, 8, 8>(s.dec, bout, bin, box);
    } else {
      stencil::apply7_bricks<8, 8, 8>(s.dec, bout, bin, box);
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Brick7Point<false>)->Name("BM_Brick7Point/fast")->Arg(32)->Arg(64);
BENCHMARK(BM_Brick7Point<true>)->Name("BM_Brick7Point/naive")->Arg(32)->Arg(64);

void BM_Array7Point(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  CellArray3 in(Box<3>{{-8, -8, -8}, {n + 8, n + 8, n + 8}});
  CellArray3 out(Box<3>{{-8, -8, -8}, {n + 8, n + 8, n + 8}});
  const Box<3> box{{0, 0, 0}, {n, n, n}};
  for (auto _ : state) {
    stencil::apply7_array(in, out, box);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Array7Point)->Arg(32)->Arg(64);

template <bool Naive>
void BM_Brick125Point(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  BrickSetup s(n, 8);
  Brick<8, 8, 8> bin(&s.info, &s.in, 0), bout(&s.info, &s.out, 0);
  const Box<3> box{{0, 0, 0}, {n, n, n}};
  for (auto _ : state) {
    if (Naive) {
      stencil::apply125_bricks_naive<8, 8, 8>(s.dec, bout, bin, box);
    } else {
      stencil::apply125_bricks<8, 8, 8>(s.dec, bout, bin, box);
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Brick125Point<false>)->Name("BM_Brick125Point/fast")->Arg(32);
BENCHMARK(BM_Brick125Point<true>)->Name("BM_Brick125Point/naive")->Arg(32);

void BM_PackUnpack(benchmark::State& state) {
  // The on-node data movement the paper eliminates: pack all 26 surface
  // boxes into staging buffers and unpack back.
  const std::int64_t n = state.range(0);
  const Vec3 N{n, n, n};
  CellArray3 field(Box<3>{{-8, -8, -8}, {n + 8, n + 8, n + 8}});
  const auto dirs = mpi::Cart<3>::all_directions();
  std::vector<int> ranks(dirs.size(), 0);
  baseline::PackExchanger ex(N, 8, dirs, ranks);
  std::size_t bytes = 0;
  for (auto _ : state) {
    bytes += ex.pack(field);
    bytes += ex.unpack(field);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_PackUnpack)->Arg(32)->Arg(64)->Arg(128);

void BM_DatatypeGather(benchmark::State& state) {
  // MPI_Types' internal packing: gather a maximally strided face.
  const std::int64_t n = state.range(0);
  const Vec3 sizes{n + 16, n + 16, n + 16};
  std::vector<double> grid(static_cast<std::size_t>(sizes.prod()));
  auto face = mpi::Datatype::subarray<3>(sizes, {8, n, n}, {8, 8, 8},
                                         sizeof(double));
  std::vector<std::byte> out(face.size());
  std::size_t bytes = 0;
  for (auto _ : state) {
    face.flat().gather(reinterpret_cast<const std::byte*>(grid.data()),
                       out.data());
    bytes += face.size();
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
  state.counters["blocks"] = static_cast<double>(face.block_count());
}
BENCHMARK(BM_DatatypeGather)->Arg(32)->Arg(64)->Arg(128);

void BM_ExchangeViewBuild(benchmark::State& state) {
  // Cost of constructing all per-neighbor mmap views (paid once per
  // communication pattern, amortized over every timestep).
  const std::int64_t n = state.range(0);
  BrickDecomp<3> dec({n, n, n}, 8, {8, 8, 8}, surface3d());
  BrickStorage store = dec.mmap_alloc(1);
  std::vector<int> ranks(26, 0);
  for (auto _ : state) {
    ExchangeView<3> ev(dec, store, ranks);
    benchmark::DoNotOptimize(ev.send_byte_count());
  }
  state.SetItemsProcessed(state.iterations() * 2 * 98);  // segments mapped
}
BENCHMARK(BM_ExchangeViewBuild)->Arg(32)->Arg(64);

void BM_MemMapAliasedWrite(benchmark::State& state) {
  // Writing through brick storage is instantly visible in the views: the
  // "pack" of MemMap is literally a no-op; this measures the plain store
  // bandwidth through the canonical mapping for comparison with
  // BM_PackUnpack.
  const std::int64_t n = state.range(0);
  BrickDecomp<3> dec({n, n, n}, 8, {8, 8, 8}, surface3d());
  BrickStorage store = dec.mmap_alloc(1);
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::memset(store.data(), 0x2A, store.bytes());
    bytes += store.bytes();
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_MemMapAliasedWrite)->Arg(32)->Arg(64);

// ---- bit-exactness self-check ----------------------------------------------

template <int B>
bool check_brick_paths(bool use125, std::uint64_t seed) {
  const std::int64_t g = B, r = use125 ? 2 : 1;
  BrickDecomp<3> dec({16, 16, 16}, g, Vec3::fill(B), surface3d());
  BrickInfo<3> info = dec.brick_info();
  BrickStorage sin = dec.allocate(1);
  Rng rng(seed);
  for (std::int64_t i = 0; i < dec.total_brick_count(); ++i) {
    double* p = sin.brick(i);
    for (std::int64_t e = 0; e < dec.elements_per_brick(); ++e)
      p[e] = rng.uniform() * 2.0 - 1.0;
  }
  Brick<B, B, B> bin(&info, &sin, 0);
  const std::vector<Box<3>> boxes = {
      {{0, 0, 0}, {16, 16, 16}},
      stencil::expansion_output_box<3>({16, 16, 16}, g, r, 0),
      {{B, B, B}, {2 * B, 2 * B, 2 * B}},
      {{1, 2, 3}, {6, 15, 9}},
      {{0, 0, 0}, {0, 0, 0}}};
  for (const Box<3>& box : boxes) {
    BrickStorage fast = dec.allocate(1), naive = dec.allocate(1);
    BrickStorage vec = dec.allocate(1);
    Brick<B, B, B> bf(&info, &fast, 0), bn(&info, &naive, 0);
    Brick<B, B, B> bv(&info, &vec, 0);
    if (use125) {
      stencil::apply125_bricks<B, B, B>(dec, bf, bin, box);
      stencil::apply125_bricks_naive<B, B, B>(dec, bn, bin, box);
      stencil::engine_apply125_simd<B, B, B, simd::kActiveWidth>(dec, bv, bin,
                                                                 box);
    } else {
      stencil::apply7_bricks<B, B, B>(dec, bf, bin, box);
      stencil::apply7_bricks_naive<B, B, B>(dec, bn, bin, box);
      stencil::engine_apply7_simd<B, B, B, simd::kActiveWidth>(dec, bv, bin,
                                                               box);
    }
    if (std::memcmp(vec.data(), naive.data(), vec.bytes()) != 0) {
      std::fprintf(stderr,
                   "self-check FAILED (simd W=%d): brick=%d use125=%d\n",
                   simd::kActiveWidth, B, use125 ? 1 : 0);
      return false;
    }
    if (std::memcmp(fast.data(), naive.data(), fast.bytes()) != 0) {
      std::fprintf(stderr,
                   "self-check FAILED: brick=%d use125=%d box.lo=(%lld,%lld,"
                   "%lld)\n",
                   B, use125 ? 1 : 0, static_cast<long long>(box.lo[0]),
                   static_cast<long long>(box.lo[1]),
                   static_cast<long long>(box.lo[2]));
      return false;
    }
  }
  return true;
}

bool check_array_paths(bool use125) {
  Rng rng(0xa11a7);
  const Box<3> frame{{-4, -4, -4}, {14, 14, 14}};
  CellArray3 in(frame);
  for_each(frame, [&](const Vec3& p) { in.at(p) = rng.uniform() - 0.5; });
  const std::vector<Box<3>> boxes = {{{0, 0, 0}, {10, 10, 10}},
                                     {{-2, -2, -2}, {12, 12, 12}},
                                     {{1, 3, 2}, {7, 5, 11}},
                                     {{0, 0, 0}, {0, 0, 0}}};
  for (const Box<3>& box : boxes) {
    CellArray3 fast(frame), naive(frame);
    if (use125) {
      stencil::apply125_array(in, fast, box);
      stencil::apply125_array_naive(in, naive, box);
    } else {
      stencil::apply7_array(in, fast, box);
      stencil::apply7_array_naive(in, naive, box);
    }
    if (std::memcmp(fast.raw().data(), naive.raw().data(),
                    fast.raw().size() * sizeof(double)) != 0) {
      std::fprintf(stderr, "self-check FAILED: array use125=%d\n",
                   use125 ? 1 : 0);
      return false;
    }
  }
  return true;
}

/// Every ghost-expansion step of the k1_kernels geometry: the scalar and
/// active-width engines vs the naive brick kernel, and the array kernel vs
/// its naive counterpart, over the same boxes.
bool check_expansion(bool use125) {
  constexpr int B = kExpansionBrick;
  BrickSetup s(kExpansionN, B);
  Brick<B, B, B> bin(&s.info, &s.in, 0);
  const CellArray3 ain = expansion_array_input(s.dec);
  for (const Box<3>& box : expansion_boxes(use125)) {
    BrickStorage naive = s.dec.allocate(1);
    Brick<B, B, B> bn(&s.info, &naive, 0);
    apply_brick_path<B>("naive", use125, s.dec, bn, bin, box);
    for (const char* path : {"fast", "simd"}) {
      BrickStorage o = s.dec.allocate(1);
      Brick<B, B, B> bo(&s.info, &o, 0);
      apply_brick_path<B>(path, use125, s.dec, bo, bin, box);
      if (std::memcmp(o.data(), naive.data(), o.bytes()) != 0) {
        std::fprintf(stderr,
                     "self-check FAILED: expansion %s use125=%d box.lo=%lld\n",
                     path, use125 ? 1 : 0,
                     static_cast<long long>(box.lo[0]));
        return false;
      }
    }
    CellArray3 af(ain.box()), an(ain.box());
    apply_array_path(false, use125, ain, af, box);
    apply_array_path(true, use125, ain, an, box);
    if (std::memcmp(af.raw().data(), an.raw().data(),
                    af.raw().size() * sizeof(double)) != 0) {
      std::fprintf(stderr,
                   "self-check FAILED: expansion array use125=%d box.lo=%lld\n",
                   use125 ? 1 : 0, static_cast<long long>(box.lo[0]));
      return false;
    }
  }
  return true;
}

bool run_self_check() {
  bool ok = true;
  ok = check_brick_paths<4>(false, 11) && ok;
  ok = check_brick_paths<8>(false, 12) && ok;
  ok = check_brick_paths<4>(true, 13) && ok;
  ok = check_brick_paths<8>(true, 14) && ok;
  ok = check_array_paths(false) && ok;
  ok = check_array_paths(true) && ok;
  ok = check_expansion(false) && ok;
  ok = check_expansion(true) && ok;
  std::printf("self-check: %s\n", ok ? "pass" : "FAIL");
  return ok;
}

// ---- measured trajectory (--json-out) --------------------------------------

/// One clock's view of a measured row: the fastest of the repeats, and
/// the slowest over the fastest.
struct Timing {
  double cells_per_s = 0;
  double seconds = 0;
  double spread = 0;
};

struct KernelPoint {
  const char* kernel;   ///< "7pt" | "125pt"
  const char* storage;  ///< "brick" | "array"
  int brick;            ///< brick extent, 0 for array storage
  const char* path;     ///< "naive" | "fast" | "simd"
  std::int64_t iters = 0;  ///< kernel applications per repeat
  /// Vector lanes of the measured path: 0 for naive (per-access), 1 for
  /// the scalar fast tiles, simd::runtime_width() for the dispatched
  /// kernels.
  int width = 0;
  /// Coupled AoSoA fields evolved per application (cells scales with it).
  int fields = 1;
  /// "cube" (the whole n^3 domain) or "expansion" (expansion_boxes).
  const char* shape = "cube";
  Timing wall{};  ///< by steady_clock
  Timing cpu{};   ///< by the thread's CPU time: what `speedups` divide
};

/// CPU time this thread has run, in seconds. The kernels are
/// single-threaded, so time the host gives other processes stays out.
double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Time `fn` (one application of a kernel to `cells` cells): double the
/// batch until it runs for at least `min_s` seconds of CPU time, then run
/// that batch `kRepeats` times in all, timing each by wall clock and by
/// thread CPU time. Each clock's fastest repeat gives its cells_per_s; one
/// batch alone moved by about 20% between runs on a shared host, and under
/// load the wall clock moves more.
template <typename F>
void measure(KernelPoint& pt, std::int64_t cells, F&& fn) {
  using clock = std::chrono::steady_clock;
  constexpr double min_s = 0.15;
  constexpr int kRepeats = 5;
  struct Batch {
    double wall, cpu;
  };
  auto batch = [&](std::int64_t iters) {
    const auto t0 = clock::now();
    const double c0 = thread_cpu_s();
    for (std::int64_t i = 0; i < iters; ++i) fn();
    const double cpu = thread_cpu_s() - c0;
    return Batch{std::chrono::duration<double>(clock::now() - t0).count(),
                 cpu};
  };
  std::int64_t iters = 1;
  Batch b = batch(iters);
  while (b.cpu < min_s) {
    iters = b.cpu > 0 ? std::max<std::int64_t>(
                            iters * 2, static_cast<std::int64_t>(
                                           static_cast<double>(iters) *
                                           min_s / b.cpu * 1.2))
                      : iters * 2;
    b = batch(iters);
  }
  Batch best = b, worst = b;
  for (int r = 1; r < kRepeats; ++r) {
    b = batch(iters);
    best = {std::min(best.wall, b.wall), std::min(best.cpu, b.cpu)};
    worst = {std::max(worst.wall, b.wall), std::max(worst.cpu, b.cpu)};
  }
  auto timing = [&](double fastest, double slowest) {
    const double t = fastest > 0 ? fastest : 1e-12;
    return Timing{static_cast<double>(cells * iters) / t, fastest,
                  slowest / t};
  };
  pt.iters = iters;
  pt.wall = timing(best.wall, worst.wall);
  pt.cpu = timing(best.cpu, worst.cpu);
}

/// Vector lanes of a brick `path` (KernelPoint::width).
int path_width(std::string_view path) {
  return path == "naive" ? 0 : (path == "simd" ? simd::runtime_width() : 1);
}

/// Vector lanes of the fast array kernel: the 125-point rows run at the
/// runtime width; the 7-point rows run 4 wide in the AVX2 clone and are
/// scalar otherwise.
int array_width(bool naive, bool use125) {
  const int w = simd::runtime_width();
  if (naive) return 0;
  if (use125) return w;
  return w != simd::kActiveWidth ? w : 1;
}

template <int B>
void measure_bricks(std::vector<KernelPoint>& out, std::int64_t n) {
  BrickSetup s(n, B);
  Brick<B, B, B> bin(&s.info, &s.in, 0), bout(&s.info, &s.out, 0);
  const Box<3> box{{0, 0, 0}, {n, n, n}};
  const std::int64_t cells = n * n * n;
  // Three paths per kernel: naive per-access, the scalar fast tiles
  // (forced W=1), and the dispatched kernels at the runtime width. All
  // three are bit-identical; only throughput differs.
  for (bool use125 : {false, true}) {
    for (const char* path : {"naive", "fast", "simd"}) {
      KernelPoint pt{use125 ? "125pt" : "7pt", "brick", B, path};
      pt.width = path_width(path);
      measure(pt, cells, [&] {
        apply_brick_path<B>(path, use125, s.dec, bout, bin, box);
        benchmark::ClobberMemory();
      });
      out.push_back(pt);
    }
  }
}

/// The field-count axis: evolve F coupled AoSoA fields per application
/// (brick 8, SIMD path). Cells processed scales with F, so cells/s staying
/// flat means the AoSoA offsets cost nothing over the single-field layout.
void measure_fields(std::vector<KernelPoint>& out, std::int64_t n) {
  constexpr int B = 8;
  // F = 1 is the plain simd row from measure_bricks; only F > 1 is new.
  for (int F : {2, 4}) {
    BrickDecomp<3> dec({n, n, n}, B, {B, B, B}, surface3d());
    BrickInfo<3> info = dec.brick_info();
    BrickStorage in = dec.allocate(F), o = dec.allocate(F);
    Rng rng(0xf1e1d5);
    for (std::int64_t i = 0; i < dec.total_brick_count(); ++i) {
      double* p = in.brick(i);
      for (std::int64_t e = 0; e < dec.elements_per_brick() * F; ++e)
        p[e] = rng.uniform() * 2.0 - 1.0;
    }
    const Box<3> box{{0, 0, 0}, {n, n, n}};
    for (bool use125 : {false, true}) {
      KernelPoint pt{use125 ? "125pt" : "7pt", "brick", B, "simd"};
      pt.width = path_width("simd");
      pt.fields = F;
      measure(pt, n * n * n * F, [&] {
        for (int f = 0; f < F; ++f) {
          const std::int64_t off = f * dec.elements_per_brick();
          Brick<B, B, B> bin(&info, &in, off), bout(&info, &o, off);
          apply_brick_path<B>("simd", use125, dec, bout, bin, box);
        }
        benchmark::ClobberMemory();
      });
      out.push_back(pt);
    }
  }
}

void measure_arrays(std::vector<KernelPoint>& out, std::int64_t n) {
  CellArray3 in(Box<3>{{-8, -8, -8}, {n + 8, n + 8, n + 8}});
  CellArray3 o(Box<3>{{-8, -8, -8}, {n + 8, n + 8, n + 8}});
  Rng rng(0xcafe);
  for_each(in.box(), [&](const Vec3& p) { in.at(p) = rng.uniform(); });
  const Box<3> box{{0, 0, 0}, {n, n, n}};
  const std::int64_t cells = n * n * n;
  for (bool use125 : {false, true}) {
    for (bool naive : {true, false}) {
      KernelPoint pt{use125 ? "125pt" : "7pt", "array", 0,
                     naive ? "naive" : "fast"};
      pt.width = array_width(naive, use125);
      measure(pt, cells, [&] {
        apply_array_path(naive, use125, in, o, box);
        benchmark::ClobberMemory();
      });
      out.push_back(pt);
    }
  }
}

/// The `expansion` shape: one exchange period of expansion_boxes per
/// application, over brick-8 storage (every path) and array storage.
void measure_expansion(std::vector<KernelPoint>& out) {
  constexpr int B = kExpansionBrick;
  BrickSetup s(kExpansionN, B);
  Brick<B, B, B> bin(&s.info, &s.in, 0), bout(&s.info, &s.out, 0);
  const CellArray3 ain = expansion_array_input(s.dec);
  CellArray3 aout(ain.box());
  for (bool use125 : {false, true}) {
    const std::vector<Box<3>> boxes = expansion_boxes(use125);
    std::int64_t cells = 0;
    for (const Box<3>& b : boxes) cells += b.volume();
    const char* kernel = use125 ? "125pt" : "7pt";
    for (const char* path : {"naive", "fast", "simd"}) {
      KernelPoint pt{kernel, "brick", B, path};
      pt.width = path_width(path);
      pt.shape = "expansion";
      measure(pt, cells, [&] {
        for (const Box<3>& b : boxes)
          apply_brick_path<B>(path, use125, s.dec, bout, bin, b);
        benchmark::ClobberMemory();
      });
      out.push_back(pt);
    }
    for (bool naive : {true, false}) {
      KernelPoint pt{kernel, "array", 0, naive ? "naive" : "fast"};
      pt.width = array_width(naive, use125);
      pt.shape = "expansion";
      measure(pt, cells, [&] {
        for (const Box<3>& b : boxes)
          apply_array_path(naive, use125, ain, aout, b);
        benchmark::ClobberMemory();
      });
      out.push_back(pt);
    }
  }
}

/// CPU-time cells/s of a single-field row.
double find_cells_per_s(const std::vector<KernelPoint>& pts,
                        const char* kernel, const char* storage, int brick,
                        const char* path, const char* shape = "cube") {
  for (const auto& p : pts)
    if (std::strcmp(p.kernel, kernel) == 0 &&
        std::strcmp(p.storage, storage) == 0 && p.brick == brick &&
        std::strcmp(p.path, path) == 0 && p.fields == 1 &&
        std::strcmp(p.shape, shape) == 0)
      return p.cpu.cells_per_s;
  return 0;
}

int write_json(const std::string& file, bool self_check_passed) {
  const std::int64_t n = 32;
  std::vector<KernelPoint> pts;
  measure_bricks<4>(pts, n);
  measure_bricks<8>(pts, n);
  measure_arrays(pts, n);
  measure_fields(pts, n);
  measure_expansion(pts);

  FILE* f = std::fopen(file.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "micro_kernels: cannot open %s\n", file.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"micro_kernels\",\n");
  // v2: build provenance block, per-result width/fields axes, the "simd"
  // path, and simd-vs-fast speedup ratios (DESIGN.md §16). v3: the
  // per-result shape axis ("cube" | "expansion") and expansion ratios. v4:
  // each result is the fastest of five repeats, with their max/min spread.
  // v5: each result also by thread CPU time (cpu_*), `speedups` from CPU
  // time, the "simd" rows run the dispatched kernels, and the provenance
  // gives the ISA and width they run at.
  std::fprintf(f, "  \"schema_version\": 5,\n");
  std::fprintf(f, "  \"build_type\": \"%s\",\n", BRICKX_BUILD_TYPE);
  // Provenance: trajectory points are only comparable when the toolchain
  // and vector configuration match — stamp everything that moves cells/s.
  std::fprintf(f, "  \"provenance\": {\n");
  std::fprintf(f, "    \"compiler\": \"%s\",\n", BRICKX_COMPILER_ID);
  std::fprintf(f, "    \"compiler_version\": \"%s\",\n", __VERSION__);
  std::fprintf(f, "    \"cxx_flags\": \"%s\",\n", BRICKX_CXX_FLAGS);
  // simd_isa/simd_width: what the kernels run at in this process (the AVX2
  // clone on an AVX2 host); simd_build_width: the build's own code;
  // simd_detected_width: the compile target's, ignoring a forced width.
  std::fprintf(f, "    \"simd_isa\": \"%s\",\n", simd::isa_name());
  std::fprintf(f, "    \"simd_width\": %d,\n", simd::runtime_width());
  std::fprintf(f, "    \"simd_build_width\": %d,\n", simd::kActiveWidth);
  std::fprintf(f, "    \"simd_detected_width\": %d\n", simd::kDetectedWidth);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"domain\": %lld,\n", static_cast<long long>(n));
  std::fprintf(f, "  \"self_check\": \"%s\",\n",
               self_check_passed ? "pass" : "not-run");
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const KernelPoint& p = pts[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"storage\": \"%s\", \"brick\": "
                 "%d, \"path\": \"%s\", \"shape\": \"%s\", \"width\": %d, "
                 "\"fields\": %d, \"iters\": %lld, \"cells_per_s\": %.6e, "
                 "\"seconds\": %.4f, \"spread\": %.3f, \"cpu_cells_per_s\": "
                 "%.6e, \"cpu_seconds\": %.4f, \"cpu_spread\": %.3f}%s\n",
                 p.kernel, p.storage, p.brick, p.path, p.shape, p.width,
                 p.fields, static_cast<long long>(p.iters), p.wall.cells_per_s,
                 p.wall.seconds, p.wall.spread, p.cpu.cells_per_s,
                 p.cpu.seconds, p.cpu.spread, i + 1 < pts.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  // Headline ratios of the perf trajectory, by CPU time: the fast path
  // over the naive kernel (the 8^3 125-point tiles must stay >= 3x), the
  // dispatched SIMD kernels over the scalar fast path, the same
  // fast-over-naive ratios on the expansion shape, and how much of the
  // cube rate the expansion shape keeps at the runtime width.
  struct Ratio {
    const char* name;
    const char* kernel;
    const char* storage;
    int brick;
    const char* num_path;
    const char* den_path;
    const char* num_shape;
    const char* den_shape;
  };
  const Ratio ratios[] = {
      {"brick8_125pt", "125pt", "brick", 8, "fast", "naive", "cube", "cube"},
      {"brick8_7pt", "7pt", "brick", 8, "fast", "naive", "cube", "cube"},
      {"brick4_125pt", "125pt", "brick", 4, "fast", "naive", "cube", "cube"},
      {"brick4_7pt", "7pt", "brick", 4, "fast", "naive", "cube", "cube"},
      {"array_125pt", "125pt", "array", 0, "fast", "naive", "cube", "cube"},
      {"array_7pt", "7pt", "array", 0, "fast", "naive", "cube", "cube"},
      {"simd_vs_fast_brick8_125pt", "125pt", "brick", 8, "simd", "fast",
       "cube", "cube"},
      {"simd_vs_fast_brick8_7pt", "7pt", "brick", 8, "simd", "fast", "cube",
       "cube"},
      {"simd_vs_fast_brick4_125pt", "125pt", "brick", 4, "simd", "fast",
       "cube", "cube"},
      {"simd_vs_fast_brick4_7pt", "7pt", "brick", 4, "simd", "fast", "cube",
       "cube"},
      {"expansion_brick8_125pt", "125pt", "brick", 8, "fast", "naive",
       "expansion", "expansion"},
      {"expansion_brick8_7pt", "7pt", "brick", 8, "fast", "naive",
       "expansion", "expansion"},
      {"expansion_array_125pt", "125pt", "array", 0, "fast", "naive",
       "expansion", "expansion"},
      {"expansion_array_7pt", "7pt", "array", 0, "fast", "naive",
       "expansion", "expansion"},
      {"expansion_vs_cube_brick8_125pt", "125pt", "brick", 8, "simd", "simd",
       "expansion", "cube"},
      {"expansion_vs_cube_brick8_7pt", "7pt", "brick", 8, "simd", "simd",
       "expansion", "cube"},
  };
  std::fprintf(f, "  \"speedups\": {\n");
  for (std::size_t i = 0; i < std::size(ratios); ++i) {
    const Ratio& r = ratios[i];
    const double num = find_cells_per_s(pts, r.kernel, r.storage, r.brick,
                                        r.num_path, r.num_shape);
    const double den = find_cells_per_s(pts, r.kernel, r.storage, r.brick,
                                        r.den_path, r.den_shape);
    std::fprintf(f, "    \"%s\": %.2f%s\n", r.name, den > 0 ? num / den : 0,
                 i + 1 < std::size(ratios) ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);

  for (const auto& p : pts)
    std::printf(
        "%-6s %-5s b=%d %-5s %-9s W=%d F=%d : %10.3e cells/s cpu (spread "
        "%.2f), %10.3e wall (spread %.2f), %lld iters\n",
        p.kernel, p.storage, p.brick, p.path, p.shape, p.width, p.fields,
        p.cpu.cells_per_s, p.cpu.spread, p.wall.cells_per_s, p.wall.spread,
        static_cast<long long>(p.iters));
  const double headline =
      find_cells_per_s(pts, "125pt", "brick", 8, "fast") /
      find_cells_per_s(pts, "125pt", "brick", 8, "naive");
  std::printf("8^3 125-point fast-path speedup: %.2fx\n", headline);
  const double simd_headline =
      find_cells_per_s(pts, "125pt", "brick", 8, "simd") /
      find_cells_per_s(pts, "125pt", "brick", 8, "fast");
  std::printf("8^3 125-point simd-vs-fast speedup (%s, W=%d): %.2fx\n",
              simd::isa_name(), simd::runtime_width(), simd_headline);
  std::printf(
      "k1_kernels expansion, brick 8, W=%d: 125-point %.3e cells/s, "
      "7-point %.3e cells/s (CPU time)\n",
      simd::runtime_width(),
      find_cells_per_s(pts, "125pt", "brick", 8, "simd", "expansion"),
      find_cells_per_s(pts, "7pt", "brick", 8, "simd", "expansion"));
  std::printf("micro_kernels: wrote %s\n", file.c_str());
  return 0;
}

}  // namespace
}  // namespace brickx

int main(int argc, char** argv) {
  std::string json_out;
  bool self_check = false;
  std::vector<char*> pass;
  pass.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--json-out=", 0) == 0) {
      json_out = a.substr(std::strlen("--json-out="));
    } else if (a == "--self-check") {
      self_check = true;
    } else {
      pass.push_back(argv[i]);
    }
  }
  if (self_check || !json_out.empty()) {
    bool ok = true;
    if (self_check) ok = brickx::run_self_check();
    if (!ok) return 1;
    if (!json_out.empty()) return brickx::write_json(json_out, self_check);
    return 0;
  }
  int bargc = static_cast<int>(pass.size());
  benchmark::Initialize(&bargc, pass.data());
  if (benchmark::ReportUnrecognizedArguments(bargc, pass.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
