// Differential property suite for the explicit-SIMD kernel tier
// (DESIGN.md §16): every width in {1, 2, 4, 8} must be bit-identical to
// both the scalar fast path and the naive per-access kernels over
// full-domain / ghost-adjacent / clipped / empty boxes × both stencils ×
// both brick sizes — widths the hardware lacks are compiler-emulated, so
// the whole matrix runs in one build. The register-blocked 125-point array
// kernel gets the same width sweep. Plus the alignment guard
// (simd_storage_reason) unit-tested for every width, the BrickStorage
// alignment contract, the AoSoA per-field dispatch, and the runtime
// dispatch: the entry points without a width parameter, which run the
// AVX2 clone on a CPU that has AVX2, against the naive kernels.

#include "stencil/kernel_engine.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "core/brick.h"
#include "core/cell_array.h"
#include "stencil/stencils.h"

namespace brickx::stencil {
namespace {

void fill_random(const BrickDecomp<3>& dec, BrickStorage& store, Rng& rng) {
  for (std::int64_t b = 0; b < dec.total_brick_count(); ++b) {
    double* p = store.brick(b);
    for (std::int64_t e = 0;
         e < dec.elements_per_brick() * store.fields(); ++e)
      p[e] = rng.uniform() * 2.0 - 1.0;
  }
}

template <int B, int W>
void apply_simd(const BrickDecomp<3>& dec, const Brick<B, B, B>& out,
                const Brick<B, B, B>& in, const Box<3>& box, bool use125) {
  if (use125) {
    engine_apply125_simd<B, B, B, W>(dec, out, in, box);
  } else {
    engine_apply7_simd<B, B, B, W>(dec, out, in, box);
  }
}

/// One width's outputs vs the naive kernel's, byte-compared over the whole
/// storage (catches stray writes as well as wrong values).
template <int B, int W>
void expect_width_identical(const Box<3>& box, bool use125,
                            std::uint64_t seed) {
  const std::int64_t g = B;
  BrickDecomp<3> dec({16, 16, 16}, g, Vec3::fill(B), surface3d());
  BrickInfo<3> info = dec.brick_info();
  BrickStorage sin = dec.allocate(1);
  BrickStorage out_simd = dec.allocate(1), out_naive = dec.allocate(1);
  Rng rng(seed);
  fill_random(dec, sin, rng);
  Brick<B, B, B> bin(&info, &sin, 0);
  Brick<B, B, B> bsimd(&info, &out_simd, 0), bnaive(&info, &out_naive, 0);
  apply_simd<B, W>(dec, bsimd, bin, box, use125);
  if (use125) {
    apply125_bricks_naive<B, B, B>(dec, bnaive, bin, box);
  } else {
    apply7_bricks_naive<B, B, B>(dec, bnaive, bin, box);
  }
  EXPECT_EQ(
      std::memcmp(out_simd.data(), out_naive.data(), out_simd.bytes()), 0)
      << "B=" << B << " W=" << W << " use125=" << use125 << " seed=" << seed
      << " box=[" << box.lo[0] << "," << box.lo[1] << "," << box.lo[2]
      << ")-[" << box.hi[0] << "," << box.hi[1] << "," << box.hi[2] << ")";
}

/// Boxes exercising every engine path (mirrors stencil_kernel_test).
template <int B>
std::vector<Box<3>> test_boxes(bool use125, std::uint64_t seed) {
  const std::int64_t g = B, r = use125 ? 2 : 1;
  std::vector<Box<3>> boxes;
  boxes.push_back(Box<3>{{0, 0, 0}, {16, 16, 16}});  // full domain
  boxes.push_back(
      expansion_output_box<3>({16, 16, 16}, g, r, 0));  // ghost-adjacent
  boxes.push_back(
      Box<3>{{B, B, B}, {2 * B, 2 * B, 2 * B}});  // one interior brick
  boxes.push_back(Box<3>{{3, 5, 7}, {4, 6, 8}});  // clipped single cell
  boxes.push_back(Box<3>{{0, 0, 0}, {0, 0, 0}});  // empty
  Rng rng(seed);
  for (int t = 0; t < 6; ++t) {
    Box<3> b;
    for (int a = 0; a < 3; ++a) {
      const std::int64_t span = 16 + 2 * (g - r);
      const std::int64_t lo =
          -(g - r) + static_cast<std::int64_t>(
                         rng.below(static_cast<std::uint64_t>(span)));
      const std::int64_t len = 1 + static_cast<std::int64_t>(rng.below(
                                       static_cast<std::uint64_t>(
                                           16 + (g - r) - lo)));
      b.lo[a] = lo;
      b.hi[a] = lo + len;
    }
    boxes.push_back(b);
  }
  return boxes;
}

template <int B>
void sweep_widths(bool use125) {
  std::uint64_t seed = use125 ? 5000 : 6000;
  for (const Box<3>& b : test_boxes<B>(use125, seed)) {
    ++seed;
    // W = 1 is the scalar fast path; B = 4 at W = 8 exercises the
    // row-not-divisible fallback (4 % 8 != 0) — still bit-identical.
    expect_width_identical<B, 1>(b, use125, seed);
    expect_width_identical<B, 2>(b, use125, seed);
    expect_width_identical<B, 4>(b, use125, seed);
    expect_width_identical<B, 8>(b, use125, seed);
  }
}

class SimdWidths : public ::testing::TestWithParam<std::tuple<bool, int>> {};

TEST_P(SimdWidths, AllWidthsMatchNaiveBitExactly) {
  const bool use125 = std::get<0>(GetParam());
  if (std::get<1>(GetParam()) == 4) {
    sweep_widths<4>(use125);
  } else {
    sweep_widths<8>(use125);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, SimdWidths,
    ::testing::Combine(::testing::Bool(), ::testing::Values(4, 8)),
    [](const auto& i) {
      return std::string(std::get<0>(i.param) ? "p125" : "p7") + "_b" +
             std::to_string(std::get<1>(i.param));
    });

TEST(SimdWidths, ActiveWidthIsSupported) {
  const int w = simd::kActiveWidth;
  EXPECT_TRUE(w == 1 || w == 2 || w == 4 || w == 8) << w;
  EXPECT_TRUE(simd::kDetectedWidth == 1 || simd::kDetectedWidth == 2 ||
              simd::kDetectedWidth == 4 || simd::kDetectedWidth == 8);
  EXPECT_STRNE(simd::isa_name(), "");
}

// The array kernels at every width. The 125-point rows run blocks of 4·W
// cells held in registers, then single-vector blocks of W, then a scalar
// tail; the 7-point rows run W cells at a time, then a scalar tail. Both
// must be bit-identical to the naive kernels for every row length
// 1 … 8·W + 1 — every block mix and tail length after zero, one and two
// whole 4·W blocks — with rows starting at an odd x offset, so the output
// stores are unaligned.
template <int W>
void expect_array_width_identical() {
  const Box<3> frame{{-3, -3, -3}, {8 * W + 6, 6, 6}};
  CellArray3 in(frame);
  Rng rng(4000 + W);
  for_each(frame, [&](const Vec3& p) { in.at(p) = rng.uniform() - 0.5; });
  for (std::int64_t nx = 1; nx <= 8 * W + 1; ++nx) {
    const Box<3> box{{1, 0, -1}, {1 + nx, 3, 2}};
    for (bool use125 : {false, true}) {
      CellArray3 vec(frame), naive(frame);
      if (use125) {
        engine_apply125_array_simd<W>(in, vec, box);
        apply125_array_naive(in, naive, box);
      } else {
        engine_apply7_array_simd<W>(in, vec, box);
        apply7_array_naive(in, naive, box);
      }
      EXPECT_EQ(std::memcmp(vec.raw().data(), naive.raw().data(),
                            vec.raw().size() * sizeof(double)),
                0)
          << "W=" << W << " nx=" << nx << " use125=" << use125;
    }
  }
}

TEST(ArrayWidths, AllWidthsMatchNaiveBitExactly) {
  expect_array_width_identical<1>();
  expect_array_width_identical<2>();
  expect_array_width_identical<4>();
  expect_array_width_identical<8>();
}

// The guard predicate, width by width. A 64-byte-aligned base with
// lane-multiple strides is accepted at every width; each individual
// violation is diagnosed (and width 1 accepts anything — it IS the scalar
// path).
TEST(AlignmentGuard, EveryWidth) {
  alignas(64) static double buf[64];
  for (int w : {1, 2, 4, 8}) {
    SCOPED_TRACE(w);
    // Canonical 8^3 single-field brick geometry: always safe.
    EXPECT_EQ(simd_storage_reason(buf, 8 * 8 * 8 * sizeof(double), 0, 8, 0,
                                  w),
              nullptr);
    if (w == 1) {
      // Width 1 accepts even a misaligned base over a degenerate row.
      EXPECT_EQ(simd_storage_reason(reinterpret_cast<std::byte*>(buf) + 8,
                                    24, 0, 3, 1, w),
                nullptr);
      continue;
    }
    const std::size_t lane = static_cast<std::size_t>(w) * sizeof(double);
    // Brick row not a whole number of lanes (e.g. brick 4 at width 8).
    EXPECT_STREQ(simd_storage_reason(buf, 512, 0, w - 1, 0, w),
                 "brick row not a whole number of lanes");
    // Base misaligned by one double.
    EXPECT_STREQ(simd_storage_reason(reinterpret_cast<std::byte*>(buf) + 8,
                                     512, 0, w, 0, w),
                 "storage base not lane-aligned");
    // Brick stride leaves later bricks unaligned.
    EXPECT_STREQ(simd_storage_reason(buf, lane + 8, 0, w, 0, w),
                 "brick stride not a lane multiple");
    // Page padding granularity leaves later chunks unaligned.
    EXPECT_STREQ(simd_storage_reason(buf, 512, lane + 8, w, 0, w),
                 "chunk padding not a lane multiple");
    // AoSoA field offset inside the brick chunk must also be lane-aligned.
    EXPECT_STREQ(simd_storage_reason(buf, 512, 0, w, 1, w),
                 "field offset not a lane multiple");
  }
}

// Both storage backings must place the buffer base on the 64-byte
// boundary the aligned stores rely on, and 3-D brick geometries make
// every brick (and every AoSoA field slab) lane-aligned by construction.
TEST(AlignmentGuard, StorageContract) {
  for (int fields : {1, 2, 3}) {
    BrickDecomp<3> dec({16, 16, 16}, 8, {8, 8, 8}, surface3d());
    BrickStorage heap = dec.allocate(fields);
    BrickStorage mapped = dec.mmap_alloc(fields, 16384);
    for (BrickStorage* s : {&heap, &mapped}) {
      EXPECT_TRUE(simd::lane_aligned(s->data(), 8));
      EXPECT_EQ(s->brick_bytes() % simd::kAlign, 0u);
      for (std::int64_t b = 0; b < s->brick_count(); ++b)
        EXPECT_TRUE(simd::lane_aligned(s->brick(b), 8)) << b;
      for (int f = 0; f < fields; ++f)
        EXPECT_EQ(simd_storage_reason(s->data(), s->brick_bytes(),
                                      s->page_size(), 8,
                                      f * dec.elements_per_brick(), 8),
                  nullptr)
            << "field " << f;
    }
  }
}

// AoSoA dispatch: computing field f of a multi-field storage through the
// elem_offset accessor must be bit-identical to the same compute over a
// single-field storage, at every width.
TEST(SimdWidths, MultiFieldOffsetsMatchSingleField) {
  constexpr int B = 8;
  constexpr int kFields = 3;
  BrickDecomp<3> dec({16, 16, 16}, B, Vec3::fill(B), surface3d());
  BrickInfo<3> info = dec.brick_info();
  BrickStorage in_multi = dec.allocate(kFields);
  BrickStorage out_multi = dec.allocate(kFields);
  Rng rng(777);
  fill_random(dec, in_multi, rng);
  const Box<3> box{{0, 0, 0}, {16, 16, 16}};
  for (bool use125 : {false, true}) {
    for (int f = 0; f < kFields; ++f) {
      const std::int64_t off = f * dec.elements_per_brick();
      Brick<B, B, B> bin(&info, &in_multi, off);
      Brick<B, B, B> bout(&info, &out_multi, off);
      // Single-field copy of field f.
      BrickStorage in_one = dec.allocate(1), out_one = dec.allocate(1);
      for (std::int64_t b = 0; b < dec.total_brick_count(); ++b)
        std::memcpy(in_one.brick(b), in_multi.brick(b) + off,
                    static_cast<std::size_t>(dec.elements_per_brick()) *
                        sizeof(double));
      Brick<B, B, B> sin(&info, &in_one, 0), sout(&info, &out_one, 0);
      apply_simd<B, 2>(dec, bout, bin, box, use125);
      apply_simd<B, 2>(dec, sout, sin, box, use125);
      for (std::int64_t b = 0; b < dec.total_brick_count(); ++b)
        ASSERT_EQ(std::memcmp(out_multi.brick(b) + off, out_one.brick(b),
                              static_cast<std::size_t>(
                                  dec.elements_per_brick()) *
                                  sizeof(double)),
                  0)
            << "use125=" << use125 << " field=" << f << " brick=" << b;
    }
  }
}

// ---- runtime dispatch ------------------------------------------------------

// The width the kernels run at: the forced width in a BRICKX_SIMD_WIDTH
// build, which never dispatches; 4 in a dispatching build on a CPU with
// AVX2; else the build's own width.
TEST(Dispatch, RuntimeWidthIsForcedOrHostWidth) {
  int expected = simd::kActiveWidth;
#if BRICKX_SIMD_DISPATCH
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) expected = 4;
#endif
  EXPECT_EQ(simd::runtime_width(), expected);
  if (BRICKX_SIMD_FORCED) {
    EXPECT_EQ(simd::runtime_width(), BRICKX_SIMD_WIDTH);
  }
  if (simd::runtime_width() != simd::kActiveWidth) {
    EXPECT_STREQ(simd::isa_name(), "avx2");
  }
}

/// The dispatched brick kernel vs the naive one over every expansion step
/// of the smallest subdomain ghost `g` allows (2g per axis). One naive
/// reference on single-field heap storage; the dispatched kernel runs on
/// three storages holding the same input: single-field heap, the last of
/// four heap fields (element offset 3·B³, the other fields holding other
/// values), and single-field memfd. Every brick's computed field must
/// equal the reference's, and the other fields must stay zero.
template <int B>
void expect_dispatch_identical(bool use125, std::int64_t g,
                               std::uint64_t seed) {
  const std::int64_t r = use125 ? 2 : 1, n = 2 * g;
  BrickDecomp<3> dec(Vec3::fill(n), g, Vec3::fill(B), surface3d());
  BrickInfo<3> info = dec.brick_info();
  const std::int64_t e = dec.elements_per_brick();
  const std::size_t field_bytes = static_cast<std::size_t>(e) * sizeof(double);
  struct Case {
    const char* name;
    BrickStorage (*alloc)(const BrickDecomp<3>&);
    int fields;
  };
  const Case cases[] = {
      {"heap", [](const BrickDecomp<3>& d) { return d.allocate(1); }, 1},
      {"heap fields=4", [](const BrickDecomp<3>& d) { return d.allocate(4); },
       4},
      {"memfd", [](const BrickDecomp<3>& d) { return d.mmap_alloc(1); }, 1}};
  BrickStorage ref_in = dec.allocate(1);
  Rng rng(seed);
  fill_random(dec, ref_in, rng);
  std::vector<BrickStorage> ins;
  for (const Case& k : cases) {
    ins.push_back(k.alloc(dec));
    fill_random(dec, ins.back(), rng);
    for (std::int64_t b = 0; b < dec.total_brick_count(); ++b)
      std::memcpy(ins.back().brick(b) + (k.fields - 1) * e, ref_in.brick(b),
                  field_bytes);
  }
  const std::vector<double> zeros(static_cast<std::size_t>(e));
  Brick<B, B, B> rin(&info, &ref_in, 0);
  for (std::int64_t s = 0; s < steps_per_exchange(g, r); ++s) {
    const Box<3> box = expansion_output_box<3>(Vec3::fill(n), g, r, s);
    BrickStorage ref = dec.allocate(1);
    Brick<B, B, B> rout(&info, &ref, 0);
    if (use125) {
      apply125_bricks_naive<B, B, B>(dec, rout, rin, box);
    } else {
      apply7_bricks_naive<B, B, B>(dec, rout, rin, box);
    }
    for (std::size_t c = 0; c < std::size(cases); ++c) {
      const Case& k = cases[c];
      const std::int64_t off = (k.fields - 1) * e;
      BrickStorage out = k.alloc(dec);
      Brick<B, B, B> bin(&info, &ins[c], off), bout(&info, &out, off);
      if (use125) {
        engine_apply125<B, B, B>(dec, bout, bin, box);
      } else {
        engine_apply7<B, B, B>(dec, bout, bin, box);
      }
      for (std::int64_t b = 0; b < dec.total_brick_count(); ++b)
        for (int f = 0; f < k.fields; ++f) {
          const double* want = f == k.fields - 1 ? ref.brick(b) : zeros.data();
          ASSERT_EQ(std::memcmp(out.brick(b) + f * e, want, field_bytes), 0)
              << k.name << " B=" << B << " use125=" << use125 << " g=" << g
              << " step=" << s << " brick=" << b << " field=" << f;
        }
    }
  }
}

TEST(Dispatch, BrickKernelsMatchNaiveBitExactly) {
  for (bool use125 : {false, true}) {
    const std::uint64_t seed = use125 ? 9100 : 9000;
    expect_dispatch_identical<4>(use125, 4, seed + 1);
    expect_dispatch_identical<4>(use125, 8, seed + 2);
    expect_dispatch_identical<8>(use125, 8, seed + 3);
    expect_dispatch_identical<8>(use125, 16, seed + 4);
  }
}

// The dispatched array and span kernels vs the naive ones, for every row
// length 1 … 33 (past two whole 16-cell blocks of the width-4 rows)
// starting at an odd x, and over a full slab.
TEST(Dispatch, ArrayKernelsMatchNaiveBitExactly) {
  const Box<3> frame{{-3, -3, -3}, {40, 7, 7}};
  CellArray3 in(frame);
  Rng rng(4242);
  for_each(frame, [&](const Vec3& p) { in.at(p) = rng.uniform() - 0.5; });
  std::vector<Box<3>> boxes;
  for (std::int64_t nx = 1; nx <= 33; ++nx)
    boxes.push_back(Box<3>{{1, -1, 0}, {1 + nx, 2, 3}});
  boxes.push_back(Box<3>{{-1, -1, -1}, {38, 5, 5}});
  const std::size_t bytes = in.raw().size() * sizeof(double);
  for (const Box<3>& box : boxes)
    for (bool use125 : {false, true}) {
      CellArray3 arr(frame), naive(frame);
      std::vector<double> span(in.raw().size()), span_naive(span.size());
      if (use125) {
        engine_apply125_array(in, arr, box);
        apply125_array_naive(in, naive, box);
        engine_apply125_span(frame, in.raw().data(), span.data(), box);
        apply125_span_naive(frame, in.raw().data(), span_naive.data(), box);
      } else {
        engine_apply7_array(in, arr, box);
        apply7_array_naive(in, naive, box);
        engine_apply7_span(frame, in.raw().data(), span.data(), box);
        apply7_span_naive(frame, in.raw().data(), span_naive.data(), box);
      }
      EXPECT_EQ(std::memcmp(arr.raw().data(), naive.raw().data(), bytes), 0)
          << "array use125=" << use125 << " nx=" << box.extent()[0];
      EXPECT_EQ(std::memcmp(span.data(), naive.raw().data(), bytes), 0)
          << "span use125=" << use125 << " nx=" << box.extent()[0];
      EXPECT_EQ(std::memcmp(span_naive.data(), naive.raw().data(), bytes), 0)
          << "naive span use125=" << use125;
    }
}

}  // namespace
}  // namespace brickx::stencil
