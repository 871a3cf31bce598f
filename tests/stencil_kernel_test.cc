// Differential tests for the fast-path kernel engine (DESIGN.md §10):
// the engine must be bit-identical to the naive per-access kernels over
// arbitrary output boxes — full-domain, every ghost-expansion step,
// clipped to odd offsets, single-brick, and empty — for both brick sizes
// and both stencils, with one ghost brick layer (frame-edge bricks lack
// neighbors) and two (clipped bricks have all of them), at a nonzero AoSoA
// field offset and over memfd storage. Storage buffers are compared
// byte-for-byte, which also proves the brick-range pruning never writes a
// brick outside the output box. A halo that leaves the ghost frame must
// throw from the engine's gather as it does from the naive kernel.

#include "stencil/kernel_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "common/rng.h"
#include "core/brick.h"
#include "core/cell_array.h"
#include "harness/experiment.h"
#include "stencil/stencils.h"

namespace brickx::stencil {
namespace {

/// Fill every field of every allocated brick of `store` with reproducible
/// pseudo-random values, including the ghost frame.
void fill_random(const BrickDecomp<3>& dec, BrickStorage& store, Rng& rng) {
  for (std::int64_t b = 0; b < dec.total_brick_count(); ++b) {
    double* p = store.brick(b);
    for (std::int64_t e = 0; e < dec.elements_per_brick() * store.fields();
         ++e)
      p[e] = rng.uniform() * 2.0 - 1.0;
  }
}

/// One test subdomain: its extent n^3 (at least two ghost widths), its
/// ghost width, its field count (the kernels run on the last field, at
/// element offset (fields - 1) * B^3) and its backing (heap or memfd).
struct Setup {
  std::int64_t n, ghost;
  int fields;
  bool memfd;
};

template <int B>
std::vector<Setup> setups() {
  return {
      {16, B, 1, false},  // ghost B: frame-edge bricks lack neighbors
      {std::max(16, 4 * B), 2 * B, 1, false},  // ghost 2B: clipped bricks
                                               // have every neighbor
      {16, B, 4, false},  // field offset 3 B^3
      {16, B, 1, true},   // memfd storage
  };
}

BrickStorage allocate(const BrickDecomp<3>& dec, const Setup& s) {
  return s.memfd ? dec.mmap_alloc(s.fields) : dec.allocate(s.fields);
}

template <int B>
void expect_paths_identical(const Setup& su, const Box<3>& box, bool use125,
                            std::uint64_t seed) {
  BrickDecomp<3> dec(Vec3::fill(su.n), su.ghost, Vec3::fill(B),
                     surface3d());
  BrickInfo<3> info = dec.brick_info();
  BrickStorage sin = allocate(dec, su);
  BrickStorage out_fast = allocate(dec, su), out_naive = allocate(dec, su);
  Rng rng(seed);
  fill_random(dec, sin, rng);
  const std::int64_t off = (su.fields - 1) * dec.elements_per_brick();
  Brick<B, B, B> bin(&info, &sin, off);
  Brick<B, B, B> bfast(&info, &out_fast, off), bnaive(&info, &out_naive, off);
  if (use125) {
    apply125_bricks<B, B, B>(dec, bfast, bin, box);
    apply125_bricks_naive<B, B, B>(dec, bnaive, bin, box);
  } else {
    apply7_bricks<B, B, B>(dec, bfast, bin, box);
    apply7_bricks_naive<B, B, B>(dec, bnaive, bin, box);
  }
  // Byte-compare whole storages: allocated zeroed, so any write outside
  // the output box (pruning bug) or the field diverges just like a wrong
  // value would.
  EXPECT_EQ(std::memcmp(out_fast.data(), out_naive.data(), out_fast.bytes()),
            0)
      << "B=" << B << " n=" << su.n << " ghost=" << su.ghost
      << " fields=" << su.fields << " memfd=" << su.memfd
      << " use125=" << use125 << " seed=" << seed
      << " box=[" << box.lo[0] << "," << box.lo[1] << "," << box.lo[2]
      << ")-[" << box.hi[0] << "," << box.hi[1] << "," << box.hi[2] << ")";
}

/// Boxes exercising every engine path over an n^3 subdomain with ghost
/// width g. Radius-r reads from cells in the box's margin must stay inside
/// the allocated frame [-g, n+g), so random boxes are drawn from
/// [-(g-r), n+g-r).
template <int B>
std::vector<Box<3>> test_boxes(std::int64_t n, std::int64_t g, bool use125,
                               std::uint64_t seed) {
  const std::int64_t r = use125 ? 2 : 1;
  std::vector<Box<3>> boxes;
  // Full domain: every brick is whole.
  boxes.push_back(Box<3>{{0, 0, 0}, {n, n, n}});
  // Every step of one exchange period under ghost-cell expansion:
  // ghost-adjacent reads, ghost-brick writes, and clips of every depth.
  for (std::int64_t s = 0; s < steps_per_exchange(g, r); ++s)
    boxes.push_back(expansion_output_box<3>(Vec3::fill(n), g, r, s));
  // Single brick, interior.
  boxes.push_back(Box<3>{{B, B, B}, {2 * B, 2 * B, 2 * B}});
  // Single cell (clipped everywhere).
  boxes.push_back(Box<3>{{3, 5, 7}, {4, 6, 8}});
  // Empty boxes: zero-extent and inverted.
  boxes.push_back(Box<3>{{0, 0, 0}, {0, 0, 0}});
  boxes.push_back(Box<3>{{5, 5, 5}, {5, 9, 9}});
  // Randomized clipped boxes (odd offsets, partial bricks, some reaching
  // into the ghost frame).
  Rng rng(seed);
  for (int t = 0; t < 10; ++t) {
    Box<3> b;
    for (int a = 0; a < 3; ++a) {
      const std::int64_t span = n + 2 * (g - r);
      const std::int64_t lo =
          -(g - r) + static_cast<std::int64_t>(rng.below(
                         static_cast<std::uint64_t>(span)));
      const std::int64_t len = 1 + static_cast<std::int64_t>(rng.below(
                                       static_cast<std::uint64_t>(
                                           n + (g - r) - lo)));
      b.lo[a] = lo;
      b.hi[a] = lo + len;
    }
    boxes.push_back(b);
  }
  return boxes;
}

template <int B>
void sweep_setups(bool use125) {
  std::uint64_t seed = use125 ? 1000 : 2000;
  for (const Setup& su : setups<B>())
    for (const Box<3>& b : test_boxes<B>(su.n, su.ghost, use125, seed))
      expect_paths_identical<B>(su, b, use125, ++seed);
}

class KernelEngine
    : public ::testing::TestWithParam<std::tuple<bool, int>> {};

TEST_P(KernelEngine, FastMatchesNaiveBitExactly) {
  const bool use125 = std::get<0>(GetParam());
  if (std::get<1>(GetParam()) == 4) {
    sweep_setups<4>(use125);
  } else {
    sweep_setups<8>(use125);
  }
}

/// A box whose radius-r halo leaves the ghost frame: the engine's gather
/// must throw like the naive kernel's Brick::at, for boxes reaching past
/// a face, an edge and a corner of the frame.
template <int B>
void expect_reach_throws(bool use125) {
  const std::int64_t g = B, r = use125 ? 2 : 1;
  BrickDecomp<3> dec({16, 16, 16}, g, Vec3::fill(B), surface3d());
  BrickInfo<3> info = dec.brick_info();
  BrickStorage sin = dec.allocate(1), out = dec.allocate(1);
  Brick<B, B, B> bin(&info, &sin, 0), bout(&info, &out, 0);
  const std::int64_t m = g - r + 1;  // one cell past the valid margin
  const std::vector<Box<3>> boxes = {
      {{-m, -m, -m}, {16 + m, 16 + m, 16 + m}},
      {{4, 4, 16 + g - r}, {6, 6, 16 + g}},
      {{-g, -g, 4}, {-g + 1, -g + 1, 6}},
      {{16 + g - 1, 16 + g - 1, 16 + g - 1}, {16 + g, 16 + g, 16 + g}}};
  for (const Box<3>& box : boxes) {
    if (use125) {
      EXPECT_THROW((apply125_bricks<B, B, B>(dec, bout, bin, box)), Error);
      EXPECT_THROW((apply125_bricks_naive<B, B, B>(dec, bout, bin, box)),
                   Error);
    } else {
      EXPECT_THROW((apply7_bricks<B, B, B>(dec, bout, bin, box)), Error);
      EXPECT_THROW((apply7_bricks_naive<B, B, B>(dec, bout, bin, box)),
                   Error);
    }
  }
}

TEST(KernelEngine, ReachPastTheFrameThrows) {
  for (bool use125 : {false, true}) {
    SCOPED_TRACE(use125);
    expect_reach_throws<4>(use125);
    expect_reach_throws<8>(use125);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, KernelEngine,
    ::testing::Combine(::testing::Bool(), ::testing::Values(4, 8)),
    [](const auto& i) {
      return std::string(std::get<0>(i.param) ? "p125" : "p7") + "_b" +
             std::to_string(std::get<1>(i.param));
    });

TEST(ArrayKernels, FastMatchesNaiveBitExactly) {
  Rng rng(7);
  const Box<3> frame{{-5, -5, -5}, {15, 15, 15}};
  CellArray3 in(frame);
  for_each(frame, [&](const Vec3& p) { in.at(p) = rng.uniform() - 0.5; });
  std::vector<Box<3>> boxes = {{{0, 0, 0}, {10, 10, 10}},
                               {{-3, -3, -3}, {13, 13, 13}},
                               {{1, 2, 3}, {4, 9, 6}},
                               {{0, 0, 0}, {0, 0, 0}}};
  for (int t = 0; t < 10; ++t) {
    Box<3> b;
    for (int a = 0; a < 3; ++a) {
      b.lo[a] = -3 + static_cast<std::int64_t>(rng.below(14));
      b.hi[a] = b.lo[a] + static_cast<std::int64_t>(
                              rng.below(static_cast<std::uint64_t>(
                                  13 - b.lo[a] + 1)));
    }
    boxes.push_back(b);
  }
  for (const Box<3>& box : boxes) {
    for (int use125 = 0; use125 < 2; ++use125) {
      CellArray3 of(frame), on(frame);
      if (use125) {
        apply125_array(in, of, box);
        apply125_array_naive(in, on, box);
      } else {
        apply7_array(in, of, box);
        apply7_array_naive(in, on, box);
      }
      EXPECT_EQ(std::memcmp(of.raw().data(), on.raw().data(),
                            of.raw().size() * sizeof(double)),
                0)
          << "use125=" << use125 << " box lo=" << box.lo[0] << ","
          << box.lo[1] << "," << box.lo[2];
    }
  }
}

TEST(EvolveReference, HoistedScratchMatchesPerStepRebuild) {
  // Re-run the pre-hoist algorithm (fresh padded array + wrap indexing
  // every step) and require bit-equality with the hoisted implementation.
  for (int use125 = 0; use125 < 2; ++use125) {
    const Box<3> box{{0, 0, 0}, {6, 6, 6}};
    const Vec3 ext = box.extent();
    const int r = use125 ? 2 : 1;
    CellArray3 hoisted(box), rebuilt(box);
    Rng rng(99);
    for_each(box, [&](const Vec3& p) {
      hoisted.at(p) = rng.uniform();
    });
    rebuilt.raw() = hoisted.raw();
    const int steps = 5;
    evolve_reference(hoisted, steps, use125 != 0);
    for (int s = 0; s < steps; ++s) {
      CellArray3 padded(
          Box<3>{box.lo - Vec3::fill(r), box.hi + Vec3::fill(r)});
      for_each(padded.box(), [&](const Vec3& p) {
        Vec3 q = p - box.lo;
        for (int a = 0; a < 3; ++a)
          q[a] = ((q[a] % ext[a]) + ext[a]) % ext[a];
        padded.at(p) = rebuilt.at(q + box.lo);
      });
      if (use125) {
        apply125_array_naive(padded, rebuilt, box);
      } else {
        apply7_array_naive(padded, rebuilt, box);
      }
    }
    EXPECT_EQ(std::memcmp(hoisted.raw().data(), rebuilt.raw().data(),
                          hoisted.raw().size() * sizeof(double)),
              0)
        << "use125=" << use125;
  }
}

TEST(HarnessDispatch, NaiveAndFastRunsProduceIdenticalResults) {
  // End-to-end guard: a full harness run (exchange + ghost-cell expansion
  // + validation against the global reference) must be invariant to the
  // kernel path — virtual-time results depend on the model, not on
  // wall-clock kernel speed, and the computed data is bit-identical.
  for (bool use125 : {false, true}) {
    harness::Config cfg;
    cfg.rank_dims = {2, 1, 1};
    cfg.subdomain = {8, 8, 8};
    cfg.brick = 4;
    cfg.ghost = 4;
    cfg.use125 = use125;
    cfg.method = harness::Method::Layout;
    cfg.timesteps = 4;
    cfg.validate = true;
    harness::Result fast = harness::run(cfg);
    cfg.naive_kernels = true;
    harness::Result naive = harness::run(cfg);
    EXPECT_TRUE(fast.validated);
    EXPECT_TRUE(naive.validated);
    EXPECT_EQ(fast.total_seconds, naive.total_seconds);
    EXPECT_EQ(fast.calc_per_step, naive.calc_per_step);
    EXPECT_EQ(fast.comm_per_step, naive.comm_per_step);
    EXPECT_EQ(fast.gstencils, naive.gstencils);
  }
}

}  // namespace
}  // namespace brickx::stencil
