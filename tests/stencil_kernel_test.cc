// Differential tests for the fast-path kernel engine (DESIGN.md §10):
// the engine must be bit-identical to the naive per-access kernels over
// arbitrary output boxes — full-domain, ghost-adjacent, clipped to odd
// offsets, single-brick, and empty — for both brick sizes and both
// stencils. Storage buffers are compared byte-for-byte, which also proves
// the brick-range pruning never writes a brick outside the output box.

#include "stencil/kernel_engine.h"

#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.h"
#include "core/brick.h"
#include "core/cell_array.h"
#include "harness/experiment.h"
#include "stencil/stencils.h"

namespace brickx::stencil {
namespace {

/// Fill every allocated brick of `store` (field 0) with reproducible
/// pseudo-random values, including the ghost frame.
void fill_random(const BrickDecomp<3>& dec, BrickStorage& store, Rng& rng) {
  for (std::int64_t b = 0; b < dec.total_brick_count(); ++b) {
    double* p = store.brick(b);
    for (std::int64_t e = 0; e < dec.elements_per_brick(); ++e)
      p[e] = rng.uniform() * 2.0 - 1.0;
  }
}

template <int B>
void expect_paths_identical(const Box<3>& box, bool use125,
                            std::uint64_t seed) {
  const std::int64_t g = B;  // one ghost brick layer
  BrickDecomp<3> dec({16, 16, 16}, g, Vec3::fill(B), surface3d());
  BrickInfo<3> info = dec.brick_info();
  BrickStorage sin = dec.allocate(1);
  BrickStorage out_fast = dec.allocate(1), out_naive = dec.allocate(1);
  Rng rng(seed);
  fill_random(dec, sin, rng);
  Brick<B, B, B> bin(&info, &sin, 0);
  Brick<B, B, B> bfast(&info, &out_fast, 0), bnaive(&info, &out_naive, 0);
  if (use125) {
    apply125_bricks<B, B, B>(dec, bfast, bin, box);
    apply125_bricks_naive<B, B, B>(dec, bnaive, bin, box);
  } else {
    apply7_bricks<B, B, B>(dec, bfast, bin, box);
    apply7_bricks_naive<B, B, B>(dec, bnaive, bin, box);
  }
  // Byte-compare whole storages: allocated zeroed, so any write outside
  // the output box (pruning bug) diverges just like a wrong value would.
  EXPECT_EQ(std::memcmp(out_fast.data(), out_naive.data(), out_fast.bytes()),
            0)
      << "B=" << B << " use125=" << use125 << " seed=" << seed << " box=["
      << box.lo[0] << "," << box.lo[1] << "," << box.lo[2] << ")-["
      << box.hi[0] << "," << box.hi[1] << "," << box.hi[2] << ")";
}

/// Boxes exercising every engine path. Radius-r reads from cells in the
/// box's margin must stay inside the allocated frame [-g, 16+g), so random
/// boxes are drawn from [-(g-r), 16+g-r).
template <int B>
std::vector<Box<3>> test_boxes(bool use125, std::uint64_t seed) {
  const std::int64_t g = B, r = use125 ? 2 : 1;
  std::vector<Box<3>> boxes;
  // Full domain: every interior brick takes the fast path.
  boxes.push_back(Box<3>{{0, 0, 0}, {16, 16, 16}});
  // Ghost-cell expansion box (ghost-adjacent reads and ghost-brick
  // writes; frame-edge bricks must fall back to the boundary path).
  boxes.push_back(expansion_output_box<3>({16, 16, 16}, g, r, 0));
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
      const std::int64_t span = 16 + 2 * (g - r);
      const std::int64_t lo =
          -(g - r) + static_cast<std::int64_t>(rng.below(
                         static_cast<std::uint64_t>(span)));
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

class KernelEngine
    : public ::testing::TestWithParam<std::tuple<bool, int>> {};

TEST_P(KernelEngine, FastMatchesNaiveBitExactly) {
  const bool use125 = std::get<0>(GetParam());
  const int brick = std::get<1>(GetParam());
  std::uint64_t seed = use125 ? 1000 : 2000;
  if (brick == 4) {
    for (const Box<3>& b : test_boxes<4>(use125, seed))
      expect_paths_identical<4>(b, use125, ++seed);
  } else {
    for (const Box<3>& b : test_boxes<8>(use125, seed))
      expect_paths_identical<8>(b, use125, ++seed);
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
