#include "core/decomp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "memmap/pagesize.h"

namespace brickx {
namespace {

BrickDecomp<3> make_decomp(std::int64_t n_cells = 32, std::int64_t brick = 8,
                           std::int64_t ghost = 8) {
  return BrickDecomp<3>({n_cells, n_cells, n_cells}, ghost,
                        {brick, brick, brick}, surface3d());
}

TEST(Decomp, BasicGeometry) {
  auto dec = make_decomp();
  EXPECT_EQ(dec.brick_grid(), (Vec3{4, 4, 4}));
  EXPECT_EQ(dec.ghost_layers(), (Vec3{1, 1, 1}));
  EXPECT_EQ(dec.elements_per_brick(), 512);
  EXPECT_EQ(dec.total_brick_count(), 6 * 6 * 6);
  EXPECT_EQ(dec.own_brick_count(), 4 * 4 * 4);
  EXPECT_EQ(dec.surface_region_count(), 26);
  EXPECT_EQ(dec.regions().size(), 26u + 1 + 98);
}

TEST(Decomp, InvalidParametersRejected) {
  // Domain not a multiple of the brick.
  EXPECT_THROW(BrickDecomp<3>({30, 32, 32}, 8, {8, 8, 8}, surface3d()),
               Error);
  // Ghost not a multiple of the brick.
  EXPECT_THROW(BrickDecomp<3>({32, 32, 32}, 4, {8, 8, 8}, surface3d()),
               Error);
  // Subdomain thinner than two ghost widths.
  EXPECT_THROW(BrickDecomp<3>({8, 32, 32}, 8, {8, 8, 8}, surface3d()),
               Error);
  // Layout of the wrong dimensionality.
  EXPECT_THROW(BrickDecomp<3>({32, 32, 32}, 8, {8, 8, 8}, surface2d()),
               Error);
}

TEST(Decomp, StorageOrderIsSurfaceInteriorGhost) {
  auto dec = make_decomp();
  const auto& regions = dec.regions();
  using Kind = BrickDecomp<3>::Region::Kind;
  for (int o = 0; o < 26; ++o) {
    EXPECT_EQ(regions[static_cast<std::size_t>(o)].kind, Kind::Surface);
    // Surface chunks follow the layout order exactly.
    EXPECT_EQ(regions[static_cast<std::size_t>(o)].sigma.raw(),
              surface3d().order[static_cast<std::size_t>(o)].raw());
  }
  EXPECT_EQ(regions[26].kind, Kind::Interior);
  for (std::size_t o = 27; o < regions.size(); ++o)
    EXPECT_EQ(regions[o].kind, Kind::Ghost);
  // first_brick values are cumulative and gapless.
  std::int64_t next = 0;
  for (const auto& r : regions) {
    EXPECT_EQ(r.first_brick, next);
    next += r.brick_count;
  }
  EXPECT_EQ(next, dec.total_brick_count());
}

TEST(Decomp, GridMapsAreInverse) {
  auto dec = make_decomp(32, 8, 8);
  for (std::int64_t b = 0; b < dec.total_brick_count(); ++b) {
    EXPECT_EQ(dec.brick_at(dec.grid_of(b)), static_cast<std::int32_t>(b));
  }
  // Out-of-grid coordinates return kNoBrick.
  EXPECT_EQ(dec.brick_at(Vec3{-2, 0, 0}), BrickInfo<3>::kNoBrick);
  EXPECT_EQ(dec.brick_at(Vec3{0, 5, 0}), BrickInfo<3>::kNoBrick);
}

TEST(Decomp, OwnBricksComeFirst) {
  auto dec = make_decomp();
  for (std::int64_t b = 0; b < dec.total_brick_count(); ++b) {
    const Vec3& g = dec.grid_of(b);
    const bool interior_grid = g[0] >= 0 && g[0] < 4 && g[1] >= 0 &&
                               g[1] < 4 && g[2] >= 0 && g[2] < 4;
    EXPECT_EQ(interior_grid, b < dec.own_brick_count()) << "brick " << b;
  }
}

TEST(Decomp, AdjacencyIsSymmetricAndCorrect) {
  auto dec = make_decomp();
  const BrickInfo<3> info = dec.brick_info();
  ASSERT_EQ(info.brick_count(), dec.total_brick_count());
  const Vec3 ext3{3, 3, 3};
  for (std::int64_t b = 0; b < info.brick_count(); ++b) {
    const Vec3& g = dec.grid_of(b);
    for (std::int64_t code = 0; code < 27; ++code) {
      const Vec3 d = delinearize(code, ext3);
      Vec3 nbp = g;
      for (int a = 0; a < 3; ++a) nbp[a] += d[a] - 1;
      const std::int32_t nb =
          info.adj[static_cast<std::size_t>(b)][static_cast<std::size_t>(code)];
      EXPECT_EQ(nb, dec.brick_at(nbp));
      if (code == 13) {
        EXPECT_EQ(nb, b);  // center = self
      }
      if (nb != BrickInfo<3>::kNoBrick) {
        // Mirror direction from the neighbor leads back.
        const std::int64_t mirror =
            linearize(Vec3{2 - d[0], 2 - d[1], 2 - d[2]}, ext3);
        EXPECT_EQ(info.adj[static_cast<std::size_t>(nb)]
                          [static_cast<std::size_t>(mirror)],
                  b);
      }
    }
  }
}

TEST(Decomp, MinimalSubdomainHasNoInteriorOrFaceRegions) {
  auto dec = make_decomp(16, 8, 8);  // n = 2, gb = 1
  EXPECT_EQ(dec.own_brick_count(), 8);
  std::int64_t nonempty_surface = 0;
  for (int o = 0; o < dec.surface_region_count(); ++o)
    if (dec.regions()[static_cast<std::size_t>(o)].brick_count > 0)
      ++nonempty_surface;
  EXPECT_EQ(nonempty_surface, 8);  // only the corner regions remain
  EXPECT_EQ(dec.regions()[26].brick_count, 0);  // interior empty
}

TEST(Decomp, AllocatePackedStorage) {
  auto dec = make_decomp();
  BrickStorage s = dec.allocate(/*fields=*/2);
  EXPECT_EQ(s.brick_count(), dec.total_brick_count());
  EXPECT_EQ(s.fields(), 2);
  EXPECT_EQ(s.elements_per_brick(), 512);
  EXPECT_EQ(s.brick_bytes(), 2u * 512 * 8);
  EXPECT_EQ(s.page_size(), 0u);
  EXPECT_EQ(s.padding_bytes(), 0u);
  EXPECT_EQ(s.bytes(), static_cast<std::size_t>(dec.total_brick_count()) *
                           s.brick_bytes());
  // Chunks tile the buffer exactly.
  std::size_t at = 0;
  for (const auto& c : s.chunks()) {
    EXPECT_EQ(c.offset, at);
    EXPECT_EQ(c.padded_bytes, c.bytes);
    at += c.padded_bytes;
  }
  EXPECT_EQ(at, s.bytes());
}

TEST(Decomp, MmapAllocPageAligned) {
  auto dec = make_decomp();
  BrickStorage s = dec.mmap_alloc(/*fields=*/1);
  EXPECT_NE(s.file(), nullptr);
  EXPECT_EQ(s.page_size(), mm::host_page_size());
  for (const auto& c : s.chunks()) {
    EXPECT_EQ(c.offset % s.page_size(), 0u);
    EXPECT_EQ(c.padded_bytes % s.page_size(), 0u);
    EXPECT_GE(c.padded_bytes, c.bytes);
  }
  // An 8^3 double brick is exactly one 4 KiB page: zero padding when the
  // chunk sizes already align (the paper's Theta case).
  if (mm::host_page_size() == 4096) {
    EXPECT_EQ(s.padding_bytes(), 0u);
  }
}

TEST(Decomp, MmapAllocEmulatedLargePages) {
  auto dec = make_decomp();
  const std::size_t big = 16 * mm::host_page_size();  // e.g. 64 KiB
  BrickStorage s = dec.mmap_alloc(1, big);
  EXPECT_EQ(s.page_size(), big);
  EXPECT_GT(s.padding_bytes(), 0u);  // corners (1 brick = 4 KiB) now pad
  for (const auto& c : s.chunks()) EXPECT_EQ(c.offset % big, 0u);
}

TEST(Decomp, MmapAllocRejectsUnalignedPageSize) {
  auto dec = make_decomp();
  EXPECT_THROW((void)dec.mmap_alloc(1, mm::host_page_size() + 512), Error);
}

TEST(Decomp, NeighborOrdinalRoundtrip) {
  auto dec = make_decomp();
  const auto& order = dec.neighbor_order();
  EXPECT_EQ(order.size(), 26u);
  for (std::size_t i = 0; i < order.size(); ++i)
    EXPECT_EQ(dec.neighbor_ordinal(order[i]), static_cast<int>(i));
  EXPECT_THROW((void)dec.neighbor_ordinal(BitSet{}), Error);
}

TEST(Decomp, AnisotropicBricks) {
  // Ghost width must divide by every brick extent; 16 works for {16,8,4}.
  BrickDecomp<3> dec({64, 64, 64}, 16, {16, 8, 4}, surface3d());
  EXPECT_EQ(dec.brick_grid(), (Vec3{4, 8, 16}));
  EXPECT_EQ(dec.ghost_layers(), (Vec3{1, 2, 4}));
  EXPECT_EQ(dec.elements_per_brick(), 16 * 8 * 4);
  // Coverage invariants are checked inside the constructor.
  const BrickInfo<3> info = dec.brick_info();
  EXPECT_EQ(info.brick_count(), dec.total_brick_count());
}

TEST(Decomp, TwoDimensional) {
  BrickDecomp<2> dec({32, 32}, 8, {8, 8}, surface2d());
  EXPECT_EQ(dec.surface_region_count(), 8);
  EXPECT_EQ(dec.regions().size(), 8u + 1 + 16);
  EXPECT_EQ(dec.own_brick_count(), 16);
  EXPECT_EQ(dec.total_brick_count(), 36);
}

TEST(BrickGridRange, MatchesExhaustiveScan) {
  BrickDecomp<3> dec({16, 16, 16}, 4, {4, 4, 4}, surface3d());
  const Vec3 B = dec.brick_dims();
  Rng rng(42);
  std::vector<Box<3>> boxes = {
      {{0, 0, 0}, {16, 16, 16}},  {{-4, -4, -4}, {20, 20, 20}},
      {{-3, 1, 5}, {2, 4, 17}},   {{0, 0, 0}, {1, 1, 1}},
      {{0, 0, 0}, {0, 0, 0}},     {{-20, -20, -20}, {-18, -18, -18}},
      {{30, 30, 30}, {40, 40, 40}}};
  for (int t = 0; t < 20; ++t) {
    Box<3> b;
    for (int a = 0; a < 3; ++a) {
      b.lo[a] = -6 + static_cast<std::int64_t>(rng.below(28));
      b.hi[a] = b.lo[a] + static_cast<std::int64_t>(rng.below(12));
    }
    boxes.push_back(b);
  }
  for (const Box<3>& box : boxes) {
    const Box<3> gr = dec.brick_grid_range(box);
    // Every allocated brick intersecting `box` is inside the range, and
    // every brick inside the range intersects `box`.
    for (std::int64_t s = 0; s < dec.total_brick_count(); ++s) {
      const Vec3 g = dec.grid_of(s);
      Box<3> cells{g * B, g * B + B};
      bool overlaps = true;
      for (int a = 0; a < 3; ++a)
        overlaps = overlaps && std::max(cells.lo[a], box.lo[a]) <
                                   std::min(cells.hi[a], box.hi[a]);
      EXPECT_EQ(overlaps, gr.contains(g))
          << "brick " << s << " box lo=" << box.lo[0] << "," << box.lo[1]
          << "," << box.lo[2];
    }
  }
}

}  // namespace
}  // namespace brickx
