// Differential tests for the row copies between cell arrays and bricked
// storage: cells_to_bricks and bricks_to_cells must leave every storage
// byte and every cell exactly as the per-cell reference loops in
// cell_array_reference.h do. The boxes are seeded and random, in 2, 3 and
// 4 dimensions, with cubic and non-cubic bricks. They include ghost
// (negative) coordinates, boxes reaching past the frame on either side,
// and empty boxes; each geometry runs with one field and with three.

#include "core/cell_array.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "cell_array_reference.h"
#include "common/error.h"
#include "common/rng.h"
#include "core/layout.h"

namespace brickx {
namespace {

void fill_random(double* p, std::size_t n, Rng& rng) {
  for (std::size_t i = 0; i < n; ++i) p[i] = rng.uniform() - 0.5;
}

bool same_bytes(const BrickStorage& a, const BrickStorage& b) {
  return a.bytes() == b.bytes() &&
         std::memcmp(a.data(), b.data(), a.bytes()) == 0;
}

template <int D>
bool same_cells(const CellArray<D>& a, const CellArray<D>& b) {
  return a.box() == b.box() &&
         (a.raw().empty() ||  // memcmp must not see an empty vector's null
          std::memcmp(a.raw().data(), b.raw().data(),
                      a.raw().size() * sizeof(double)) == 0);
}

/// The whole frame, an empty box, then `count` seeded boxes: each axis
/// starts up to three cells below the frame and spans 0 to half the frame
/// plus three cells, so some boxes lie inside, some reach past either side
/// and some are empty.
template <int D>
std::vector<Box<D>> random_boxes(const Box<D>& frame, int count, Rng& rng) {
  std::vector<Box<D>> boxes = {frame, Box<D>{frame.lo, frame.lo}};
  for (int t = 0; t < count; ++t) {
    Box<D> b;
    for (int a = 0; a < D; ++a) {
      const auto ext = static_cast<std::uint64_t>(frame.hi[a] - frame.lo[a]);
      b.lo[a] = frame.lo[a] - 3 + static_cast<std::int64_t>(rng.below(ext + 3));
      b.hi[a] = b.lo[a] + static_cast<std::int64_t>(rng.below(ext / 2 + 4));
    }
    boxes.push_back(b);
  }
  return boxes;
}

template <int D>
void expect_rows_match_reference(const Vec<D>& domain, std::int64_t ghost,
                                 const Vec<D>& brick, std::uint64_t seed) {
  const BrickDecomp<D> dec(domain, ghost, brick, lexicographic_layout(D));
  const Box<D> frame = dec.cell_frame();
  Rng rng(seed);
  for (int fields : {1, 3}) {
    BrickStorage got = dec.allocate(fields), want = dec.allocate(fields);
    fill_random(reinterpret_cast<double*>(want.data()),
                want.bytes() / sizeof(double), rng);
    std::memcpy(got.data(), want.data(), want.bytes());
    for (const Box<D>& box : random_boxes(frame, 40, rng)) {
      SCOPED_TRACE(::testing::Message() << "fields " << fields << " box "
                                        << box.lo << "-" << box.hi);
      const auto f = static_cast<int>(
          rng.below(static_cast<std::uint64_t>(fields)));

      // Write: cells outside the frame are dropped the same way.
      CellArray<D> src(box);
      fill_random(src.raw().data(), src.raw().size(), rng);
      cells_to_bricks(dec, src, got, f);
      reference::cells_to_bricks(dec, src, want, f);
      ASSERT_TRUE(same_bytes(got, want));

      // Read back the part inside the frame; the whole box only when it
      // fits, and both reject it when it does not.
      const Box<D> inside = intersect(box, frame);
      for (const Box<D>& b : {inside, box}) {
        CellArray<D> a(b), r(b);
        fill_random(a.raw().data(), a.raw().size(), rng);
        r.raw() = a.raw();
        if (frame.contains(b)) {
          bricks_to_cells(dec, got, f, a);
          reference::bricks_to_cells(dec, want, f, r);
          EXPECT_TRUE(same_cells(a, r));
        } else {
          EXPECT_THROW(bricks_to_cells(dec, got, f, a), Error);
          EXPECT_THROW(reference::bricks_to_cells(dec, want, f, r), Error);
        }
      }
    }
  }
}

TEST(CellArrayRows, TwoDimensionalMatchesPerCellReference) {
  expect_rows_match_reference<2>({16, 24}, 4, {2, 4}, 1);
  expect_rows_match_reference<2>({16, 16}, 8, {8, 8}, 2);
}

TEST(CellArrayRows, ThreeDimensionalMatchesPerCellReference) {
  expect_rows_match_reference<3>({16, 16, 24}, 8, {2, 4, 8}, 3);
  expect_rows_match_reference<3>({16, 16, 16}, 4, {4, 4, 4}, 4);
  expect_rows_match_reference<3>({24, 16, 16}, 8, {8, 4, 2}, 5);
}

TEST(CellArrayRows, FourDimensionalMatchesPerCellReference) {
  expect_rows_match_reference<4>({8, 8, 8, 8}, 4, {4, 2, 2, 2}, 6);
  expect_rows_match_reference<4>({8, 8, 8, 8}, 2, {2, 2, 2, 2}, 7);
}

TEST(CellArrayRows, MemFdStorageMatchesPerCellReference) {
  // Page-padded chunks: rows must land in the chunk payloads only.
  const BrickDecomp<3> dec({16, 16, 16}, 4, {4, 4, 4}, surface3d());
  BrickStorage got = dec.mmap_alloc(3), want = dec.mmap_alloc(3);
  Rng rng(8);
  CellArray3 src(dec.cell_frame());
  for (int f = 0; f < 3; ++f) {
    fill_random(src.raw().data(), src.raw().size(), rng);
    cells_to_bricks(dec, src, got, f);
    reference::cells_to_bricks(dec, src, want, f);
  }
  EXPECT_TRUE(same_bytes(got, want));
  CellArray3 a(dec.cell_frame()), r(dec.cell_frame());
  bricks_to_cells(dec, got, 2, a);
  reference::bricks_to_cells(dec, want, 2, r);
  EXPECT_TRUE(same_cells(a, r));
  EXPECT_TRUE(same_cells(a, src));
}

}  // namespace
}  // namespace brickx
