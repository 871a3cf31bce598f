#include "core/cell_array.h"

#include <algorithm>

#include "common/error.h"

namespace brickx {

namespace {

/// Walk the part of cell box `cells` the allocated bricks cover, brick by
/// brick: one brick_at per brick, then `row(b, cell, elem, n)` once per
/// axis-0 row of the brick's clipped part — `n` cells starting at linear
/// index `cell` of `cells` (axis 0 fastest) and at element `elem` of one
/// field's slot in brick `b`.
template <int D, typename Row>
void for_each_brick_row(const BrickDecomp<D>& dec, const Box<D>& cells,
                        Row&& row) {
  const Vec<D>& B = dec.brick_dims();
  const Vec<D> ext = cells.extent();
  for_each(dec.brick_grid_range(cells), [&](const Vec<D>& g) {
    const std::int32_t b = dec.brick_at(g);
    const Vec<D> base = g * B;
    Box<D> starts = intersect(Box<D>{base, base + B}, cells);
    const std::int64_t n = starts.hi[0] - starts.lo[0];
    starts.hi[0] = starts.lo[0] + 1;  // one position per row
    for_each(starts, [&](const Vec<D>& p) {
      row(b, linearize(p - cells.lo, ext), linearize(p - base, B), n);
    });
  });
}

}  // namespace

template <int D>
void cells_to_bricks(const BrickDecomp<D>& dec, const CellArray<D>& src,
                     BrickStorage& storage, int field) {
  BX_CHECK(field >= 0 && field < storage.fields(), "field out of range");
  const double* cells = src.raw().data();
  const std::int64_t off = field * dec.elements_per_brick();
  for_each_brick_row(dec, src.box(),
                     [&](std::int32_t b, std::int64_t cell, std::int64_t elem,
                         std::int64_t n) {
                       std::copy_n(cells + cell, n,
                                   storage.brick(b) + off + elem);
                     });
}

template <int D>
void bricks_to_cells(const BrickDecomp<D>& dec, const BrickStorage& storage,
                     int field, CellArray<D>& dst) {
  BX_CHECK(field >= 0 && field < storage.fields(), "field out of range");
  BX_CHECK(dec.cell_frame().contains(dst.box()),
           "destination box reaches outside the allocated bricks");
  double* cells = dst.raw().data();
  const std::int64_t off = field * dec.elements_per_brick();
  for_each_brick_row(dec, dst.box(),
                     [&](std::int32_t b, std::int64_t cell, std::int64_t elem,
                         std::int64_t n) {
                       std::copy_n(storage.brick(b) + off + elem, n,
                                   cells + cell);
                     });
}

template void cells_to_bricks<2>(const BrickDecomp<2>&, const CellArray<2>&,
                                 BrickStorage&, int);
template void cells_to_bricks<3>(const BrickDecomp<3>&, const CellArray<3>&,
                                 BrickStorage&, int);
template void cells_to_bricks<4>(const BrickDecomp<4>&, const CellArray<4>&,
                                 BrickStorage&, int);
template void bricks_to_cells<2>(const BrickDecomp<2>&, const BrickStorage&,
                                 int, CellArray<2>&);
template void bricks_to_cells<3>(const BrickDecomp<3>&, const BrickStorage&,
                                 int, CellArray<3>&);
template void bricks_to_cells<4>(const BrickDecomp<4>&, const BrickStorage&,
                                 int, CellArray<4>&);

}  // namespace brickx
