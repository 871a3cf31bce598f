#pragma once

#include <cstdint>
#include <vector>

#include "common/vec.h"
#include "core/brick_storage.h"
#include "core/decomp.h"

namespace brickx {

/// A plain lexicographic array of cells over an arbitrary box (may include
/// ghost coordinates, i.e. negative indices). The bridge between bricked
/// storage and flat reference data in tests, examples and baselines.
template <int D>
class CellArray {
 public:
  explicit CellArray(const Box<D>& box)
      : box_(box), data_(static_cast<std::size_t>(box.volume()), 0.0) {}

  [[nodiscard]] const Box<D>& box() const { return box_; }

  [[nodiscard]] double& at(const Vec<D>& p) {
    return data_[index(p)];
  }
  [[nodiscard]] double at(const Vec<D>& p) const { return data_[index(p)]; }

  [[nodiscard]] std::vector<double>& raw() { return data_; }
  [[nodiscard]] const std::vector<double>& raw() const { return data_; }

 private:
  [[nodiscard]] std::size_t index(const Vec<D>& p) const {
    return static_cast<std::size_t>(linearize(p - box_.lo, box_.extent()));
  }
  Box<D> box_;
  std::vector<double> data_;
};

using CellArray3 = CellArray<3>;

/// Copy cells from `src` into field `field` of bricked storage. Only cells
/// inside src's box that map onto allocated bricks are copied. Cell
/// coordinates are subdomain-local: [0, domain) interior,
/// [-ghost, domain+ghost) including the ghost frame. Both copies walk the
/// box brick by brick and move one axis-0 row of each brick per copy.
template <int D>
void cells_to_bricks(const BrickDecomp<D>& dec, const CellArray<D>& src,
                     BrickStorage& storage, int field);

/// Copy field `field` of bricked storage into the cells of `dst` (over
/// dst's whole box, which must lie inside dec.cell_frame(); checked before
/// any cell is written).
template <int D>
void bricks_to_cells(const BrickDecomp<D>& dec, const BrickStorage& storage,
                     int field, CellArray<D>& dst);

}  // namespace brickx
