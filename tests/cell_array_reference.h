#pragma once

// Reference cell copies for differential tests: the per-cell loops that
// cells_to_bricks/bricks_to_cells and PackExchanger::pack/unpack replaced
// with row copies. Each cell pays a floor division, a bounds-checked
// brick_at and a linearize (or an ArrayFields::at). The row copies must
// produce identical storage bytes, cell arrays and staging buffers.

#include <cstdint>
#include <vector>

#include "common/error.h"
#include "common/vec.h"
#include "core/brick_storage.h"
#include "core/cell_array.h"
#include "core/decomp.h"
#include "core/field_set.h"

namespace brickx::reference {

// Floor division/modulo for possibly-negative cell coordinates.
inline std::int64_t fdiv(std::int64_t a, std::int64_t b) {
  return a >= 0 ? a / b : -((-a + b - 1) / b);
}

template <int D>
void cells_to_bricks(const BrickDecomp<D>& dec, const CellArray<D>& src,
                     BrickStorage& storage, int field) {
  const Vec<D>& B = dec.brick_dims();
  const std::int64_t elems = dec.elements_per_brick();
  BX_CHECK(field >= 0 && field < storage.fields(), "field out of range");
  for_each(src.box(), [&](const Vec<D>& c) {
    Vec<D> g, w;
    for (int a = 0; a < D; ++a) {
      g[a] = fdiv(c[a], B[a]);
      w[a] = c[a] - g[a] * B[a];
    }
    const std::int32_t b = dec.brick_at(g);
    if (b == BrickInfo<D>::kNoBrick) return;
    storage.brick(b)[field * elems + linearize(w, B)] = src.at(c);
  });
}

template <int D>
void bricks_to_cells(const BrickDecomp<D>& dec, const BrickStorage& storage,
                     int field, CellArray<D>& dst) {
  const Vec<D>& B = dec.brick_dims();
  const std::int64_t elems = dec.elements_per_brick();
  BX_CHECK(field >= 0 && field < storage.fields(), "field out of range");
  for_each(dst.box(), [&](const Vec<D>& c) {
    Vec<D> g, w;
    for (int a = 0; a < D; ++a) {
      g[a] = fdiv(c[a], B[a]);
      w[a] = c[a] - g[a] * B[a];
    }
    const std::int32_t b = dec.brick_at(g);
    BX_CHECK(b != BrickInfo<D>::kNoBrick,
             "destination box reaches outside the allocated bricks");
    dst.at(c) = storage.brick(b)[field * elems + linearize(w, B)];
  });
}

// PackExchanger's per-cell staging of one neighbor's buffer: field 0's
// `box` cells in for_each order, then field 1's, ...

inline std::vector<double> pack_box(const CellArray3& field,
                                    const Box<3>& box) {
  std::vector<double> buf;
  for_each(box, [&](const Vec3& p) { buf.push_back(field.at(p)); });
  return buf;
}

inline std::vector<double> pack_box(const ArrayFields& fields,
                                    const Box<3>& box) {
  std::vector<double> buf;
  for (int f = 0; f < fields.fields(); ++f)
    for_each(box, [&](const Vec3& p) { buf.push_back(fields.at(f, p)); });
  return buf;
}

inline void unpack_box(const std::vector<double>& buf, const Box<3>& box,
                       CellArray3& field) {
  std::size_t at = 0;
  for_each(box, [&](const Vec3& p) { field.at(p) = buf[at++]; });
}

inline void unpack_box(const std::vector<double>& buf, const Box<3>& box,
                       ArrayFields& fields) {
  std::size_t at = 0;
  for (int f = 0; f < fields.fields(); ++f)
    for_each(box, [&](const Vec3& p) { fields.at(f, p) = buf[at++]; });
}

}  // namespace brickx::reference
