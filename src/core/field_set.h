#pragma once

#include <cstdint>
#include <span>

#include "common/error.h"
#include "common/vec.h"
#include "common/zeroed.h"
#include "core/brick.h"
#include "core/brick_storage.h"

namespace brickx {

/// A set of N coupled fields (e.g. a wave field + a heat field) over one
/// brick decomposition, stored AoSoA: BrickStorage already interleaves
/// fields within each brick chunk (field 0's B^3 elements, then field 1's,
/// ...), and a whole brick — all fields — is the unit of exchange. This
/// wrapper just hands out the per-field Brick accessors, so kernels run
/// field by field over the same adjacency while every exchanger moves all
/// fields per neighbor in a single message for free.
template <int BK, int BJ, int BI>
class FieldSet {
 public:
  FieldSet(const BrickInfo<3>* info, BrickStorage* storage)
      : info_(info), storage_(storage) {
    BX_CHECK((storage->elements_per_brick() == Brick<BK, BJ, BI>::kElems),
             "storage bricks do not match FieldSet template extents");
  }

  [[nodiscard]] int fields() const { return storage_->fields(); }

  /// Accessor for field `f`; element offset f * BK*BJ*BI within the chunk.
  [[nodiscard]] Brick<BK, BJ, BI> field(int f) const {
    BX_CHECK(f >= 0 && f < storage_->fields(), "field index out of range");
    return Brick<BK, BJ, BI>(info_, storage_,
                             static_cast<std::int64_t>(f) *
                                 Brick<BK, BJ, BI>::kElems);
  }

 private:
  const BrickInfo<3>* info_;
  BrickStorage* storage_;
};

/// The lexicographic counterpart for the array baselines (YASK-style pack
/// and MPI_Types): N fields over one frame box in ONE contiguous
/// allocation, field-major — field f's slab is laid out exactly like a
/// CellArray3 over the same box (axis 0 fastest), slabs consecutive. The
/// contiguity is the point: a single MPI datatype (per-field subarrays
/// concatenated at slab displacements) or a single packed buffer can move
/// every field to a neighbor in one message, which is what keeps the
/// message count field-count-invariant for the array methods too. The
/// allocation is a ZeroedBuffer, so a large frame costs only the pages a
/// run touches.
class ArrayFields {
 public:
  ArrayFields(const Box<3>& frame, int fields)
      : box_(frame), fields_(fields), ext_(frame.extent()) {
    BX_CHECK(fields >= 1, "need at least one field");
    field_elems_ = box_.volume();
    data_ = ZeroedBuffer(static_cast<std::size_t>(field_elems_ * fields) *
                         sizeof(double));
  }

  [[nodiscard]] int fields() const { return fields_; }
  [[nodiscard]] const Box<3>& box() const { return box_; }
  /// Doubles per field slab (the frame volume).
  [[nodiscard]] std::int64_t field_elems() const { return field_elems_; }

  [[nodiscard]] double* field_base(int f) {
    return raw().data() + static_cast<std::size_t>(f) *
                              static_cast<std::size_t>(field_elems_);
  }
  [[nodiscard]] const double* field_base(int f) const {
    return raw().data() + static_cast<std::size_t>(f) *
                              static_cast<std::size_t>(field_elems_);
  }

  [[nodiscard]] double& at(int f, const Vec3& p) {
    return field_base(f)[linearize(p - box_.lo, ext_)];
  }
  [[nodiscard]] const double& at(int f, const Vec3& p) const {
    return field_base(f)[linearize(p - box_.lo, ext_)];
  }

  /// Every slab, field 0 first.
  [[nodiscard]] std::span<double> raw() {
    return {reinterpret_cast<double*>(data_.data()),
            data_.size() / sizeof(double)};
  }
  [[nodiscard]] std::span<const double> raw() const {
    return {reinterpret_cast<const double*>(data_.data()),
            data_.size() / sizeof(double)};
  }

 private:
  Box<3> box_;
  int fields_;
  Vec3 ext_;
  std::int64_t field_elems_ = 0;
  ZeroedBuffer data_;
};

}  // namespace brickx
