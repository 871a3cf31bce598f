#pragma once

#include <cstdint>
#include <vector>

#include "common/bitset.h"
#include "common/vec.h"
#include "core/brick_info.h"
#include "core/brick_storage.h"
#include "core/layout.h"
#include "core/region.h"

namespace brickx {

/// Decomposition of one rank's subdomain into fine-grained data blocks
/// (bricks) ordered for pack-free communication — the paper's
/// `BrickDecomp<3, BDIM>`.
///
/// Storage order of bricks (chunk = contiguous group):
///   [surface region chunks, in layout order]
///   [interior chunk]
///   [ghost subregion chunks, grouped by source neighbor; within a group,
///    in the *sender's* layout order so each incoming message lands in one
///    contiguous write]
///
/// All ranks of a job use identical subdomain extents and the same layout,
/// which is what makes the send/receive chunk geometries line up.
template <int D>
class BrickDecomp {
 public:
  /// `domain`: subdomain extent in cells per axis (excludes ghost).
  /// `ghost`: ghost-zone width in cells (same every axis, as in the paper);
  /// must be a positive multiple of the brick extent on every axis.
  /// `brick_dims`: brick extent in cells per axis.
  /// `layout`: surface-region storage order (e.g. surface3d()).
  BrickDecomp(const Vec<D>& domain, std::int64_t ghost,
              const Vec<D>& brick_dims, LayoutSpec layout);

  struct Region {
    enum class Kind { Surface, Interior, Ghost };
    Kind kind;
    BitSet sigma;  ///< surface signature (sender-local one for ghosts)
    BitSet nu;     ///< ghost only: the source neighbor direction
    Box<D> box;    ///< brick-grid coordinates (interior grid is [0, n))
    std::int64_t first_brick = 0;  ///< storage index of the chunk's first brick
    std::int64_t brick_count = 0;
  };

  /// All region chunks in storage order; indexes into this vector are the
  /// "ordinals" the exchange builders use (and equal BrickStorage chunk
  /// indices).
  [[nodiscard]] const std::vector<Region>& regions() const { return regions_; }

  [[nodiscard]] int surface_region_count() const {
    return static_cast<int>(layout_.order.size());
  }
  [[nodiscard]] int interior_ordinal() const { return surface_region_count(); }
  [[nodiscard]] int ghost_first_ordinal() const {
    return surface_region_count() + 1;
  }
  /// Ordinal of surface region σ (its position in the layout).
  [[nodiscard]] int surface_ordinal(const BitSet& sigma) const;

  /// Bricks this rank owns (surface + interior); they occupy storage
  /// indices [0, own_brick_count()), so stencil loops iterate exactly that
  /// range.
  [[nodiscard]] std::int64_t own_brick_count() const { return own_bricks_; }
  [[nodiscard]] std::int64_t total_brick_count() const {
    return static_cast<std::int64_t>(grid_of_.size());
  }

  [[nodiscard]] const LayoutSpec& layout() const { return layout_; }
  /// Fixed neighbor enumeration shared by every rank (all 3^D - 1
  /// direction sets).
  [[nodiscard]] const std::vector<BitSet>& neighbor_order() const {
    return neighbor_order_;
  }
  /// Index of direction `dir` within neighbor_order() — the basis of the
  /// message tag space (identical on every rank).
  [[nodiscard]] int neighbor_ordinal(const BitSet& dir) const;

  [[nodiscard]] const Vec<D>& domain() const { return domain_; }
  [[nodiscard]] const Vec<D>& brick_dims() const { return brick_dims_; }
  /// Interior brick-grid extent n (bricks per axis, without ghost layers).
  [[nodiscard]] const Vec<D>& brick_grid() const { return n_; }
  /// Ghost thickness in brick layers per axis.
  [[nodiscard]] const Vec<D>& ghost_layers() const { return gb_; }
  [[nodiscard]] std::int64_t ghost_width() const { return ghost_; }
  [[nodiscard]] std::int64_t elements_per_brick() const {
    return brick_dims_.prod();
  }

  /// Storage index of the brick at grid coordinate `g`, where interior
  /// bricks live in [0, n) and ghost bricks in [-gb, 0) and [n, n+gb).
  [[nodiscard]] std::int32_t brick_at(const Vec<D>& g) const;
  /// Cell box the allocated bricks cover: [-ghost, domain + ghost).
  [[nodiscard]] Box<D> cell_frame() const {
    const Vec<D> g = Vec<D>::fill(ghost_);
    return {g * -1, domain_ + g};
  }
  /// Half-open brick-grid range [lo, hi) of the bricks intersecting the
  /// cell box `cells` (ghost coordinates allowed), clamped to the allocated
  /// grid [-gb, n + gb); every brick in it is allocated. Empty when `cells`
  /// is empty or lies entirely outside cell_frame(). The one cell-to-brick
  /// mapping: the kernel engine and the cells<->bricks copies walk it.
  [[nodiscard]] Box<D> brick_grid_range(const Box<D>& cells) const;
  /// Inverse of brick_at.
  [[nodiscard]] const Vec<D>& grid_of(std::int64_t storage_index) const {
    return grid_of_[static_cast<std::size_t>(storage_index)];
  }

  /// Build the adjacency metadata for stencil computation (paper's
  /// `getBrickInfo()`).
  [[nodiscard]] BrickInfo<D> brick_info() const;

  /// Packed heap storage — used by the Layout method (paper's
  /// `bInfo.allocate(bSize)`).
  [[nodiscard]] BrickStorage allocate(int fields) const;
  /// Page-aligned memfd storage — required by the MemMap method (paper's
  /// `bInfo.mmap_alloc(bSize)`). `page_size` 0 means the host page size;
  /// larger multiples emulate big-page systems (Fig. 18).
  [[nodiscard]] BrickStorage mmap_alloc(int fields,
                                        std::size_t page_size = 0) const;

 private:
  Vec<D> domain_, brick_dims_, n_, gb_;
  std::int64_t ghost_;
  LayoutSpec layout_;
  std::vector<BitSet> neighbor_order_;
  std::vector<Region> regions_;
  std::int64_t own_bricks_ = 0;

  // Grid <-> storage maps. Grid array covers [-gb, n+gb) with offset gb.
  Vec<D> grid_ext_;
  std::vector<std::int32_t> grid_to_storage_;
  std::vector<Vec<D>> grid_of_;
};

}  // namespace brickx
