#include "core/decomp.h"

#include <algorithm>

#include "common/error.h"
#include "memmap/pagesize.h"

namespace brickx {

namespace {
/// Floor division for possibly-negative cell coordinates (ghost cells have
/// negative coordinates; C++ integer division truncates toward zero).
constexpr std::int64_t floor_div(std::int64_t a, std::int64_t b) {
  return a >= 0 ? a / b : -((-a + b - 1) / b);
}
}  // namespace

template <int D>
BrickDecomp<D>::BrickDecomp(const Vec<D>& domain, std::int64_t ghost,
                            const Vec<D>& brick_dims, LayoutSpec layout)
    : domain_(domain),
      brick_dims_(brick_dims),
      ghost_(ghost),
      layout_(std::move(layout)) {
  BX_CHECK(ghost > 0, "ghost width must be positive");
  BX_CHECK(layout_.valid(D), "layout is not a permutation of the regions");
  for (int a = 0; a < D; ++a) {
    BX_CHECK(brick_dims_[a] > 0, "brick extent must be positive");
    BX_CHECK(domain_[a] % brick_dims_[a] == 0,
             "subdomain must be a multiple of the brick extent");
    BX_CHECK(ghost % brick_dims_[a] == 0,
             "ghost width must be a multiple of the brick extent "
             "(use ghost cell expansion for thinner logical ghosts)");
    n_[a] = domain_[a] / brick_dims_[a];
    gb_[a] = ghost / brick_dims_[a];
    BX_CHECK(n_[a] >= 2 * gb_[a],
             "subdomain must be at least two ghost widths per axis");
  }
  neighbor_order_ = all_surface_signatures(D);

  // --- enumerate region chunks in storage order -------------------------
  std::int64_t next_brick = 0;
  auto push = [&](typename Region::Kind kind, const BitSet& sigma,
                  const BitSet& nu, const Box<D>& box) {
    Region r;
    r.kind = kind;
    r.sigma = sigma;
    r.nu = nu;
    r.box = box;
    r.first_brick = next_brick;
    r.brick_count = box.volume();
    next_brick += r.brick_count;
    regions_.push_back(r);
  };

  for (const BitSet& sigma : layout_.order)
    push(Region::Kind::Surface, sigma, BitSet{},
         surface_box<D>(sigma, n_, gb_));

  Box<D> interior;
  for (int a = 0; a < D; ++a) {
    interior.lo[a] = gb_[a];
    interior.hi[a] = std::max(gb_[a], n_[a] - gb_[a]);
  }
  push(Region::Kind::Interior, BitSet{}, BitSet{}, interior);
  own_bricks_ = next_brick;

  for (const GhostId& gid :
       ghost_subregions(neighbor_order_, layout_.order, D))
    push(Region::Kind::Ghost, gid.sigma, gid.nu,
         ghost_box<D>(gid, n_, gb_));

  // --- grid <-> storage maps ---------------------------------------------
  for (int a = 0; a < D; ++a) grid_ext_[a] = n_[a] + 2 * gb_[a];
  grid_to_storage_.assign(static_cast<std::size_t>(grid_ext_.prod()),
                          BrickInfo<D>::kNoBrick);
  grid_of_.resize(static_cast<std::size_t>(next_brick));
  for (const Region& r : regions_) {
    std::int64_t idx = r.first_brick;
    for_each(r.box, [&](const Vec<D>& g) {
      const auto lin = static_cast<std::size_t>(linearize(g + gb_, grid_ext_));
      BX_CHECK(grid_to_storage_[lin] == BrickInfo<D>::kNoBrick,
               "region partition overlaps itself");
      grid_to_storage_[lin] = static_cast<std::int32_t>(idx);
      grid_of_[static_cast<std::size_t>(idx)] = g;
      ++idx;
    });
  }
  // Partition invariant: every grid brick is covered exactly once.
  for (std::int32_t s : grid_to_storage_)
    BX_CHECK(s != BrickInfo<D>::kNoBrick,
             "region partition does not cover the grid");
}

template <int D>
int BrickDecomp<D>::neighbor_ordinal(const BitSet& dir) const {
  for (std::size_t i = 0; i < neighbor_order_.size(); ++i)
    if (neighbor_order_[i] == dir) return static_cast<int>(i);
  brickx::fail("not a neighbor direction of this decomposition");
}

template <int D>
int BrickDecomp<D>::surface_ordinal(const BitSet& sigma) const {
  const int p = layout_.position(sigma);
  BX_CHECK(p >= 0, "not a surface region of this decomposition");
  return p;
}

template <int D>
std::int32_t BrickDecomp<D>::brick_at(const Vec<D>& g) const {
  for (int a = 0; a < D; ++a) {
    if (g[a] < -gb_[a] || g[a] >= n_[a] + gb_[a]) return BrickInfo<D>::kNoBrick;
  }
  return grid_to_storage_[static_cast<std::size_t>(
      linearize(g + gb_, grid_ext_))];
}

template <int D>
Box<D> BrickDecomp<D>::brick_grid_range(const Box<D>& cells) const {
  Box<D> r{};
  if (cells.empty()) return r;  // the default box is empty
  for (int a = 0; a < D; ++a) {
    r.lo[a] = std::max(floor_div(cells.lo[a], brick_dims_[a]), -gb_[a]);
    r.hi[a] = std::min(floor_div(cells.hi[a] - 1, brick_dims_[a]) + 1,
                       n_[a] + gb_[a]);
  }
  return r;
}

template <int D>
BrickInfo<D> BrickDecomp<D>::brick_info() const {
  BrickInfo<D> info;
  info.adj.resize(static_cast<std::size_t>(total_brick_count()));
  const Vec<D> ext3 = Vec<D>::fill(3);
  for (std::int64_t b = 0; b < total_brick_count(); ++b) {
    const Vec<D>& g = grid_of(b);
    for (std::int64_t code = 0; code < ext3.prod(); ++code) {
      const Vec<D> d = delinearize(code, ext3);
      Vec<D> nb = g;
      for (int a = 0; a < D; ++a) nb[a] += d[a] - 1;
      info.adj[static_cast<std::size_t>(b)][static_cast<std::size_t>(code)] =
          brick_at(nb);
    }
  }
  return info;
}

template <int D>
BrickStorage BrickDecomp<D>::allocate(int fields) const {
  std::vector<std::int64_t> chunk_bricks;
  chunk_bricks.reserve(regions_.size());
  for (const Region& r : regions_) chunk_bricks.push_back(r.brick_count);
  return BrickStorage::heap(chunk_bricks, elements_per_brick(), fields);
}

template <int D>
BrickStorage BrickDecomp<D>::mmap_alloc(int fields,
                                        std::size_t page_size) const {
  if (page_size == 0) page_size = mm::host_page_size();
  std::vector<std::int64_t> chunk_bricks;
  chunk_bricks.reserve(regions_.size());
  for (const Region& r : regions_) chunk_bricks.push_back(r.brick_count);
  return BrickStorage::memfd(chunk_bricks, elements_per_brick(), fields,
                             page_size);
}

template class BrickDecomp<1>;
template class BrickDecomp<2>;
template class BrickDecomp<3>;
template class BrickDecomp<4>;

}  // namespace brickx
