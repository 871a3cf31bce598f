#include "stencil/kernel_engine.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>

#include "common/error.h"
#include "stencil/stencils.h"

namespace brickx::stencil {

namespace {

/// One axis of a halo gather: tile cells [lo, hi) hold the source brick's
/// cells [lo + off, hi + off). Along an axis of B cells a radius-R tile
/// spans [0, B + 2R), and tile cell t holds brick-local cell t - R.
struct Span {
  int lo, hi, off;
  [[nodiscard]] bool empty() const { return lo >= hi; }
};

/// The tile cells a radius-R stencil over the brick-local cells [c0, c1)
/// reads along one axis, split by the brick that holds them: [0] the low
/// neighbor, [1] the brick itself, [2] the high neighbor. An empty span
/// means no cell of the clip reads that brick.
///
/// The gather helpers are forced inline: they run once or more per brick
/// on spans of a few rows, and as calls they cost more than the copies.
template <int B, int R>
[[gnu::always_inline]] inline std::array<Span, 3> halo_spans(
    std::int64_t c0, std::int64_t c1) {
  const int lo = static_cast<int>(c0), hi = static_cast<int>(c1) + 2 * R;
  return {Span{lo, std::min(hi, R), B - R},
          Span{std::max(lo, R), std::min(hi, R + B), -R},
          Span{std::max(lo, R + B), hi, -R - B}};
}

/// Base pointer of the brick in direction `code` = (di + 1) + 3 (dj + 1) +
/// 9 (dk + 1) from `adj`'s brick. This is the engine's frame check: a halo
/// that needs a brick outside the allocation fails here, with the error
/// Brick::at raises in the naive kernels.
template <int BK, int BJ, int BI>
[[gnu::always_inline]] inline const double* source(
    const Brick<BK, BJ, BI>& in, const std::array<std::int32_t, 27>& adj,
    int code) {
  const std::int32_t nb = adj[static_cast<std::size_t>(code)];
  BX_CHECK(nb != BrickInfo<3>::kNoBrick,
           "stencil reached past the allocated ghost zone");
  return in.field_data(nb);
}

/// Copy tile rows z × y from `src`, N cells each, from source column `sx`
/// to tile column `tx`. N is the brick extent or the radius, so every row
/// copy is a fixed-size move.
template <int BJ, int BI, int R, int N>
[[gnu::always_inline]] inline void copy_rows(const double* __restrict src,
                                             const Span& z, const Span& y,
                                             int sx, int tx,
                                             double* __restrict tile) {
  constexpr int SJ = BJ + 2 * R, SI = BI + 2 * R;
  const int ny = y.hi - y.lo;
  for (int t = z.lo; t < z.hi; ++t) {
    double* __restrict d = tile + (t * SJ + y.lo) * SI + tx;
    const double* __restrict s =
        src + ((t + z.off) * BJ + (y.lo + y.off)) * BI + sx;
    for (int u = 0; u < ny; ++u)
      std::memcpy(d + u * SI, s + u * BI, N * sizeof(double));
  }
}

/// Gather what the 125-point stencil over the brick-local clip `c` of
/// brick `b` reads into the radius-R tile: of the 27 bricks around `b`
/// only those the clip's halo touches, and of each only the z and y rows
/// it touches (whole x segments).
template <int BK, int BJ, int BI, int R>
void gather_cube(const Brick<BK, BJ, BI>& in, std::int64_t b,
                 const Box<3>& c, double* tile) {
  const auto& adj = in.info().adjacent(b);
  const auto zs = halo_spans<BK, R>(c.lo[2], c.hi[2]);
  const auto ys = halo_spans<BJ, R>(c.lo[1], c.hi[1]);
  const auto xs = halo_spans<BI, R>(c.lo[0], c.hi[0]);
  for (int dz = 0; dz < 3; ++dz)
    for (int dy = 0; dy < 3; ++dy) {
      const Span &z = zs[dz], &y = ys[dy];
      if (z.empty() || y.empty()) continue;
      const int code = 3 * dy + 9 * dz;  // + dx
      if (!xs[0].empty())
        copy_rows<BJ, BI, R, R>(source(in, adj, code), z, y, BI - R, 0, tile);
      copy_rows<BJ, BI, R, BI>(source(in, adj, code + 1), z, y, 0, R, tile);
      if (!xs[2].empty())
        copy_rows<BJ, BI, R, R>(source(in, adj, code + 2), z, y, 0, R + BI,
                                tile);
    }
}

/// Gather what the 7-point stencil over the clip `c` reads into the
/// radius-1 tile: the brick's own rows within radius 1 of the clip, each
/// with its x-halo cells when the clip reads that x neighbor, and from
/// each y and z face neighbor the clip reads, the one-cell slab across
/// the clip. Tile edges and corners are never read, so never gathered.
template <int BK, int BJ, int BI>
void gather_star(const Brick<BK, BJ, BI>& in, std::int64_t b,
                 const Box<3>& c, double* __restrict tile) {
  constexpr int SJ = BJ + 2, SI = BI + 2;
  const auto& adj = in.info().adjacent(b);
  const auto zs = halo_spans<BK, 1>(c.lo[2], c.hi[2]);
  const auto ys = halo_spans<BJ, 1>(c.lo[1], c.hi[1]);
  const auto xs = halo_spans<BI, 1>(c.lo[0], c.hi[0]);
  const double* __restrict ctr = in.field_data(b);
  const double* __restrict xm = xs[0].empty() ? nullptr : source(in, adj, 12);
  const double* __restrict xp = xs[2].empty() ? nullptr : source(in, adj, 14);
  for (int t = zs[1].lo; t < zs[1].hi; ++t)
    for (int u = ys[1].lo; u < ys[1].hi; ++u) {
      double* __restrict d = tile + (t * SJ + u) * SI;
      const int row = ((t - 1) * BJ + (u - 1)) * BI;
      std::memcpy(d + 1, ctr + row, BI * sizeof(double));
      if (xm) d[0] = xm[row + BI - 1];
      if (xp) d[BI + 1] = xp[row];
    }
  // The clip itself along z and y, in tile coordinates.
  const Span zc{static_cast<int>(c.lo[2]) + 1, static_cast<int>(c.hi[2]) + 1,
                -1};
  const Span yc{static_cast<int>(c.lo[1]) + 1, static_cast<int>(c.hi[1]) + 1,
                -1};
  for (int s : {0, 2}) {
    if (!ys[s].empty())
      copy_rows<BJ, BI, 1, BI>(source(in, adj, 10 + 3 * s), zc, ys[s], 0, 1,
                               tile);
    if (!zs[s].empty())
      copy_rows<BJ, BI, 1, BI>(source(in, adj, 4 + 9 * s), zs[s], yc, 0, 1,
                               tile);
  }
}

/// Scalar tile compute, 7-point, over the clip's z-y rows at full brick
/// width: row pointers into the tile, contiguous x loop, the naive
/// kernel's expression.
template <int BK, int BJ, int BI>
void compute7_tile(const double* __restrict tile, double* __restrict o,
                   const Box<3>& c) {
  constexpr int SJ = BJ + 2, SI = BI + 2;
  const auto& w = Stencil7::c;
  for (int k = static_cast<int>(c.lo[2]); k < c.hi[2]; ++k)
    for (int j = static_cast<int>(c.lo[1]); j < c.hi[1]; ++j) {
      const double* __restrict r0 = tile + ((k + 1) * SJ + (j + 1)) * SI + 1;
      const double* __restrict ym = tile + ((k + 1) * SJ + j) * SI + 1;
      const double* __restrict yp = tile + ((k + 1) * SJ + (j + 2)) * SI + 1;
      const double* __restrict zm = tile + (k * SJ + (j + 1)) * SI + 1;
      const double* __restrict zp = tile + ((k + 2) * SJ + (j + 1)) * SI + 1;
      double* __restrict orow = o + (k * BJ + j) * BI;
      for (int i = 0; i < BI; ++i)
        orow[i] = w[0] * r0[i] + w[1] * r0[i - 1] + w[2] * r0[i + 1] +
                  w[3] * ym[i] + w[4] * yp[i] + w[5] * zm[i] + w[6] * zp[i];
    }
}

/// Scalar tile compute, 125-point. Taps iterate in the outer loops and
/// cells in the contiguous inner loop, so the accumulation vectorizes
/// across cells; each cell's partial sums still arrive in ascending tap
/// order (dz slowest, dx fastest) — the naive kernel's exact FP order.
template <int BK, int BJ, int BI>
void compute125_tile(const double* __restrict tile,
                     const double* __restrict w, double* __restrict o,
                     const Box<3>& c) {
  constexpr int SJ = BJ + 4, SI = BI + 4;
  for (int k = static_cast<int>(c.lo[2]); k < c.hi[2]; ++k)
    for (int j = static_cast<int>(c.lo[1]); j < c.hi[1]; ++j) {
      double acc[BI] = {};
      int t = 0;
      for (int dz = 0; dz < 5; ++dz)
        for (int dy = 0; dy < 5; ++dy) {
          const double* __restrict row =
              tile + ((k + dz) * SJ + (j + dy)) * SI;
          for (int dx = 0; dx < 5; ++dx) {
            const double wt = w[t++];
            const double* __restrict p = row + dx;
            for (int i = 0; i < BI; ++i) acc[i] += wt * p[i];
          }
        }
      double* __restrict orow = o + (k * BJ + j) * BI;
      for (int i = 0; i < BI; ++i) orow[i] = acc[i];
    }
}

/// Explicit-vector tile compute, 7-point: one output cell per lane, W
/// cells per step. The per-lane expression is the scalar tile's 7-term
/// expression verbatim, so every lane accumulates in the naive FP order
/// and the results are bit-identical at any width. Tile rows are read
/// with unaligned loads (row stride BI + 2 is not a lane multiple); output
/// rows are stored aligned — the dispatch guard proved it safe.
template <int BK, int BJ, int BI, int W>
void compute7_tile_simd(const double* __restrict tile, double* __restrict o,
                        const Box<3>& c) {
  static_assert(BI % W == 0, "guarded by the dispatcher");
  using V = simd::DVec<W>;
  constexpr int SJ = BJ + 2, SI = BI + 2;
  const auto& w = Stencil7::c;
  const V c0 = V::broadcast(w[0]), c1 = V::broadcast(w[1]),
          c2 = V::broadcast(w[2]), c3 = V::broadcast(w[3]),
          c4 = V::broadcast(w[4]), c5 = V::broadcast(w[5]),
          c6 = V::broadcast(w[6]);
  for (int k = static_cast<int>(c.lo[2]); k < c.hi[2]; ++k)
    for (int j = static_cast<int>(c.lo[1]); j < c.hi[1]; ++j) {
      const double* __restrict r0 = tile + ((k + 1) * SJ + (j + 1)) * SI + 1;
      const double* __restrict ym = tile + ((k + 1) * SJ + j) * SI + 1;
      const double* __restrict yp = tile + ((k + 1) * SJ + (j + 2)) * SI + 1;
      const double* __restrict zm = tile + (k * SJ + (j + 1)) * SI + 1;
      const double* __restrict zp = tile + ((k + 2) * SJ + (j + 1)) * SI + 1;
      double* __restrict orow = o + (k * BJ + j) * BI;
      for (int x = 0; x < BI; x += W) {
        const V r = c0 * V::loadu(r0 + x) + c1 * V::loadu(r0 + x - 1) +
                    c2 * V::loadu(r0 + x + 1) + c3 * V::loadu(ym + x) +
                    c4 * V::loadu(yp + x) + c5 * V::loadu(zm + x) +
                    c6 * V::loadu(zp + x);
        r.store(orow + x);
      }
    }
}

/// NR consecutive 125-point output rows at full brick width, from the
/// tile row `t0` under the first one's (dz, dy) = (0, 0) tap: taps outer,
/// lanes inner, every accumulator in a register across all 125 taps.
template <int BJ, int BI, int W, int NR>
void rows125_simd(const double* __restrict t0, const double* __restrict w,
                  double* __restrict o) {
  using V = simd::DVec<W>;
  constexpr int SJ = BJ + 4, SI = BI + 4, NV = BI / W;
  V a[NR][NV];
  for (auto& row : a)
    for (V& v : row) v = V::zero();
  int t = 0;
  for (int dz = 0; dz < 5; ++dz)
    for (int dy = 0; dy < 5; ++dy) {
      const double* __restrict p = t0 + (dz * SJ + dy) * SI;
      for (int dx = 0; dx < 5; ++dx) {
        const V wt = V::broadcast(w[t++]);
        for (int r = 0; r < NR; ++r)
          for (int u = 0; u < NV; ++u)
            a[r][u] += wt * V::loadu(p + r * SI + dx + u * W);
      }
    }
  for (int r = 0; r < NR; ++r)
    for (int u = 0; u < NV; ++u) a[r][u].store(o + r * BI + u * W);
}

/// Explicit-vector tile compute, 125-point: rows (j, j+1) in flight per
/// pass, an odd last row alone. The row pair doubles the independent add
/// chains, each a 125-deep latency chain per accumulator. Lanes are cells
/// and rows are independent, so each cell's partial sums still arrive in
/// ascending dz-dy-dx tap order: bit-identical to the naive kernel at
/// every width.
template <int BK, int BJ, int BI, int W>
void compute125_tile_simd(const double* __restrict tile,
                          const double* __restrict w, double* __restrict o,
                          const Box<3>& c) {
  static_assert(BI % W == 0, "guarded by the dispatcher");
  constexpr int SJ = BJ + 4, SI = BI + 4;
  for (int k = static_cast<int>(c.lo[2]); k < c.hi[2]; ++k) {
    int j = static_cast<int>(c.lo[1]);
    for (; j + 1 < c.hi[1]; j += 2)
      rows125_simd<BJ, BI, W, 2>(tile + (k * SJ + j) * SI, w,
                                 o + (k * BJ + j) * BI);
    if (j < c.hi[1])
      rows125_simd<BJ, BI, W, 1>(tile + (k * SJ + j) * SI, w,
                                 o + (k * BJ + j) * BI);
  }
}

/// Call `f(b, c)` for every brick `b` in the brick-grid range `gr` of
/// `out_cells`, with `c` the brick's overlap with `out_cells` in
/// brick-local coordinates.
template <int BK, int BJ, int BI, typename F>
void for_each_clip(const BrickDecomp<3>& dec, const Box<3>& gr,
                   const Box<3>& out_cells, F&& f) {
  const Vec3 B{BI, BJ, BK};
  for (std::int64_t gz = gr.lo[2]; gz < gr.hi[2]; ++gz)
    for (std::int64_t gy = gr.lo[1]; gy < gr.hi[1]; ++gy)
      for (std::int64_t gx = gr.lo[0]; gx < gr.hi[0]; ++gx) {
        const Vec3 g{gx, gy, gz};
        const Vec3 base = g * B;
        const Box<3> clip = intersect(Box<3>{base, base + B}, out_cells);
        f(dec.brick_at(g), Box<3>{clip.lo - base, clip.hi - base});
      }
}

/// Have `rows(o)` compute the clip `c`'s z-y rows at full brick width into
/// the brick-layout buffer `o`: straight into output brick `dst` when the
/// clip spans whole rows; else into `scratch`, then copy the clip's x
/// range over.
template <int BK, int BJ, int BI, typename F>
void store_rows(double* dst, const Box<3>& c, double* scratch, F&& rows) {
  if (c.lo[0] == 0 && c.hi[0] == BI) {
    rows(dst);
    return;
  }
  rows(scratch);
  for (std::int64_t k = c.lo[2]; k < c.hi[2]; ++k)
    for (std::int64_t j = c.lo[1]; j < c.hi[1]; ++j) {
      const std::int64_t row = (k * BJ + j) * BI;
      std::copy(scratch + row + c.lo[0], scratch + row + c.hi[0],
                dst + row + c.lo[0]);
    }
}

/// One-line diagnostic the first time a width-W dispatch degrades to the
/// scalar fast path (alignment guard, DESIGN.md §16). Results are
/// unaffected — only the vector stores are.
void note_scalar_fallback(int w, const char* why) {
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true, std::memory_order_relaxed))
    std::fprintf(stderr,
                 "brickx: simd: width-%d vector path unavailable (%s); "
                 "using the scalar fast path\n",
                 w, why);
}

/// Decide once per apply call whether the width-W vector tiles may run
/// over this output brick accessor; diagnoses the first degradation.
template <int BK, int BJ, int BI, int W>
bool simd_dispatch(const Brick<BK, BJ, BI>& out) {
  if constexpr (W == 1) {
    return false;  // scalar fast path IS width 1; nothing to guard
  } else {
    const char* why = simd_brick_reason<BK, BJ, BI>(out, W);
    if (why == nullptr) return true;
    note_scalar_fallback(W, why);
    return false;
  }
}

}  // namespace

const char* simd_storage_reason(const void* base, std::size_t brick_bytes,
                                std::size_t page_bytes,
                                std::int64_t row_elems,
                                std::int64_t elem_offset, int w) {
  if (w == 1) return nullptr;
  const std::size_t lane = static_cast<std::size_t>(w) * sizeof(double);
  if (row_elems % w != 0) return "brick row not a whole number of lanes";
  if (!simd::lane_aligned(base, w)) return "storage base not lane-aligned";
  if (brick_bytes % lane != 0) return "brick stride not a lane multiple";
  if (page_bytes % lane != 0) return "chunk padding not a lane multiple";
  if (elem_offset % w != 0) return "field offset not a lane multiple";
  return nullptr;
}

template <int BK, int BJ, int BI, int W>
void engine_apply7_simd(const BrickDecomp<3>& dec,
                        const Brick<BK, BJ, BI>& out,
                        const Brick<BK, BJ, BI>& in, const Box<3>& out_cells) {
  const Box<3> gr = dec.brick_grid_range(out_cells);
  if (gr.empty()) return;
  const bool vec = simd_dispatch<BK, BJ, BI, W>(out);
  // Zeroed once: a clipped brick's full-width rows read tile cells its
  // gather skipped, for lanes that are never stored.
  alignas(simd::kAlign) double tile[(BK + 2) * (BJ + 2) * (BI + 2)] = {};
  alignas(simd::kAlign) double scratch[BK * BJ * BI] = {};
  for_each_clip<BK, BJ, BI>(
      dec, gr, out_cells, [&](std::int64_t b, const Box<3>& c) {
        gather_star<BK, BJ, BI>(in, b, c, tile);
        store_rows<BK, BJ, BI>(out.field_data(b), c, scratch, [&](double* o) {
          if constexpr (W > 1 && BI % W == 0) {
            if (vec) return compute7_tile_simd<BK, BJ, BI, W>(tile, o, c);
          }
          compute7_tile<BK, BJ, BI>(tile, o, c);
        });
      });
}

template <int BK, int BJ, int BI, int W>
void engine_apply125_simd(const BrickDecomp<3>& dec,
                          const Brick<BK, BJ, BI>& out,
                          const Brick<BK, BJ, BI>& in,
                          const Box<3>& out_cells) {
  static_assert(BK >= 2 && BJ >= 2 && BI >= 2,
                "brick extents must cover the radius-2 neighborhood");
  const Box<3> gr = dec.brick_grid_range(out_cells);
  if (gr.empty()) return;
  const bool vec = simd_dispatch<BK, BJ, BI, W>(out);
  const double* w = Stencil125::taps().data();
  // Zeroed once, as for the 7-point tile.
  alignas(simd::kAlign) double tile[(BK + 4) * (BJ + 4) * (BI + 4)] = {};
  alignas(simd::kAlign) double scratch[BK * BJ * BI] = {};
  for_each_clip<BK, BJ, BI>(
      dec, gr, out_cells, [&](std::int64_t b, const Box<3>& c) {
        gather_cube<BK, BJ, BI, 2>(in, b, c, tile);
        store_rows<BK, BJ, BI>(out.field_data(b), c, scratch, [&](double* o) {
          if constexpr (W > 1 && BI % W == 0) {
            if (vec) return compute125_tile_simd<BK, BJ, BI, W>(tile, w, o, c);
          }
          compute125_tile<BK, BJ, BI>(tile, w, o, c);
        });
      });
}

template <int BK, int BJ, int BI>
void engine_apply7(const BrickDecomp<3>& dec, const Brick<BK, BJ, BI>& out,
                   const Brick<BK, BJ, BI>& in, const Box<3>& out_cells) {
  engine_apply7_simd<BK, BJ, BI, simd::kActiveWidth>(dec, out, in, out_cells);
}

template <int BK, int BJ, int BI>
void engine_apply125(const BrickDecomp<3>& dec, const Brick<BK, BJ, BI>& out,
                     const Brick<BK, BJ, BI>& in, const Box<3>& out_cells) {
  engine_apply125_simd<BK, BJ, BI, simd::kActiveWidth>(dec, out, in,
                                                       out_cells);
}

// Every supported width is instantiated for both brick sizes so one build
// can differentially test widths the dispatch default would never pick.
#define BRICKX_INSTANTIATE_SIMD_W(B, W)                                     \
  template void engine_apply7_simd<B, B, B, W>(                             \
      const BrickDecomp<3>&, const Brick<B, B, B>&, const Brick<B, B, B>&,  \
      const Box<3>&);                                                       \
  template void engine_apply125_simd<B, B, B, W>(                           \
      const BrickDecomp<3>&, const Brick<B, B, B>&, const Brick<B, B, B>&,  \
      const Box<3>&);

#define BRICKX_INSTANTIATE_SIMD(B) \
  BRICKX_INSTANTIATE_SIMD_W(B, 1)  \
  BRICKX_INSTANTIATE_SIMD_W(B, 2)  \
  BRICKX_INSTANTIATE_SIMD_W(B, 4)  \
  BRICKX_INSTANTIATE_SIMD_W(B, 8)

BRICKX_INSTANTIATE_SIMD(4)
BRICKX_INSTANTIATE_SIMD(8)

#undef BRICKX_INSTANTIATE_SIMD
#undef BRICKX_INSTANTIATE_SIMD_W

template void engine_apply7<4, 4, 4>(const BrickDecomp<3>&,
                                     const Brick<4, 4, 4>&,
                                     const Brick<4, 4, 4>&, const Box<3>&);
template void engine_apply7<8, 8, 8>(const BrickDecomp<3>&,
                                     const Brick<8, 8, 8>&,
                                     const Brick<8, 8, 8>&, const Box<3>&);
template void engine_apply125<4, 4, 4>(const BrickDecomp<3>&,
                                       const Brick<4, 4, 4>&,
                                       const Brick<4, 4, 4>&, const Box<3>&);
template void engine_apply125<8, 8, 8>(const BrickDecomp<3>&,
                                       const Brick<8, 8, 8>&,
                                       const Brick<8, 8, 8>&, const Box<3>&);

namespace {

/// Pointer-core 7-point row kernel shared by the CellArray3 and the
/// multi-field span entry points: `ibase`/`obase` are frame-shaped
/// lexicographic slabs over `ib`/`ob`.
void apply7_rows(const Box<3>& ib, const double* __restrict ibase,
                 const Box<3>& ob, double* __restrict obase,
                 const Box<3>& out_cells) {
  if (out_cells.empty()) return;
  const auto& c = Stencil7::c;
  for (int a = 0; a < 3; ++a) {
    BX_CHECK(ib.lo[a] <= out_cells.lo[a] - 1 &&
                 out_cells.hi[a] + 1 <= ib.hi[a],
             "input array does not cover the radius-1 halo of out_cells");
    BX_CHECK(ob.lo[a] <= out_cells.lo[a] && out_cells.hi[a] <= ob.hi[a],
             "output array does not cover out_cells");
  }
  const Vec3 ie = ib.extent(), oe = ob.extent();
  const std::int64_t x0 = out_cells.lo[0];
  const std::int64_t nx = out_cells.hi[0] - x0;
  for (std::int64_t z = out_cells.lo[2]; z < out_cells.hi[2]; ++z)
    for (std::int64_t y = out_cells.lo[1]; y < out_cells.hi[1]; ++y) {
      auto irow = [&](std::int64_t zz, std::int64_t yy) {
        return ibase +
               ((zz - ib.lo[2]) * ie[1] + (yy - ib.lo[1])) * ie[0] +
               (x0 - ib.lo[0]);
      };
      const double* __restrict r0 = irow(z, y);
      const double* __restrict ym = irow(z, y - 1);
      const double* __restrict yp = irow(z, y + 1);
      const double* __restrict zm = irow(z - 1, y);
      const double* __restrict zp = irow(z + 1, y);
      double* __restrict orow =
          obase + ((z - ob.lo[2]) * oe[1] + (y - ob.lo[1])) * oe[0] +
          (x0 - ob.lo[0]);
      for (std::int64_t x = 0; x < nx; ++x)
        orow[x] = c[0] * r0[x] + c[1] * r0[x - 1] + c[2] * r0[x + 1] +
                  c[3] * ym[x] + c[4] * yp[x] + c[5] * zm[x] + c[6] * zp[x];
    }
}

/// Pointer-core 125-point row kernel (same sharing). Each row runs in
/// blocks of 4·W cells whose accumulators stay in four DVec<W> registers
/// across all 125 taps, as the brick tiles' do; the last nx mod 4·W
/// cells take a scalar loop. Both accumulate every cell in ascending
/// dz-dy-dx tap order, the naive FP order, so every width is
/// bit-identical to apply125_array_naive.
template <int W>
void apply125_rows(const Box<3>& ib, const double* __restrict ibase,
                   const Box<3>& ob, double* __restrict obase,
                   const Box<3>& out_cells) {
  if (out_cells.empty()) return;
  using V = simd::DVec<W>;
  constexpr int U = 4;  // vectors in flight per block
  const double* w = Stencil125::taps().data();
  for (int a = 0; a < 3; ++a) {
    BX_CHECK(ib.lo[a] <= out_cells.lo[a] - 2 &&
                 out_cells.hi[a] + 2 <= ib.hi[a],
             "input array does not cover the radius-2 halo of out_cells");
    BX_CHECK(ob.lo[a] <= out_cells.lo[a] && out_cells.hi[a] <= ob.hi[a],
             "output array does not cover out_cells");
  }
  const Vec3 ie = ib.extent(), oe = ob.extent();
  const std::int64_t x0 = out_cells.lo[0];
  const std::int64_t nx = out_cells.hi[0] - x0;
  for (std::int64_t z = out_cells.lo[2]; z < out_cells.hi[2]; ++z)
    for (std::int64_t y = out_cells.lo[1]; y < out_cells.hi[1]; ++y) {
      // 25 row base pointers (dz, dy), each positioned at x0 - 2 so the
      // dx tap loop reads p[dx] for dx in [0, 5).
      const double* rows[25];
      for (int dz = 0; dz < 5; ++dz)
        for (int dy = 0; dy < 5; ++dy)
          rows[dz * 5 + dy] =
              ibase +
              ((z + dz - 2 - ib.lo[2]) * ie[1] + (y + dy - 2 - ib.lo[1])) *
                  ie[0] +
              (x0 - 2 - ib.lo[0]);
      double* __restrict orow =
          obase + ((z - ob.lo[2]) * oe[1] + (y - ob.lo[1])) * oe[0] +
          (x0 - ob.lo[0]);
      std::int64_t x = 0;
      for (; x + U * W <= nx; x += U * W) {
        V a[U];
        for (V& v : a) v = V::zero();
        int t = 0;
        for (int zy = 0; zy < 25; ++zy) {
          const double* __restrict p = rows[zy] + x;
          for (int dx = 0; dx < 5; ++dx) {
            const V wt = V::broadcast(w[t++]);
            for (int u = 0; u < U; ++u)
              a[u] += wt * V::loadu(p + dx + u * W);
          }
        }
        for (int u = 0; u < U; ++u) a[u].storeu(orow + x + u * W);
      }
      for (; x < nx; ++x) {
        double acc = 0.0;
        int t = 0;
        for (int zy = 0; zy < 25; ++zy)
          for (int dx = 0; dx < 5; ++dx) acc += w[t++] * rows[zy][x + dx];
        orow[x] = acc;
      }
    }
}

}  // namespace

template <int W>
void engine_apply125_array_simd(const CellArray3& in, CellArray3& out,
                                const Box<3>& out_cells) {
  apply125_rows<W>(in.box(), in.raw().data(), out.box(), out.raw().data(),
                   out_cells);
}

template void engine_apply125_array_simd<1>(const CellArray3&, CellArray3&,
                                            const Box<3>&);
template void engine_apply125_array_simd<2>(const CellArray3&, CellArray3&,
                                            const Box<3>&);
template void engine_apply125_array_simd<4>(const CellArray3&, CellArray3&,
                                            const Box<3>&);
template void engine_apply125_array_simd<8>(const CellArray3&, CellArray3&,
                                            const Box<3>&);

void engine_apply7_array(const CellArray3& in, CellArray3& out,
                         const Box<3>& out_cells) {
  apply7_rows(in.box(), in.raw().data(), out.box(), out.raw().data(),
              out_cells);
}

void engine_apply125_array(const CellArray3& in, CellArray3& out,
                           const Box<3>& out_cells) {
  engine_apply125_array_simd<simd::kActiveWidth>(in, out, out_cells);
}

void engine_apply7_span(const Box<3>& frame, const double* in, double* out,
                        const Box<3>& out_cells) {
  apply7_rows(frame, in, frame, out, out_cells);
}

void engine_apply125_span(const Box<3>& frame, const double* in, double* out,
                          const Box<3>& out_cells) {
  apply125_rows<simd::kActiveWidth>(frame, in, frame, out, out_cells);
}

}  // namespace brickx::stencil
