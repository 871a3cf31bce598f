#include "stencil/kernel_engine.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/error.h"
#include "stencil/stencils.h"

namespace brickx::stencil {

namespace {

/// Per-axis tile segmentation for the halo gather: segment s in {0, 1, 2}
/// covers the low halo, the brick body, and the high halo. `B` is the brick
/// extent on the axis, `R` the stencil radius.
struct AxisSeg {
  int len;       ///< cells in the segment
  int src_lo;    ///< first local coordinate inside the source brick
  int tile_lo;   ///< first tile coordinate
};

template <int B, int R>
constexpr AxisSeg axis_seg(int s) {
  return s == 0   ? AxisSeg{R, B - R, 0}
         : s == 1 ? AxisSeg{B, 0, R}
                  : AxisSeg{R, 0, R + B};
}

/// Gather the full (B + 2R)^3 halo cube of brick `b` into `tile` from the
/// 27 neighbor base pointers (resolved once from the adjacency row).
/// Returns false — leaving the caller on the boundary path — when any of
/// the 26 neighbors is unallocated (brick at the edge of the ghost frame).
template <int BK, int BJ, int BI, int R>
bool gather_cube(const Brick<BK, BJ, BI>& in,
                 const std::array<std::int32_t, 27>& adj,
                 double* __restrict tile) {
  constexpr int SJ = BJ + 2 * R, SI = BI + 2 * R;
  const double* src[27];
  for (int c = 0; c < 27; ++c) {
    if (adj[static_cast<std::size_t>(c)] == BrickInfo<3>::kNoBrick)
      return false;
    src[c] = in.field_data(adj[static_cast<std::size_t>(c)]);
  }
  for (int sz = 0; sz < 3; ++sz) {
    const AxisSeg zs = axis_seg<BK, R>(sz);
    for (int sy = 0; sy < 3; ++sy) {
      const AxisSeg ys = axis_seg<BJ, R>(sy);
      for (int sx = 0; sx < 3; ++sx) {
        const AxisSeg xs = axis_seg<BI, R>(sx);
        const double* __restrict s = src[sx + 3 * sy + 9 * sz];
        for (int kk = 0; kk < zs.len; ++kk)
          for (int jj = 0; jj < ys.len; ++jj)
            std::memcpy(
                tile + ((zs.tile_lo + kk) * SJ + (ys.tile_lo + jj)) * SI +
                    xs.tile_lo,
                s + ((zs.src_lo + kk) * BJ + (ys.src_lo + jj)) * BI +
                    xs.src_lo,
                static_cast<std::size_t>(xs.len) * sizeof(double));
      }
    }
  }
  return true;
}

/// Gather the star-shaped radius-1 halo (center + the six face slabs —
/// the only tile cells the 7-point stencil reads; tile edges and corners
/// stay unwritten and unread). Requires only the six face neighbors.
template <int BK, int BJ, int BI>
bool gather_star1(const Brick<BK, BJ, BI>& in,
                  const std::array<std::int32_t, 27>& adj,
                  double* __restrict tile) {
  constexpr int SJ = BJ + 2, SI = BI + 2;
  // Face direction codes: (di+1) + 3*(dj+1) + 9*(dk+1).
  constexpr int kXm = 12, kXp = 14, kYm = 10, kYp = 16, kZm = 4, kZp = 22;
  for (int c : {kXm, kXp, kYm, kYp, kZm, kZp})
    if (adj[static_cast<std::size_t>(c)] == BrickInfo<3>::kNoBrick)
      return false;
  const double* __restrict ctr = in.field_data(adj[13]);
  for (int k = 0; k < BK; ++k)
    for (int j = 0; j < BJ; ++j)
      std::memcpy(tile + ((k + 1) * SJ + (j + 1)) * SI + 1,
                  ctr + (k * BJ + j) * BI,
                  static_cast<std::size_t>(BI) * sizeof(double));
  const double* __restrict zm = in.field_data(adj[kZm]);
  const double* __restrict zp = in.field_data(adj[kZp]);
  for (int j = 0; j < BJ; ++j) {
    std::memcpy(tile + (j + 1) * SI + 1, zm + ((BK - 1) * BJ + j) * BI,
                static_cast<std::size_t>(BI) * sizeof(double));
    std::memcpy(tile + ((BK + 1) * SJ + (j + 1)) * SI + 1, zp + (j * BI),
                static_cast<std::size_t>(BI) * sizeof(double));
  }
  const double* __restrict ym = in.field_data(adj[kYm]);
  const double* __restrict yp = in.field_data(adj[kYp]);
  for (int k = 0; k < BK; ++k) {
    std::memcpy(tile + ((k + 1) * SJ) * SI + 1,
                ym + (k * BJ + (BJ - 1)) * BI,
                static_cast<std::size_t>(BI) * sizeof(double));
    std::memcpy(tile + ((k + 1) * SJ + (BJ + 1)) * SI + 1, yp + (k * BJ) * BI,
                static_cast<std::size_t>(BI) * sizeof(double));
  }
  const double* __restrict xm = in.field_data(adj[kXm]);
  const double* __restrict xp = in.field_data(adj[kXp]);
  for (int k = 0; k < BK; ++k)
    for (int j = 0; j < BJ; ++j) {
      tile[((k + 1) * SJ + (j + 1)) * SI] = xm[(k * BJ + j) * BI + (BI - 1)];
      tile[((k + 1) * SJ + (j + 1)) * SI + (BI + 1)] = xp[(k * BJ + j) * BI];
    }
  return true;
}

/// Flat interior compute, 7-point: row pointers into the tile, contiguous
/// x loop. Same accumulation order as the naive kernel's expression.
template <int BK, int BJ, int BI>
void compute7_tile(const double* __restrict tile, double* __restrict o) {
  constexpr int SJ = BJ + 2, SI = BI + 2;
  const auto& c = Stencil7::c;
  for (int k = 0; k < BK; ++k)
    for (int j = 0; j < BJ; ++j) {
      const double* __restrict r0 = tile + ((k + 1) * SJ + (j + 1)) * SI + 1;
      const double* __restrict ym = tile + ((k + 1) * SJ + j) * SI + 1;
      const double* __restrict yp = tile + ((k + 1) * SJ + (j + 2)) * SI + 1;
      const double* __restrict zm = tile + (k * SJ + (j + 1)) * SI + 1;
      const double* __restrict zp = tile + ((k + 2) * SJ + (j + 1)) * SI + 1;
      double* __restrict orow = o + (k * BJ + j) * BI;
      for (int i = 0; i < BI; ++i)
        orow[i] = c[0] * r0[i] + c[1] * r0[i - 1] + c[2] * r0[i + 1] +
                  c[3] * ym[i] + c[4] * yp[i] + c[5] * zm[i] + c[6] * zp[i];
    }
}

/// Flat interior compute, 125-point. Taps iterate in the outer loops and
/// cells in the contiguous inner loop, so the accumulation vectorizes
/// across cells; each cell's partial sums still arrive in ascending tap
/// order (dz slowest, dx fastest) — the naive kernel's exact FP order.
template <int BK, int BJ, int BI>
void compute125_tile(const double* __restrict tile,
                     const double* __restrict w, double* __restrict o) {
  constexpr int SJ = BJ + 4, SI = BI + 4;
  for (int k = 0; k < BK; ++k)
    for (int j = 0; j < BJ; ++j) {
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

/// Explicit-vector interior compute, 7-point: one output cell per lane,
/// W cells per step. The per-lane expression is the scalar fast path's
/// 7-term expression verbatim, so every lane accumulates in the naive FP
/// order and the results are bit-identical at any width. Tile rows are
/// read with unaligned loads (row stride BI + 2 is not a lane multiple);
/// output rows are stored aligned — the dispatch guard proved it safe.
template <int BK, int BJ, int BI, int W>
void compute7_tile_simd(const double* __restrict tile, double* __restrict o) {
  static_assert(BI % W == 0, "guarded by the dispatcher");
  using V = simd::DVec<W>;
  constexpr int SJ = BJ + 2, SI = BI + 2;
  const auto& c = Stencil7::c;
  const V c0 = V::broadcast(c[0]), c1 = V::broadcast(c[1]),
          c2 = V::broadcast(c[2]), c3 = V::broadcast(c[3]),
          c4 = V::broadcast(c[4]), c5 = V::broadcast(c[5]),
          c6 = V::broadcast(c[6]);
  for (int k = 0; k < BK; ++k)
    for (int j = 0; j < BJ; ++j) {
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

/// Explicit-vector interior compute, 125-point: taps outer, lanes inner,
/// with TWO output rows (j, j+1) in flight per pass. The vector
/// accumulators live in registers across all 125 taps, and the row pair
/// doubles the number of independent add chains — each accumulator's adds
/// form a 125-deep latency chain the scalar path serializes per row, so
/// the pairing is what buys the >= 1.5x over the autovectorized fast path
/// (the BENCH_kernels.json simd-vs-fast axis). Lanes are cells and rows
/// are independent, so each cell's partial sums still arrive in ascending
/// dz-dy-dx tap order: bit-identical to the naive kernel at every width.
template <int BK, int BJ, int BI, int W>
void compute125_tile_simd(const double* __restrict tile,
                          const double* __restrict w, double* __restrict o) {
  static_assert(BI % W == 0, "guarded by the dispatcher");
  using V = simd::DVec<W>;
  constexpr int SJ = BJ + 4, SI = BI + 4;
  constexpr int NV = BI / W;
  static_assert(BJ % 2 == 0, "row pairing needs an even j extent");
  for (int k = 0; k < BK; ++k)
    for (int j = 0; j < BJ; j += 2) {
      V a0[NV], a1[NV];
      for (int u = 0; u < NV; ++u) {
        a0[u] = V::zero();
        a1[u] = V::zero();
      }
      int t = 0;
      for (int dz = 0; dz < 5; ++dz)
        for (int dy = 0; dy < 5; ++dy) {
          const double* __restrict r0 =
              tile + ((k + dz) * SJ + (j + dy)) * SI;
          const double* __restrict r1 = r0 + SI;
          for (int dx = 0; dx < 5; ++dx) {
            const V wt = V::broadcast(w[t++]);
            for (int u = 0; u < NV; ++u) {
              a0[u] += wt * V::loadu(r0 + dx + u * W);
              a1[u] += wt * V::loadu(r1 + dx + u * W);
            }
          }
        }
      double* __restrict o0 = o + (k * BJ + j) * BI;
      double* __restrict o1 = o0 + BI;
      for (int u = 0; u < NV; ++u) {
        a0[u].store(o0 + u * W);
        a1[u].store(o1 + u * W);
      }
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
  const auto& c = Stencil7::c;
  const Vec3 B{BI, BJ, BK};
  const Box<3> gr = dec.brick_grid_range(out_cells);
  if (gr.empty()) return;
  const bool vec = simd_dispatch<BK, BJ, BI, W>(out);
  alignas(simd::kAlign) double tile[(BK + 2) * (BJ + 2) * (BI + 2)];
  for (std::int64_t gz = gr.lo[2]; gz < gr.hi[2]; ++gz)
    for (std::int64_t gy = gr.lo[1]; gy < gr.hi[1]; ++gy)
      for (std::int64_t gx = gr.lo[0]; gx < gr.hi[0]; ++gx) {
        const Vec3 g{gx, gy, gz};
        const std::int64_t b = dec.brick_at(g);
        const Vec3 base = g * B;
        const Box<3> clip = intersect(Box<3>{base, base + B}, out_cells);
        const bool full = clip.lo == base && clip.hi == base + B;
        if (full &&
            gather_star1<BK, BJ, BI>(in, in.info().adjacent(b), tile)) {
          if constexpr (W > 1 && BI % W == 0) {
            if (vec) {
              compute7_tile_simd<BK, BJ, BI, W>(tile, out.field_data(b));
              continue;
            }
          }
          compute7_tile<BK, BJ, BI>(tile, out.field_data(b));
          continue;
        }
        // Boundary path: the clipped per-access kernel, expression
        // identical to the naive implementation.
        for (int k = static_cast<int>(clip.lo[2] - base[2]);
             k < static_cast<int>(clip.hi[2] - base[2]); ++k)
          for (int j = static_cast<int>(clip.lo[1] - base[1]);
               j < static_cast<int>(clip.hi[1] - base[1]); ++j)
            for (int i = static_cast<int>(clip.lo[0] - base[0]);
                 i < static_cast<int>(clip.hi[0] - base[0]); ++i) {
              out.at(b, k, j, i) = c[0] * in.at(b, k, j, i) +
                                   c[1] * in.at(b, k, j, i - 1) +
                                   c[2] * in.at(b, k, j, i + 1) +
                                   c[3] * in.at(b, k, j - 1, i) +
                                   c[4] * in.at(b, k, j + 1, i) +
                                   c[5] * in.at(b, k - 1, j, i) +
                                   c[6] * in.at(b, k + 1, j, i);
            }
      }
}

template <int BK, int BJ, int BI, int W>
void engine_apply125_simd(const BrickDecomp<3>& dec,
                          const Brick<BK, BJ, BI>& out,
                          const Brick<BK, BJ, BI>& in,
                          const Box<3>& out_cells) {
  static_assert(BK >= 2 && BJ >= 2 && BI >= 2,
                "brick extents must cover the radius-2 neighborhood");
  const Vec3 B{BI, BJ, BK};
  const auto& w = Stencil125::taps();
  const Box<3> gr = dec.brick_grid_range(out_cells);
  if (gr.empty()) return;
  const bool vec = simd_dispatch<BK, BJ, BI, W>(out);
  alignas(simd::kAlign) double tile[(BK + 4) * (BJ + 4) * (BI + 4)];
  for (std::int64_t gz = gr.lo[2]; gz < gr.hi[2]; ++gz)
    for (std::int64_t gy = gr.lo[1]; gy < gr.hi[1]; ++gy)
      for (std::int64_t gx = gr.lo[0]; gx < gr.hi[0]; ++gx) {
        const Vec3 g{gx, gy, gz};
        const std::int64_t b = dec.brick_at(g);
        const Vec3 base = g * B;
        const Box<3> clip = intersect(Box<3>{base, base + B}, out_cells);
        const bool full = clip.lo == base && clip.hi == base + B;
        if (full &&
            gather_cube<BK, BJ, BI, 2>(in, in.info().adjacent(b), tile)) {
          if constexpr (W > 1 && BI % W == 0) {
            if (vec) {
              compute125_tile_simd<BK, BJ, BI, W>(tile, w.data(),
                                                  out.field_data(b));
              continue;
            }
          }
          compute125_tile<BK, BJ, BI>(tile, w.data(), out.field_data(b));
          continue;
        }
        for (int k = static_cast<int>(clip.lo[2] - base[2]);
             k < static_cast<int>(clip.hi[2] - base[2]); ++k)
          for (int j = static_cast<int>(clip.lo[1] - base[1]);
               j < static_cast<int>(clip.hi[1] - base[1]); ++j)
            for (int i = static_cast<int>(clip.lo[0] - base[0]);
                 i < static_cast<int>(clip.hi[0] - base[0]); ++i) {
              double acc = 0.0;
              int at = 0;
              for (int dz = -2; dz <= 2; ++dz)
                for (int dy = -2; dy <= 2; ++dy)
                  for (int dx = -2; dx <= 2; ++dx)
                    acc += w[static_cast<std::size_t>(at++)] *
                           in.at(b, k + dz, j + dy, i + dx);
              out.at(b, k, j, i) = acc;
            }
      }
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

/// Pointer-core 125-point row kernel (same sharing).
void apply125_rows(const Box<3>& ib, const double* __restrict ibase,
                   const Box<3>& ob, double* __restrict obase,
                   const Box<3>& out_cells) {
  if (out_cells.empty()) return;
  const auto& w = Stencil125::taps();
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
  std::vector<double> acc;
  acc.reserve(static_cast<std::size_t>(nx));
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
      // Taps outer, cells inner: vectorizes across the row while keeping
      // each cell's partial sums in ascending tap order (the naive FP
      // order).
      acc.assign(static_cast<std::size_t>(nx), 0.0);
      double* __restrict a = acc.data();
      int t = 0;
      for (int zy = 0; zy < 25; ++zy)
        for (int dx = 0; dx < 5; ++dx) {
          const double wt = w[static_cast<std::size_t>(t++)];
          const double* __restrict p = rows[zy] + dx;
          for (std::int64_t x = 0; x < nx; ++x) a[x] += wt * p[x];
        }
      for (std::int64_t x = 0; x < nx; ++x) orow[x] = a[x];
    }
}

}  // namespace

void engine_apply7_array(const CellArray3& in, CellArray3& out,
                         const Box<3>& out_cells) {
  apply7_rows(in.box(), in.raw().data(), out.box(), out.raw().data(),
              out_cells);
}

void engine_apply125_array(const CellArray3& in, CellArray3& out,
                           const Box<3>& out_cells) {
  apply125_rows(in.box(), in.raw().data(), out.box(), out.raw().data(),
                out_cells);
}

void engine_apply7_span(const Box<3>& frame, const double* in, double* out,
                        const Box<3>& out_cells) {
  apply7_rows(frame, in, frame, out, out_cells);
}

void engine_apply125_span(const Box<3>& frame, const double* in, double* out,
                          const Box<3>& out_cells) {
  apply125_rows(frame, in, frame, out, out_cells);
}

}  // namespace brickx::stencil
