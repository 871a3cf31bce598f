#include "stencil/kernel_engine.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <utility>

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
/// Every helper on a kernel's per-brick or per-row path is forced inline,
/// for two reasons. The gather helpers run once or more per brick on spans
/// of a few rows, and as calls they cost more than the copies. And the
/// AVX2 clone (below) compiles a kernel's call tree at its own target only
/// through inlining: a helper left out of line is baseline code.
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
[[gnu::always_inline]] inline void gather_cube(const Brick<BK, BJ, BI>& in,
                                               std::int64_t b, const Box<3>& c,
                                               double* tile) {
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
[[gnu::always_inline]] inline void gather_star(const Brick<BK, BJ, BI>& in,
                                               std::int64_t b, const Box<3>& c,
                                               double* __restrict tile) {
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
[[gnu::always_inline]] inline void compute7_tile(const double* __restrict tile,
                                                 double* __restrict o,
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
[[gnu::always_inline]] inline void compute125_tile(
    const double* __restrict tile, const double* __restrict w,
    double* __restrict o, const Box<3>& c) {
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
[[gnu::always_inline]] inline void compute7_tile_simd(
    const double* __restrict tile, double* __restrict o, const Box<3>& c) {
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

/// The class of tap (dy, dx) (each in [0, 5), offset + 2) within one dz
/// plane of the 125-point cube: the sorted (|dy|, |dx|) pair, numbered
/// 00, 01, 11, 02, 12, 22. Stencil125's coefficient depends only on the
/// sorted offset triple, so a plane's 25 taps take at most these 6 values.
constexpr int plane_class(int dy, int dx) {
  int a = dy < 2 ? 2 - dy : dy - 2, b = dx < 2 ? 2 - dx : dx - 2;
  if (a > b) std::swap(a, b);
  constexpr int lut[3][3] = {{0, 1, 3}, {-1, 2, 4}, {-1, -1, 5}};
  return lut[a][b];
}

/// The 125 taps as [dz][plane class]: each value is bit-for-bit the
/// Stencil125::taps() entry of every tap in its class (checked once).
using PlaneTaps = std::array<std::array<double, 6>, 5>;

const PlaneTaps& plane_taps() {
  static const PlaneTaps p = [] {
    const auto& w = Stencil125::taps();
    PlaneTaps q{};
    auto slot = [&q](std::size_t t) -> double& {
      return q[t / 25][static_cast<std::size_t>(
          plane_class(static_cast<int>(t / 5 % 5), static_cast<int>(t % 5)))];
    };
    for (std::size_t t = 0; t < w.size(); ++t) slot(t) = w[t];
    for (std::size_t t = 0; t < w.size(); ++t)
      BX_CHECK(slot(t) == w[t], "125-point taps not symmetric in dy and dx");
    return q;
  }();
  return p;
}

/// One dz plane's six tap values, broadcast once per plane and then held
/// in registers: the 125-point kernels pick a tap's vector by its
/// compile-time class (their dy and dx loops unroll fully) instead of
/// broadcasting it from memory at every tap, so a tap costs one load per
/// accumulator and no more. With the per-tap broadcast, the AVX2 brick-8
/// tile ran 1.8x its quiet time in the slow periods of a shared host
/// (outside load that a register-only loop barely felt); without it,
/// 1.3x (DESIGN.md §16). Named members, not an array: GCC 12 reports an
/// array of broadcasts as maybe-uninitialized once inlined into the AVX2
/// clone.
template <int W>
struct PlaneRegs {
  using V = simd::DVec<W>;
  V w0, w1, w2, w3, w4, w5;

  [[gnu::always_inline]] explicit PlaneRegs(const std::array<double, 6>& p)
      : w0(V::broadcast(p[0])),
        w1(V::broadcast(p[1])),
        w2(V::broadcast(p[2])),
        w3(V::broadcast(p[3])),
        w4(V::broadcast(p[4])),
        w5(V::broadcast(p[5])) {}
  /// Tap (dy, dx) of the plane, each in [0, 5).
  [[gnu::always_inline]] V at(int dy, int dx) const {
    switch (plane_class(dy, dx)) {
      case 0:
        return w0;
      case 1:
        return w1;
      case 2:
        return w2;
      case 3:
        return w3;
      case 4:
        return w4;
      default:
        return w5;
    }
  }
};

/// NR consecutive 125-point output rows at full brick width, from the
/// tile row `t0` under the first one's (dz, dy) = (0, 0) tap: taps outer,
/// lanes inner, every accumulator in a register across all 125 taps, each
/// plane's taps in registers (PlaneRegs).
template <int BJ, int BI, int W, int NR>
[[gnu::always_inline]] inline void rows125_simd(const double* __restrict t0,
                                                const PlaneTaps& taps,
                                                double* __restrict o) {
  using V = simd::DVec<W>;
  constexpr int SJ = BJ + 4, SI = BI + 4, NV = BI / W;
  V a[NR][NV];
  for (auto& row : a)
    for (V& v : row) v = V::zero();
  for (int dz = 0; dz < 5; ++dz) {
    const PlaneRegs<W> wt(taps[static_cast<std::size_t>(dz)]);
#pragma GCC unroll 5
    for (int dy = 0; dy < 5; ++dy) {
      const double* __restrict p = t0 + (dz * SJ + dy) * SI;
#pragma GCC unroll 5
      for (int dx = 0; dx < 5; ++dx)
        for (int r = 0; r < NR; ++r)
          for (int u = 0; u < NV; ++u)
            a[r][u] += wt.at(dy, dx) * V::loadu(p + r * SI + dx + u * W);
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
[[gnu::always_inline]] inline void compute125_tile_simd(
    const double* __restrict tile, const PlaneTaps& taps,
    double* __restrict o, const Box<3>& c) {
  static_assert(BI % W == 0, "guarded by the dispatcher");
  constexpr int SJ = BJ + 4, SI = BI + 4;
  for (int k = static_cast<int>(c.lo[2]); k < c.hi[2]; ++k) {
    int j = static_cast<int>(c.lo[1]);
    for (; j + 1 < c.hi[1]; j += 2)
      rows125_simd<BJ, BI, W, 2>(tile + (k * SJ + j) * SI, taps,
                                 o + (k * BJ + j) * BI);
    if (j < c.hi[1])
      rows125_simd<BJ, BI, W, 1>(tile + (k * SJ + j) * SI, taps,
                                 o + (k * BJ + j) * BI);
  }
}

/// Call `f(b, c)` for every brick `b` in the brick-grid range `gr` of
/// `out_cells`, with `c` the brick's overlap with `out_cells` in
/// brick-local coordinates.
template <int BK, int BJ, int BI, typename F>
[[gnu::always_inline]] inline void for_each_clip(const BrickDecomp<3>& dec,
                                                 const Box<3>& gr,
                                                 const Box<3>& out_cells,
                                                 F&& f) {
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
[[gnu::always_inline]] inline void store_rows(double* dst, const Box<3>& c,
                                              double* scratch, F&& rows) {
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

/// A brick kernel's whole call: the brick-grid range of `out_cells`, then
/// per visited brick its halo-tile gather and its clip's rows at width W.
/// The body of engine_apply7_simd, and of the AVX2 clone at W = 4.
template <int BK, int BJ, int BI, int W>
[[gnu::always_inline]] inline void apply7_tiles(const BrickDecomp<3>& dec,
                                                const Brick<BK, BJ, BI>& out,
                                                const Brick<BK, BJ, BI>& in,
                                                const Box<3>& out_cells) {
  const Box<3> gr = dec.brick_grid_range(out_cells);
  if (gr.empty()) return;
  const bool vec = simd_dispatch<BK, BJ, BI, W>(out);
  // Zeroed once: a clipped brick's full-width rows read tile cells its
  // gather skipped, for lanes that are never stored.
  alignas(simd::kAlign) double tile[(BK + 2) * (BJ + 2) * (BI + 2)] = {};
  alignas(simd::kAlign) double scratch[BK * BJ * BI] = {};
  for_each_clip<BK, BJ, BI>(
      dec, gr, out_cells,
      [&] [[gnu::always_inline]] (std::int64_t b, const Box<3>& c) {
        gather_star<BK, BJ, BI>(in, b, c, tile);
        store_rows<BK, BJ, BI>(
            out.field_data(b), c, scratch,
            [&] [[gnu::always_inline]] (double* o) {
              if constexpr (W > 1 && BI % W == 0) {
                if (vec) return compute7_tile_simd<BK, BJ, BI, W>(tile, o, c);
              }
              compute7_tile<BK, BJ, BI>(tile, o, c);
            });
      });
}

/// The 125-point counterpart of apply7_tiles.
template <int BK, int BJ, int BI, int W>
[[gnu::always_inline]] inline void apply125_tiles(
    const BrickDecomp<3>& dec, const Brick<BK, BJ, BI>& out,
    const Brick<BK, BJ, BI>& in, const Box<3>& out_cells) {
  static_assert(BK >= 2 && BJ >= 2 && BI >= 2,
                "brick extents must cover the radius-2 neighborhood");
  const Box<3> gr = dec.brick_grid_range(out_cells);
  if (gr.empty()) return;
  const bool vec = simd_dispatch<BK, BJ, BI, W>(out);
  const double* w = Stencil125::taps().data();
  const PlaneTaps& taps = plane_taps();
  // Zeroed once, as for the 7-point tile.
  alignas(simd::kAlign) double tile[(BK + 4) * (BJ + 4) * (BI + 4)] = {};
  alignas(simd::kAlign) double scratch[BK * BJ * BI] = {};
  for_each_clip<BK, BJ, BI>(
      dec, gr, out_cells,
      [&] [[gnu::always_inline]] (std::int64_t b, const Box<3>& c) {
        gather_cube<BK, BJ, BI, 2>(in, b, c, tile);
        store_rows<BK, BJ, BI>(
            out.field_data(b), c, scratch,
            [&] [[gnu::always_inline]] (double* o) {
              if constexpr (W > 1 && BI % W == 0) {
                if (vec)
                  return compute125_tile_simd<BK, BJ, BI, W>(tile, taps, o,
                                                             c);
              }
              compute125_tile<BK, BJ, BI>(tile, w, o, c);
            });
      });
}

/// W cells of a 7-point array row from x: the naive expression, one cell
/// per lane. W = 1 is the scalar tail.
template <int W>
[[gnu::always_inline]] inline void cells7(
    const double* __restrict r0, const double* __restrict ym,
    const double* __restrict yp, const double* __restrict zm,
    const double* __restrict zp, std::int64_t x, double* __restrict orow) {
  using V = simd::DVec<W>;
  const auto& c = Stencil7::c;
  const V r = V::broadcast(c[0]) * V::loadu(r0 + x) +
              V::broadcast(c[1]) * V::loadu(r0 + x - 1) +
              V::broadcast(c[2]) * V::loadu(r0 + x + 1) +
              V::broadcast(c[3]) * V::loadu(ym + x) +
              V::broadcast(c[4]) * V::loadu(yp + x) +
              V::broadcast(c[5]) * V::loadu(zm + x) +
              V::broadcast(c[6]) * V::loadu(zp + x);
  r.storeu(orow + x);
}

/// Pointer-core 7-point row kernel shared by the CellArray3 and the
/// multi-field span entry points: `ibase`/`obase` are frame-shaped
/// lexicographic slabs over `ib`/`ob`. Rows run W cells at a time, then a
/// scalar tail.
template <int W>
[[gnu::always_inline]] inline void apply7_rows(const Box<3>& ib,
                                               const double* __restrict ibase,
                                               const Box<3>& ob,
                                               double* __restrict obase,
                                               const Box<3>& out_cells) {
  if (out_cells.empty()) return;
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
      std::int64_t x = 0;
      for (; x + W <= nx; x += W) cells7<W>(r0, ym, yp, zm, zp, x, orow);
      for (; x < nx; ++x) cells7<1>(r0, ym, yp, zm, zp, x, orow);
    }
}

/// N vectors of W cells of a 125-point array row from x, each accumulator
/// in a register across all 125 taps, each plane's taps in registers
/// (PlaneRegs). `rows` holds the 25 (dz, dy) row base pointers, each
/// positioned two cells before x = 0. The loops over the N accumulators
/// must unroll fully, or `a` stays an array in memory: at -O2 GCC unrolls
/// a loop of two on its own but not one of four.
template <int W, int N>
[[gnu::always_inline]] inline void block125(const double* const* rows,
                                            const PlaneTaps& taps,
                                            std::int64_t x,
                                            double* __restrict orow) {
  using V = simd::DVec<W>;
  V a[N];
#pragma GCC unroll 4
  for (V& v : a) v = V::zero();
  for (int dz = 0; dz < 5; ++dz) {
    const PlaneRegs<W> wt(taps[static_cast<std::size_t>(dz)]);
#pragma GCC unroll 5
    for (int dy = 0; dy < 5; ++dy) {
      const double* __restrict p = rows[dz * 5 + dy] + x;
#pragma GCC unroll 5
      for (int dx = 0; dx < 5; ++dx)
#pragma GCC unroll 4
        for (int u = 0; u < N; ++u)
          a[u] += wt.at(dy, dx) * V::loadu(p + dx + u * W);
    }
  }
#pragma GCC unroll 4
  for (int u = 0; u < N; ++u) a[u].storeu(orow + x + u * W);
}

/// Pointer-core 125-point row kernel (same sharing). Each row runs in
/// blocks of 4·W cells, four DVec<W> accumulators per block, as the brick
/// tiles do; then in single-vector blocks of W, so a row shorter than 4·W
/// still runs vectorized; then the last nx mod W cells one by one. Each
/// accumulates every cell in ascending dz-dy-dx tap order, the naive FP
/// order, so every width is bit-identical to apply125_array_naive.
template <int W>
[[gnu::always_inline]] inline void apply125_rows(
    const Box<3>& ib, const double* __restrict ibase, const Box<3>& ob,
    double* __restrict obase, const Box<3>& out_cells) {
  if (out_cells.empty()) return;
  const PlaneTaps& taps = plane_taps();
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
      for (; x + 4 * W <= nx; x += 4 * W) block125<W, 4>(rows, taps, x, orow);
      for (; x + W <= nx; x += W) block125<W, 1>(rows, taps, x, orow);
      for (; x < nx; ++x) block125<1, 1>(rows, taps, x, orow);
    }
}

#if BRICKX_SIMD_DISPATCH
// The AVX2 clone (DESIGN.md §16). Each function below compiles one kernel
// family's whole call tree at width 4 for AVX2: every helper it calls in
// this file is forced inline, so it takes this target, while what stays out
// of line (the storage guard, diagnostics, the library) is baseline code.
// The target enables no FMA, so each lane rounds exactly as the naive
// kernels do. The functions have internal linkage and are reached only
// through the runtime_width() checks in the entry points, so no code shared
// with another translation unit is ever AVX code (ctest simd_isa_guard).
template <int BK, int BJ, int BI>
[[gnu::target("avx2")]] void apply7_avx2(const BrickDecomp<3>& dec,
                                         const Brick<BK, BJ, BI>& out,
                                         const Brick<BK, BJ, BI>& in,
                                         const Box<3>& out_cells) {
  apply7_tiles<BK, BJ, BI, 4>(dec, out, in, out_cells);
}

template <int BK, int BJ, int BI>
[[gnu::target("avx2")]] void apply125_avx2(const BrickDecomp<3>& dec,
                                           const Brick<BK, BJ, BI>& out,
                                           const Brick<BK, BJ, BI>& in,
                                           const Box<3>& out_cells) {
  apply125_tiles<BK, BJ, BI, 4>(dec, out, in, out_cells);
}

[[gnu::target("avx2")]] void apply7_rows_avx2(const Box<3>& ib,
                                              const double* ibase,
                                              const Box<3>& ob, double* obase,
                                              const Box<3>& out_cells) {
  apply7_rows<4>(ib, ibase, ob, obase, out_cells);
}

[[gnu::target("avx2")]] void apply125_rows_avx2(const Box<3>& ib,
                                                const double* ibase,
                                                const Box<3>& ob,
                                                double* obase,
                                                const Box<3>& out_cells) {
  apply125_rows<4>(ib, ibase, ob, obase, out_cells);
}
#endif

/// The array kernels' dispatch: the AVX2 clone when runtime_width()
/// selected it, else the build's own rows (the 7-point ones scalar).
void rows7(const Box<3>& ib, const double* ibase, const Box<3>& ob,
           double* obase, const Box<3>& out_cells) {
#if BRICKX_SIMD_DISPATCH
  if (simd::runtime_width() == 4)
    return apply7_rows_avx2(ib, ibase, ob, obase, out_cells);
#endif
  apply7_rows<1>(ib, ibase, ob, obase, out_cells);
}

void rows125(const Box<3>& ib, const double* ibase, const Box<3>& ob,
             double* obase, const Box<3>& out_cells) {
#if BRICKX_SIMD_DISPATCH
  if (simd::runtime_width() == 4)
    return apply125_rows_avx2(ib, ibase, ob, obase, out_cells);
#endif
  apply125_rows<simd::kActiveWidth>(ib, ibase, ob, obase, out_cells);
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
  apply7_tiles<BK, BJ, BI, W>(dec, out, in, out_cells);
}

template <int BK, int BJ, int BI, int W>
void engine_apply125_simd(const BrickDecomp<3>& dec,
                          const Brick<BK, BJ, BI>& out,
                          const Brick<BK, BJ, BI>& in,
                          const Box<3>& out_cells) {
  apply125_tiles<BK, BJ, BI, W>(dec, out, in, out_cells);
}

template <int BK, int BJ, int BI>
void engine_apply7(const BrickDecomp<3>& dec, const Brick<BK, BJ, BI>& out,
                   const Brick<BK, BJ, BI>& in, const Box<3>& out_cells) {
#if BRICKX_SIMD_DISPATCH
  if (simd::runtime_width() == 4)
    return apply7_avx2<BK, BJ, BI>(dec, out, in, out_cells);
#endif
  engine_apply7_simd<BK, BJ, BI, simd::kActiveWidth>(dec, out, in, out_cells);
}

template <int BK, int BJ, int BI>
void engine_apply125(const BrickDecomp<3>& dec, const Brick<BK, BJ, BI>& out,
                     const Brick<BK, BJ, BI>& in, const Box<3>& out_cells) {
#if BRICKX_SIMD_DISPATCH
  if (simd::runtime_width() == 4)
    return apply125_avx2<BK, BJ, BI>(dec, out, in, out_cells);
#endif
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

template <int W>
void engine_apply7_array_simd(const CellArray3& in, CellArray3& out,
                              const Box<3>& out_cells) {
  apply7_rows<W>(in.box(), in.raw().data(), out.box(), out.raw().data(),
                 out_cells);
}

template <int W>
void engine_apply125_array_simd(const CellArray3& in, CellArray3& out,
                                const Box<3>& out_cells) {
  apply125_rows<W>(in.box(), in.raw().data(), out.box(), out.raw().data(),
                   out_cells);
}

#define BRICKX_INSTANTIATE_ARRAY_W(W)                                      \
  template void engine_apply7_array_simd<W>(const CellArray3&, CellArray3&, \
                                            const Box<3>&);                \
  template void engine_apply125_array_simd<W>(const CellArray3&,           \
                                              CellArray3&, const Box<3>&);

BRICKX_INSTANTIATE_ARRAY_W(1)
BRICKX_INSTANTIATE_ARRAY_W(2)
BRICKX_INSTANTIATE_ARRAY_W(4)
BRICKX_INSTANTIATE_ARRAY_W(8)

#undef BRICKX_INSTANTIATE_ARRAY_W

void engine_apply7_array(const CellArray3& in, CellArray3& out,
                         const Box<3>& out_cells) {
  rows7(in.box(), in.raw().data(), out.box(), out.raw().data(), out_cells);
}

void engine_apply125_array(const CellArray3& in, CellArray3& out,
                           const Box<3>& out_cells) {
  rows125(in.box(), in.raw().data(), out.box(), out.raw().data(), out_cells);
}

void engine_apply7_span(const Box<3>& frame, const double* in, double* out,
                        const Box<3>& out_cells) {
  rows7(frame, in, frame, out, out_cells);
}

void engine_apply125_span(const Box<3>& frame, const double* in, double* out,
                          const Box<3>& out_cells) {
  rows125(frame, in, frame, out, out_cells);
}

}  // namespace brickx::stencil
