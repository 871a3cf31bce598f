#pragma once

#include <cstddef>
#include <cstdint>

#include "common/simd.h"
#include "common/vec.h"
#include "core/brick.h"
#include "core/cell_array.h"
#include "core/decomp.h"

namespace brickx::stencil {

/// The fast-path stencil kernel engine (DESIGN.md §10).
///
/// Three structural optimizations over the naive per-access kernels, all
/// bit-identical to them (the per-cell accumulation order — dz slowest,
/// dx fastest — is preserved exactly):
///
///  1. Brick-range pruning: the brick-grid range intersecting `out_cells`
///     is derived arithmetically (BrickDecomp::brick_grid_range), so only
///     overlapping bricks are visited instead of every allocated brick of
///     the decomposition.
///  2. One tile path: every visited brick, whole or clipped, resolves its
///     neighbor-brick base pointers once (BrickInfo::adjacent) and gathers
///     into a contiguous stack tile only what its clip's radius-r halo
///     reads — the 6 faces for the 7-point star, the touched part of the
///     27 for the 125-point cube. The gather is the frame check: a halo
///     that needs an unallocated brick throws "stencil reached past the
///     allocated ghost zone", as Brick::at does in the naive kernels. A
///     flat `double* __restrict` loop then computes the clip's z-y rows at
///     full brick width, in place when the clip spans whole rows and
///     through a B^3 stack scratch (copying only the clipped x range)
///     when it does not.
///  3. Row-pointer array kernels: the lexicographic (CellArray3) kernels
///     hoist per-(z, y) row base pointers out of the contiguous x loop;
///     the 125-point one keeps 4·W cells' accumulators in DVec<W>
///     registers across all 125 taps (DESIGN.md §16).
///
/// Every entry point below that has no W parameter runs at
/// simd::runtime_width(): in a BRICKX_SIMD_DISPATCH build on a CPU with
/// AVX2 it routes to an internal AVX2 clone at width 4, else it runs the
/// build's own code at simd::kActiveWidth (DESIGN.md §16). Both are
/// bit-identical to the naive kernels.

/// Fast 7-point / 125-point brick kernels; drop-in replacements for the
/// naive apply7_bricks / apply125_bricks bodies (stencils.cc delegates
/// here). Bit-identical to the naive kernels by construction; verified by
/// tests/stencil_kernel_test.cc. These run the tile compute on the
/// explicit-SIMD path at simd::runtime_width() (DESIGN.md §16); the
/// forced-width *_simd variants below expose every width of the build's
/// own code for differential testing.
template <int BK, int BJ, int BI>
void engine_apply7(const BrickDecomp<3>& dec, const Brick<BK, BJ, BI>& out,
                   const Brick<BK, BJ, BI>& in, const Box<3>& out_cells);

template <int BK, int BJ, int BI>
void engine_apply125(const BrickDecomp<3>& dec, const Brick<BK, BJ, BI>& out,
                     const Brick<BK, BJ, BI>& in, const Box<3>& out_cells);

/// --- Explicit-SIMD tier (DESIGN.md §16) ---
///
/// Forced-width engine entry points: identical structure to engine_apply7 /
/// engine_apply125, but the tile compute runs tap-outer /
/// lane-inner vector loops of `W` doubles (one output cell per lane, so
/// each cell's dz-dy-dx accumulation order — and therefore every result
/// bit — matches the naive kernels). `W == 1` is exactly the scalar fast
/// path. When the storage cannot support width-W aligned stores
/// (simd_storage_reason below), the call falls back to the scalar fast
/// tiles after a one-line diagnostic (once per process) — never UB.
/// Instantiated for brick sizes {4, 8}^3 at widths {1, 2, 4, 8}; widths
/// the hardware lacks are compiler-emulated, so all are testable anywhere.
template <int BK, int BJ, int BI, int W>
void engine_apply7_simd(const BrickDecomp<3>& dec,
                        const Brick<BK, BJ, BI>& out,
                        const Brick<BK, BJ, BI>& in, const Box<3>& out_cells);

template <int BK, int BJ, int BI, int W>
void engine_apply125_simd(const BrickDecomp<3>& dec,
                          const Brick<BK, BJ, BI>& out,
                          const Brick<BK, BJ, BI>& in,
                          const Box<3>& out_cells);

/// The alignment guard's predicate, exposed for unit tests: why width-`w`
/// vector stores into brick rows of `row_elems` doubles at field element
/// offset `elem_offset` over a buffer at `base` (brick stride
/// `brick_bytes`, chunk padding granularity `page_bytes`, 0 when packed)
/// are NOT safe — or nullptr when they are. `w == 1` is always safe.
const char* simd_storage_reason(const void* base, std::size_t brick_bytes,
                                std::size_t page_bytes,
                                std::int64_t row_elems,
                                std::int64_t elem_offset, int w);

/// Convenience wrapper over a Brick accessor's actual storage.
template <int BK, int BJ, int BI>
const char* simd_brick_reason(const Brick<BK, BJ, BI>& br, int w) {
  return simd_storage_reason(br.storage().data(), br.storage().brick_bytes(),
                             br.storage().page_size(), BI, br.elem_offset(),
                             w);
}

/// Fast lexicographic-array kernels (row-pointer inner loops). `in` must
/// cover `out_cells` expanded by the stencil radius; `out` must cover
/// `out_cells`. The 125-point one (and its span variant) runs the
/// register-blocked rows at simd::runtime_width(); the 7-point one runs
/// width-4 rows in the AVX2 clone and scalar rows otherwise.
void engine_apply7_array(const CellArray3& in, CellArray3& out,
                         const Box<3>& out_cells);
void engine_apply125_array(const CellArray3& in, CellArray3& out,
                           const Box<3>& out_cells);

/// Forced-width array kernels. The 7-point rows run W cells at a time,
/// then a scalar tail. The 125-point rows run in blocks of 4·W cells held
/// in DVec<W> registers across all 125 taps, then in single-vector blocks
/// of W, then a scalar tail. Each cell keeps the naive expression order,
/// so both are bit-identical to the naive kernels at every width. Output
/// rows need no alignment (unaligned stores). Instantiated for W in
/// {1, 2, 4, 8}.
template <int W>
void engine_apply7_array_simd(const CellArray3& in, CellArray3& out,
                              const Box<3>& out_cells);
template <int W>
void engine_apply125_array_simd(const CellArray3& in, CellArray3& out,
                                const Box<3>& out_cells);

/// Span variants of the array kernels for multi-field slabs (ArrayFields):
/// `in` and `out` are both `frame`-shaped lexicographic buffers (axis 0
/// fastest) that do NOT own their memory — e.g. one field slab of an
/// ArrayFields allocation. Same row-pointer cores as the CellArray3
/// kernels, so bit-identical to them (and to the naive kernels) over the
/// same boxes.
void engine_apply7_span(const Box<3>& frame, const double* in, double* out,
                        const Box<3>& out_cells);
void engine_apply125_span(const Box<3>& frame, const double* in, double* out,
                          const Box<3>& out_cells);

}  // namespace brickx::stencil
