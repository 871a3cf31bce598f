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
///  2. Interior/boundary split: a brick fully covered by `out_cells` whose
///     required neighbors all exist resolves its neighbor-brick base
///     pointers once (BrickInfo::adjacent), gathers the radius-r halo into
///     a contiguous stack tile, and runs a flat `double* __restrict`
///     triple loop with constant trip counts — no proxy chain, no
///     per-access adjacency branch. Partially covered (or frame-edge)
///     bricks keep the clipped per-access `.at()` path.
///  3. Row-pointer array kernels: the lexicographic (CellArray3) kernels
///     hoist per-(z, y) row base pointers out of the contiguous x loop.

/// Fast 7-point / 125-point brick kernels; drop-in replacements for the
/// naive apply7_bricks / apply125_bricks bodies (stencils.cc delegates
/// here). Bit-identical to the naive kernels by construction; verified by
/// tests/stencil_kernel_test.cc. These dispatch the interior tiles to the
/// explicit-SIMD path at simd::kActiveWidth (DESIGN.md §16); the
/// forced-width *_simd variants below expose every width for differential
/// testing and the width axis of BENCH_kernels.json.
template <int BK, int BJ, int BI>
void engine_apply7(const BrickDecomp<3>& dec, const Brick<BK, BJ, BI>& out,
                   const Brick<BK, BJ, BI>& in, const Box<3>& out_cells);

template <int BK, int BJ, int BI>
void engine_apply125(const BrickDecomp<3>& dec, const Brick<BK, BJ, BI>& out,
                     const Brick<BK, BJ, BI>& in, const Box<3>& out_cells);

/// --- Explicit-SIMD tier (DESIGN.md §16) ---
///
/// Forced-width engine entry points: identical structure to engine_apply7 /
/// engine_apply125, but the interior tile compute runs tap-outer /
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
/// `out_cells`.
void engine_apply7_array(const CellArray3& in, CellArray3& out,
                         const Box<3>& out_cells);
void engine_apply125_array(const CellArray3& in, CellArray3& out,
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
