#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/vec.h"
#include "core/brick.h"
#include "core/cell_array.h"
#include "core/decomp.h"

namespace brickx::stencil {

/// The paper's two proxy stencils (Section 7):
///  * a star-shaped 7-point stencil, arithmetic intensity 8/16 flop/byte;
///  * a 5^3 cube-shaped 125-point stencil with 10 constant coefficients
///    (by symmetry class of sorted |offset|), AI 139/16 flop/byte.

struct Stencil7 {
  static constexpr int kRadius = 1;
  /// Flops per output point, as the paper's AI counts them.
  static constexpr double kFlops = 8.0;
  /// c[0] center, c[1..6] the -x,+x,-y,+y,-z,+z points. Chosen to sum to 1
  /// (a damped diffusion step) so long runs stay bounded.
  static constexpr std::array<double, 7> c = {
      0.4, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1};
};

struct Stencil125 {
  static constexpr int kRadius = 2;
  static constexpr double kFlops = 139.0;
  /// Coefficient for offset class (|dx|,|dy|,|dz|) sorted ascending:
  /// the 10 classes of a 5^3 cube are 000,001,011,111,002,012,112,022,122,222.
  /// Involves a sort + LUT walk per call — kernels must read taps() instead
  /// of calling this per tap in their inner loops.
  static double coeff(int dz, int dy, int dx);
  /// Raw class weights (normalized so the 125 taps sum to 1).
  static const std::array<double, 10>& weights();
  /// All 125 tap coefficients of the 5^3 cube in dz-dy-dx order (dz
  /// slowest), precomputed once: taps()[((dz+2)*5 + (dy+2))*5 + (dx+2)]
  /// == coeff(dz, dy, dx).
  static const std::array<double, 125>& taps();
};

/// Apply the 7-point stencil over bricked storage: for every brick of `dec`
/// that overlaps `out_cells` (subdomain-local cell coordinates, ghost
/// coordinates allowed), compute the covered cells from `in` into `out`.
/// Cross-brick reads resolve through the adjacency indirection, so the
/// physical brick order — the layout — is irrelevant to the result.
/// Runs the fast-path kernel engine (brick-range pruning + one halo-tile
/// path for every brick, DESIGN.md §10); bit-identical to
/// apply7_bricks_naive.
template <int BK, int BJ, int BI>
void apply7_bricks(const BrickDecomp<3>& dec, const Brick<BK, BJ, BI>& out,
                   const Brick<BK, BJ, BI>& in, const Box<3>& out_cells);

/// Same for the 125-point stencil (radius 2; requires ghost width >= 2 and
/// brick extents >= 2 so neighbors stay within adjacent bricks).
template <int BK, int BJ, int BI>
void apply125_bricks(const BrickDecomp<3>& dec, const Brick<BK, BJ, BI>& out,
                     const Brick<BK, BJ, BI>& in, const Box<3>& out_cells);

/// The original per-access kernels: iterate every allocated brick, clip it
/// against `out_cells`, and resolve all taps through Brick::at(). Kept as
/// the reference implementations the fast engine is differentially tested
/// against (tests/stencil_kernel_test.cc) and as the naive side of the
/// micro_kernels perf trajectory.
template <int BK, int BJ, int BI>
void apply7_bricks_naive(const BrickDecomp<3>& dec,
                         const Brick<BK, BJ, BI>& out,
                         const Brick<BK, BJ, BI>& in, const Box<3>& out_cells);
template <int BK, int BJ, int BI>
void apply125_bricks_naive(const BrickDecomp<3>& dec,
                           const Brick<BK, BJ, BI>& out,
                           const Brick<BK, BJ, BI>& in,
                           const Box<3>& out_cells);

/// Lexicographic-array kernels (the YASK/MPI_Types baselines and the
/// reference): compute `out_cells` of `out` from `in`; both arrays must
/// cover out_cells expanded by the stencil radius. Fast row-pointer loops;
/// bit-identical to the *_naive per-cell versions below.
void apply7_array(const CellArray3& in, CellArray3& out,
                  const Box<3>& out_cells);
void apply125_array(const CellArray3& in, CellArray3& out,
                    const Box<3>& out_cells);

/// The original for_each + Vec3-arithmetic array kernels (reference side
/// of the differential tests and the micro_kernels array trajectory).
void apply7_array_naive(const CellArray3& in, CellArray3& out,
                        const Box<3>& out_cells);
void apply125_array_naive(const CellArray3& in, CellArray3& out,
                          const Box<3>& out_cells);

/// Span variants over non-owning `frame`-shaped buffers (one field slab of
/// an ArrayFields allocation): same fast row-pointer cores as apply7_array
/// / apply125_array, so bit-identical to them. `in` and `out` are both laid
/// out like a CellArray3 over `frame` (axis 0 fastest).
void apply7_span(const Box<3>& frame, const double* in, double* out,
                 const Box<3>& out_cells);
void apply125_span(const Box<3>& frame, const double* in, double* out,
                   const Box<3>& out_cells);

/// Per-cell reference versions of the span kernels (expressions identical
/// to the *_array_naive kernels; differential side for the span paths).
void apply7_span_naive(const Box<3>& frame, const double* in, double* out,
                       const Box<3>& out_cells);
void apply125_span_naive(const Box<3>& frame, const double* in, double* out,
                         const Box<3>& out_cells);

/// Evolve a fully periodic global domain `steps` times with the 7-point
/// (radius 1) or 125-point kernel — the ground truth distributed runs are
/// validated against. `field` is wrapped at the box edges.
void evolve_reference(CellArray3& field, int steps, bool use125);

/// Cells computed for timestep `s` (0-based) since the last exchange, under
/// ghost-cell expansion with ghost width `g` and stencil radius `r`:
/// the subdomain grown by the remaining valid margin g - (s+1)*r.
template <int D>
Box<D> expansion_output_box(const Vec<D>& domain, std::int64_t g,
                            std::int64_t r, std::int64_t s);

/// Number of timesteps one exchange covers: floor(g / r).
constexpr std::int64_t steps_per_exchange(std::int64_t g, std::int64_t r) {
  return g / r;
}

/// Onion decomposition: the part of `whole` not covered by `inner`, as up
/// to 2*D disjoint slabs. `inner` must be contained in `whole`. Used to
/// split a timestep into an interior (computable while the exchange is in
/// flight) and the ghost-dependent shell.
template <int D>
std::vector<Box<D>> shell_boxes(const Box<D>& whole, const Box<D>& inner);

}  // namespace brickx::stencil
