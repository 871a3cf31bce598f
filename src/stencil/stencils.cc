#include "stencil/stencils.h"

#include <algorithm>

#include "common/error.h"
#include "stencil/kernel_engine.h"

namespace brickx::stencil {

namespace {

/// Class index of sorted (|a| <= |b| <= |c|) offsets over {0,1,2}:
/// enumerates the 10 multisets in a fixed order.
int symmetry_class(int dz, int dy, int dx) {
  int a = std::abs(dx), b = std::abs(dy), c = std::abs(dz);
  if (a > b) std::swap(a, b);
  if (b > c) std::swap(b, c);
  if (a > b) std::swap(a, b);
  // c is the largest after sorting; reject before indexing the LUT.
  BX_CHECK(c <= 2, "offset outside the 5^3 cube");
  // Perfect hash over sorted triples from {0,1,2}.
  static constexpr int lut[3][3][3] = {
      // a == 0
      {{0, 1, 4}, {-1, 2, 5}, {-1, -1, 7}},
      // a == 1
      {{-1, -1, -1}, {-1, 3, 6}, {-1, -1, 8}},
      // a == 2
      {{-1, -1, -1}, {-1, -1, -1}, {-1, -1, 9}},
  };
  const int cls = lut[a][b][c];
  BX_CHECK(cls >= 0, "offset outside the 5^3 cube");
  return cls;
}

}  // namespace

const std::array<double, 10>& Stencil125::weights() {
  // Multiplicity of each class within the 5^3 cube:
  // 000:1 001:6 011:12 111:8 002:6 012:24 112:24 022:12 122:24 222:8 = 125.
  static const std::array<double, 10> w = [] {
    std::array<double, 10> raw = {0.20, 0.08, 0.04, 0.02,
                                  0.015, 0.008, 0.004, 0.003, 0.002, 0.001};
    const int mult[10] = {1, 6, 12, 8, 6, 24, 24, 12, 24, 8};
    double sum = 0;
    for (int i = 0; i < 10; ++i) sum += raw[static_cast<std::size_t>(i)] *
                                        mult[i];
    for (auto& x : raw) x /= sum;  // taps sum to exactly 1
    return raw;
  }();
  return w;
}

double Stencil125::coeff(int dz, int dy, int dx) {
  return weights()[static_cast<std::size_t>(symmetry_class(dz, dy, dx))];
}

const std::array<double, 125>& Stencil125::taps() {
  static const std::array<double, 125> t = [] {
    std::array<double, 125> w{};
    int at = 0;
    for (int dz = -2; dz <= 2; ++dz)
      for (int dy = -2; dy <= 2; ++dy)
        for (int dx = -2; dx <= 2; ++dx)
          w[static_cast<std::size_t>(at++)] = coeff(dz, dy, dx);
    return w;
  }();
  return t;
}

template <int BK, int BJ, int BI>
void apply7_bricks(const BrickDecomp<3>& dec, const Brick<BK, BJ, BI>& out,
                   const Brick<BK, BJ, BI>& in, const Box<3>& out_cells) {
  engine_apply7<BK, BJ, BI>(dec, out, in, out_cells);
}

template <int BK, int BJ, int BI>
void apply125_bricks(const BrickDecomp<3>& dec, const Brick<BK, BJ, BI>& out,
                     const Brick<BK, BJ, BI>& in, const Box<3>& out_cells) {
  engine_apply125<BK, BJ, BI>(dec, out, in, out_cells);
}

template <int BK, int BJ, int BI>
void apply7_bricks_naive(const BrickDecomp<3>& dec,
                         const Brick<BK, BJ, BI>& out,
                         const Brick<BK, BJ, BI>& in,
                         const Box<3>& out_cells) {
  const auto& c = Stencil7::c;
  const Vec3 B{BI, BJ, BK};
  for (std::int64_t b = 0; b < dec.total_brick_count(); ++b) {
    const Vec3 base = dec.grid_of(b) * B;
    const Box<3> clip = intersect(Box<3>{base, base + B}, out_cells);
    if (clip.empty()) continue;
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

template <int BK, int BJ, int BI>
void apply125_bricks_naive(const BrickDecomp<3>& dec,
                           const Brick<BK, BJ, BI>& out,
                           const Brick<BK, BJ, BI>& in,
                           const Box<3>& out_cells) {
  static_assert(BK >= 2 && BJ >= 2 && BI >= 2,
                "brick extents must cover the radius-2 neighborhood");
  const Vec3 B{BI, BJ, BK};
  const auto& w = Stencil125::taps();  // 125 weights in dz-dy-dx order
  for (std::int64_t b = 0; b < dec.total_brick_count(); ++b) {
    const Vec3 base = dec.grid_of(b) * B;
    const Box<3> clip = intersect(Box<3>{base, base + B}, out_cells);
    if (clip.empty()) continue;
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

template void apply7_bricks<4, 4, 4>(const BrickDecomp<3>&,
                                     const Brick<4, 4, 4>&,
                                     const Brick<4, 4, 4>&, const Box<3>&);
template void apply7_bricks<8, 8, 8>(const BrickDecomp<3>&,
                                     const Brick<8, 8, 8>&,
                                     const Brick<8, 8, 8>&, const Box<3>&);
template void apply125_bricks<4, 4, 4>(const BrickDecomp<3>&,
                                       const Brick<4, 4, 4>&,
                                       const Brick<4, 4, 4>&, const Box<3>&);
template void apply125_bricks<8, 8, 8>(const BrickDecomp<3>&,
                                       const Brick<8, 8, 8>&,
                                       const Brick<8, 8, 8>&, const Box<3>&);
template void apply7_bricks_naive<4, 4, 4>(const BrickDecomp<3>&,
                                           const Brick<4, 4, 4>&,
                                           const Brick<4, 4, 4>&,
                                           const Box<3>&);
template void apply7_bricks_naive<8, 8, 8>(const BrickDecomp<3>&,
                                           const Brick<8, 8, 8>&,
                                           const Brick<8, 8, 8>&,
                                           const Box<3>&);
template void apply125_bricks_naive<4, 4, 4>(const BrickDecomp<3>&,
                                             const Brick<4, 4, 4>&,
                                             const Brick<4, 4, 4>&,
                                             const Box<3>&);
template void apply125_bricks_naive<8, 8, 8>(const BrickDecomp<3>&,
                                             const Brick<8, 8, 8>&,
                                             const Brick<8, 8, 8>&,
                                             const Box<3>&);

void apply7_array(const CellArray3& in, CellArray3& out,
                  const Box<3>& out_cells) {
  engine_apply7_array(in, out, out_cells);
}

void apply125_array(const CellArray3& in, CellArray3& out,
                    const Box<3>& out_cells) {
  engine_apply125_array(in, out, out_cells);
}

void apply7_array_naive(const CellArray3& in, CellArray3& out,
                        const Box<3>& out_cells) {
  const auto& c = Stencil7::c;
  for_each(out_cells, [&](const Vec3& p) {
    out.at(p) = c[0] * in.at(p) + c[1] * in.at(p - Vec3{1, 0, 0}) +
                c[2] * in.at(p + Vec3{1, 0, 0}) +
                c[3] * in.at(p - Vec3{0, 1, 0}) +
                c[4] * in.at(p + Vec3{0, 1, 0}) +
                c[5] * in.at(p - Vec3{0, 0, 1}) +
                c[6] * in.at(p + Vec3{0, 0, 1});
  });
}

void apply125_array_naive(const CellArray3& in, CellArray3& out,
                          const Box<3>& out_cells) {
  // Read the precomputed tap table: coeff()'s per-call sort + class lookup
  // used to run 125 times per output cell here.
  const auto& w = Stencil125::taps();
  for_each(out_cells, [&](const Vec3& p) {
    double acc = 0.0;
    int at = 0;
    for (int dz = -2; dz <= 2; ++dz)
      for (int dy = -2; dy <= 2; ++dy)
        for (int dx = -2; dx <= 2; ++dx)
          acc += w[static_cast<std::size_t>(at++)] *
                 in.at(p + Vec3{dx, dy, dz});
    out.at(p) = acc;
  });
}

void apply7_span(const Box<3>& frame, const double* in, double* out,
                 const Box<3>& out_cells) {
  engine_apply7_span(frame, in, out, out_cells);
}

void apply125_span(const Box<3>& frame, const double* in, double* out,
                   const Box<3>& out_cells) {
  engine_apply125_span(frame, in, out, out_cells);
}

void apply7_span_naive(const Box<3>& frame, const double* in, double* out,
                       const Box<3>& out_cells) {
  const auto& c = Stencil7::c;
  const Vec3 ext = frame.extent();
  auto rd = [&](const Vec3& p) { return in[linearize(p - frame.lo, ext)]; };
  for_each(out_cells, [&](const Vec3& p) {
    out[linearize(p - frame.lo, ext)] =
        c[0] * rd(p) + c[1] * rd(p - Vec3{1, 0, 0}) +
        c[2] * rd(p + Vec3{1, 0, 0}) + c[3] * rd(p - Vec3{0, 1, 0}) +
        c[4] * rd(p + Vec3{0, 1, 0}) + c[5] * rd(p - Vec3{0, 0, 1}) +
        c[6] * rd(p + Vec3{0, 0, 1});
  });
}

void apply125_span_naive(const Box<3>& frame, const double* in, double* out,
                         const Box<3>& out_cells) {
  const auto& w = Stencil125::taps();
  const Vec3 ext = frame.extent();
  auto rd = [&](const Vec3& p) { return in[linearize(p - frame.lo, ext)]; };
  for_each(out_cells, [&](const Vec3& p) {
    double acc = 0.0;
    int at = 0;
    for (int dz = -2; dz <= 2; ++dz)
      for (int dy = -2; dy <= 2; ++dy)
        for (int dx = -2; dx <= 2; ++dx)
          acc += w[static_cast<std::size_t>(at++)] * rd(p + Vec3{dx, dy, dz});
    out[linearize(p - frame.lo, ext)] = acc;
  });
}

void evolve_reference(CellArray3& field, int steps, bool use125) {
  const Box<3>& box = field.box();
  const Vec3 ext = box.extent();
  const int r = use125 ? 2 : 1;
  // Work on a halo-expanded copy so the kernel expression (and therefore
  // the floating-point operation order) is identical to the brick kernels.
  // The padded scratch and the periodic-wrap gather map are hoisted out of
  // the timestep loop: allocated/derived once, refilled every step.
  CellArray3 padded(Box<3>{box.lo - Vec3::fill(r), box.hi + Vec3::fill(r)});
  std::vector<std::int64_t> wrap_src;
  wrap_src.reserve(static_cast<std::size_t>(padded.box().volume()));
  // for_each iterates axis 0 fastest — the raw() storage order — so the
  // map's position n corresponds to padded.raw()[n].
  for_each(padded.box(), [&](const Vec3& p) {
    Vec3 q = p - box.lo;
    for (int a = 0; a < 3; ++a) q[a] = ((q[a] % ext[a]) + ext[a]) % ext[a];
    wrap_src.push_back(linearize(q, ext));
  });
  for (int s = 0; s < steps; ++s) {
    const double* __restrict f = field.raw().data();
    double* __restrict pd = padded.raw().data();
    for (std::size_t n = 0; n < wrap_src.size(); ++n)
      pd[n] = f[wrap_src[n]];
    if (use125) {
      apply125_array(padded, field, box);
    } else {
      apply7_array(padded, field, box);
    }
  }
}

template <int D>
Box<D> expansion_output_box(const Vec<D>& domain, std::int64_t g,
                            std::int64_t r, std::int64_t s) {
  const std::int64_t margin = g - (s + 1) * r;
  BX_CHECK(margin >= 0, "exchange overdue: ghost margin exhausted");
  Box<D> b;
  for (int a = 0; a < D; ++a) {
    b.lo[a] = -margin;
    b.hi[a] = domain[a] + margin;
  }
  return b;
}

template Box<2> expansion_output_box<2>(const Vec<2>&, std::int64_t,
                                        std::int64_t, std::int64_t);
template Box<3> expansion_output_box<3>(const Vec<3>&, std::int64_t,
                                        std::int64_t, std::int64_t);

template <int D>
std::vector<Box<D>> shell_boxes(const Box<D>& whole, const Box<D>& inner) {
  for (int a = 0; a < D; ++a)
    BX_CHECK(whole.lo[a] <= inner.lo[a] && inner.hi[a] <= whole.hi[a],
             "inner box must be contained in the whole box");
  std::vector<Box<D>> out;
  Box<D> rest = whole;
  // Peel two slabs per axis; remaining axes keep the already-peeled
  // extents so the slabs are disjoint.
  for (int a = 0; a < D; ++a) {
    Box<D> low = rest, high = rest;
    low.hi[a] = inner.lo[a];
    high.lo[a] = inner.hi[a];
    if (!low.empty()) out.push_back(low);
    if (!high.empty()) out.push_back(high);
    rest.lo[a] = inner.lo[a];
    rest.hi[a] = inner.hi[a];
  }
  return out;
}

template std::vector<Box<2>> shell_boxes<2>(const Box<2>&, const Box<2>&);
template std::vector<Box<3>> shell_boxes<3>(const Box<3>&, const Box<3>&);

}  // namespace brickx::stencil
