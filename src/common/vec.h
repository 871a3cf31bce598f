#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <numeric>

#include "common/error.h"

namespace brickx {

/// Fixed-size integer vector for grid indices and extents.
/// Axis 0 is the contiguous (fastest-varying) axis, matching the `i` in
/// `a[k][j][i]` — i.e. Vec<3> v = {i, j, k}.
template <int D>
struct Vec {
  std::array<std::int64_t, D> v{};

  constexpr Vec() = default;
  constexpr Vec(std::initializer_list<std::int64_t> init) {
    int i = 0;
    for (auto x : init) v[i++] = x;
  }
  /// All-components-equal vector.
  static constexpr Vec fill(std::int64_t x) {
    Vec r;
    r.v.fill(x);
    return r;
  }

  constexpr std::int64_t& operator[](int i) { return v[i]; }
  constexpr std::int64_t operator[](int i) const { return v[i]; }

  constexpr Vec operator+(const Vec& o) const {
    Vec r;
    for (int i = 0; i < D; ++i) r[i] = v[i] + o[i];
    return r;
  }
  constexpr Vec operator-(const Vec& o) const {
    Vec r;
    for (int i = 0; i < D; ++i) r[i] = v[i] - o[i];
    return r;
  }
  constexpr Vec operator*(const Vec& o) const {
    Vec r;
    for (int i = 0; i < D; ++i) r[i] = v[i] * o[i];
    return r;
  }
  constexpr Vec operator*(std::int64_t s) const {
    Vec r;
    for (int i = 0; i < D; ++i) r[i] = v[i] * s;
    return r;
  }
  constexpr Vec operator/(const Vec& o) const {
    Vec r;
    for (int i = 0; i < D; ++i) r[i] = v[i] / o[i];
    return r;
  }
  bool operator==(const Vec& o) const = default;

  /// Product of components (volume of an extent vector).
  [[nodiscard]] constexpr std::int64_t prod() const {
    std::int64_t p = 1;
    for (int i = 0; i < D; ++i) p *= v[i];
    return p;
  }
};

using Vec2 = Vec<2>;
using Vec3 = Vec<3>;

/// Row-major-with-axis-0-fastest linear index of `pos` within extents `ext`.
template <int D>
constexpr std::int64_t linearize(const Vec<D>& pos, const Vec<D>& ext) {
  std::int64_t idx = 0;
  for (int i = D - 1; i >= 0; --i) idx = idx * ext[i] + pos[i];
  return idx;
}

/// Inverse of linearize().
template <int D>
constexpr Vec<D> delinearize(std::int64_t idx, const Vec<D>& ext) {
  Vec<D> pos;
  for (int i = 0; i < D; ++i) {
    pos[i] = idx % ext[i];
    idx /= ext[i];
  }
  return pos;
}

/// Half-open axis-aligned box [lo, hi) used to describe regions of cells or
/// bricks.
template <int D>
struct Box {
  Vec<D> lo, hi;

  [[nodiscard]] Vec<D> extent() const { return hi - lo; }
  [[nodiscard]] std::int64_t volume() const {
    std::int64_t p = 1;
    for (int i = 0; i < D; ++i) p *= (hi[i] > lo[i] ? hi[i] - lo[i] : 0);
    return p;
  }
  [[nodiscard]] bool contains(const Vec<D>& p) const {
    for (int i = 0; i < D; ++i)
      if (p[i] < lo[i] || p[i] >= hi[i]) return false;
    return true;
  }
  /// True when every cell of `o` lies inside this box (always, for an
  /// empty `o`).
  [[nodiscard]] bool contains(const Box& o) const {
    if (o.empty()) return true;
    for (int i = 0; i < D; ++i)
      if (o.lo[i] < lo[i] || o.hi[i] > hi[i]) return false;
    return true;
  }
  [[nodiscard]] bool empty() const { return volume() == 0; }
  bool operator==(const Box& o) const = default;
};

/// The cells two boxes share (an empty box when they do not overlap).
template <int D>
Box<D> intersect(const Box<D>& a, const Box<D>& b) {
  Box<D> r;
  for (int i = 0; i < D; ++i) {
    r.lo[i] = std::max(a.lo[i], b.lo[i]);
    r.hi[i] = std::min(a.hi[i], b.hi[i]);
  }
  return r;
}

/// Iterate all positions of box `b` in lexicographic order (axis 0 fastest),
/// calling `f(Vec<D>)`. Sender and receiver of an exchange both use this
/// order, which is what makes region payloads position-independent.
template <int D, typename F>
void for_each(const Box<D>& b, F&& f) {
  if (b.empty()) return;
  Vec<D> p = b.lo;
  while (true) {
    f(p);
    int i = 0;
    while (i < D) {
      if (++p[i] < b.hi[i]) break;
      p[i] = b.lo[i];
      ++i;
    }
    if (i == D) return;
  }
}

template <int D>
std::ostream& operator<<(std::ostream& os, const Vec<D>& v);

}  // namespace brickx
