#include "common/vec.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace brickx {
namespace {

TEST(Vec, ArithmeticAndProd) {
  Vec3 a{1, 2, 3}, b{4, 5, 6};
  EXPECT_EQ((a + b), (Vec3{5, 7, 9}));
  EXPECT_EQ((b - a), (Vec3{3, 3, 3}));
  EXPECT_EQ((a * b), (Vec3{4, 10, 18}));
  EXPECT_EQ((a * 2), (Vec3{2, 4, 6}));
  EXPECT_EQ((b / a), (Vec3{4, 2, 2}));
  EXPECT_EQ(a.prod(), 6);
  EXPECT_EQ(Vec3::fill(4), (Vec3{4, 4, 4}));
}

TEST(Vec, LinearizeAxis0Fastest) {
  const Vec3 ext{4, 3, 2};
  EXPECT_EQ(linearize(Vec3{0, 0, 0}, ext), 0);
  EXPECT_EQ(linearize(Vec3{1, 0, 0}, ext), 1);
  EXPECT_EQ(linearize(Vec3{0, 1, 0}, ext), 4);
  EXPECT_EQ(linearize(Vec3{0, 0, 1}, ext), 12);
  EXPECT_EQ(linearize(Vec3{3, 2, 1}, ext), 23);
}

TEST(Vec, DelinearizeIsInverse) {
  const Vec3 ext{5, 7, 3};
  for (std::int64_t i = 0; i < ext.prod(); ++i) {
    EXPECT_EQ(linearize(delinearize(i, ext), ext), i);
  }
}

TEST(Box, VolumeAndContains) {
  Box<3> b{{1, 1, 1}, {4, 3, 2}};
  EXPECT_EQ(b.volume(), 3 * 2 * 1);
  EXPECT_TRUE(b.contains(Vec3{1, 1, 1}));
  EXPECT_TRUE(b.contains(Vec3{3, 2, 1}));
  EXPECT_FALSE(b.contains(Vec3{4, 1, 1}));
  EXPECT_FALSE(b.contains(Vec3{0, 1, 1}));
}

TEST(Box, ContainsBoxAndIntersect) {
  const Box<3> b{{-2, 0, 0}, {4, 3, 2}};
  EXPECT_TRUE(b.contains(b));
  EXPECT_TRUE(b.contains(Box<3>{{-2, 1, 0}, {0, 3, 1}}));
  EXPECT_FALSE(b.contains(Box<3>{{-3, 0, 0}, {4, 3, 2}}));
  EXPECT_FALSE(b.contains(Box<3>{{-2, 0, 0}, {4, 3, 3}}));
  // Empty boxes hold no cell, wherever they sit.
  EXPECT_TRUE(b.contains(Box<3>{{9, 9, 9}, {9, 12, 12}}));
  EXPECT_EQ(intersect(b, Box<3>{{0, -5, 1}, {9, 2, 9}}),
            (Box<3>{{0, 0, 1}, {4, 2, 2}}));
  EXPECT_TRUE(intersect(b, Box<3>{{5, 0, 0}, {6, 3, 2}}).empty());
}

TEST(Box, EmptyWhenDegenerate) {
  Box<2> b{{3, 0}, {3, 5}};
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.volume(), 0);
  int visits = 0;
  for_each(b, [&](const Vec2&) { ++visits; });
  EXPECT_EQ(visits, 0);
}

TEST(Box, InvertedExtentsClampToZeroVolume) {
  Box<2> b{{5, 5}, {2, 8}};
  EXPECT_EQ(b.volume(), 0);
}

TEST(Box, ForEachVisitsLexicographically) {
  Box<2> b{{1, 2}, {3, 4}};
  std::vector<Vec2> order;
  for_each(b, [&](const Vec2& p) { order.push_back(p); });
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], (Vec2{1, 2}));
  EXPECT_EQ(order[1], (Vec2{2, 2}));  // axis 0 fastest
  EXPECT_EQ(order[2], (Vec2{1, 3}));
  EXPECT_EQ(order[3], (Vec2{2, 3}));
}

TEST(Box, ForEachCoversExactlyOnce) {
  Box<3> b{{0, 1, 2}, {3, 4, 5}};
  std::set<std::int64_t> seen;
  for_each(b, [&](const Vec3& p) {
    EXPECT_TRUE(b.contains(p));
    EXPECT_TRUE(seen.insert(linearize(p, Vec3{16, 16, 16})).second);
  });
  EXPECT_EQ(static_cast<std::int64_t>(seen.size()), b.volume());
}

}  // namespace
}  // namespace brickx
