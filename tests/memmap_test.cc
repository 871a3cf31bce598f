#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/error.h"
#include "memmap/mem_file.h"
#include "memmap/pagesize.h"
#include "memmap/view.h"

namespace brickx::mm {
namespace {

TEST(PageSize, HostPageSizeIsPowerOfTwo) {
  const std::size_t ps = host_page_size();
  EXPECT_GE(ps, 4096u);
  EXPECT_EQ(ps & (ps - 1), 0u);
}

TEST(PageSize, RoundUpAndWaste) {
  EXPECT_EQ(round_up(0, 4096), 0u);
  EXPECT_EQ(round_up(1, 4096), 4096u);
  EXPECT_EQ(round_up(4096, 4096), 4096u);
  EXPECT_EQ(round_up(4097, 4096), 8192u);
  // The paper's example: a 4^3 region of doubles wastes 7/8 of a 4KiB page.
  EXPECT_EQ(pad_waste(4 * 4 * 4 * 8, 4096), 4096u - 512u);
}

TEST(MemFile, CreatesAndRounds) {
  MemFile f(100);
  EXPECT_GE(f.fd(), 0);
  EXPECT_EQ(f.size(), host_page_size());
}

TEST(MemFile, MoveTransfersOwnership) {
  MemFile a(host_page_size());
  const int fd = a.fd();
  MemFile b = std::move(a);
  EXPECT_EQ(b.fd(), fd);
  EXPECT_EQ(a.fd(), -1);
}

TEST(Mapping, ReadsAndWritesBackToFile) {
  const std::size_t ps = host_page_size();
  MemFile f(4 * ps);
  Mapping m1(f);
  Mapping m2(f);  // second independent mapping of the same pages
  std::memset(m1.data(), 0xAB, 4 * ps);
  // Writes through one mapping are visible through the other (MAP_SHARED).
  EXPECT_EQ(std::to_integer<int>(m2.data()[0]), 0xAB);
  EXPECT_EQ(std::to_integer<int>(m2.data()[4 * ps - 1]), 0xAB);
}

TEST(View, StitchesSegmentsContiguously) {
  const std::size_t ps = host_page_size();
  MemFile f(8 * ps);
  Mapping canon(f);
  for (std::size_t p = 0; p < 8; ++p)
    std::memset(canon.data() + p * ps, static_cast<int>('a' + p), ps);

  // The paper's Figure 5: regions 1, 4, 6 appear contiguous in the view.
  ViewBuilder b(f);
  b.add(1 * ps, ps).add(4 * ps, ps).add(6 * ps, ps);
  View v = b.build();
  ASSERT_TRUE(v.valid());
  EXPECT_EQ(v.size(), 3 * ps);
  EXPECT_EQ(std::to_integer<char>(v.data()[0]), 'b');
  EXPECT_EQ(std::to_integer<char>(v.data()[ps]), 'e');
  EXPECT_EQ(std::to_integer<char>(v.data()[2 * ps]), 'g');
}

TEST(View, WritesThroughViewHitCanonicalStorage) {
  const std::size_t ps = host_page_size();
  MemFile f(4 * ps);
  Mapping canon(f);
  ViewBuilder b(f);
  b.add(2 * ps, ps);
  View v = b.build();
  std::memset(v.data(), 0x5C, ps);
  EXPECT_EQ(std::to_integer<int>(canon.data()[2 * ps]), 0x5C);
  EXPECT_EQ(std::to_integer<int>(canon.data()[2 * ps + ps - 1]), 0x5C);
  // Pages outside the view are untouched.
  EXPECT_EQ(std::to_integer<int>(canon.data()[ps]), 0x00);
}

TEST(View, SameSegmentMappedTwiceAliases) {
  const std::size_t ps = host_page_size();
  MemFile f(2 * ps);
  ViewBuilder b(f);
  b.add(0, ps).add(0, ps);  // overlapping regions sent to two neighbors
  View v = b.build();
  v.data()[7] = std::byte{42};
  EXPECT_EQ(std::to_integer<int>(v.data()[ps + 7]), 42);
}

TEST(View, UnalignedSegmentsRejected) {
  const std::size_t ps = host_page_size();
  MemFile f(2 * ps);
  ViewBuilder b(f);
  EXPECT_THROW(b.add(ps / 2, ps), brickx::Error);
  EXPECT_THROW(b.add(0, ps / 2), brickx::Error);
  EXPECT_THROW(b.add(0, 4 * ps), brickx::Error);  // beyond file end
}

TEST(View, EmptyBuilderYieldsInvalidView) {
  MemFile f(host_page_size());
  ViewBuilder b(f);
  View v = b.build();
  EXPECT_FALSE(v.valid());
  EXPECT_EQ(v.size(), 0u);
}

TEST(View, SegmentAccountingBalances) {
  const std::size_t ps = host_page_size();
  const std::int64_t before = live_view_segments();
  {
    MemFile f(8 * ps);
    ViewBuilder b(f);
    b.add(0, ps).add(2 * ps, 2 * ps).add(6 * ps, ps);
    View v = b.build();
    EXPECT_EQ(v.segments(), 3);
    EXPECT_EQ(live_view_segments(), before + 3);
    View w = std::move(v);
    EXPECT_EQ(live_view_segments(), before + 3);
  }
  EXPECT_EQ(live_view_segments(), before);
}

// Segments whose file ranges continue the one before share one mmap. A view
// that mixes such runs with jumps, and one that is a single run starting
// mid-file, must each alias the canonical mapping byte for byte in both
// directions and still report every logical segment.
TEST(View, FileContiguousRunsAliasAndCountLogicalSegments) {
  const std::size_t ps = host_page_size();
  MemFile f(16 * ps);
  Mapping canon(f);
  struct Seg {
    std::size_t page, pages;
  };
  const std::vector<std::vector<Seg>> views = {
      {{2, 1}, {3, 2}, {5, 1}, {9, 1}, {10, 1}, {0, 1}, {1, 1}, {7, 1}},
      {{4, 1}, {5, 3}, {8, 1}, {9, 2}},
  };
  for (const auto& segs : views) {
    for (std::size_t i = 0; i < 16 * ps; ++i)
      canon.data()[i] = static_cast<std::byte>(i * 131 + i / ps);
    const std::int64_t before = live_view_segments();
    const auto n = static_cast<std::int64_t>(segs.size());
    ViewBuilder b(f);
    for (const Seg& s : segs) b.add(s.page * ps, s.pages * ps);
    {
      View v = b.build();
      EXPECT_EQ(v.segments(), n);
      EXPECT_EQ(live_view_segments(), before + n);
      ASSERT_EQ(v.segment_map().size(), segs.size());
      std::size_t at = 0;
      for (std::size_t k = 0; k < segs.size(); ++k) {
        const std::size_t off = segs[k].page * ps, len = segs[k].pages * ps;
        const View::SegmentInfo& si = v.segment_map()[k];
        EXPECT_EQ(si.view_offset, at);
        EXPECT_EQ(si.file_offset, off);
        EXPECT_EQ(si.length, len);
        EXPECT_EQ(std::memcmp(v.data() + at, canon.data() + off, len), 0)
            << "segment " << k;
        // A write through the view lands in the canonical pages.
        for (std::size_t i = 0; i < len; i += 97)
          v.data()[at + i] = static_cast<std::byte>(k + i);
        EXPECT_EQ(std::memcmp(v.data() + at, canon.data() + off, len), 0)
            << "segment " << k;
        at += len;
      }
      EXPECT_EQ(at, v.size());
    }
    EXPECT_EQ(live_view_segments(), before);
  }
}

TEST(View, ManySegmentsStressWithinMapLimit) {
  // The paper notes vm.max_map_count defaults to 65530; layouts keep well
  // under it. Exercise a few hundred segments to prove stitching scales.
  const std::size_t ps = host_page_size();
  MemFile f(256 * ps);
  ViewBuilder b(f);
  Mapping canon(f);
  for (std::size_t i = 0; i < 256; ++i) {
    canon.data()[(255 - i) * ps] = static_cast<std::byte>(i);
    b.add((255 - i) * ps, ps);  // reversed order
  }
  View v = b.build();
  for (std::size_t i = 0; i < 256; ++i)
    EXPECT_EQ(std::to_integer<std::size_t>(v.data()[i * ps]), i);
}

}  // namespace
}  // namespace brickx::mm
