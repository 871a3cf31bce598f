// ZeroedBuffer: zero fill, alignment, deep copy and move at sizes on both
// sides of the 2 MiB backing split, lazy residency of a mapped block, and
// (ASan builds) overrun detection past a mapped block.

#include "common/zeroed.h"

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

namespace brickx {
namespace {

constexpr std::size_t kHuge = ZeroedBuffer::kHugePage;
// 0, one double and just under a huge page take the heap backing; a huge
// page and one 112^3-cell field of doubles (a 96^3 block with an 8-cell
// ghost frame) take the mapped one.
const std::size_t kSizes[] = {0, 8, kHuge - 8, kHuge, 112 * 112 * 112 * 8};

std::uintptr_t address(const std::byte* p) {
  return reinterpret_cast<std::uintptr_t>(p);
}

bool all_zero(const ZeroedBuffer& b) {
  return std::all_of(b.data(), b.data() + b.size(),
                     [](std::byte c) { return c == std::byte{0}; });
}

/// Fill with a byte pattern keyed on the offset.
void stamp(ZeroedBuffer& b) {
  for (std::size_t i = 0; i < b.size(); ++i)
    b.data()[i] = static_cast<std::byte>(i * 7 + 1);
}

/// mincore's residency flag for each host page of `b`'s first `bytes`.
std::vector<unsigned char> residency(ZeroedBuffer& b, std::size_t bytes) {
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  std::vector<unsigned char> vec((bytes + page - 1) / page);
  EXPECT_EQ(::mincore(b.data(), bytes, vec.data()), 0);
  for (unsigned char& v : vec) v &= 1;
  return vec;
}

TEST(ZeroedBuffer, BothBackingsZeroFillAndAlign) {
  for (std::size_t n : kSizes) {
    SCOPED_TRACE(n);
    const ZeroedBuffer b(n);
    ASSERT_NE(b.data(), nullptr);
    EXPECT_EQ(b.size(), n);
    EXPECT_TRUE(all_zero(b));
    EXPECT_EQ(address(b.data()) % ZeroedBuffer::kAlignment, 0u);
    if (n >= kHuge) {
      EXPECT_EQ(address(b.data()) % kHuge, 0u) << "not a huge-page mapping";
    }
  }
}

TEST(ZeroedBuffer, CopiesAreDeepAndMovesTransfer) {
  for (std::size_t n : {3 * std::size_t{4096} + 8, kHuge + 4096 + 8}) {
    SCOPED_TRACE(n);
    ZeroedBuffer a(n);
    stamp(a);
    const ZeroedBuffer want = a;

    ZeroedBuffer copy(a);
    EXPECT_NE(copy.data(), a.data());
    ASSERT_EQ(copy.size(), a.size());
    EXPECT_EQ(std::memcmp(copy.data(), a.data(), a.size()), 0);
    copy.data()[5] = std::byte{0xee};
    EXPECT_EQ(a.data()[5], want.data()[5]) << "the copy shares bytes";

    // Assign across the backing split: a small block takes a large one's
    // bytes and a large block a small one's.
    ZeroedBuffer assigned(n < kHuge ? kHuge : 8);
    assigned = a;
    ASSERT_EQ(assigned.size(), a.size());
    EXPECT_EQ(std::memcmp(assigned.data(), a.data(), a.size()), 0);
    assigned = assigned;  // self-assignment keeps the bytes
    ASSERT_EQ(assigned.size(), a.size());
    EXPECT_EQ(std::memcmp(assigned.data(), a.data(), a.size()), 0);

    const std::byte* p = a.data();
    ZeroedBuffer moved(std::move(a));
    EXPECT_EQ(moved.data(), p);
    EXPECT_EQ(a.data(), nullptr);  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(a.size(), 0u);
    ZeroedBuffer target;
    target = std::move(moved);
    EXPECT_EQ(target.data(), p);
    ASSERT_EQ(target.size(), want.size());
    EXPECT_EQ(std::memcmp(target.data(), want.data(), want.size()), 0);
  }
}

// Holds with and without transparent huge pages: one write faults in its
// huge page where they are on, and only its small page where they are off.
TEST(ZeroedBuffer, MappedPagesBecomeResidentOnlyWhenTouched) {
  const std::size_t n = 3 * kHuge + 4096;
  ZeroedBuffer b(n);
  const std::vector<unsigned char> untouched = residency(b, n);
  EXPECT_EQ(std::count(untouched.begin(), untouched.end(), 1), 0);

  const std::size_t at = kHuge + 12345;
  b.data()[at] = std::byte{1};
  const std::vector<unsigned char> touched = residency(b, n);
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  EXPECT_EQ(touched[at / page], 1);
  for (std::size_t i = 0; i < touched.size(); ++i)
    if (i * page / kHuge != at / kHuge) {
      EXPECT_EQ(touched[i], 0) << "page " << i << " outside the written "
                               << "huge page is resident";
    }
}

TEST(ZeroedBufferDeathTest, AsanCatchesAWritePastAMappedBuffer) {
#if defined(__SANITIZE_ADDRESS__)
  // A page multiple: without the poisoned slack the write would land in
  // whatever the kernel maps next.
  ZeroedBuffer b(kHuge);
  EXPECT_DEATH(
      {
        auto* past = reinterpret_cast<volatile double*>(b.data() + b.size());
        *past = 1.0;
      },
      "AddressSanitizer");
#else
  GTEST_SKIP() << "needs an AddressSanitizer build";
#endif
}

}  // namespace
}  // namespace brickx
