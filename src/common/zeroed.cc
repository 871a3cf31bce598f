#include "common/zeroed.h"

#include <sanitizer/asan_interface.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <new>
#include <utility>

namespace brickx {

namespace {

/// Bytes past size() a mapping keeps at least, poisoned under ASan so a
/// short overrun lands in them rather than in whatever is mapped next.
#if defined(__SANITIZE_ADDRESS__)
constexpr std::size_t kSlack = ZeroedBuffer::kAlignment;
#else
constexpr std::size_t kSlack = 0;
#endif

/// A private anonymous mapping of `len` bytes (a page multiple) starting on
/// a huge-page boundary: over-map by one huge page, then unmap both ends.
std::byte* map_huge_aligned(std::size_t len) {
  const std::size_t span = len + ZeroedBuffer::kHugePage;
  void* p = ::mmap(nullptr, span, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  const auto at = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t lo = (at + ZeroedBuffer::kHugePage - 1) &
                            ~(ZeroedBuffer::kHugePage - 1);
  if (lo > at) ::munmap(p, lo - at);
  if (at + span > lo + len)
    ::munmap(reinterpret_cast<void*>(lo + len), at + span - (lo + len));
  // Advice only: without it the mapping still works on small pages.
  ::madvise(reinterpret_cast<void*>(lo), len, MADV_HUGEPAGE);
  return reinterpret_cast<std::byte*>(lo);
}

}  // namespace

ZeroedBuffer::ZeroedBuffer(std::size_t bytes) : size_(bytes) {
  if (bytes < kHugePage) {
    data_ = static_cast<std::byte*>(
        ::operator new(bytes, std::align_val_t{kAlignment}));
    std::memset(data_, 0, bytes);
    return;
  }
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  mapped_ = (bytes + kSlack + page - 1) / page * page;
  data_ = map_huge_aligned(mapped_);
  ASAN_POISON_MEMORY_REGION(data_ + size_, mapped_ - size_);
}

ZeroedBuffer::ZeroedBuffer(const ZeroedBuffer& other)
    : ZeroedBuffer(other.size_) {
  if (size_ != 0) std::memcpy(data_, other.data_, size_);
}

ZeroedBuffer::ZeroedBuffer(ZeroedBuffer&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      mapped_(std::exchange(other.mapped_, 0)) {}

ZeroedBuffer& ZeroedBuffer::operator=(ZeroedBuffer other) noexcept {
  std::swap(data_, other.data_);
  std::swap(size_, other.size_);
  std::swap(mapped_, other.mapped_);
  return *this;
}

ZeroedBuffer::~ZeroedBuffer() {
  if (data_ == nullptr) return;
  if (mapped_ == 0) {
    ::operator delete(data_, std::align_val_t{kAlignment});
    return;
  }
  // A later mapping may reuse these addresses; it must not inherit poison.
  ASAN_UNPOISON_MEMORY_REGION(data_ + size_, mapped_ - size_);
  ::munmap(data_, mapped_);
}

}  // namespace brickx
