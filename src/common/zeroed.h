#pragma once

#include <cstddef>

namespace brickx {

/// A zero-filled, 64-byte-aligned block of bytes: the backing of heap brick
/// storage and of the array baselines' field slabs.
///
/// The size picks the backing:
///  * 2 MiB and up — a private anonymous mapping on a 2 MiB boundary,
///    advised MADV_HUGEPAGE. The kernel zeroes each page on its first
///    touch, so a run pays only for the pages it touches (huge pages where
///    transparent huge pages allow, small pages otherwise).
///  * Smaller — aligned operator new plus memset. A fresh small mapping
///    faults in far slower than a warm heap block is cleared.
///
/// Under AddressSanitizer a mapping poisons its slack past size(), so an
/// overrun is caught as it would be in a heap block's redzone.
/// Copies are deep; moves transfer the block.
class ZeroedBuffer {
 public:
  static constexpr std::size_t kAlignment = 64;
  static constexpr std::size_t kHugePage = std::size_t{2} << 20;

  ZeroedBuffer() = default;
  explicit ZeroedBuffer(std::size_t bytes);
  ZeroedBuffer(const ZeroedBuffer& other);
  ZeroedBuffer(ZeroedBuffer&& other) noexcept;
  ZeroedBuffer& operator=(ZeroedBuffer other) noexcept;
  ~ZeroedBuffer();

  [[nodiscard]] std::byte* data() { return data_; }
  [[nodiscard]] const std::byte* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t mapped_ = 0;  ///< mapping length; 0 = heap block
};

}  // namespace brickx
