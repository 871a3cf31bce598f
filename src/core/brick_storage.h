#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/zeroed.h"
#include "memmap/mem_file.h"
#include "memmap/view.h"

namespace brickx {

/// Physical storage for bricks: one flat buffer holding the bricks of every
/// region chunk consecutively (surface regions in layout order, then the
/// interior, then ghost subregions grouped by source neighbor — the order
/// BrickDecomp assigns).
///
/// Two backings:
///  * Heap   — a ZeroedBuffer (huge-page mapping zeroed on first touch
///             from 2 MiB up, aligned heap block below); chunks tightly
///             packed. Used by the Layout method.
///  * MemFd  — an in-memory file mapped once as the canonical view; every
///             chunk is padded to `page_size` so ExchangeView can stitch
///             per-neighbor mmap views (the MemMap method).
///
/// Multiple fields interleave within a brick (array-of-structure-of-array):
/// a brick's chunk holds field 0's elements, then field 1's, ...; a whole
/// brick — all fields — is the unit of exchange.
///
/// Alignment rule (the explicit-SIMD tier, DESIGN.md §16): both backings
/// place the buffer base on a `kAlignment`-byte boundary (heap via
/// ZeroedBuffer, MemFd via page-aligned mmap). Brick strides are NOT padded
/// — padding would change the exchange byte accounting — so a brick base is
/// vector-aligned only when `brick_bytes()` happens to be a multiple of the
/// lane size. For 3-D stencil geometries it always is (every brick extent
/// is >= 2, so elements_per_brick is a multiple of 8 and brick_bytes a
/// multiple of 64); degenerate 1-/2-D test geometries may fall short, which
/// the kernel tier's `simd_storage_ok` guard detects at dispatch time.
class BrickStorage {
 public:
  /// Buffer base alignment both backings guarantee (= simd::kAlign).
  static constexpr std::size_t kAlignment = ZeroedBuffer::kAlignment;

  /// Bytes from the start of one brick to the next within a chunk.
  [[nodiscard]] std::size_t brick_bytes() const { return brick_bytes_; }
  /// Doubles per brick per field.
  [[nodiscard]] std::int64_t elements_per_brick() const {
    return elems_per_brick_;
  }
  [[nodiscard]] int fields() const { return fields_; }
  [[nodiscard]] std::int64_t brick_count() const {
    return static_cast<std::int64_t>(brick_offsets_.size());
  }

  [[nodiscard]] std::byte* data() { return base_; }
  [[nodiscard]] const std::byte* data() const { return base_; }
  [[nodiscard]] std::size_t bytes() const { return total_bytes_; }

  /// Base address of brick `idx` (all fields).
  [[nodiscard]] double* brick(std::int64_t idx) {
    return reinterpret_cast<double*>(
        base_ + brick_offsets_[static_cast<std::size_t>(idx)]);
  }
  [[nodiscard]] const double* brick(std::int64_t idx) const {
    return reinterpret_cast<const double*>(
        base_ + brick_offsets_[static_cast<std::size_t>(idx)]);
  }
  [[nodiscard]] std::size_t brick_offset(std::int64_t idx) const {
    return brick_offsets_[static_cast<std::size_t>(idx)];
  }

  /// One region chunk's placement in the buffer.
  struct Chunk {
    std::size_t offset = 0;        ///< byte offset of the chunk start
    std::size_t bytes = 0;         ///< payload bytes (nbricks * brick_bytes)
    std::size_t padded_bytes = 0;  ///< bytes + page padding (== bytes when packed)
  };
  [[nodiscard]] const std::vector<Chunk>& chunks() const { return chunks_; }

  /// Padding granularity chunks were aligned to (0 = tightly packed heap).
  /// May exceed the host page size to *emulate* larger pages (Fig. 18);
  /// it is always a multiple of the host page size for MemFd backings.
  [[nodiscard]] std::size_t page_size() const { return page_size_; }

  /// The backing file when MemFd-backed (for ExchangeView); nullptr for
  /// heap backing.
  [[nodiscard]] const mm::MemFile* file() const { return file_.get(); }

  /// Total padding bytes across all chunks — MemMap's extra network
  /// transfer when chunks are sent page-aligned (Table 2 accounting).
  [[nodiscard]] std::size_t padding_bytes() const;

  // Construction -- used by BrickDecomp::allocate / mmap_alloc.

  /// `chunk_bricks[i]` = brick count of region chunk i, in storage order.
  static BrickStorage heap(const std::vector<std::int64_t>& chunk_bricks,
                           std::int64_t elems_per_brick, int fields);
  static BrickStorage memfd(const std::vector<std::int64_t>& chunk_bricks,
                            std::int64_t elems_per_brick, int fields,
                            std::size_t page_size);

  BrickStorage(BrickStorage&&) = default;
  BrickStorage& operator=(BrickStorage&&) = default;
  BrickStorage(const BrickStorage&) = delete;
  BrickStorage& operator=(const BrickStorage&) = delete;

 private:
  BrickStorage() = default;
  void layout_chunks(const std::vector<std::int64_t>& chunk_bricks,
                     std::int64_t elems_per_brick, int fields,
                     std::size_t page_size);

  std::size_t brick_bytes_ = 0;
  std::int64_t elems_per_brick_ = 0;
  int fields_ = 1;
  std::size_t total_bytes_ = 0;
  std::size_t page_size_ = 0;
  std::vector<Chunk> chunks_;
  std::vector<std::size_t> brick_offsets_;

  // Backing (exactly one active).
  ZeroedBuffer heap_;
  std::unique_ptr<mm::MemFile> file_;
  std::unique_ptr<mm::Mapping> mapping_;
  std::byte* base_ = nullptr;
};

}  // namespace brickx
