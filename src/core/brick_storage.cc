#include "core/brick_storage.h"

#include "common/error.h"
#include "memmap/pagesize.h"

namespace brickx {

void BrickStorage::layout_chunks(const std::vector<std::int64_t>& chunk_bricks,
                                 std::int64_t elems_per_brick, int fields,
                                 std::size_t page_size) {
  BX_CHECK(elems_per_brick > 0 && fields > 0, "bad brick geometry");
  elems_per_brick_ = elems_per_brick;
  fields_ = fields;
  brick_bytes_ = static_cast<std::size_t>(elems_per_brick) *
                 static_cast<std::size_t>(fields) * sizeof(double);
  page_size_ = page_size;

  std::size_t at = 0;
  std::int64_t total_bricks = 0;
  chunks_.reserve(chunk_bricks.size());
  for (std::int64_t nb : chunk_bricks) {
    BX_CHECK(nb >= 0, "negative chunk brick count");
    Chunk c;
    c.offset = at;
    c.bytes = static_cast<std::size_t>(nb) * brick_bytes_;
    c.padded_bytes =
        page_size ? mm::round_up(c.bytes, page_size) : c.bytes;
    chunks_.push_back(c);
    at += c.padded_bytes;
    total_bricks += nb;
  }
  total_bytes_ = at;

  brick_offsets_.reserve(static_cast<std::size_t>(total_bricks));
  for (std::size_t ci = 0; ci < chunk_bricks.size(); ++ci) {
    for (std::int64_t b = 0; b < chunk_bricks[ci]; ++b)
      brick_offsets_.push_back(chunks_[ci].offset +
                               static_cast<std::size_t>(b) * brick_bytes_);
  }
}

std::size_t BrickStorage::padding_bytes() const {
  std::size_t pad = 0;
  for (const Chunk& c : chunks_) pad += c.padded_bytes - c.bytes;
  return pad;
}

BrickStorage BrickStorage::heap(const std::vector<std::int64_t>& chunk_bricks,
                                std::int64_t elems_per_brick, int fields) {
  BrickStorage s;
  s.layout_chunks(chunk_bricks, elems_per_brick, fields, /*page_size=*/0);
  s.heap_ = ZeroedBuffer(s.total_bytes_);
  s.base_ = s.heap_.data();
  return s;
}

BrickStorage BrickStorage::memfd(const std::vector<std::int64_t>& chunk_bricks,
                                 std::int64_t elems_per_brick, int fields,
                                 std::size_t page_size) {
  BX_CHECK(page_size % mm::host_page_size() == 0,
           "storage page size must be a multiple of the host page size");
  BrickStorage s;
  s.layout_chunks(chunk_bricks, elems_per_brick, fields, page_size);
  s.file_ = std::make_unique<mm::MemFile>(s.total_bytes_ ? s.total_bytes_ : 1,
                                          "brickx-storage");
  s.mapping_ = std::make_unique<mm::Mapping>(*s.file_);
  s.base_ = s.mapping_->data();
  // memfd pages are zero-filled by the kernel; nothing to initialize.
  return s;
}

}  // namespace brickx
