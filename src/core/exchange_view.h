#pragma once

#include <cstdint>
#include <vector>

#include "core/decomp.h"
#include "core/exchange_plan.h"
#include "memmap/view.h"
#include "simmpi/comm.h"

namespace brickx {

/// The MemMap exchange (paper Section 4): for every neighbor, a contiguous
/// *virtual* view of the (scattered, overlapping) regions it needs is
/// stitched with mmap, so the whole per-neighbor payload travels as exactly
/// one plain message — 3^D - 1 sends per rank, zero packing, zero copies.
///
/// Requires storage from BrickDecomp::mmap_alloc (memfd-backed, chunks
/// padded to page boundaries). The views are built once and reused for the
/// life of the communication pattern.
template <int D>
class ExchangeView {
 public:
  ExchangeView(const BrickDecomp<D>& dec, BrickStorage& storage,
               const std::vector<int>& neighbor_ranks);

  /// Bind every view wire to a persistent request; later rounds replay via
  /// Persistent::start/wait on the resolved view spans.
  void make_persistent(mpi::Comm& comm);

  /// Bind every view wire to a *partitioned* request with one partition per
  /// padded region chunk in the view (surface chunks on the send side,
  /// ghost chunks on the receive side), for the dependency scheduler.
  /// Mutually exclusive with make_persistent.
  void make_partitioned(mpi::Comm& comm);

  /// Partitioned-round operations (valid only after make_partitioned).
  [[nodiscard]] PartitionedSet& parts() { return part_; }
  [[nodiscard]] const std::vector<PartSpec>& send_parts() const {
    return part_.send_parts();
  }
  [[nodiscard]] const std::vector<PartSpec>& recv_parts() const {
    return part_.recv_parts();
  }
  void part_start() { part_.start_all(); }
  void part_pready(int j) { part_.pready(j); }
  bool part_arrived(int j) { return part_.arrived(j); }
  void part_finish() { part_.finish(); }

  void start(mpi::Comm& comm);
  void finish(mpi::Comm& comm);
  void exchange(mpi::Comm& comm) {
    start(comm);
    finish(comm);
  }

  /// Modeled cost of building this plan: mmap view-span resolution
  /// dominates (one entry per live segment), plus per-message init.
  [[nodiscard]] PlanCost setup_cost() const;

  /// Always 3^D - 1 (minus neighbors with empty payload).
  [[nodiscard]] std::int64_t send_message_count() const {
    return static_cast<std::int64_t>(sends_.size());
  }
  /// Bytes actually sent (page-padded views).
  [[nodiscard]] std::int64_t send_byte_count() const;
  /// Useful payload bytes within those views.
  [[nodiscard]] std::int64_t payload_byte_count() const {
    return payload_bytes_;
  }
  /// Table 2's "increased network transfer from padding", in percent.
  [[nodiscard]] double padding_overhead_percent() const;

  /// mmap segments this rank holds live (counts against vm.max_map_count).
  [[nodiscard]] std::int64_t view_segment_count() const;

  /// Visit every underlying view (sends then receives) — used to register
  /// unified-memory aliases with the GPU simulator.
  template <typename F>
  void visit_views(F&& fn) const {
    for (const VWire& w : sends_) fn(w.view);
    for (const VWire& w : recvs_) fn(w.view);
  }

 private:
  struct VWire {
    int rank;
    int tag;
    mm::View view;
  };
  std::vector<VWire> sends_, recvs_;
  PersistentSet pset_;
  PartitionedSet part_;
  // Region ordinals and page-padded byte counts carried by each wire,
  // aligned with sends_/recvs_ — the partition tables for make_partitioned.
  std::vector<std::vector<int>> send_regions_, recv_regions_;
  std::vector<std::vector<std::size_t>> send_sizes_, recv_sizes_;
  std::vector<mpi::Request> pending_;
  std::int64_t payload_bytes_ = 0;
  std::int64_t scanned_regions_ = 0;
};

}  // namespace brickx
