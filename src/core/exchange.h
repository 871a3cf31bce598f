#pragma once

#include <cstdint>
#include <vector>

#include "core/decomp.h"
#include "core/exchange_plan.h"
#include "simmpi/cart.h"
#include "simmpi/comm.h"

namespace brickx {

/// Neighbor ranks indexed like BrickDecomp::neighbor_order() — the paper's
/// `populate(cart, bDecomp, ...)` step.
template <int D>
std::vector<int> populate(const mpi::Cart<D>& cart, const BrickDecomp<D>& dec);

/// Pack-free ghost-zone exchange operating directly on brick storage:
/// every message is a plain (pointer, length) range of storage — no staging
/// buffers, no pack/unpack.
///
///  * Mode::Layout merges regions consecutive in storage that share a
///    destination (42 messages in 3D with surface3d()).
///  * Mode::Basic sends each (region, neighbor) instance separately
///    (98 messages in 3D) — the unoptimized reference from Section 3.2.
///
/// The message schedule is frozen once at construction into an
/// ExchangePlan (the pattern is Static) and replayed each timestep — either
/// ad hoc (fresh isend/irecv per round) or, after make_persistent(), over
/// persistent requests. Both replay paths are bit-identical in exchanged
/// bytes, counters and virtual time.
template <int D>
class Exchanger {
 public:
  enum class Mode { Layout, Basic };

  /// `neighbor_ranks` comes from populate(). The storage must have been
  /// allocated from `dec` (chunk geometry must match).
  Exchanger(const BrickDecomp<D>& dec, BrickStorage& storage,
            const std::vector<int>& neighbor_ranks, Mode mode);

  /// Bind the frozen plan to persistent requests on `comm`: every wire gets
  /// a Comm::send_init/recv_init, and subsequent rounds replay via
  /// Persistent::start/wait. Call at most once, before any exchange round
  /// is in flight.
  void make_persistent(mpi::Comm& comm);

  /// Bind the frozen plan to *partitioned* requests (MPI 4.0 psend/precv
  /// style): every wire becomes one partitioned request with one partition
  /// per surface (send side) / ghost (recv side) region in the wire. The
  /// dependency scheduler then readies each partition as its source bricks
  /// finish and waits only on the partitions a consuming brick needs.
  /// Mutually exclusive with make_persistent; call before any round is in
  /// flight.
  void make_partitioned(mpi::Comm& comm);

  /// Partitioned-round operations (valid only after make_partitioned).
  /// Partitions are addressed by flattened index into send_parts() /
  /// recv_parts(); each PartSpec names the region ordinal it carries.
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

  /// Post receives then sends (paper's communication start).
  void start(mpi::Comm& comm);
  /// Complete all pending requests.
  void finish(mpi::Comm& comm);
  /// start + finish.
  void exchange(mpi::Comm& comm) {
    start(comm);
    finish(comm);
  }

  /// The modeled cost of building the frozen schedule.
  [[nodiscard]] PlanCost setup_cost() const { return plan_.cost; }

  /// Messages sent per exchange by this rank (Fig. 4 / Table 1 accounting).
  [[nodiscard]] std::int64_t send_message_count() const {
    return static_cast<std::int64_t>(plan_.sends.size());
  }
  [[nodiscard]] std::int64_t send_byte_count() const;

  /// Visit the planned receive ranges as (peer rank, byte offset into
  /// storage, byte length). Lets the write-set tests prove at the *plan*
  /// level that every ghost byte has exactly one writer — overlapping
  /// receives could otherwise hide behind page padding or identical data.
  template <typename F>
  void visit_recv_ranges(F&& fn) const {
    for (const PlanWire& w : plan_.recvs) fn(w.rank, w.offset, w.bytes);
  }

 private:
  BrickStorage* storage_;
  ExchangePlan plan_;
  PersistentSet pset_;
  PartitionedSet part_;
  // Region ordinals carried by each wire, aligned with plan_.sends /
  // plan_.recvs — the partition tables for make_partitioned.
  std::vector<std::vector<int>> send_regions_, recv_regions_;
  std::vector<mpi::Request> pending_;
};

/// The empirical minimum-communication reference ("Network" in Figs. 9/14):
/// per neighbor, one message of the same total payload, sent from a
/// contiguous scratch buffer with no packing cost. Timing-only — it moves
/// scratch bytes, not the domain data.
template <int D>
class NetworkFloorExchanger {
 public:
  /// With `padded` set, per-neighbor volumes use the storage's page-padded
  /// chunk sizes — making the floor byte-identical to a MemMap view
  /// exchange. This doubles as a MemMap timing proxy when per-view mmap
  /// segments would exceed vm.max_map_count (large in-process rank counts;
  /// see DESIGN.md).
  NetworkFloorExchanger(const BrickDecomp<D>& dec, const BrickStorage& storage,
                        const std::vector<int>& neighbor_ranks,
                        bool padded = false);

  /// Bind the per-neighbor scratch wires to persistent requests.
  void make_persistent(mpi::Comm& comm);

  void start(mpi::Comm& comm);
  void finish(mpi::Comm& comm);
  void exchange(mpi::Comm& comm) {
    start(comm);
    finish(comm);
  }

  [[nodiscard]] PlanCost setup_cost() const { return plan_.cost; }

  [[nodiscard]] std::int64_t send_message_count() const {
    return static_cast<std::int64_t>(plan_.sends.size());
  }
  [[nodiscard]] std::int64_t send_byte_count() const;

 private:
  std::vector<std::byte> scratch_;
  ExchangePlan plan_;
  PersistentSet pset_;
  std::vector<mpi::Request> pending_;
};

/// Internal helper shared by the exchangers and tests: the per-message
/// grouping of surface-region ordinals sent toward `dir`, as maximal runs
/// of byte-contiguous chunks in `storage` ((merge == false) disables run
/// merging, yielding the Basic grouping).
template <int D>
std::vector<std::vector<int>> plan_send_groups(const BrickDecomp<D>& dec,
                                               const BrickStorage& storage,
                                               const BitSet& dir, bool merge);

}  // namespace brickx
