#pragma once

// The persistent-exchange plan layer: every exchanger freezes its message
// schedule once per configuration into an ExchangePlan (region lists,
// per-message wires, committed datatype programs, resolved view spans) and
// replays it each round. PlanCost models the one-time schedule-building
// work — what a real MPI code amortizes with MPI_Send_init/MPI_Recv_init
// and MPI_Type_commit — so the harness can report a setup vs steady-state
// split. PersistentSet carries the simmpi persistent requests a plan was
// bound to; replaying them funnels into the exact isend/irecv paths, so a
// bound exchange round is bit-identical to an ad-hoc one (see DESIGN.md §9).

#include <cstdint>
#include <utility>
#include <vector>

#include "simmpi/comm.h"
#include "simmpi/netmodel.h"

namespace brickx {

/// One frozen point-to-point message of a byte-range exchanger: a plain
/// (peer, tag, storage span) — the unit both the Layout/Basic exchangers
/// and the network-floor reference replay.
struct PlanWire {
  int rank;            ///< peer
  int tag;
  std::size_t offset;  ///< into the exchanger's storage / scratch
  std::size_t bytes;
};

/// Tally of the schedule-building work behind one exchange plan. Charged to
/// the virtual clock via seconds(): once per configuration in build-once
/// mode, once per round when replanning is forced (the abl_persistent
/// ablation). The categories mirror where real setup time goes: region-list
/// scans, per-message argument marshalling/request init, MPI_Type_commit
/// block walks, and mmap view-span resolution.
struct PlanCost {
  std::int64_t regions = 0;        ///< surface regions scanned
  std::int64_t messages = 0;       ///< messages initialized (send + recv)
  std::int64_t dt_blocks = 0;      ///< datatype blocks committed
  std::int64_t mmap_segments = 0;  ///< mmap view segments resolved

  [[nodiscard]] double seconds(const mpi::NetModel& m) const {
    return static_cast<double>(regions) * m.plan_region_overhead +
           static_cast<double>(messages) * m.plan_msg_overhead +
           static_cast<double>(dt_blocks) * m.dt_commit_overhead +
           static_cast<double>(mmap_segments) * m.mmap_segment_overhead;
  }

  PlanCost& operator+=(const PlanCost& o) {
    regions += o.regions;
    messages += o.messages;
    dt_blocks += o.dt_blocks;
    mmap_segments += o.mmap_segments;
    return *this;
  }
};

/// A frozen byte-range exchange schedule: the wires to post each round plus
/// the modeled cost of having built them. Exchangers whose messages are not
/// plain byte ranges (datatype, staged, view-backed) keep their own wire
/// representation and carry only the PlanCost.
struct ExchangePlan {
  std::vector<PlanWire> sends, recvs;
  PlanCost cost;
};

/// The persistent requests one plan was bound to, in replay order: receives
/// first, then sends — matching the ad-hoc post order — and waited in the
/// same order, matching waitall over a recvs-then-sends pending list.
/// Destroying the set while a round is in flight (a faulted exchange) is
/// safe; the abandoned rounds die with their shared state.
class PersistentSet {
 public:
  /// True once a plan has been bound (even one with zero messages — a
  /// single-rank exchange replays as a no-op rather than falling back).
  [[nodiscard]] bool bound() const { return bound_; }

  void add_recv(mpi::Persistent p) {
    recvs_.push_back(std::move(p));
    bound_ = true;
  }
  void add_send(mpi::Persistent p) {
    sends_.push_back(std::move(p));
    bound_ = true;
  }
  /// Bind an empty plan (no messages to replay).
  void mark_bound() { bound_ = true; }

  void start_all() {
    for (auto& p : recvs_) p.start();
    for (auto& p : sends_) p.start();
  }
  void wait_all() {
    for (auto& p : recvs_) p.wait();
    for (auto& p : sends_) p.wait();
  }

 private:
  std::vector<mpi::Persistent> recvs_, sends_;
  bool bound_ = false;
};

/// One partition of one partitioned wire, flattened across the whole plan:
/// `wire` indexes the exchanger's send (or recv) wire list, `part` is the
/// partition index within that wire, `region` is the surface (send side) or
/// ghost (recv side) region ordinal whose bytes the partition carries. The
/// exchangers guarantee one region per partition in both directions, so the
/// dependency scheduler can key partitions directly by region ordinal.
struct PartSpec {
  int wire;           ///< index into the exchanger's wire list
  int part;           ///< partition index within that wire
  int region;         ///< source surface / destination ghost region ordinal
  std::size_t bytes;  ///< partition payload size
};

/// The partitioned requests one plan was bound to, plus the flattened
/// partition tables the dependency scheduler walks. Start order is receives
/// first, then sends — matching the ad-hoc post order — and finish() waits
/// receives before sends so leftover (never-consumed) arrivals are drained
/// at the same flush points as a bulk waitall. Partitions are addressed by
/// flattened index into send_parts()/recv_parts().
class PartitionedSet {
 public:
  [[nodiscard]] bool bound() const { return bound_; }
  [[nodiscard]] const std::vector<PartSpec>& send_parts() const {
    return send_parts_;
  }
  [[nodiscard]] const std::vector<PartSpec>& recv_parts() const {
    return recv_parts_;
  }

  /// Adopt one partitioned send wire; `regions[i]` is the surface region
  /// ordinal partition i carries and `sizes[i]` its byte count.
  void add_send(mpi::Partitioned p, const std::vector<int>& regions,
                const std::vector<std::size_t>& sizes) {
    const int w = static_cast<int>(sends_.size());
    for (std::size_t i = 0; i < regions.size(); ++i)
      send_parts_.push_back(PartSpec{w, static_cast<int>(i), regions[i],
                                     sizes[i]});
    sends_.push_back(std::move(p));
    bound_ = true;
  }
  /// Adopt one partitioned recv wire; same contract with ghost regions.
  void add_recv(mpi::Partitioned p, const std::vector<int>& regions,
                const std::vector<std::size_t>& sizes) {
    const int w = static_cast<int>(recvs_.size());
    for (std::size_t i = 0; i < regions.size(); ++i)
      recv_parts_.push_back(PartSpec{w, static_cast<int>(i), regions[i],
                                     sizes[i]});
    recvs_.push_back(std::move(p));
    bound_ = true;
  }
  /// Bind an empty plan (no messages — single-rank exchanges replay as
  /// no-ops rather than falling back to the bulk path).
  void mark_bound() { bound_ = true; }

  /// Open a round on every wire: recv starts first, then send starts. No
  /// payload moves until individual partitions are readied.
  void start_all() {
    for (auto& p : recvs_) p.start();
    for (auto& p : sends_) p.start();
  }
  /// Mark send partition `j` (flattened index) ready for injection.
  void pready(int j) {
    const PartSpec& s = send_parts_[static_cast<std::size_t>(j)];
    sends_[static_cast<std::size_t>(s.wire)].pready(s.part);
  }
  /// Block until recv partition `j` (flattened index) has landed. Returns
  /// true when the data was already there (the wait was fully hidden).
  bool arrived(int j) {
    const PartSpec& s = recv_parts_[static_cast<std::size_t>(j)];
    return recvs_[static_cast<std::size_t>(s.wire)].arrived(s.part);
  }
  /// Close the round: drain leftover recv partitions, then complete sends.
  void finish() {
    for (auto& p : recvs_) p.wait();
    for (auto& p : sends_) p.wait();
  }

 private:
  std::vector<mpi::Partitioned> recvs_, sends_;
  std::vector<PartSpec> send_parts_, recv_parts_;
  bool bound_ = false;
};

}  // namespace brickx
