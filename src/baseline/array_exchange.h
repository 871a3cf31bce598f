#pragma once

#include <cstdint>
#include <vector>

#include "common/bitset.h"
#include "common/vec.h"
#include "core/cell_array.h"
#include "core/exchange_plan.h"
#include "core/field_set.h"
#include "simmpi/comm.h"
#include "simmpi/datatype.h"

namespace brickx::baseline {

/// Cell boxes exchanged with neighbor ν for a lexicographic array subdomain
/// of extent `domain` with ghost width `g` (disjoint across neighbors; the
/// union of send boxes is the surface instances, of recv boxes the ghost
/// frame).
Box<3> send_box(const BitSet& nu, const Vec3& domain, std::int64_t g);
Box<3> recv_box(const BitSet& nu, const Vec3& domain, std::int64_t g);

/// The classic pack-based ghost exchange on a lexicographic array — the
/// YASK-like baseline. One message per neighbor; surface cells are packed
/// into staging buffers with explicit copies (the on-node data movement the
/// paper eliminates), sent, and unpacked into the ghost frame.
///
/// The phases are split so the harness can attribute time the way the
/// paper's artifact reports it (pack / call / wait):
///   pack(field) -> start(comm) -> finish(comm) -> unpack(field)
class PackExchanger {
 public:
  /// `neighbor_ranks[i]` = rank of the neighbor in direction `dirs[i]`;
  /// `dirs` must be the full 3^D-1 direction enumeration shared by ranks.
  /// `fields > 1` sizes each staging buffer for all fields of an
  /// ArrayFields set, so one message per neighbor still carries every
  /// field (the message count is field-count-invariant).
  PackExchanger(const Vec3& domain, std::int64_t ghost,
                const std::vector<BitSet>& dirs,
                const std::vector<int>& neighbor_ranks, int fields = 1);

  /// Bind the staging buffers to persistent requests; pack/unpack still run
  /// per round (the data movement is the point of this baseline), only the
  /// message posting is replayed.
  void make_persistent(mpi::Comm& comm);

  /// Modeled cost of building the per-neighbor schedule (box derivation +
  /// message init; no datatypes, no views).
  [[nodiscard]] PlanCost setup_cost() const;

  /// Copy surface cells into the send buffers; returns bytes copied.
  std::size_t pack(const CellArray3& field);
  /// Multi-field pack: each neighbor's buffer holds field 0's surface
  /// cells, then field 1's, ... — one buffer (one message) for all fields.
  std::size_t pack(const ArrayFields& fields);
  void start(mpi::Comm& comm);
  void finish(mpi::Comm& comm);
  /// Copy receive buffers into the ghost frame; returns bytes copied.
  std::size_t unpack(CellArray3& field);
  std::size_t unpack(ArrayFields& fields);

  /// Convenience full sequence.
  void exchange(mpi::Comm& comm, CellArray3& field);
  void exchange(mpi::Comm& comm, ArrayFields& fields);

  [[nodiscard]] std::int64_t send_message_count() const {
    return static_cast<std::int64_t>(msgs_.size());
  }
  [[nodiscard]] std::int64_t send_byte_count() const;
  /// Bytes moved on-node per full exchange (pack + unpack).
  [[nodiscard]] std::int64_t onnode_byte_count() const {
    return 2 * send_byte_count();
  }

 private:
  struct NMsg {
    int rank;
    int send_tag, recv_tag;
    Box<3> sbox, rbox;
    std::vector<double> sbuf, rbuf;
  };
  int fields_ = 1;
  std::vector<NMsg> msgs_;
  PersistentSet pset_;
  std::vector<mpi::Request> pending_;
};

/// Ghost exchange through MPI derived datatypes — packing happens *inside*
/// the (simulated) MPI library via subarray types, exactly the paper's
/// MPI_Types baseline. One message per neighbor, no application staging.
class MpiTypesExchanger {
 public:
  MpiTypesExchanger(const Vec3& domain, std::int64_t ghost,
                    const std::vector<BitSet>& dirs,
                    const std::vector<int>& neighbor_ranks,
                    const CellArray3& field_shape);

  /// Multi-field variant over an ArrayFields shape: per neighbor, the
  /// per-field subarrays are concatenated (MPI_Type_create_struct at the
  /// field-slab byte displacements) into ONE committed datatype, so one
  /// isend per (neighbor, round) moves every field — the message count
  /// stays field-count-invariant without application staging.
  MpiTypesExchanger(const Vec3& domain, std::int64_t ghost,
                    const std::vector<BitSet>& dirs,
                    const std::vector<int>& neighbor_ranks,
                    const ArrayFields& fields_shape);

  /// Bind the committed datatypes to persistent requests anchored at
  /// `field`'s raw buffer. Persistent MPI freezes the buffer address, so
  /// subsequent start() calls must pass the same field (checked).
  void make_persistent(mpi::Comm& comm, CellArray3& field);
  void make_persistent(mpi::Comm& comm, ArrayFields& fields);

  /// Modeled cost of building the plan: datatype commit dominates (one
  /// entry per contiguous block of the subarray walks), plus message init.
  [[nodiscard]] PlanCost setup_cost() const;

  void start(mpi::Comm& comm, CellArray3& field);
  void start(mpi::Comm& comm, ArrayFields& fields);
  void finish(mpi::Comm& comm);
  void exchange(mpi::Comm& comm, CellArray3& field);
  void exchange(mpi::Comm& comm, ArrayFields& fields);

  [[nodiscard]] std::int64_t send_message_count() const {
    return static_cast<std::int64_t>(msgs_.size());
  }
  [[nodiscard]] std::int64_t send_byte_count() const;
  /// Total contiguous blocks the datatype engine walks per exchange (send
  /// plus receive side) — the quantity that dominates MPI_Types cost.
  [[nodiscard]] std::int64_t datatype_block_count() const;

 private:
  /// Both public constructors: `fields` slabs over the frame box `frame`.
  MpiTypesExchanger(const Vec3& domain, std::int64_t ghost,
                    const std::vector<BitSet>& dirs,
                    const std::vector<int>& neighbor_ranks,
                    const Box<3>& frame, int fields);
  void bind_raw(mpi::Comm& comm, double* base);
  void start_raw(mpi::Comm& comm, double* base);

  struct NMsg {
    int rank;
    int send_tag, recv_tag;
    mpi::Datatype stype, rtype;
  };
  int fields_ = 1;
  std::vector<NMsg> msgs_;
  PersistentSet pset_;
  const double* bound_field_ = nullptr;  ///< raw() base make_persistent froze
  std::vector<mpi::Request> pending_;
};

}  // namespace brickx::baseline
