#include "baseline/array_exchange.h"

#include "common/error.h"

namespace brickx::baseline {

Box<3> send_box(const BitSet& nu, const Vec3& domain, std::int64_t g) {
  Box<3> b;
  for (int a = 0; a < 3; ++a) {
    switch (nu.dir_of(a + 1)) {
      case 1:
        b.lo[a] = domain[a] - g;
        b.hi[a] = domain[a];
        break;
      case -1:
        b.lo[a] = 0;
        b.hi[a] = g;
        break;
      default:
        b.lo[a] = 0;
        b.hi[a] = domain[a];
    }
  }
  return b;
}

Box<3> recv_box(const BitSet& nu, const Vec3& domain, std::int64_t g) {
  Box<3> b;
  for (int a = 0; a < 3; ++a) {
    switch (nu.dir_of(a + 1)) {
      case 1:
        b.lo[a] = domain[a];
        b.hi[a] = domain[a] + g;
        break;
      case -1:
        b.lo[a] = -g;
        b.hi[a] = 0;
        break;
      default:
        b.lo[a] = 0;
        b.hi[a] = domain[a];
    }
  }
  return b;
}

namespace {
int ordinal_of(const std::vector<BitSet>& dirs, const BitSet& d) {
  for (std::size_t i = 0; i < dirs.size(); ++i)
    if (dirs[i] == d) return static_cast<int>(i);
  brickx::fail("direction missing from enumeration");
}
}  // namespace

PackExchanger::PackExchanger(const Vec3& domain, std::int64_t ghost,
                             const std::vector<BitSet>& dirs,
                             const std::vector<int>& neighbor_ranks,
                             int fields)
    : fields_(fields) {
  BX_CHECK(dirs.size() == neighbor_ranks.size(),
           "direction and rank tables disagree");
  BX_CHECK(fields >= 1, "need at least one field");
  for (std::size_t v = 0; v < dirs.size(); ++v) {
    NMsg m;
    m.rank = neighbor_ranks[v];
    m.send_tag = static_cast<int>(v);
    m.recv_tag = ordinal_of(dirs, dirs[v].flipped());
    m.sbox = send_box(dirs[v], domain, ghost);
    m.rbox = recv_box(dirs[v], domain, ghost);
    BX_CHECK(m.sbox.volume() == m.rbox.volume(),
             "send/recv volumes must match");
    // One buffer (one message) per neighbor regardless of field count.
    m.sbuf.resize(static_cast<std::size_t>(m.sbox.volume() * fields));
    m.rbuf.resize(static_cast<std::size_t>(m.rbox.volume() * fields));
    msgs_.push_back(std::move(m));
  }
}

std::size_t PackExchanger::pack(const CellArray3& field) {
  BX_CHECK(fields_ == 1,
           "single-field pack on a multi-field exchanger; pass ArrayFields");
  std::size_t bytes = 0;
  for (NMsg& m : msgs_) {
    std::size_t at = 0;
    for_each(m.sbox, [&](const Vec3& p) { m.sbuf[at++] = field.at(p); });
    bytes += at * sizeof(double);
  }
  return bytes;
}

std::size_t PackExchanger::pack(const ArrayFields& fields) {
  BX_CHECK(fields.fields() == fields_,
           "field count does not match the exchanger's");
  std::size_t bytes = 0;
  for (NMsg& m : msgs_) {
    std::size_t at = 0;
    for (int f = 0; f < fields_; ++f)
      for_each(m.sbox,
               [&](const Vec3& p) { m.sbuf[at++] = fields.at(f, p); });
    bytes += at * sizeof(double);
  }
  return bytes;
}

void PackExchanger::make_persistent(mpi::Comm& comm) {
  BX_CHECK(!pset_.bound(), "pack exchanger already bound");
  BX_CHECK(pending_.empty(), "cannot bind while an exchange is in flight");
  for (NMsg& m : msgs_)
    pset_.add_recv(comm.recv_init(m.rbuf.data(),
                                  m.rbuf.size() * sizeof(double), m.rank,
                                  m.recv_tag));
  for (NMsg& m : msgs_)
    pset_.add_send(comm.send_init(m.sbuf.data(),
                                  m.sbuf.size() * sizeof(double), m.rank,
                                  m.send_tag));
  pset_.mark_bound();
}

PlanCost PackExchanger::setup_cost() const {
  PlanCost c;
  c.regions = static_cast<std::int64_t>(msgs_.size());  // one box pair each
  c.messages = static_cast<std::int64_t>(2 * msgs_.size());
  return c;
}

void PackExchanger::start(mpi::Comm& comm) {
  BX_CHECK(pending_.empty(), "previous exchange still in flight");
  if (pset_.bound()) {
    pset_.start_all();
    return;
  }
  for (NMsg& m : msgs_)
    pending_.push_back(comm.irecv(m.rbuf.data(),
                                  m.rbuf.size() * sizeof(double), m.rank,
                                  m.recv_tag));
  for (NMsg& m : msgs_)
    pending_.push_back(comm.isend(m.sbuf.data(),
                                  m.sbuf.size() * sizeof(double), m.rank,
                                  m.send_tag));
}

void PackExchanger::finish(mpi::Comm& comm) {
  if (pset_.bound()) {
    pset_.wait_all();
    return;
  }
  comm.waitall(pending_);
}

std::size_t PackExchanger::unpack(CellArray3& field) {
  BX_CHECK(fields_ == 1,
           "single-field unpack on a multi-field exchanger; pass ArrayFields");
  std::size_t bytes = 0;
  for (NMsg& m : msgs_) {
    std::size_t at = 0;
    for_each(m.rbox, [&](const Vec3& p) { field.at(p) = m.rbuf[at++]; });
    bytes += at * sizeof(double);
  }
  return bytes;
}

std::size_t PackExchanger::unpack(ArrayFields& fields) {
  BX_CHECK(fields.fields() == fields_,
           "field count does not match the exchanger's");
  std::size_t bytes = 0;
  for (NMsg& m : msgs_) {
    std::size_t at = 0;
    for (int f = 0; f < fields_; ++f)
      for_each(m.rbox,
               [&](const Vec3& p) { fields.at(f, p) = m.rbuf[at++]; });
    bytes += at * sizeof(double);
  }
  return bytes;
}

void PackExchanger::exchange(mpi::Comm& comm, CellArray3& field) {
  pack(field);
  start(comm);
  finish(comm);
  unpack(field);
}

void PackExchanger::exchange(mpi::Comm& comm, ArrayFields& fields) {
  pack(fields);
  start(comm);
  finish(comm);
  unpack(fields);
}

std::int64_t PackExchanger::send_byte_count() const {
  std::int64_t n = 0;
  for (const NMsg& m : msgs_)
    n += static_cast<std::int64_t>(m.sbuf.size() * sizeof(double));
  return n;
}

MpiTypesExchanger::MpiTypesExchanger(const Vec3& domain, std::int64_t ghost,
                                     const std::vector<BitSet>& dirs,
                                     const std::vector<int>& neighbor_ranks,
                                     const CellArray3& field_shape)
    : MpiTypesExchanger(domain, ghost, dirs, neighbor_ranks, field_shape.box(),
                        1) {}

MpiTypesExchanger::MpiTypesExchanger(const Vec3& domain, std::int64_t ghost,
                                     const std::vector<BitSet>& dirs,
                                     const std::vector<int>& neighbor_ranks,
                                     const ArrayFields& fields_shape)
    : MpiTypesExchanger(domain, ghost, dirs, neighbor_ranks, fields_shape.box(),
                        fields_shape.fields()) {}

MpiTypesExchanger::MpiTypesExchanger(const Vec3& domain, std::int64_t ghost,
                                     const std::vector<BitSet>& dirs,
                                     const std::vector<int>& neighbor_ranks,
                                     const Box<3>& fb, int fields)
    : fields_(fields) {
  BX_CHECK(dirs.size() == neighbor_ranks.size(),
           "direction and rank tables disagree");
  const Vec3 sizes = fb.extent();
  const std::size_t slab_bytes =
      static_cast<std::size_t>(fb.volume()) * sizeof(double);
  for (std::size_t v = 0; v < dirs.size(); ++v) {
    NMsg m;
    m.rank = neighbor_ranks[v];
    m.send_tag = static_cast<int>(v);
    m.recv_tag = ordinal_of(dirs, dirs[v].flipped());
    const Box<3> sb = send_box(dirs[v], domain, ghost);
    const Box<3> rb = recv_box(dirs[v], domain, ghost);
    // One committed type per side: the per-field subarrays concatenated at
    // the field-slab displacements (MPI_Type_create_struct). With one field
    // the single part's blocks are exactly the bare subarray's.
    std::vector<std::pair<std::size_t, mpi::Datatype>> sparts, rparts;
    for (int f = 0; f < fields_; ++f) {
      const std::size_t disp = static_cast<std::size_t>(f) * slab_bytes;
      sparts.emplace_back(disp,
                          mpi::Datatype::subarray<3>(sizes, sb.extent(),
                                                     sb.lo - fb.lo,
                                                     sizeof(double)));
      rparts.emplace_back(disp,
                          mpi::Datatype::subarray<3>(sizes, rb.extent(),
                                                     rb.lo - fb.lo,
                                                     sizeof(double)));
    }
    m.stype = mpi::Datatype::concat(sparts);
    m.rtype = mpi::Datatype::concat(rparts);
    msgs_.push_back(std::move(m));
  }
}

void MpiTypesExchanger::bind_raw(mpi::Comm& comm, double* base) {
  BX_CHECK(!pset_.bound(), "types exchanger already bound");
  BX_CHECK(pending_.empty(), "cannot bind while an exchange is in flight");
  bound_field_ = base;
  for (NMsg& m : msgs_)
    pset_.add_recv(comm.recv_init(base, m.rtype, m.rank, m.recv_tag));
  for (NMsg& m : msgs_)
    pset_.add_send(comm.send_init(base, m.stype, m.rank, m.send_tag));
  pset_.mark_bound();
}

void MpiTypesExchanger::make_persistent(mpi::Comm& comm, CellArray3& field) {
  BX_CHECK(fields_ == 1,
           "single-field bind on a multi-field exchanger; pass ArrayFields");
  bind_raw(comm, field.raw().data());
}

void MpiTypesExchanger::make_persistent(mpi::Comm& comm,
                                        ArrayFields& fields) {
  BX_CHECK(fields.fields() == fields_,
           "field count does not match the exchanger's");
  bind_raw(comm, fields.raw().data());
}

PlanCost MpiTypesExchanger::setup_cost() const {
  PlanCost c;
  c.regions = static_cast<std::int64_t>(msgs_.size());  // one box pair each
  c.messages = static_cast<std::int64_t>(2 * msgs_.size());
  c.dt_blocks = datatype_block_count();
  return c;
}

void MpiTypesExchanger::start_raw(mpi::Comm& comm, double* base) {
  BX_CHECK(pending_.empty(), "previous exchange still in flight");
  if (pset_.bound()) {
    // Persistent MPI freezes the buffer address at init; replaying against
    // a different field would silently exchange the wrong data.
    BX_CHECK(base == bound_field_,
             "persistent MPI_Types exchange started on a different field "
             "than the one bound by make_persistent");
    pset_.start_all();
    return;
  }
  for (NMsg& m : msgs_)
    pending_.push_back(comm.irecv(base, m.rtype, m.rank, m.recv_tag));
  for (NMsg& m : msgs_)
    pending_.push_back(comm.isend(base, m.stype, m.rank, m.send_tag));
}

void MpiTypesExchanger::start(mpi::Comm& comm, CellArray3& field) {
  BX_CHECK(fields_ == 1,
           "single-field start on a multi-field exchanger; pass ArrayFields");
  start_raw(comm, field.raw().data());
}

void MpiTypesExchanger::start(mpi::Comm& comm, ArrayFields& fields) {
  BX_CHECK(fields.fields() == fields_,
           "field count does not match the exchanger's");
  start_raw(comm, fields.raw().data());
}

void MpiTypesExchanger::finish(mpi::Comm& comm) {
  if (pset_.bound()) {
    pset_.wait_all();
    return;
  }
  comm.waitall(pending_);
}

void MpiTypesExchanger::exchange(mpi::Comm& comm, CellArray3& field) {
  start(comm, field);
  finish(comm);
}

void MpiTypesExchanger::exchange(mpi::Comm& comm, ArrayFields& fields) {
  start(comm, fields);
  finish(comm);
}

std::int64_t MpiTypesExchanger::send_byte_count() const {
  std::int64_t n = 0;
  for (const NMsg& m : msgs_) n += static_cast<std::int64_t>(m.stype.size());
  return n;
}

std::int64_t MpiTypesExchanger::datatype_block_count() const {
  std::int64_t n = 0;
  for (const NMsg& m : msgs_)
    n += static_cast<std::int64_t>(m.stype.block_count() +
                                   m.rtype.block_count());
  return n;
}

}  // namespace brickx::baseline
