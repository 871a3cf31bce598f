#include "simmpi/comm.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <optional>
#include <thread>

#include "common/error.h"
#include "netsim/fabric.h"
#include "obs/obs.h"
#include "transport/aggregate.h"

namespace brickx::mpi {

struct Request::State {
  enum class Kind { Send, Recv } kind;
  // Send: virtual time at which the local NIC has injected the message.
  double send_complete = 0.0;
  // Recv: posted parameters; matching happens in wait().
  void* buf = nullptr;
  std::size_t bytes = 0;
  std::shared_ptr<const FlatType> flat;  // null => contiguous receive
  int peer = -1;
  int tag = 0;
  bool done = false;
};

const NetModel& Comm::net() const { return rt_->model_; }

namespace {
/// The flow record of one message, built from its envelope once its timing
/// and fault decision are final: `arrive` includes any injected delay, and a
/// partition keeps its index on every path. `agg_subs` is the size of the
/// aggregation frame it rode in (0 for none).
obs::FlowEvent flow_record(const Envelope& env, int dest, int agg_subs) {
  obs::FlowEvent fe;
  fe.src = env.src;
  fe.dst = dest;
  fe.tag = env.tag;
  fe.bytes = static_cast<std::uint64_t>(env.sent_bytes);
  fe.depart = env.inject_end;
  fe.arrive = env.arrival;
  fe.post = env.post;
  fe.inject_start = env.inject_start;
  fe.inject_nominal = env.inject_nominal;
  fe.fault_delay = env.fault_delay;
  fe.sharing = env.sharing;
  fe.onnode = env.onnode;
  fe.agg_subs = agg_subs;
  fe.part = env.part;
  return fe;
}
}  // namespace

Request Comm::isend(const void* buf, std::size_t bytes, int dest, int tag) {
  return isend_impl(buf, bytes, nullptr, dest, tag);
}

Request Comm::isend(const void* buf, const Datatype& type, int dest,
                    int tag) {
  return isend_impl(buf, type.size(), type.flat_ptr(), dest, tag);
}

Request Comm::irecv(void* buf, std::size_t bytes, int src, int tag) {
  return irecv_impl(buf, bytes, nullptr, src, tag);
}

Request Comm::irecv(void* buf, const Datatype& type, int src, int tag) {
  return irecv_impl(buf, type.size(), type.flat_ptr(), src, tag);
}

Request Comm::isend_impl(const void* buf, std::size_t bytes,
                         std::shared_ptr<const FlatType> flat, int dest,
                         int tag) {
  BX_CHECK(dest >= 0 && dest < size_, "isend: bad destination rank");
  obs::ObsSpan op_span(obs::Cat::Call, "mpi_isend");
  const NetModel& m = rt_->model_;
  clock_.advance(m.send_overhead);

  Envelope env;
  env.src = rank_;
  env.tag = tag;
  if (flat != nullptr) {
    // The datatype engine packs internally: real copies, and the virtual
    // clock is charged per block plus copy bandwidth — the MPI_Types cost
    // profile the paper measures.
    obs::ObsSpan dt_span(obs::Cat::DtPack, "dt_gather");
    const FlatType& ft = *flat;
    env.data.resize(bytes);
    ft.gather(static_cast<const std::byte*>(buf), env.data.data());
    clock_.advance(static_cast<double>(ft.blocks.size()) *
                       m.dt_block_overhead +
                   static_cast<double>(bytes) / m.dt_copy_bw);
    counters_.dt_blocks += static_cast<std::int64_t>(ft.blocks.size());
    counters_.dt_pack_bytes += static_cast<std::int64_t>(bytes);
  } else if (bytes > 0) {
    // One pass: the payload is built from the source, never zero-filled
    // first.
    const auto* src = static_cast<const std::byte*>(buf);
    env.data.assign(src, src + bytes);
  }
  // Unified-memory buffers may need page migration to be readable by the
  // NIC/host; the gpusim hook charges it. Datatype sends touch each
  // contiguous block at its real offset (not the packed size).
  if (flat != nullptr) {
    for (const auto& blk : flat->blocks)
      clock_.advance(rt_->touch(rank_,
                                static_cast<const std::byte*>(buf) + blk.offset,
                                blk.length, /*write=*/false));
  } else {
    clock_.advance(rt_->touch(rank_, buf, bytes, /*write=*/false));
  }
  count_send(dest, bytes);
  if (++inflight_ > counters_.max_inflight_reqs)
    counters_.max_inflight_reqs = inflight_;

  Request req;
  req.state_ = std::make_shared<Request::State>();
  req.state_->kind = Request::State::Kind::Send;
  req.state_->send_complete =
      send_step(std::move(env), dest, buf, flat != nullptr, /*first=*/true);
  return req;
}

void Comm::count_send(int dest, std::size_t bytes) {
  const auto b = static_cast<std::int64_t>(bytes);
  counters_.msgs_sent += 1;
  counters_.bytes_sent += b;
  if (rt_->fabric_->local(rank_, dest)) {
    counters_.msgs_intra += 1;
    counters_.bytes_intra += b;
  } else {
    counters_.msgs_inter += 1;
    counters_.bytes_inter += b;
  }
}

double Comm::send_step(Envelope env, int dest, const void* buf, bool strided,
                       bool first) {
  // Hand the message to the transport tier. Flat (the default) gives every
  // message to the fabric for departure/arrival timing — with the default
  // flat fabric this is bit-identical to the original sender-NIC
  // serialization. Shm short-circuits same-node pairs: the fabric (and
  // this rank's NIC horizon) never sees them, delivery is one on-node
  // handoff away. ShmAgg additionally stages inter-node sends into the
  // node leader's frame buffer; their departure/arrival are stamped when
  // the frame seals (Runtime::seal_frame). The receiver-side memory space
  // adds its latency at the receive step; bandwidth is modeled once, here
  // (our experiments use symmetric spaces on both endpoints).
  const NetModel& m = rt_->model_;
  const std::size_t bytes = env.data.size();
  netsim::Fabric& fab = *rt_->fabric_;
  const bool local = fab.local(rank_, dest);
  const LinkParams lp = m.adjust(local ? m.intra_node : m.inter_node,
                                 rt_->classify(buf), MemSpace::Host);
  const transport::Kind tk = rt_->transport_;
  const bool shm_path = tk != transport::Kind::Flat && local;
  const bool agg_path = tk == transport::Kind::ShmAgg && !local;

  if (shm_path && strided) {
    // Strided payload on the on-node tier: publish the packed image with
    // one copy through a node-shared mapped view. Contiguous payloads are
    // pointer handoffs and pay latency only — the zero-copy win a
    // contiguity-preserving layout buys.
    const double copy = static_cast<double>(bytes) / m.shm_view_bw;
    obs::note_cost(obs::Cat::OnNode, "shm_view_copy", copy);
    clock_.advance(copy);
  } else if (agg_path) {
    const double copy = static_cast<double>(bytes) / m.shm_view_bw;
    obs::note_cost(obs::Cat::OnNode, "agg_stage", copy);
    clock_.advance(copy);
  }

  const double post = clock_.now();
  env.post = post;
  if (shm_path) {
    env.arrival = post + m.shm_handoff_alpha;
    env.inject_start = post;
    env.inject_end = post;
    env.onnode = true;
    rt_->note_onnode(bytes, strided);
  } else if (!agg_path) {
    // Partitions of one round share the wire's logical message: the first
    // pays the per-message fabric costs, the rest stream behind it
    // (send_part) — so overlap changes when bytes move, never what the
    // fabric carries.
    const netsim::SendTiming tm =
        env.part < 0
            ? fab.send(rank_, dest, bytes, lp.alpha, lp.bw, post)
            : fab.send_part(rank_, dest, bytes, lp.alpha, lp.bw, post, first);
    env.arrival = tm.arrival;
    env.inject_start = tm.inject_start;
    env.inject_end = tm.inject_end;
    env.inject_nominal = static_cast<double>(bytes) / lp.bw;
    env.sharing = tm.sharing;
  }

  // Fault seam: with an injector installed, stamp the integrity header
  // (sequence + checksum of the payload as sent) and let the seeded
  // schedule perturb the envelope. Each (peer, tag, partition) is its own
  // integrity stream, so a reorder/delay on one partition leaves the
  // others' sequence checks clean. None of this touches the virtual clock
  // except an injected Delay, which moves only the arrival.
  env.sent_bytes = bytes;
  bool duplicate = false, hold = false;
  if (FaultInjector* fi = rt_->fault_) {
    env.seq = ++send_seq_[{dest, env.tag, env.part}];
    env.checksum = checksum_bytes(env.data.data(), env.data.size());
    const FaultInjector::Decision d = fi->decide(rank_, dest, env.tag, bytes);
    switch (d.kind) {
      case FaultKind::None:
        break;
      case FaultKind::Delay:
        env.arrival += d.delay;
        env.fault_delay = d.delay;
        break;
      case FaultKind::Drop:
        env.dropped = true;
        env.data.clear();
        break;
      case FaultKind::Duplicate:
        duplicate = true;
        break;
      case FaultKind::Reorder:
        hold = true;
        break;
      case FaultKind::Truncate:
        env.data.resize(d.truncate_to);
        break;
      case FaultKind::Corrupt:
        env.data[d.corrupt_at] ^= std::byte{0x2a};
        break;
    }
  }
  if (!agg_path) {  // aggregated subs are recorded when their frame seals
    if (obs::RankLog* lg = obs::ambient_log())
      lg->flow(flow_record(env, dest, 0));
  }
  const double done = agg_path ? post : env.inject_end;
  if (agg_path) {
    // Staged toward the node leader's frame; the fault decision above
    // already bit the sub-envelope, and a Reorder moves only its mailbox
    // delivery behind the frame's other subs (Runtime::seal_frame).
    if (duplicate) rt_->stage_agg(rank_, dest, env, false);  // same seq
    rt_->stage_agg(rank_, dest, std::move(env), hold);
  } else if (hold) {
    // Reordered: parked until the next send to this peer (below) or the
    // next commit point. The arrival time was already fixed above, so only
    // delivery order shifts — which (src, tag, part) matching absorbs
    // unless two messages share an edge, where the receiver's sequence
    // check fires.
    held_.emplace_back(dest, std::move(env));
  } else {
    if (duplicate) rt_->deliver(dest, env);  // replayed copy, same seq
    rt_->deliver(dest, std::move(env));
    flush_held_to(dest);
  }
  return done;
}

void Comm::commit_point() {
  // Before this rank can block, everything it still holds back (reorder
  // faults) must reach the wire — the flush point that keeps fault
  // schedules deadlock-free. The same point advances this rank's
  // aggregation commit generation, so staged frames seal before anyone
  // can block on their sub-messages.
  if (!held_.empty()) flush_held();
  rt_->transport_commit(rank_);
}

void Comm::flush_held() {
  for (auto& [dest, env] : held_) rt_->deliver(dest, std::move(env));
  held_.clear();
}

void Comm::flush_held_to(int dest) {
  for (auto it = held_.begin(); it != held_.end();) {
    if (it->first == dest) {
      rt_->deliver(dest, std::move(it->second));
      it = held_.erase(it);
    } else {
      ++it;
    }
  }
}

void Comm::verify_envelope(const Envelope& env, std::size_t want_bytes,
                           std::uint64_t& last) {
  auto diag = [&](const std::string& what) {
    rt_->fault_->note_detected();
    char ctx[96];
    std::snprintf(ctx, sizeof ctx, " (src=%d dst=%d tag=%d seq=%llu)",
                  env.src, rank_, env.tag,
                  static_cast<unsigned long long>(env.seq));
    brickx::fail("fault detected: " + what + ctx);
  };
  if (env.dropped)
    diag("message dropped in transit (delivery timeout)");
  if (env.seq <= last)
    diag("duplicate or replayed message (sequence regression)");
  if (env.seq != last + 1) diag("out-of-order message (sequence gap)");
  last = env.seq;
  if (env.sent_bytes != want_bytes)
    diag("payload size mismatch against the posted receive");
  if (env.data.size() != env.sent_bytes)
    diag("truncated payload (" + std::to_string(env.data.size()) + " of " +
         std::to_string(env.sent_bytes) + " bytes arrived)");
  if (checksum_bytes(env.data.data(), env.data.size()) != env.checksum)
    diag("payload corruption (checksum mismatch)");
}

Envelope Comm::recv_step(int src, int tag, int part, const void* buf,
                         std::size_t bytes) {
  Envelope env = rt_->match(rank_, src, tag, part);
  if (rt_->fault_ != nullptr)
    verify_envelope(env, bytes, recv_seq_[{src, tag, part}]);
  else
    BX_CHECK(env.data.size() == bytes, "receive size mismatch");

  const NetModel& m = rt_->model_;
  const MemSpace dspace = rt_->classify(buf);
  double avail = env.arrival;
  if (dspace == MemSpace::Device) avail += m.device_alpha_extra;
  if (dspace == MemSpace::Unified) avail += m.um_alpha_extra;
  if (obs::RankLog* lg = obs::ambient_log()) {
    // Receiver-side causal record for the critical-path analyzer: the
    // sender timeline from the envelope plus this rank's wait/availability
    // times. Captured before advance_to so wait_start is the blocked-from
    // time.
    obs::RecvEvent re;
    re.src = src;
    re.tag = tag;
    re.bytes = static_cast<std::uint64_t>(bytes);
    re.post = env.post;
    re.inject_start = env.inject_start;
    re.depart = env.inject_end;
    re.inject_nominal = env.inject_nominal;
    re.arrive = env.arrival;
    re.fault_delay = env.fault_delay;
    re.sharing = env.sharing;
    re.wait_start = clock_.now();
    re.avail = avail;
    re.onnode = env.onnode;
    re.agg_unpack = env.agg_unpack;
    re.part = part;
    lg->recv(re);
  }
  clock_.advance_to(avail);
  return env;
}

Request Comm::irecv_impl(void* buf, std::size_t bytes,
                         std::shared_ptr<const FlatType> flat, int src,
                         int tag) {
  BX_CHECK(src >= 0 && src < size_, "irecv: bad source rank");
  obs::ObsSpan op_span(obs::Cat::Call, "mpi_irecv");
  clock_.advance(rt_->model_.recv_overhead);
  if (++inflight_ > counters_.max_inflight_reqs)
    counters_.max_inflight_reqs = inflight_;
  Request req;
  req.state_ = std::make_shared<Request::State>();
  auto& st = *req.state_;
  st.kind = Request::State::Kind::Recv;
  st.buf = buf;
  st.bytes = bytes;
  st.flat = std::move(flat);
  st.peer = src;
  st.tag = tag;
  return req;
}

// ---------------------------------------------------------------------------
// Persistent requests: frozen message parameters, replayed via the same
// isend_impl/irecv_impl paths as the ad-hoc calls — the replay round is
// bit-identical in virtual time and counters by construction.
// ---------------------------------------------------------------------------

struct Persistent::State {
  Comm* comm = nullptr;
  bool is_send = false;
  const void* sbuf = nullptr;  ///< send source (is_send)
  void* rbuf = nullptr;        ///< receive destination (!is_send)
  std::size_t bytes = 0;
  std::shared_ptr<const FlatType> flat;  ///< null => contiguous
  int peer = -1;
  int tag = 0;
  Request req;  ///< the round in flight, empty between rounds
};

Persistent Comm::init_impl(bool is_send, const void* buf, std::size_t bytes,
                           std::shared_ptr<const FlatType> flat, int peer,
                           int tag) {
  // Validate now, at plan-build time; replay rounds re-check nothing. No
  // virtual-clock charge here: modeled setup cost belongs to the plan
  // layer (NetModel plan_* constants), not to request initialization.
  BX_CHECK(peer >= 0 && peer < size_,
           is_send ? "send_init: bad destination rank"
                   : "recv_init: bad source rank");
  Persistent p;
  p.state_ = std::make_shared<Persistent::State>();
  auto& st = *p.state_;
  st.comm = this;
  st.is_send = is_send;
  if (is_send)
    st.sbuf = buf;
  else
    st.rbuf = const_cast<void*>(buf);
  st.bytes = bytes;
  st.flat = std::move(flat);
  st.peer = peer;
  st.tag = tag;
  return p;
}

Persistent Comm::send_init(const void* buf, std::size_t bytes, int dest,
                           int tag) {
  return init_impl(true, buf, bytes, nullptr, dest, tag);
}

Persistent Comm::recv_init(void* buf, std::size_t bytes, int src, int tag) {
  return init_impl(false, buf, bytes, nullptr, src, tag);
}

Persistent Comm::send_init(const void* buf, const Datatype& type, int dest,
                           int tag) {
  return init_impl(true, buf, type.size(), type.flat_ptr(), dest, tag);
}

Persistent Comm::recv_init(void* buf, const Datatype& type, int src,
                           int tag) {
  return init_impl(false, buf, type.size(), type.flat_ptr(), src, tag);
}

bool Persistent::active() const {
  return state_ != nullptr && state_->req.valid();
}

void Persistent::start() {
  if (state_ == nullptr)
    throw PersistentError("start on an uninitialized persistent request");
  auto& st = *state_;
  if (st.req.valid())
    throw PersistentError(
        "start on an already-active persistent request (wait first)");
  st.req = st.is_send
               ? st.comm->isend_impl(st.sbuf, st.bytes, st.flat, st.peer,
                                     st.tag)
               : st.comm->irecv_impl(st.rbuf, st.bytes, st.flat, st.peer,
                                     st.tag);
}

void Persistent::wait() {
  if (state_ == nullptr)
    throw PersistentError("wait on an uninitialized persistent request");
  auto& st = *state_;
  if (!st.req.valid())
    throw PersistentError(
        "wait on a persistent request with no round started");
  st.comm->wait(st.req);  // resets st.req -> inactive, parameters kept
}

void Persistent::free() {
  if (state_ == nullptr) return;
  if (state_->req.valid())
    throw PersistentError(
        "free of a persistent request while a round is in flight");
  state_.reset();
}

// ---------------------------------------------------------------------------
// Partitioned persistent requests (MPI 4.0 §4.2 style). One logical message
// per round, but the payload moves partition-by-partition: pready(i) stages
// its byte subrange as an envelope carrying the partition index and hands
// it to the same send step as isend_impl (transport choice, send_part
// fabric timing, flow record, integrity stream, fault decision, delivery),
// and arrived(i) takes the same receive step as Comm::wait for that one
// partition. Logical counters (msgs_sent/msgs_recv and the intra/inter
// split) are charged once per round, at start() / last consumption, so the
// counter invariants the oracle checks are identical to the bulk path on
// every transport.
// ---------------------------------------------------------------------------

struct Partitioned::State {
  Comm* comm = nullptr;
  bool is_send = false;
  const void* sbuf = nullptr;  ///< send source (is_send)
  void* rbuf = nullptr;        ///< receive destination (!is_send)
  std::size_t bytes = 0;       ///< whole-message payload
  int peer = -1;
  int tag = 0;
  std::vector<std::size_t> offs;   ///< partition byte offsets into the buffer
  std::vector<std::size_t> sizes;  ///< partition byte sizes (sum == bytes)
  bool active = false;             ///< a round is in flight
  std::vector<char> done;  ///< per-partition readied (send) / consumed (recv)
  int remaining = 0;       ///< partitions not yet readied / consumed
};

Partitioned Comm::pinit_impl(bool is_send, const void* buf, std::size_t bytes,
                             int peer, int tag,
                             std::vector<std::size_t> part_bytes) {
  // Validate the whole partition table now, at plan-build time; rounds
  // re-check nothing. Like Persistent, init charges no virtual time.
  BX_CHECK(peer >= 0 && peer < size_,
           is_send ? "psend_init: bad destination rank"
                   : "precv_init: bad source rank");
  if (part_bytes.empty())
    throw PartitionedError("partitioned init with zero partitions");
  std::size_t sum = 0;
  for (std::size_t b : part_bytes) {
    if (b == 0)
      throw PartitionedError("partitioned init with an empty partition");
    sum += b;
  }
  if (sum != bytes)
    throw PartitionedError(
        "partition sizes sum to " + std::to_string(sum) + ", payload is " +
        std::to_string(bytes) + " bytes");
  Partitioned p;
  p.state_ = std::make_shared<Partitioned::State>();
  auto& st = *p.state_;
  st.comm = this;
  st.is_send = is_send;
  if (is_send)
    st.sbuf = buf;
  else
    st.rbuf = const_cast<void*>(buf);
  st.bytes = bytes;
  st.peer = peer;
  st.tag = tag;
  st.sizes = std::move(part_bytes);
  st.offs.resize(st.sizes.size());
  std::size_t off = 0;
  for (std::size_t i = 0; i < st.sizes.size(); ++i) {
    st.offs[i] = off;
    off += st.sizes[i];
  }
  st.done.assign(st.sizes.size(), 0);
  return p;
}

namespace {
std::vector<std::size_t> even_partitions(std::size_t bytes, int nparts) {
  if (nparts <= 0)
    throw PartitionedError("partitioned init with zero partitions");
  if (bytes % static_cast<std::size_t>(nparts) != 0)
    throw PartitionedError(
        std::to_string(nparts) + " partitions do not divide " +
        std::to_string(bytes) + " payload bytes evenly");
  return std::vector<std::size_t>(static_cast<std::size_t>(nparts),
                                  bytes / static_cast<std::size_t>(nparts));
}
}  // namespace

Partitioned Comm::psend_init(const void* buf, std::size_t bytes, int dest,
                             int tag, std::vector<std::size_t> part_bytes) {
  return pinit_impl(true, buf, bytes, dest, tag, std::move(part_bytes));
}

Partitioned Comm::precv_init(void* buf, std::size_t bytes, int src, int tag,
                             std::vector<std::size_t> part_bytes) {
  return pinit_impl(false, buf, bytes, src, tag, std::move(part_bytes));
}

Partitioned Comm::psend_init(const void* buf, std::size_t bytes, int dest,
                             int tag, int nparts) {
  return pinit_impl(true, buf, bytes, dest, tag,
                    even_partitions(bytes, nparts));
}

Partitioned Comm::precv_init(void* buf, std::size_t bytes, int src, int tag,
                             int nparts) {
  return pinit_impl(false, buf, bytes, src, tag,
                    even_partitions(bytes, nparts));
}

bool Partitioned::active() const {
  return state_ != nullptr && state_->active;
}

int Partitioned::partitions() const {
  return state_ == nullptr ? 0 : static_cast<int>(state_->sizes.size());
}

void Partitioned::start() {
  if (state_ == nullptr)
    throw PartitionedError("start on an uninitialized partitioned request");
  auto& st = *state_;
  if (st.active)
    throw PartitionedError(
        "start on an already-active partitioned request (wait first)");
  Comm& c = *st.comm;
  obs::ObsSpan op_span(obs::Cat::Call,
                       st.is_send ? "mpi_psend_start" : "mpi_precv_start");
  st.active = true;
  std::fill(st.done.begin(), st.done.end(), char{0});
  st.remaining = static_cast<int>(st.sizes.size());
  const NetModel& m = c.rt_->model_;
  if (st.is_send) {
    // Posting the round is one logical message: the per-message overhead
    // and the send-side counters land here; bytes follow via pready.
    c.clock_.advance(m.send_overhead);
    c.count_send(st.peer, st.bytes);
  } else {
    c.clock_.advance(m.recv_overhead);
  }
  if (++c.inflight_ > c.counters_.max_inflight_reqs)
    c.counters_.max_inflight_reqs = c.inflight_;
}

void Partitioned::pready(int i) {
  if (state_ == nullptr)
    throw PartitionedError("pready on an uninitialized partitioned request");
  auto& st = *state_;
  if (!st.is_send)
    throw PartitionedError("pready on a receive-side partitioned request");
  if (!st.active)
    throw PartitionedError("pready before start on a partitioned request");
  if (i < 0 || i >= static_cast<int>(st.sizes.size()))
    throw PartitionedError("pready partition index out of range");
  if (st.done[static_cast<std::size_t>(i)])
    throw PartitionedError("partition readied twice in one round");
  Comm& c = *st.comm;
  obs::ObsSpan op_span(obs::Cat::Call, "mpi_pready");
  const std::size_t off = st.offs[static_cast<std::size_t>(i)];
  const std::size_t bytes = st.sizes[static_cast<std::size_t>(i)];
  const std::byte* src = static_cast<const std::byte*>(st.sbuf) + off;
  c.clock_.advance(c.rt_->model_.pready_overhead);

  Envelope env;
  env.src = c.rank_;
  env.tag = st.tag;
  env.part = i;
  env.data.assign(src, src + bytes);
  c.clock_.advance(c.rt_->touch(c.rank_, src, bytes, /*write=*/false));
  // Injected the moment it is readied — the per-partition timing the
  // overlap scheduler leans on. The round's first partition opens the
  // wire's logical message on the fabric; the rest stream behind it.
  const bool first = st.remaining == static_cast<int>(st.sizes.size());
  c.send_step(std::move(env), st.peer, src, /*strided=*/false, first);
  st.done[static_cast<std::size_t>(i)] = 1;
  --st.remaining;
}

bool Partitioned::consume(int i) {
  // Shared receive-side path of arrived()/wait(): the receive step matches
  // exactly partition i's envelope (bulk traffic on the same (src, tag) can
  // never satisfy it), verifies its integrity stream, records the causal
  // RecvEvent and advances the clock no further than this partition's
  // arrival.
  auto& st = *state_;
  Comm& c = *st.comm;
  c.commit_point();
  const std::size_t bytes = st.sizes[static_cast<std::size_t>(i)];
  std::byte* dst =
      static_cast<std::byte*>(st.rbuf) + st.offs[static_cast<std::size_t>(i)];
  const double wait_start = c.clock_.now();
  const Envelope env = c.recv_step(st.peer, st.tag, i, dst, bytes);
  // Fully hidden when the partition had already arrived: the receive step
  // left the clock where it was.
  const bool hidden = c.clock_.now() == wait_start;
  std::memcpy(dst, env.data.data(), bytes);
  c.clock_.advance(c.rt_->touch(c.rank_, dst, bytes, /*write=*/true));
  st.done[static_cast<std::size_t>(i)] = 1;
  if (--st.remaining == 0) {
    c.counters_.msgs_recv += 1;
    c.counters_.bytes_recv += static_cast<std::int64_t>(st.bytes);
  }
  return hidden;
}

bool Partitioned::arrived(int i) {
  if (state_ == nullptr)
    throw PartitionedError("arrived on an uninitialized partitioned request");
  auto& st = *state_;
  if (st.is_send)
    throw PartitionedError("arrived on a send-side partitioned request");
  if (!st.active)
    throw PartitionedError("arrived before start on a partitioned request");
  if (i < 0 || i >= static_cast<int>(st.sizes.size()))
    throw PartitionedError("arrived partition index out of range");
  if (st.done[static_cast<std::size_t>(i)])
    throw PartitionedError("partition consumed twice in one round");
  obs::ObsSpan op_span(obs::Cat::Wait, "mpi_parrived");
  return consume(i);
}

void Partitioned::wait() {
  if (state_ == nullptr)
    throw PartitionedError("wait on an uninitialized partitioned request");
  auto& st = *state_;
  if (!st.active)
    throw PartitionedError(
        "wait on a partitioned request with no round started");
  Comm& c = *st.comm;
  obs::ObsSpan op_span(obs::Cat::Wait, "mpi_pwait");
  if (st.is_send) {
    if (st.remaining > 0)
      throw PartitionedError(
          "wait with " + std::to_string(st.remaining) +
          " unready partitions (every partition needs pready first)");
    c.commit_point();
    // Send completion = every partition readied. pready copied each
    // partition eagerly, so the user buffer is already reusable and the
    // sender does NOT drain the NIC here (unlike a bulk Request wait):
    // decoupling the CPU from injection is the point of the partitioned
    // protocol, and any NIC backlog is visible where it physically lands —
    // as later per-partition arrival times on the receiver.
  } else {
    // Consume whatever arrived(i) has not, in index order.
    for (int i = 0; i < static_cast<int>(st.sizes.size()); ++i)
      if (!st.done[static_cast<std::size_t>(i)]) (void)consume(i);
  }
  st.active = false;
  --c.inflight_;
}

void Partitioned::free() {
  if (state_ == nullptr) return;
  if (state_->active)
    throw PartitionedError(
        "free of a partitioned request while a round is in flight");
  state_.reset();
}

void Comm::wait(Request& req) {
  BX_CHECK(req.valid(), "wait on an empty Request");
  obs::ObsSpan op_span(obs::Cat::Wait, "mpi_wait");
  commit_point();
  auto& st = *req.state_;
  BX_CHECK(!st.done, "Request already completed");
  st.done = true;
  --inflight_;
  if (st.kind == Request::State::Kind::Send) {
    clock_.advance_to(st.send_complete);
    req.state_.reset();
    return;
  }
  const Envelope env = recv_step(st.peer, st.tag, -1, st.buf, st.bytes);
  counters_.msgs_recv += 1;
  counters_.bytes_recv += static_cast<std::int64_t>(st.bytes);
  if (st.flat) {
    const NetModel& m = rt_->model_;
    obs::ObsSpan dt_span(obs::Cat::DtPack, "dt_scatter");
    st.flat->scatter(env.data.data(), static_cast<std::byte*>(st.buf));
    clock_.advance(static_cast<double>(st.flat->blocks.size()) *
                       m.dt_block_overhead +
                   static_cast<double>(st.bytes) / m.dt_copy_bw);
    counters_.dt_blocks += static_cast<std::int64_t>(st.flat->blocks.size());
    counters_.dt_pack_bytes += static_cast<std::int64_t>(st.bytes);
    for (const auto& blk : st.flat->blocks)
      clock_.advance(rt_->touch(rank_,
                                static_cast<std::byte*>(st.buf) + blk.offset,
                                blk.length, /*write=*/true));
  } else if (st.bytes > 0) {
    std::memcpy(st.buf, env.data.data(), st.bytes);
    clock_.advance(rt_->touch(rank_, st.buf, st.bytes, /*write=*/true));
  }
  req.state_.reset();
}

void Comm::waitall(std::vector<Request>& reqs) {
  for (auto& r : reqs)
    if (r.valid()) wait(r);
  reqs.clear();
}

void Comm::send(const void* buf, std::size_t bytes, int dest, int tag) {
  Request r = isend(buf, bytes, dest, tag);
  wait(r);
}

void Comm::recv(void* buf, std::size_t bytes, int src, int tag) {
  Request r = irecv(buf, bytes, src, tag);
  wait(r);
}

// ---------------------------------------------------------------------------
// Collectives: one generation-counted rendezvous per collective gathers every
// rank's value and clock. The last arriver snapshots the slots, so ranks
// still waking are immune to the next collective overwriting them.
// ---------------------------------------------------------------------------

std::vector<double> Comm::allgather(double v) {
  obs::ObsSpan span(obs::Cat::Collective, "allgather");
  const double coll_entry = clock_.now();
  // Collective entry is a commit point: held reorder faults flush, and by
  // the time the last arriver reaches the rendezvous below, every frame
  // staged before the collective has sealed — so the fabric epoch() really
  // closes over all of the round's flows.
  commit_point();
  const std::vector<std::pair<double, double>> slots =
      rt_->rendezvous(rank_, v, clock_.now());
  std::vector<double> values;
  values.reserve(slots.size());
  double tmax = 0.0;
  for (const auto& [x, t] : slots) {
    values.push_back(x);
    tmax = std::max(tmax, t);
  }
  const double stages =
      std::ceil(std::log2(static_cast<double>(std::max(2, size_))));
  clock_.advance_to(tmax + rt_->model_.barrier_alpha * stages);
  // Barrier edge for the critical-path analyzer: every rank records the
  // same collective ordinal (collectives are global), so the n-th entries
  // align across ranks and the exit is the synchronized clock.
  if (obs::RankLog* lg = obs::ambient_log())
    lg->collective(obs::CollEvent{coll_entry, clock_.now()});
  return values;
}

void Comm::barrier() { (void)allgather(0.0); }

double Comm::allreduce_max(double v) {
  auto vs = allgather(v);
  double r = vs[0];
  for (double x : vs) r = std::max(r, x);
  return r;
}

double Comm::allreduce_sum(double v) {
  auto vs = allgather(v);
  double r = 0.0;
  for (double x : vs) r += x;
  return r;
}

std::int64_t Comm::allreduce_sum(std::int64_t v) {
  // Exact for |v| < 2^53, far beyond any counter in this codebase.
  return static_cast<std::int64_t>(allreduce_sum(static_cast<double>(v)));
}

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

Runtime::Runtime(int nranks, NetModel model)
    : nranks_(nranks), model_(model) {
  BX_CHECK(nranks >= 1, "Runtime needs at least one rank");
  fabric_ = netsim::make_flat_fabric(nranks, model_.ranks_per_node);
  mailboxes_.reserve(static_cast<std::size_t>(nranks));
  for (int i = 0; i < nranks; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
    mailboxes_.back()->from.resize(static_cast<std::size_t>(nranks));
  }
  coll_slots_.resize(static_cast<std::size_t>(nranks));
  final_vtimes_.resize(static_cast<std::size_t>(nranks), 0.0);
  final_counters_.resize(static_cast<std::size_t>(nranks));
}

Runtime::~Runtime() = default;

void Runtime::set_fabric(std::unique_ptr<netsim::Fabric> fabric) {
  BX_CHECK(fabric != nullptr, "set_fabric: null fabric");
  fabric_ = std::move(fabric);
}

// ---------------------------------------------------------------------------
// Transport tier (DESIGN.md §13). The transport choice and the on-node short
// circuit live in Comm::send_step; what follows is the node-leader
// aggregation machinery: staged
// sub-messages, the deterministic generation/commit protocol (delegated to
// transport::Aggregator) and frame sealing, which is where aggregated
// inter-node traffic finally meets the fabric.
// ---------------------------------------------------------------------------

struct Runtime::AggSub {
  int dest = 0;
  Envelope env;
  bool held = false;  ///< Reorder fault: delivered behind the frame's others
};

struct Runtime::AggState {
  std::vector<int> node_leader;  ///< min member rank per node
  transport::Aggregator<AggSub> agg;

  AggState(Runtime* rt, const std::vector<int>& node_of)
      : agg(node_of, [rt](transport::Aggregator<AggSub>::Frame&& f) {
          rt->seal_frame(f.src_node, f.dst_node, std::move(f.subs));
        }) {
    int nodes = 0;
    for (int n : node_of) nodes = std::max(nodes, n + 1);
    node_leader.assign(static_cast<std::size_t>(nodes), -1);
    for (std::size_t r = 0; r < node_of.size(); ++r) {
      int& lead = node_leader[static_cast<std::size_t>(node_of[r])];
      if (lead < 0) lead = static_cast<int>(r);
    }
  }
};

void Runtime::transport_run_begin() {
  agg_.reset();
  {
    std::lock_guard lk(tstats_mu_);
    tstats_ = transport::Stats{};
  }
  {
    std::lock_guard lk(pf_mu_);
    pending_flows_.assign(static_cast<std::size_t>(nranks_), {});
  }
  if (transport_ != transport::Kind::ShmAgg) return;
  std::vector<int> node_of(static_cast<std::size_t>(nranks_));
  for (int r = 0; r < nranks_; ++r)
    node_of[static_cast<std::size_t>(r)] = fabric_->node_of(r);
  agg_ = std::make_unique<AggState>(this, node_of);
}

void Runtime::stage_agg(int src_rank, int dest, Envelope env, bool held) {
  agg_->agg.stage(src_rank, fabric_->node_of(dest),
                  AggSub{dest, std::move(env), held});
}

void Runtime::transport_commit(int rank) {
  if (agg_ == nullptr) return;
  agg_->agg.commit(rank);
  drain_pending_flows(rank);
}

void Runtime::transport_finalize(int rank) {
  if (agg_ == nullptr) return;
  agg_->agg.finalize(rank);
  drain_pending_flows(rank);
}

void Runtime::seal_frame(int src_node, int dst_node,
                         std::vector<AggSub>&& subs) {
  // Runs under the aggregator lock, on whichever member thread raised the
  // node minimum — every value computed here is a pure function of staged
  // state, and all ShmAgg fabric sends are serialized through this path,
  // so the timing is bit-deterministic.
  const NetModel& m = model_;
  std::int64_t payload = 0;
  double ready = 0.0;
  for (const AggSub& s : subs) {
    payload += static_cast<std::int64_t>(s.env.data.size());
    ready = std::max(ready, s.env.post);
  }
  const auto nsubs = static_cast<std::int64_t>(subs.size());
  const std::int64_t fbytes =
      m.agg_header_bytes + nsubs * m.agg_sub_header_bytes + payload;
  // Leader-side frame build: one table entry per sub-message after the
  // last staging copy has landed.
  ready += static_cast<double>(nsubs) * m.agg_sub_overhead;
  const int leader = agg_->node_leader[static_cast<std::size_t>(src_node)];
  const int dst_leader = agg_->node_leader[static_cast<std::size_t>(dst_node)];
  // Frames travel host staging buffer to host staging buffer, so the raw
  // inter-node link applies (memory-space surcharges were paid by the
  // staging copies on each sub's own clock).
  const netsim::SendTiming tm =
      fabric_->send(leader, dst_leader, static_cast<std::size_t>(fbytes),
                    m.inter_node.alpha, m.inter_node.bw, ready);
  const double nominal = static_cast<double>(fbytes) / m.inter_node.bw;
  double cursor = tm.arrival;
  for (AggSub& s : subs) {
    Envelope& env = s.env;
    const std::size_t sub_bytes = env.data.size();
    // Receiver-node unpack walks the sub table in frame order; each sub
    // becomes visible after its table entry and view copy.
    cursor +=
        m.agg_sub_overhead + static_cast<double>(sub_bytes) / m.shm_view_bw;
    env.inject_start = tm.inject_start;
    env.inject_end = tm.inject_end;
    env.inject_nominal = nominal;
    env.sharing = tm.sharing;
    env.agg_unpack = cursor - tm.arrival;
    env.arrival = cursor + env.fault_delay;
    if (collector_ != nullptr) {
      std::lock_guard lk(pf_mu_);
      pending_flows_[static_cast<std::size_t>(env.src)].push_back(
          flow_record(env, s.dest, static_cast<int>(subs.size())));
    }
    if (!s.held) deliver(s.dest, std::move(env));
  }
  // A reordered sub keeps its place (and arrival) in its own generation's
  // frame — the frame build is the wire here — and only its mailbox
  // delivery moves behind the frame's other subs, as a held direct send
  // moves behind the sender's next one.
  for (AggSub& s : subs)
    if (s.held) deliver(s.dest, std::move(s.env));
  std::lock_guard lk(tstats_mu_);
  tstats_.agg_frames += 1;
  tstats_.agg_submsgs += nsubs;
  tstats_.agg_frame_bytes += fbytes;
}

void Runtime::note_onnode(std::size_t bytes, bool view_copy) {
  std::lock_guard lk(tstats_mu_);
  tstats_.onnode_msgs += 1;
  tstats_.onnode_bytes += static_cast<std::int64_t>(bytes);
  if (view_copy) tstats_.onnode_copies += 1;
}

transport::Stats Runtime::transport_stats() const {
  std::lock_guard lk(tstats_mu_);
  return tstats_;
}

void Runtime::drain_pending_flows(int rank) {
  if (collector_ == nullptr) return;
  std::vector<obs::FlowEvent> fes;
  {
    std::lock_guard lk(pf_mu_);
    auto& q = pending_flows_[static_cast<std::size_t>(rank)];
    if (q.empty()) return;
    fes.swap(q);
  }
  // Appending to the rank's own single-writer log: called either from that
  // rank's thread or from the post-join sweep in run().
  obs::RankLog& lg = collector_->log(rank);
  for (const obs::FlowEvent& fe : fes) lg.flow(fe);
}

void Runtime::run(const std::function<void(Comm&)>& body) {
  abort_.store(false);
  live_.store(nranks_);
  running_.store(nranks_);
  deadlock_ = nullptr;
  coll_generation_.store(0);
  coll_arrived_ = 0;
  for (auto& mb : mailboxes_) {
    mb->parked = false;
    mb->tally = ParkTally{};
  }
  fabric_->reset();
  transport_run_begin();
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks_));
  threads.reserve(static_cast<std::size_t>(nranks_));
  for (int r = 0; r < nranks_; ++r) {
    threads.emplace_back([this, r, &body, &errors] {
      Comm comm(this, r, nranks_);
      // Bind this rank thread to its RankLog so comm/datatype/gpusim code
      // below can emit spans and metrics ambiently.
      std::optional<obs::BindGuard> obs_guard;
      if (collector_ != nullptr)
        obs_guard.emplace(&collector_->log(r), comm.clock().time_ptr());
      try {
        body(comm);
        // Reordered envelopes still held after the body ends would strand
        // their receivers (other ranks may still be draining); release
        // them before this thread parks. Likewise, finalizing the
        // aggregation generation lets the last member of each node seal
        // whatever frames the body left staged.
        comm.flush_held();
        transport_finalize(r);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        abort_run();
      }
      final_vtimes_[static_cast<std::size_t>(r)] = comm.clock().now();
      final_counters_[static_cast<std::size_t>(r)] = comm.counters();
      // This rank's deliveries are done. If it was the last one running,
      // whoever it leaves parked waits forever.
      live_.fetch_sub(1);
      if (running_.fetch_sub(1) == 1 && live_.load() > 0) deadlocked();
    });
  }
  for (auto& t : threads) t.join();
  // Sub-flow records sealed after their sender's last commit point are
  // still parked; append them now that the logs have no writers.
  if (agg_ != nullptr && !abort_.load())
    for (int r = 0; r < nranks_; ++r) drain_pending_flows(r);
  // Leftover envelopes of an aborted job must not leak into the next run().
  // With an injector installed, a clean run's leftovers (e.g. a Duplicate's
  // replay no receive ever matched) are swept and counted too: an
  // unconsumed fault is quarantined, never silently absorbed.
  if (abort_.load() || fault_ != nullptr) {
    std::int64_t left = 0;
    for (auto& mb : mailboxes_) {
      std::lock_guard lk(mb->mu);
      for (auto& lane : mb->from) {
        left += static_cast<std::int64_t>(lane.size());
        lane.clear();
      }
    }
    if (!abort_.load() && left > 0) fault_->note_leftover(left);
  }
  // Prefer a primary error: ranks torn down *because* another rank threw
  // (or the job deadlocked) report AbortedError, which must not mask the
  // original diagnosis. A rank's own failure outranks the deadlock its
  // teardown may leave behind.
  std::exception_ptr primary, secondary;
  for (auto& e : errors) {
    if (!e) continue;
    try {
      std::rethrow_exception(e);
    } catch (const AbortedError&) {
      if (!secondary) secondary = e;
    } catch (...) {
      if (!primary) primary = e;
    }
  }
  if (primary) std::rethrow_exception(primary);
  if (deadlock_) std::rethrow_exception(deadlock_);
  if (secondary) std::rethrow_exception(secondary);
}

// ---------------------------------------------------------------------------
// Parking. A rank blocks only in park(), under its own mailbox lock, with a
// record of what it waits on. A waker — a delivery whose envelope matches
// the key, the last arriver of a collective, or an abort — takes it off the
// parked set before waking it, so `running_` counts exactly the live ranks
// that can still act. Commit points flush held reorder faults and seal
// staged frames before every wait, so when running_ reaches 0 nothing is
// left in flight that could wake anyone: the job is deadlocked.
// ---------------------------------------------------------------------------

void Runtime::park(int self, std::unique_lock<std::mutex>& lk,
                   const WaitKey& key) {
  Mailbox& mb = *mailboxes_[static_cast<std::size_t>(self)];
  if (abort_.load()) throw AbortedError("wait aborted: the run is failing");
  mb.wait = key;
  mb.parked = true;
  ++mb.tally.parks;
  if (running_.fetch_sub(1) == 1) {
    // The last running rank just parked.
    lk.unlock();
    deadlocked();
    lk.lock();
  }
  while (mb.parked) {
    mb.cv.wait(lk);
    ++mb.tally.wakes;
    if (mb.parked) ++mb.tally.empty_wakes;
  }
}

void Runtime::unpark(Mailbox& mb) {
  mb.parked = false;
  running_.fetch_add(1);
  mb.cv.notify_one();
}

void Runtime::abort_run() {
  abort_.store(true);
  for (auto& mb : mailboxes_) {
    std::lock_guard lk(mb->mu);
    if (mb->parked) unpark(*mb);
  }
}

void Runtime::deadlocked() {
  // No rank is running, so no wait can change until abort_run() below.
  std::string what = "deadlock: every live rank is parked in simmpi";
  for (std::size_t r = 0; r < mailboxes_.size(); ++r) {
    Mailbox& mb = *mailboxes_[r];
    std::lock_guard lk(mb.mu);
    if (!mb.parked) continue;
    const WaitKey& k = mb.wait;
    what += "; rank " + std::to_string(r);
    if (k.src < 0)
      what += " waits in collective #" + std::to_string(k.coll);
    else
      what += " waits on (src=" + std::to_string(k.src) +
              ", tag=" + std::to_string(k.tag) +
              ", part=" + std::to_string(k.part) + ")";
  }
  deadlock_ = std::make_exception_ptr(DeadlockError(what));
  abort_run();
}

std::vector<std::pair<double, double>> Runtime::rendezvous(int rank, double v,
                                                           double t) {
  std::int64_t gen = 0;
  bool last = false;
  {
    std::lock_guard lk(coll_mu_);
    gen = coll_generation_.load();
    coll_slots_[static_cast<std::size_t>(rank)] = {v, t};
    last = ++coll_arrived_ == nranks_;
    if (last) {
      // Every other rank has arrived and parks on this ordinal: a globally
      // quiescent point, so the fabric can close its contention round
      // race-free.
      fabric_->epoch();
      coll_snapshot_ = coll_slots_;
      coll_arrived_ = 0;
      coll_generation_.store(gen + 1);
    }
  }
  if (last) {
    for (int r = 0; r < nranks_; ++r) {
      Mailbox& mb = *mailboxes_[static_cast<std::size_t>(r)];
      std::lock_guard lk(mb.mu);
      if (mb.parked && mb.wait.coll == gen) unpark(mb);
    }
  } else {
    Mailbox& mb = *mailboxes_[static_cast<std::size_t>(rank)];
    std::unique_lock lk(mb.mu);
    // A rank that reaches its mailbox after the last arriver has passed it
    // sees the new generation and does not park.
    if (coll_generation_.load() == gen) park(rank, lk, WaitKey{.coll = gen});
    if (coll_generation_.load() == gen)
      throw AbortedError("collective aborted: the run is failing");
  }
  std::lock_guard lk(coll_mu_);
  return coll_snapshot_;
}

void Runtime::deliver(int dest, Envelope env) {
  Mailbox& mb = *mailboxes_[static_cast<std::size_t>(dest)];
  std::lock_guard lk(mb.mu);
  const WaitKey& k = mb.wait;
  const bool wakes = mb.parked && k.src == env.src && k.tag == env.tag &&
                     k.part == env.part;
  mb.from[static_cast<std::size_t>(env.src)].push_back(std::move(env));
  if (wakes) unpark(mb);
}

Envelope Runtime::match(int self, int src, int tag, int part) {
  Mailbox& mb = *mailboxes_[static_cast<std::size_t>(self)];
  std::unique_lock lk(mb.mu);
  std::vector<Envelope>& lane = mb.from[static_cast<std::size_t>(src)];
  const auto first = [&] {
    return std::find_if(lane.begin(), lane.end(), [&](const Envelope& e) {
      return e.tag == tag && e.part == part;
    });
  };
  auto it = first();
  if (it == lane.end()) {
    park(self, lk, WaitKey{.src = src, .tag = tag, .part = part});
    it = first();
    if (it == lane.end())
      throw AbortedError("receive aborted: the run is failing");
  }
  Envelope env = std::move(*it);
  lane.erase(it);
  return env;
}

double Runtime::final_vtime(int rank) const {
  return final_vtimes_[static_cast<std::size_t>(rank)];
}

const CommCounters& Runtime::final_counters(int rank) const {
  return final_counters_[static_cast<std::size_t>(rank)];
}

const ParkTally& Runtime::park_tally(int rank) const {
  return mailboxes_[static_cast<std::size_t>(rank)]->tally;
}

}  // namespace brickx::mpi
