#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.h"
#include "obs/obs.h"
#include "simmpi/datatype.h"
#include "simmpi/fault.h"
#include "simmpi/netmodel.h"
#include "transport/transport.h"

namespace brickx::obs {
class Collector;
}  // namespace brickx::obs

namespace brickx::netsim {
class Fabric;
}  // namespace brickx::netsim

namespace brickx::mpi {

class Runtime;
class Comm;

/// Secondary failure: this rank was torn down because *another* rank threw
/// first. Runtime::run rethrows a primary (non-Aborted) error when one
/// exists, so the original diagnosis is never masked by teardown noise.
class AbortedError : public brickx::Error {
 public:
  using brickx::Error::Error;
};

/// Every live rank of a run is parked inside simmpi (a receive no rank will
/// send, a collective some rank skipped), so none can ever run again.
/// Runtime::run throws it instead of hanging, naming what each parked rank
/// waits on — unless a rank failed on its own, whose error stays primary.
class DeadlockError : public brickx::Error {
 public:
  using brickx::Error::Error;
};

/// Host-side park/wake tally of one rank over the last Runtime::run: how
/// often it blocked inside simmpi and how often it woke. It describes the
/// simulator's host threads, not the modeled job, so it never enters
/// CommCounters, harness results or any obs artifact.
struct ParkTally {
  std::int64_t parks = 0;        ///< times the rank blocked in Runtime::park
  std::int64_t wakes = 0;        ///< times it woke up while parked
  std::int64_t empty_wakes = 0;  ///< wakes no waker had released it for
};

/// Per-rank virtual clock, in seconds. Compute and communication both
/// advance it; the harness reads phase deltas from it. Wall time never
/// enters, so runs are deterministic.
class VClock {
 public:
  [[nodiscard]] double now() const { return t_; }
  void advance(double dt) { t_ += dt; }
  void advance_to(double t) {
    if (t > t_) t_ = t;
  }
  /// Stable pointer to the current time, for the obs ambient binding (the
  /// tracer reads it on every span open/close without a VClock dependency).
  [[nodiscard]] const double* time_ptr() const { return &t_; }

 private:
  double t_ = 0.0;
};

/// Handle for a pending nonblocking operation. Obtained from Comm::isend /
/// Comm::irecv; completed by Comm::wait / Comm::waitall. Movable,
/// single-use.
class Request {
 public:
  Request() = default;
  [[nodiscard]] bool valid() const { return state_ != nullptr; }

 private:
  friend class Comm;
  friend class Persistent;
  struct State;
  std::shared_ptr<State> state_;
};

/// Lifecycle misuse of a persistent request (start before init, double
/// start, wait without start, free while in flight). Typed so tests can
/// assert the failure mode instead of tripping UB.
class PersistentError : public brickx::Error {
 public:
  using brickx::Error::Error;
};

/// MPI_Send_init/MPI_Recv_init-style persistent request: the message
/// parameters (buffer, size/datatype, peer, tag) are frozen once by
/// Comm::send_init / Comm::recv_init, then each round is just
/// start() + wait() — the schedule-building work (argument validation,
/// datatype flattening) never recurs. start() funnels into the exact same
/// send/receive paths as the ad-hoc isend/irecv, so a replayed round is
/// bit-identical in virtual time, counters and bytes to an ad-hoc one.
///
/// Handles are movable and shareable (shared_ptr semantics); destruction
/// while a round is in flight is safe (the pending operation is abandoned,
/// matching a run torn down by an aborting rank), but free() on an active
/// handle is a typed error, mirroring MPI_Request_free restrictions.
class Persistent {
 public:
  Persistent() = default;

  /// Initialized by send_init/recv_init (may still be inactive).
  [[nodiscard]] bool valid() const { return state_ != nullptr; }
  /// A round is in flight: started but not yet waited.
  [[nodiscard]] bool active() const;

  /// Begin one round. PersistentError if uninitialized or already active.
  void start();
  /// Complete the round begun by start(). PersistentError if uninitialized
  /// or no round is active.
  void wait();
  /// Release the frozen parameters. No-op on an empty handle;
  /// PersistentError while a round is in flight (wait() first).
  void free();

 private:
  friend class Comm;
  struct State;
  std::shared_ptr<State> state_;
};

/// Lifecycle misuse of a partitioned request (pready before start, double
/// pready, wait with unready partitions, free while in flight, side/index
/// confusion). Typed so tests can assert the failure mode, mirroring
/// PersistentError.
class PartitionedError : public brickx::Error {
 public:
  using brickx::Error::Error;
};

/// MPI_Psend_init/MPI_Precv_init-style partitioned persistent request
/// (MPI 4.0 §4.2): one logical message whose payload is split into
/// contiguous partitions that become ready (send side) or are consumed
/// (receive side) independently. The wire schedule is frozen once by
/// Comm::psend_init / Comm::precv_init; each round is
/// start() → pready(i)/arrived(i) per partition → wait().
///
/// Each pready(i) injects that partition into the fabric immediately, so
/// boundary data computed early starts flowing while the rest of the
/// message is still being produced; each arrived(i) consumes exactly that
/// partition as soon as it lands, advancing the virtual clock only as far
/// as that partition's arrival. The round still counts as ONE logical
/// message in CommCounters (the partitioning changes when bytes move, not
/// how many messages the application posts), keeping counter invariants
/// identical to the bulk path.
///
/// Handles are movable and shareable (shared_ptr semantics); destruction
/// while a round is in flight abandons it safely, but free() on an active
/// handle is a typed error, mirroring Persistent.
class Partitioned {
 public:
  Partitioned() = default;

  /// Initialized by psend_init/precv_init (may still be inactive).
  [[nodiscard]] bool valid() const { return state_ != nullptr; }
  /// A round is in flight: started but not yet waited.
  [[nodiscard]] bool active() const;
  /// Number of partitions frozen at init (0 on an empty handle).
  [[nodiscard]] int partitions() const;

  /// Begin one round. Charges the per-message posting overhead; no bytes
  /// move until partitions are readied. PartitionedError if uninitialized
  /// or already active.
  void start();
  /// Send side: partition i's source data is complete — copy it out and
  /// inject it. PartitionedError if uninitialized, inactive, on a receive
  /// request, out of range, or already readied this round.
  void pready(int i);
  /// Receive side: consume partition i, blocking (in wall time) until the
  /// sender has delivered it, then advance this rank's virtual clock no
  /// further than that partition's arrival. Returns true when the data had
  /// already arrived (the wait was fully hidden), false when the clock had
  /// to advance. PartitionedError if uninitialized, inactive, on a send
  /// request, out of range, or already consumed this round.
  bool arrived(int i);
  /// Complete the round. Send side: every partition must have been readied
  /// (typed error otherwise); advances to the last injection's completion.
  /// Receive side: consumes any partitions arrived(i) has not, in index
  /// order. PartitionedError if uninitialized or no round is active.
  void wait();
  /// Release the frozen parameters. No-op on an empty handle;
  /// PartitionedError while a round is in flight (wait() first).
  void free();

 private:
  friend class Comm;
  struct State;
  bool consume(int i);  ///< shared arrived()/wait() per-partition path
  std::shared_ptr<State> state_;
};

/// Communication statistics counted per rank; benches use them to report
/// message counts, byte volumes and pack traffic (Table 2, Figs. 4/18).
struct CommCounters {
  std::int64_t msgs_sent = 0;
  std::int64_t bytes_sent = 0;
  std::int64_t msgs_recv = 0;
  std::int64_t bytes_recv = 0;
  std::int64_t dt_blocks = 0;      ///< datatype blocks processed (both sides)
  std::int64_t dt_pack_bytes = 0;  ///< bytes internally packed by datatypes
  /// High-water mark of simultaneously pending Requests (posted, not yet
  /// waited) — how deep this rank keeps the NIC pipeline.
  std::int64_t max_inflight_reqs = 0;
  /// Send-side split by locality under the fabric's rank-to-node mapping
  /// (msgs_intra + msgs_inter == msgs_sent). Counted on every transport;
  /// table1 emits the split columns whenever ranks share nodes.
  std::int64_t msgs_intra = 0;   ///< sent to a same-node peer
  std::int64_t bytes_intra = 0;
  std::int64_t msgs_inter = 0;   ///< sent to a peer on another node
  std::int64_t bytes_inter = 0;
  void reset() { *this = CommCounters{}; }
};

/// One in-flight message as the runtime's mailboxes carry it. The
/// integrity fields (seq / checksum / dropped) are stamped and verified
/// only while a FaultInjector is installed on the Runtime; they are inert
/// otherwise.
struct Envelope {
  int src = 0;
  int tag = 0;
  std::vector<std::byte> data;
  double arrival = 0.0;  ///< receiver-visible virtual arrival time
  std::uint64_t seq = 0;        ///< per (src, dst, tag, part) ordinal, from 1
  std::uint64_t checksum = 0;   ///< FNV-1a of the payload as sent
  std::size_t sent_bytes = 0;   ///< payload size as sent (before any fault)
  bool dropped = false;         ///< payload lost in transit (fault)
  // Causal metadata for the critical-path analyzer (obs/analyze.h): the
  // sender-side timeline rides with the message so the receiver can record
  // a self-contained obs::RecvEvent — no cross-rank pairing needed, which
  // keeps the analysis robust under reorder/duplicate faults. Inert cost
  // otherwise (POD stamps, no clock effect).
  double post = 0.0;            ///< sender clock when the send was posted
  double inject_start = 0.0;    ///< first byte entered the sender NIC
  double inject_end = 0.0;      ///< sender NIC finished injecting
  double inject_nominal = 0.0;  ///< bytes / endpoint bw (uncontended)
  double fault_delay = 0.0;     ///< injected Delay seconds inside `arrival`
  double sharing = 1.0;         ///< peak link-sharing factor on the route
  bool onnode = false;          ///< took the on-node shared-memory tier
  /// Receiver-side aggregation unpack seconds inside `arrival` (0 unless
  /// the message rode in a node-leader frame).
  double agg_unpack = 0.0;
  /// Partition index when this envelope carries one partition of a
  /// partitioned request (Comm::psend_init); -1 for whole-message traffic.
  /// Matching requires equality, so bulk receives never consume partition
  /// envelopes and vice versa even on a shared (src, tag).
  int part = -1;
};

/// An MPI_Comm-like communicator bound to the calling rank. Each rank
/// thread receives its own Comm& from Runtime::run and must not share it
/// with other threads.
class Comm {
 public:
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const { return size_; }

  /// --- point to point (eager; buffer is reusable on return) -------------

  Request isend(const void* buf, std::size_t bytes, int dest, int tag);
  Request irecv(void* buf, std::size_t bytes, int src, int tag);

  /// Derived-datatype variants: the datatype engine really gathers/
  /// scatters, and the virtual clock is charged per-block overhead + copy
  /// time — the cost profile of MPI_Types the paper measures.
  Request isend(const void* buf, const Datatype& type, int dest, int tag);
  Request irecv(void* buf, const Datatype& type, int src, int tag);

  void wait(Request& req);
  void waitall(std::vector<Request>& reqs);

  /// --- persistent requests (build once, replay per round) ----------------
  ///
  /// Freeze the message parameters now; replay with Persistent::start /
  /// Persistent::wait each round. Initialization validates arguments but
  /// charges nothing to the virtual clock — all modeled cost stays on the
  /// start/wait path, which is shared verbatim with isend/irecv.

  [[nodiscard]] Persistent send_init(const void* buf, std::size_t bytes,
                                     int dest, int tag);
  [[nodiscard]] Persistent recv_init(void* buf, std::size_t bytes, int src,
                                     int tag);
  [[nodiscard]] Persistent send_init(const void* buf, const Datatype& type,
                                     int dest, int tag);
  [[nodiscard]] Persistent recv_init(void* buf, const Datatype& type, int src,
                                     int tag);

  /// --- partitioned persistent requests (MPI_Psend_init-style) -------------
  ///
  /// Freeze a contiguous message split into partitions given by
  /// `part_bytes` (each > 0, summing to `bytes`); replay rounds with
  /// Partitioned::start / pready / arrived / wait. The convenience
  /// overloads split `bytes` into `nparts` equal partitions (typed error
  /// unless nparts divides bytes evenly). Init charges nothing.

  [[nodiscard]] Partitioned psend_init(const void* buf, std::size_t bytes,
                                       int dest, int tag,
                                       std::vector<std::size_t> part_bytes);
  [[nodiscard]] Partitioned precv_init(void* buf, std::size_t bytes, int src,
                                       int tag,
                                       std::vector<std::size_t> part_bytes);
  [[nodiscard]] Partitioned psend_init(const void* buf, std::size_t bytes,
                                       int dest, int tag, int nparts);
  [[nodiscard]] Partitioned precv_init(void* buf, std::size_t bytes, int src,
                                       int tag, int nparts);

  /// Blocking convenience wrappers.
  void send(const void* buf, std::size_t bytes, int dest, int tag);
  void recv(void* buf, std::size_t bytes, int src, int tag);

  /// --- collectives -------------------------------------------------------

  void barrier();
  [[nodiscard]] double allreduce_max(double v);
  [[nodiscard]] double allreduce_sum(double v);
  [[nodiscard]] std::int64_t allreduce_sum(std::int64_t v);
  /// Gather one double per rank; result valid on every rank.
  [[nodiscard]] std::vector<double> allgather(double v);

  /// --- clock & accounting -------------------------------------------------

  [[nodiscard]] VClock& clock() { return clock_; }
  [[nodiscard]] const NetModel& net() const;
  [[nodiscard]] CommCounters& counters() { return counters_; }

  /// Advance this rank's clock by modeled compute seconds.
  void compute(double seconds) { clock_.advance(seconds); }

 private:
  friend class Runtime;
  friend class Persistent;
  friend class Partitioned;
  Comm(Runtime* rt, int rank, int size) : rt_(rt), rank_(rank), size_(size) {}

  Request isend_impl(const void* buf, std::size_t bytes,
                     std::shared_ptr<const FlatType> flat, int dest, int tag);
  Request irecv_impl(void* buf, std::size_t bytes,
                     std::shared_ptr<const FlatType> flat, int src, int tag);
  Persistent init_impl(bool is_send, const void* buf, std::size_t bytes,
                       std::shared_ptr<const FlatType> flat, int peer,
                       int tag);
  Partitioned pinit_impl(bool is_send, const void* buf, std::size_t bytes,
                         int peer, int tag,
                         std::vector<std::size_t> part_bytes);

  // The message pipeline. Whole messages (isend_impl / wait) and partitions
  // (Partitioned::pready / consume) differ only in their front ends; every
  // envelope (part -1 for a whole message) takes the same two steps, so
  // pricing, tracing, faults and delivery cannot drift apart.
  //
  // send_step: transport choice, fabric timing (send, or send_part with
  // `first` opening the round's logical message), flow record, integrity
  // stamp, fault decision and delivery. `buf` is the user source (its
  // memory space prices the link); `strided` marks a datatype payload.
  // Returns the time the sender's NIC is done with the message.
  double send_step(Envelope env, int dest, const void* buf, bool strided,
                   bool first);
  // recv_step: match (src, tag, part), verify the envelope against `bytes`,
  // record the RecvEvent and advance the clock to the arrival as seen from
  // `buf`'s memory space. The caller copies or scatters the payload.
  Envelope recv_step(int src, int tag, int part, const void* buf,
                     std::size_t bytes);
  /// Logical send counters (one per message or partitioned round).
  void count_send(int dest, std::size_t bytes);
  /// Wait and collective entry: flush held reorder faults and advance the
  /// aggregation commit generation before this rank can block.
  void commit_point();

  // Fault-injection support (all no-ops unless the Runtime has an injector
  // installed; see simmpi/fault.h). The sequence maps hold the integrity
  // layer's message ordinals, one stream per (peer, tag, part) so faults
  // land on individual partitions; held_ parks envelopes a Reorder fault
  // displaced until the next send to the same peer (or the next commit
  // point — flush points that keep the simulation deadlock-free).
  void flush_held();
  void flush_held_to(int dest);
  void verify_envelope(const Envelope& env, std::size_t want_bytes,
                       std::uint64_t& last);

  Runtime* rt_;
  int rank_;
  int size_;
  VClock clock_;
  CommCounters counters_;
  int inflight_ = 0;  ///< currently pending Requests (send + recv)
  /// (dest, tag, part) and (src, tag, part) integrity-stream ordinals.
  std::map<std::tuple<int, int, int>, std::uint64_t> send_seq_;
  std::map<std::tuple<int, int, int>, std::uint64_t> recv_seq_;
  std::vector<std::pair<int, Envelope>> held_;  ///< (dest, reordered env)
};

/// Hooks the GPU simulator installs so message buffers in device/unified
/// memory are classified and page migrations are charged (DESIGN.md §2).
struct MemHooks {
  /// Classify a pointer (default: everything is Host).
  std::function<MemSpace(const void*)> classify;
  /// Called when rank-side CPU/NIC code touches [p, p+bytes); returns extra
  /// seconds to charge to that rank's clock (e.g. UM fault migration).
  std::function<double(int rank, const void* p, std::size_t bytes, bool write)>
      touch;
};

/// Owns the rank threads, mailboxes and shared model. One Runtime per
/// simulated job.
class Runtime {
 public:
  /// `model`: cost constants; `nranks`: world size.
  Runtime(int nranks, NetModel model);
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Execute `body(comm)` once on every rank (threads are spawned and
  /// joined inside). Exceptions from any rank are rethrown on the caller
  /// after all ranks finish or abort. A run whose live ranks are all
  /// parked in receives or collectives throws DeadlockError.
  void run(const std::function<void(Comm&)>& body);

  [[nodiscard]] const NetModel& net() const { return model_; }
  [[nodiscard]] int size() const { return nranks_; }

  void set_mem_hooks(MemHooks hooks) { hooks_ = std::move(hooks); }

  /// Replace the fabric that times message departure/arrival. The default
  /// is the flat model (netsim::FlatFabric), bit-identical to the original
  /// per-sender NIC serialization; install a contention fabric to route
  /// messages over a topology. Must not be called while run() is active;
  /// the fabric must cover `size()` ranks.
  void set_fabric(std::unique_ptr<netsim::Fabric> fabric);
  [[nodiscard]] netsim::Fabric& fabric() const { return *fabric_; }

  /// Select the on-node transport tier (DESIGN.md §13). Flat (the default)
  /// keeps every message on the fabric send path, byte-identical to the
  /// pre-transport behavior. Shm short-circuits same-node pairs through
  /// the shared-memory model; ShmAgg additionally coalesces co-located
  /// ranks' inter-node sends into one framed fabric flow per (node,
  /// neighbor-node) pair. Must not be called while run() is active.
  void set_transport(transport::Kind k) { transport_ = k; }
  /// Transport-tier traffic of the most recent run() (all zeros under
  /// Flat).
  [[nodiscard]] transport::Stats transport_stats() const;

  /// Install an obs Collector: every rank thread of subsequent run() calls
  /// is bound to its RankLog, so comm/datatype/gpusim instrumentation lands
  /// there. Pass nullptr to detach (recording is then zero-cost again). The
  /// Collector must outlive the runs it observes; the caller keeps ownership.
  void set_collector(obs::Collector* c) { collector_ = c; }
  [[nodiscard]] obs::Collector* collector() const { return collector_; }

  /// Install a deterministic message-fault injector (simmpi/fault.h):
  /// envelopes gain sequence numbers and payload checksums, receives verify
  /// them, and the injector's seeded schedule perturbs messages in flight.
  /// Pass nullptr to detach (the default: zero overhead, byte-identical
  /// behavior to pre-fault builds). The injector must outlive the runs it
  /// covers; the caller keeps ownership and reads counts() afterwards.
  void set_fault_injector(FaultInjector* fi) { fault_ = fi; }

  /// Per-rank results collected after run(): final virtual time and
  /// counters of rank r.
  [[nodiscard]] double final_vtime(int rank) const;
  [[nodiscard]] const CommCounters& final_counters(int rank) const;
  /// Rank r's park/wake tally over the most recent run().
  [[nodiscard]] const ParkTally& park_tally(int rank) const;

 private:
  friend class Comm;
  friend class Partitioned;

  /// What a parked rank waits on: the envelope (src, tag, part) of a
  /// receive, or collective ordinal `coll` (src -1, so no envelope
  /// matches it).
  struct WaitKey {
    int src = -1;
    int tag = 0;
    int part = -1;
    std::int64_t coll = -1;
  };

  /// One rank's mailbox and parking slot, all guarded by `mu`. Envelopes
  /// wait in one FIFO per source rank, so a match walks only its sender's
  /// envelopes and (src, tag, part) order is arrival order.
  struct Mailbox {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<std::vector<Envelope>> from;  ///< indexed by source rank
    bool parked = false;  ///< blocked in park(); cleared only by a waker
    WaitKey wait;         ///< what it is parked on
    ParkTally tally;
  };

  void deliver(int dest, Envelope env);
  Envelope match(int self, int src, int tag, int part = -1);
  /// The one place a rank blocks: records `key` as what `self` waits on and
  /// sleeps until a waker unparks it. `lk` holds self's mailbox lock.
  /// Throws AbortedError instead once the run is aborting.
  void park(int self, std::unique_lock<std::mutex>& lk, const WaitKey& key);
  /// Waker side, under the parked rank's mailbox lock: take it off the
  /// parked set (the waker does this, so a pending wake-up never reads as a
  /// deadlock) and wake it.
  void unpark(Mailbox& mb);
  /// Abort the run: parking now throws, and every parked rank wakes.
  void abort_run();
  /// Called by whichever rank left no other rank running while some are
  /// parked: record the DeadlockError naming every wait, then abort.
  void deadlocked();
  /// Collective rendezvous: publish (v, t) in rank's slot, park until every
  /// rank has, and return all ranks' pairs in rank order.
  std::vector<std::pair<double, double>> rendezvous(int rank, double v,
                                                    double t);

  // Transport tier internals (comm.cc). AggState owns the node-leader
  // aggregator; it is rebuilt at the start of every ShmAgg run so aborted
  // runs cannot leak staged sub-messages.
  struct AggState;
  struct AggSub;
  void transport_run_begin();
  /// Stage one sub-message; `held` (a Reorder fault) delivers it behind
  /// its frame's other subs.
  void stage_agg(int src_rank, int dest, Envelope env, bool held);
  /// Rank reached a commit point (wait or collective entry): advance its
  /// aggregation generation, then drain any sub-flow records frames sealed
  /// on other threads left for this rank's log.
  void transport_commit(int rank);
  void transport_finalize(int rank);
  void seal_frame(int src_node, int dst_node, std::vector<AggSub>&& subs);
  void note_onnode(std::size_t bytes, bool view_copy);
  void drain_pending_flows(int rank);

  MemSpace classify(const void* p) const {
    return hooks_.classify ? hooks_.classify(p) : MemSpace::Host;
  }
  double touch(int rank, const void* p, std::size_t bytes, bool write) const {
    return hooks_.touch ? hooks_.touch(rank, p, bytes, write) : 0.0;
  }

  int nranks_;
  NetModel model_;
  MemHooks hooks_;
  std::unique_ptr<netsim::Fabric> fabric_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;

  // Collective state (rendezvous protocol in comm.cc). The generation is
  // the ordinal of the collective in progress; written under coll_mu_,
  // read by parking ranks under their own mailbox lock.
  std::mutex coll_mu_;
  std::atomic<std::int64_t> coll_generation_{0};
  int coll_arrived_ = 0;
  std::vector<std::pair<double, double>> coll_slots_;
  std::vector<std::pair<double, double>> coll_snapshot_;

  std::vector<double> final_vtimes_;
  std::vector<CommCounters> final_counters_;

  /// Set when one of this job's ranks throws or the job deadlocks, so its
  /// other ranks stop waiting on matches and collectives that will never
  /// complete; per runtime, so it never aborts another job in the process.
  std::atomic<bool> abort_{false};
  /// Ranks whose body has not finished, and those of them not parked. Only
  /// a running rank wakes another, so once running_ reaches 0 with live_
  /// ranks left, none of them can ever run again.
  std::atomic<int> live_{0};
  std::atomic<int> running_{0};
  std::exception_ptr deadlock_;  ///< the DeadlockError, once detected

  obs::Collector* collector_ = nullptr;
  FaultInjector* fault_ = nullptr;

  transport::Kind transport_ = transport::Kind::Flat;
  std::unique_ptr<AggState> agg_;  ///< live only during a ShmAgg run
  mutable std::mutex tstats_mu_;
  transport::Stats tstats_;
  /// Sub-message flow records sealed on another member's thread, parked
  /// here until the owning rank (or the post-join sweep) appends them to
  /// its single-writer RankLog.
  std::mutex pf_mu_;
  std::vector<std::vector<obs::FlowEvent>> pending_flows_;
};

}  // namespace brickx::mpi
