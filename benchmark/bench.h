#pragma once

// Shared pieces of the brickx host-time benchmark (README.md): the span
// record the traced replay keeps in memory, the replay entry point, and the
// host copy-bandwidth ceiling the GB/s layer metrics are compared against.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "harness/experiment.h"

namespace bench {

/// Host seconds on the steady clock since this process first asked.
double now_s();

/// CPU seconds the calling thread has consumed.
double thread_cpu_s();

/// What a span times. The first three are recorded on the client thread;
/// the rest on rank threads. Layer spans carry the per-layer metric prefix
/// (layer_name), so `core.alloc` spans sum into `core.alloc_s`.
enum class Layer : std::uint8_t {
  Replay,       ///< client: one replayed harness run (the root span)
  RuntimeCtor,  ///< client: mpi::Runtime construction and fabric install
  RuntimeRun,   ///< client: Runtime::run (spawn, rank bodies, join)
  RankBody,     ///< rank: the whole body of one rank
  Alloc,        ///< BrickDecomp + brick storage, or the array frames
  Seed,         ///< cells_to_bricks of the initial field
  Plan,         ///< exchanger construction and persistent/partitioned bind
  View,         ///< ExchangeView construction (nested inside Plan)
  Exchange,     ///< start/finish and partitioned round operations
  Pack,         ///< PackExchanger pack/unpack (YASK)
  Types,        ///< MpiTypesExchanger start/finish (datatype gather)
  Kernel,       ///< compute phase: stencil engine calls + modeled charge
  Epoch,        ///< Fabric::epoch, the fair-share solve at collectives
};
inline constexpr int kLayerCount = 13;
const char* layer_name(Layer l);

struct Span {
  std::int64_t id = 0;
  std::int64_t parent = 0;  ///< 0 for a root span
  Layer layer = Layer::Replay;
  int rank = -1;            ///< -1 on the client thread
  double t0 = 0, t1 = 0;    ///< now_s() at open and close
  double cpu = 0;           ///< CPU seconds the recording thread spent inside
};

/// Spans of one replayed run. Every rank thread appends only to its own
/// vector, so recording takes no lock; epoch spans run on whichever rank
/// closes a collective and are kept apart under the fabric's lock.
struct SampleSpans {
  std::vector<Span> client;
  std::vector<std::vector<Span>> ranks;
  std::vector<Span> epochs;
};

/// One replay of a harness::Config: its spans plus the counters it must
/// reproduce and the fabric call tallies.
struct ReplayOut {
  SampleSpans spans;
  /// The three counters harness::Result reports that the replay must match
  /// exactly, measured independently (simmpi counters of rank 0 divided by
  /// exchange rounds, and the fabric's own statistics).
  std::int64_t msgs_per_rank = 0;
  std::int64_t wire_bytes_per_rank = 0;
  std::int64_t fabric_msgs = 0;
  double total_seconds = 0;  ///< virtual measured span, as Result reports it
  std::int64_t msgs_total = 0, bytes_total = 0;  ///< all ranks, whole run
  double send_s = 0;  ///< host s in Fabric::send/send_part, all ranks
  std::int64_t send_calls = 0;
  std::int64_t cells = 0;      ///< stencil outputs computed, all ranks/fields
};

/// Re-drive `cfg` through the layers' public functions, recording a span
/// around every call into a layer. Supports what the benchmark rosters use:
/// CPU runs of Basic/Layout/MemMap/YASK/MPI_Types, overlap on the brick
/// methods, any field count and fabric, build-once plans, no faults.
ReplayOut replay(const brickx::harness::Config& cfg);

/// The CPUs in this process's affinity mask, ascending.
std::vector<int> allowed_cpus();

/// Restrict this thread, and every thread it creates afterwards, to `cpu`.
void pin_to_cpu(int cpu);

/// Copy-bandwidth ceiling in GB/s of read + write traffic.
struct CopyCeiling {
  double gbps_1t = 0;   ///< one thread
  double gbps_mt = 0;   ///< `threads` threads
  int threads = 1;
  std::size_t buffer_bytes = 0;  ///< each of source and destination
  std::size_t llc_bytes = 0;     ///< 0 when sysfs does not report it
};

/// Last-level cache size from sysfs, 0 when unknown.
std::size_t llc_bytes();

/// memcpy bandwidth over buffers of `buffer_bytes`, best of a few rounds.
CopyCeiling measure_copy(std::size_t buffer_bytes, int threads);

}  // namespace bench
