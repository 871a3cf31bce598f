// Bit-exact pins for harness::run across every construction branch of the
// exchange seam: each roster case below runs a small experiment and compares
// every Result field, doubles by their bit patterns, against the values in
// tests/data/harness_seam.txt. The goldens print 3-4 decimals and pin only a
// few methods; these pins cover Shift, Network, the floor proxy, every GPU
// mode, plan-per-round, overlap, multi-field, faults, transport and mapping
// so a refactor of the setup path cannot drift any of them silently. In obs
// builds each case also pins a hash of its Chrome trace and of its
// critical-path analysis, so every flow and receive record is bit-exact too.
//
// A mismatch prints the case's actual line in the data-file format.

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <latch>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/zeroed.h"
#include "core/cell_array.h"
#include "harness/exchange.h"
#include "harness/experiment.h"
#include "netsim/fabric.h"
#include "netsim/mapping.h"
#include "obs/analyze.h"
#include "obs/export.h"
#include "obs/session.h"
#include "simmpi/cart.h"
#include "simmpi/fault.h"
#include "stencil/stencils.h"

namespace brickx::harness {
namespace {

struct Case {
  std::string name;
  Config cfg;
};

// Print a case as its name (gtest would otherwise dump its bytes, heap
// pointers included, into every listed test name).
void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

Config base(Method m) {
  Config c;
  c.machine = model::theta();
  c.rank_dims = {2, 2, 2};
  c.subdomain = {16, 16, 16};
  c.brick = 4;
  c.ghost = 4;
  c.timesteps = 8;
  c.warmup_exchanges = 1;
  c.validate = true;
  c.method = m;
  return c;
}

std::vector<Case> roster() {
  constexpr Method kAll[] = {Method::Yask,   Method::MpiTypes, Method::Basic,
                             Method::Layout, Method::MemMap,   Method::Shift,
                             Method::Network};
  std::vector<Case> out;
  auto add = [&](std::string name, Config c) {
    out.push_back({std::move(name), std::move(c)});
  };
  for (Method m : kAll) add(std::string("cpu_") + method_name(m), base(m));
  for (Method m : {Method::Yask, Method::MpiTypes}) {
    Config c = base(m);
    c.use125 = true;
    c.timesteps = 4;
    add(std::string("cpu125_") + method_name(m), c);
  }
  for (Method m : {Method::Layout, Method::MemMap, Method::MpiTypes}) {
    Config c = base(m);
    c.machine = m == Method::MemMap ? model::summit_future() : model::summit();
    c.gpu = GpuMode::CudaAware;
    add(std::string("cuda_") + method_name(m), c);
    c.machine = model::summit();
    c.gpu = GpuMode::Unified;
    add(std::string("um_") + method_name(m), c);
  }
  {
    Config c = base(Method::Yask);
    c.machine = model::summit();
    c.gpu = GpuMode::Staged;
    add("staged_YASK", c);
  }
  {
    Config c = base(Method::MemMap);
    c.memmap_floor_proxy = true;
    add("proxy_cpu", c);
    c.machine = model::summit();
    c.gpu = GpuMode::Unified;
    add("proxy_um", c);
  }
  for (Method m : kAll) {
    Config c = base(m);
    c.plan = PlanMode::PerRound;
    add(std::string("perround_") + method_name(m), c);
  }
  for (Method m : {Method::Basic, Method::Layout, Method::MemMap}) {
    Config c = base(m);
    c.overlap = true;
    add(std::string("overlap_") + method_name(m), c);
  }
  for (Method m :
       {Method::Layout, Method::MemMap, Method::Yask, Method::MpiTypes}) {
    Config c = base(m);
    c.fields = 3;
    add(std::string("fields3_") + method_name(m), c);
  }
  {
    Config c = base(Method::Layout);
    c.faults.seed = 7;
    c.faults.delay = 0.3;
    add("faults_delay", c);
  }
  {
    Config c = base(Method::Layout);
    c.machine.net.ranks_per_node = 4;
    c.transport = transport::Kind::ShmAgg;
    add("shm_agg", c);
  }
  {
    Config c = base(Method::Layout);
    c.rank_dims = {2, 2, 4};
    c.machine.net.ranks_per_node = 4;
    c.fabric = netsim::FabricKind::Dragonfly;
    c.mapping = netsim::MapKind::Greedy;
    add("dragonfly_greedy", c);
  }
  // Every branch of simmpi's message pipeline: partitions on the on-node
  // tier, in aggregation frames and as send_part continuations on a
  // contention fabric; strided (datatype) payloads on the on-node tier;
  // and per-partition, reorder and aggregated fault decisions.
  {
    Config c = base(Method::MemMap);
    c.overlap = true;
    c.machine.net.ranks_per_node = 4;
    c.transport = transport::Kind::Shm;
    add("overlap_shm_MemMap", c);
    c.method = Method::Layout;
    c.transport = transport::Kind::ShmAgg;
    add("overlap_shmagg_Layout", c);
    c.transport = transport::Kind::Flat;
    c.rank_dims = {2, 2, 4};
    c.fabric = netsim::FabricKind::Dragonfly;
    add("overlap_dragonfly_Layout", c);
  }
  for (transport::Kind k : {transport::Kind::Shm, transport::Kind::ShmAgg}) {
    Config c = base(Method::MpiTypes);
    c.machine.net.ranks_per_node = 4;
    c.transport = k;
    add(std::string(k == transport::Kind::Shm ? "shm_" : "shmagg_") +
            method_name(Method::MpiTypes),
        c);
  }
  {
    Config c = base(Method::Basic);
    c.overlap = true;
    c.faults.seed = 7;
    c.faults.delay = 0.3;
    c.faults.reorder = 0.2;
    add("overlap_faults_Basic", c);
  }
  {
    Config c = base(Method::Layout);
    c.faults.seed = 7;
    c.faults.reorder = 0.3;
    add("faults_reorder_Layout", c);
    c.faults.reorder = 0.0;
    c.faults.delay = 0.3;
    c.machine.net.ranks_per_node = 4;
    c.transport = transport::Kind::ShmAgg;
    add("shmagg_delay_Layout", c);
  }
  return out;
}

using Fingerprint = std::vector<std::pair<std::string, std::uint64_t>>;

/// Every Result field in declaration order, doubles as their bit patterns
/// (Stats by count/min/avg/max/sigma).
Fingerprint fingerprint(const Result& r) {
  Fingerprint f;
  auto d = [&](const char* name, double v) {
    f.emplace_back(name, std::bit_cast<std::uint64_t>(v));
  };
  auto i = [&](const char* name, std::int64_t v) {
    f.emplace_back(name, static_cast<std::uint64_t>(v));
  };
  auto stats = [&](const std::string& name, const Stats& s) {
    f.emplace_back(name + ".n", static_cast<std::uint64_t>(s.count()));
    f.emplace_back(name + ".min", std::bit_cast<std::uint64_t>(s.min()));
    f.emplace_back(name + ".avg", std::bit_cast<std::uint64_t>(s.avg()));
    f.emplace_back(name + ".max", std::bit_cast<std::uint64_t>(s.max()));
    f.emplace_back(name + ".sigma", std::bit_cast<std::uint64_t>(s.sigma()));
  };
  stats("calc", r.calc);
  stats("pack", r.pack);
  stats("call", r.call);
  stats("wait", r.wait);
  d("total_seconds", r.total_seconds);
  d("calc_per_step", r.calc_per_step);
  d("comm_per_step", r.comm_per_step);
  d("gstencils", r.gstencils);
  i("msgs_per_rank", r.msgs_per_rank);
  i("wire_bytes_per_rank", r.wire_bytes_per_rank);
  i("payload_bytes_per_rank", r.payload_bytes_per_rank);
  d("padding_percent", r.padding_percent);
  i("msgs_recv_per_rank", r.msgs_recv_per_rank);
  i("bytes_recv_per_rank", r.bytes_recv_per_rank);
  i("max_inflight_reqs", r.max_inflight_reqs);
  stats("plan_setup", r.plan_setup);
  d("setup_seconds", r.setup_seconds);
  d("replan_per_step", r.replan_per_step);
  i("plan_builds_per_rank", r.plan_builds_per_rank);
  i("validated", r.validated ? 1 : 0);
  d("avg_hops", r.avg_hops);
  d("queue_s_per_msg", r.queue_s_per_msg);
  d("max_link_sharing", r.max_link_sharing);
  d("busiest_link_util", r.busiest_link_util);
  i("fabric_msgs", r.fabric_msgs);
  const mpi::FaultCounts& fc = r.fault_counts;
  i("faults.messages", fc.messages);
  i("faults.delayed", fc.delayed);
  i("faults.dropped", fc.dropped);
  i("faults.duplicated", fc.duplicated);
  i("faults.reordered", fc.reordered);
  i("faults.truncated", fc.truncated);
  i("faults.corrupted", fc.corrupted);
  i("faults.detected", fc.detected);
  i("faults.leftover", fc.leftover);
  i("msgs_intra_per_rank", r.msgs_intra_per_rank);
  i("msgs_inter_per_rank", r.msgs_inter_per_rank);
  i("bytes_intra_per_rank", r.bytes_intra_per_rank);
  i("bytes_inter_per_rank", r.bytes_inter_per_rank);
  const transport::Stats& ts = r.transport_stats;
  i("transport.onnode_msgs", ts.onnode_msgs);
  i("transport.onnode_bytes", ts.onnode_bytes);
  i("transport.onnode_copies", ts.onnode_copies);
  i("transport.agg_frames", ts.agg_frames);
  i("transport.agg_submsgs", ts.agg_submsgs);
  i("transport.agg_frame_bytes", ts.agg_frame_bytes);
  return f;
}

/// Trace pins hash an exported document with 64-bit FNV-1a.
std::uint64_t fnv1a(const std::string& doc) {
  return mpi::checksum_bytes(doc.data(), doc.size());
}

/// One data-file line: `case field=hex ...`, listing the nonzero fields.
std::string to_line(const std::string& name, const Fingerprint& fp) {
  std::ostringstream os;
  os << name;
  for (const auto& [field, bits] : fp) {
    if (bits == 0) continue;
    char hex[20];
    std::snprintf(hex, sizeof hex, "%llx",
                  static_cast<unsigned long long>(bits));
    os << ' ' << field << '=' << hex;
  }
  return os.str();
}

/// The pinned fields per case name; fields not listed are zero.
std::map<std::string, std::map<std::string, std::uint64_t>> load_golden() {
  std::map<std::string, std::map<std::string, std::uint64_t>> g;
  std::ifstream in(BRICKX_TESTDATA_DIR "/harness_seam.txt");
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string name, kv;
    ls >> name;
    auto& fields = g[name];
    while (ls >> kv) {
      const std::size_t eq = kv.find('=');
      fields[kv.substr(0, eq)] = std::stoull(kv.substr(eq + 1), nullptr, 16);
    }
  }
  return g;
}

class HarnessSeam : public ::testing::TestWithParam<Case> {};

TEST_P(HarnessSeam, EveryResultFieldIsBitExact) {
  static const auto golden = load_golden();
  const Case& c = GetParam();
  const auto it = golden.find(c.name);
  obs::Session ses;
  Result r;
  {
    obs::Session::Scope scope(ses);
    r = run(c.cfg);
  }
  Fingerprint fp = fingerprint(r);
  // Only obs builds record traces; there, the run's Chrome trace and its
  // critical-path analysis are pinned too.
#if BRICKX_OBS
  fp.emplace_back("trace.chrome", fnv1a(obs::chrome_trace_json(ses)));
  fp.emplace_back("trace.analysis", fnv1a(obs::analysis_json(ses)));
#endif
  ASSERT_NE(it, golden.end()) << "no pinned line for this case; actual:\n"
                              << to_line(c.name, fp);
  std::map<std::string, std::uint64_t> pinned = it->second;
#if !BRICKX_OBS
  pinned.erase("trace.chrome");
  pinned.erase("trace.analysis");
#endif
  for (const auto& [field, bits] : fp) {
    EXPECT_EQ(bits, pinned[field]) << c.name << ": field " << field;
    pinned.erase(field);
  }
  EXPECT_TRUE(pinned.empty())
      << c.name << ": pins a field Result does not have: "
      << pinned.begin()->first;
  if (HasFailure()) ADD_FAILURE() << "actual:\n" << to_line(c.name, fp);
}

INSTANTIATE_TEST_SUITE_P(Roster, HarnessSeam, ::testing::ValuesIn(roster()),
                         [](const auto& info) { return info.param.name; });

// The tuner evaluates candidates with harness::run on a pool of worker
// threads. Four runs at once, one failing on a corrupting fault schedule:
// the failure stays inside its own run and is diagnosed, and the other three
// reproduce their solo Results bit for bit.
TEST(ConcurrentRuns, AFaultedRunDisturbsNoOther) {
  std::vector<Config> clean = {base(Method::Layout), base(Method::MemMap),
                               base(Method::Basic)};
  clean[2].overlap = true;
  Config faulted = base(Method::Layout);
  faulted.faults.corrupt = 1.0;
  faulted.faults.seed = 3;
  std::vector<Fingerprint> solo;
  for (const Config& c : clean) solo.push_back(fingerprint(run(c)));

  std::vector<Fingerprint> pooled(clean.size());
  std::vector<std::string> errors(clean.size() + 1);
  std::latch start(static_cast<std::ptrdiff_t>(errors.size()));
  auto worker = [&](std::size_t i) {
    start.arrive_and_wait();
    try {
      if (i < clean.size())
        pooled[i] = fingerprint(run(clean[i]));
      else
        (void)run(faulted);
    } catch (const std::exception& e) {
      errors[i] = e.what();
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t i = 0; i < errors.size(); ++i) pool.emplace_back(worker, i);
  for (std::thread& t : pool) t.join();

  EXPECT_NE(errors.back().find("fault detected:"), std::string::npos)
      << "faulted run: " << errors.back();
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_EQ(errors[i], "") << method_name(clean[i].method);
    EXPECT_EQ(pooled[i], solo[i]) << method_name(clean[i].method);
  }
}

// The runtime builder (which the DiffOracle also builds through) places
// ranks over the real exchange graph: on a 4x4x4 dragonfly with 4 ranks per
// node, greedy and embed must match make_map over exchange_comm_graph and
// never cut more bytes than block. A builder handed an empty graph falls
// back to block for greedy and lets embed cut more than block here.
TEST(RuntimeBuilder, PlacementSeesTheExchangeGraph) {
  for (netsim::MapKind kind :
       {netsim::MapKind::Greedy, netsim::MapKind::Embed}) {
    Config cfg = base(Method::Layout);
    cfg.rank_dims = {4, 4, 4};
    cfg.machine.net.ranks_per_node = 4;
    cfg.fabric = netsim::FabricKind::Dragonfly;
    cfg.mapping = kind;
    const auto rt = make_runtime(cfg);
    const auto& fab =
        static_cast<const netsim::ContentionFabric&>(rt->fabric());
    const auto graph = exchange_comm_graph(cfg);
    netsim::MapHints hints;
    hints.grid[0] = hints.grid[1] = hints.grid[2] = 4;
    hints.topo = &fab.topology();
    EXPECT_EQ(fab.rank_node(), netsim::make_map(kind, 64, 4, graph, hints))
        << netsim::map_name(kind);
    EXPECT_LE(netsim::cut_bytes(fab.rank_node(), graph),
              netsim::cut_bytes(netsim::block_map(64, 4), graph))
        << netsim::map_name(kind);
  }
}

// Exchange::write/read take cell boxes inside the ghost frame only: a box
// one cell past it on either side must throw, before touching a cell, for
// every method's storage family (bricks, mmap'd bricks, array slabs).
TEST(ExchangeSeam, EveryMethodRejectsBoxesOutsideTheFrame) {
  const Geometry geo{.subdomain = {16, 16, 16}, .ghost = 4, .brick = {4, 4, 4}};
  const Box<3> frame{Vec3::fill(-4), Vec3::fill(20)};
  for (Method m : {Method::Yask, Method::MpiTypes, Method::Basic,
                   Method::Layout, Method::MemMap, Method::Shift,
                   Method::Network}) {
    SCOPED_TRACE(method_name(m));
    Config cfg = base(m);
    cfg.rank_dims = {1, 1, 1};
    make_runtime(cfg)->run([&](mpi::Comm& comm) {
      const mpi::Cart<3> cart(comm, cfg.rank_dims);
      const auto ex = make_exchange(m, geo, cart);
      CellArray3 whole(frame);
      EXPECT_NO_THROW(ex->write(0, 0, whole));
      EXPECT_NO_THROW(ex->read(0, 0, whole));
      for (const Box<3>& past : {Box<3>{frame.lo - Vec3::fill(1), frame.hi},
                                 Box<3>{frame.lo, frame.hi + Vec3::fill(1)}}) {
        CellArray3 cells(past);
        std::fill(cells.raw().begin(), cells.raw().end(), 1.0);
        EXPECT_THROW(ex->write(0, 0, cells), Error);
        EXPECT_THROW(ex->read(0, 0, cells), Error);
      }
      ex->read(0, 0, whole);
      EXPECT_EQ(std::count(whole.raw().begin(), whole.raw().end(), 0.0),
                frame.volume())
          << "a rejected write changed the field";
    });
  }
}

// Without kernels a rank seeds only seed_boxes(..., kernels = false), the
// shell its exchanges send. One round after that seed must leave every
// ghost cell bit-identical to the round after a full seed, for every method
// that delivers ghosts.
const Method kDelivering[] = {Method::Basic,  Method::Layout,
                              Method::MemMap, Method::Shift,
                              Method::Yask,   Method::MpiTypes};

/// Seed buffer 0 over `boxes` (subdomain-local) with values distinct per
/// global cell and field.
void seed(Exchange& ex, const Geometry& geo, const Vec3& offset,
          const std::vector<Box<3>>& boxes) {
  for (int f = 0; f < geo.fields; ++f)
    for (const Box<3>& b : boxes) {
      CellArray3 cells(b);
      for_each(b, [&](const Vec3& p) {
        const Vec3 g = p + offset;
        cells.at(p) = static_cast<double>(g[0] + 1000 * g[1] +
                                          1000000 * g[2]) +
                      0.25 * f;
      });
      ex.write(0, f, cells);
    }
}

/// One bulk round on buffer 0, driven the way harness::run drives it.
void exchange_once(Exchange& ex, mpi::Comm& comm) {
  if (ex.packs()) ex.pack(0);
  ex.start(comm, 0);
  ex.finish(comm, 0);
  if (ex.packs()) ex.unpack(0);
}

/// Each rank's buffer-0 ghost cells (every field, the frame minus the
/// owned block) after seeding seed_boxes(..., kernels) and one round.
/// `after` runs on each rank's exchange once the round is done.
std::vector<std::vector<double>> ghosts_after_one_round(
    Method m, const Geometry& geo, bool kernels,
    const std::function<void(const Exchange&)>& after = {}) {
  Config cfg = base(m);
  const Box<3> owned{{0, 0, 0}, geo.subdomain};
  const Box<3> frame{owned.lo - Vec3::fill(geo.ghost),
                     owned.hi + Vec3::fill(geo.ghost)};
  std::vector<std::vector<double>> ghosts(
      static_cast<std::size_t>(cfg.rank_dims.prod()));
  make_runtime(cfg)->run([&](mpi::Comm& comm) {
    const mpi::Cart<3> cart(comm, cfg.rank_dims);
    const auto ex = make_exchange(m, geo, cart);
    seed(*ex, geo, cart.coords() * geo.subdomain,
         seed_boxes(geo.subdomain, geo.ghost, kernels));
    exchange_once(*ex, comm);
    std::vector<double>& out = ghosts[static_cast<std::size_t>(comm.rank())];
    for (int f = 0; f < geo.fields; ++f)
      for (const Box<3>& b : stencil::shell_boxes<3>(frame, owned)) {
        CellArray3 cells(b);
        ex->read(0, f, cells);
        out.insert(out.end(), cells.raw().begin(), cells.raw().end());
      }
    if (after) after(*ex);
  });
  return ghosts;
}

TEST(ExchangeSeam, ShellSeedDeliversTheFullSeedsGhosts) {
  constexpr std::int64_t kB = 4;
  for (Method m : kDelivering)
    for (std::int64_t g : {kB, 2 * kB})
      for (int fields : {1, 3})
        for (std::int64_t n : {2 * g + kB, 2 * g}) {
          SCOPED_TRACE(::testing::Message()
                       << method_name(m) << " ghost " << g << " fields "
                       << fields << " subdomain " << n);
          const Geometry geo{.subdomain = Vec3::fill(n),
                             .ghost = g,
                             .brick = Vec3::fill(kB),
                             .fields = fields};
          if (n > 2 * g) {
            EXPECT_EQ(seed_boxes(geo.subdomain, g, false).size(), 6u);
          } else {
            EXPECT_EQ(seed_boxes(geo.subdomain, g, false),
                      seed_boxes(geo.subdomain, g, true));
          }
          EXPECT_EQ(ghosts_after_one_round(m, geo, /*kernels=*/false),
                    ghosts_after_one_round(m, geo, /*kernels=*/true));
        }
}

// With mapped buffers, shell seeding plus a round on buffer 0 must not
// fault in a single page of buffer 1: nothing reads or writes it.
TEST(ExchangeSeam, ShellSeedLeavesTheOtherBufferUnfaulted) {
  // A 64^3-cell frame of doubles: every buffer is 2 MiB, so the heap
  // methods' buffers are lazily zeroed mappings.
  const Geometry geo{.subdomain = {48, 48, 48}, .ghost = 8, .brick = {4, 4, 4}};
  static_assert(64 * 64 * 64 * sizeof(double) == ZeroedBuffer::kHugePage);
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  for (Method m : kDelivering) {
    SCOPED_TRACE(method_name(m));
    std::atomic<std::int64_t> resident{0};
    ghosts_after_one_round(m, geo, /*kernels=*/false, [&](const Exchange& ex) {
      std::vector<std::pair<const void*, std::size_t>> ranges;
      ex.visit_payload([&](const void* p, std::size_t n) {
        ranges.emplace_back(p, n);
      });
      // visit_payload lists buffer 0's ranges, then as many of buffer 1's.
      for (std::size_t i = ranges.size() / 2; i < ranges.size(); ++i) {
        const auto lo = reinterpret_cast<std::uintptr_t>(ranges[i].first);
        const std::uintptr_t a = lo / page * page;
        const std::uintptr_t len = lo + ranges[i].second - a;
        std::vector<unsigned char> vec((len + page - 1) / page);
        ASSERT_EQ(::mincore(reinterpret_cast<void*>(a), len, vec.data()), 0);
        for (unsigned char v : vec) resident += v & 1;
      }
    });
    EXPECT_EQ(resident.load(), 0);
  }
}

}  // namespace
}  // namespace brickx::harness
