// Bit-exact pins for harness::run across every construction branch of the
// exchange seam: each roster case below runs a small experiment and compares
// every Result field, doubles by their bit patterns, against the values in
// tests/data/harness_seam.txt. The goldens print 3-4 decimals and pin only a
// few methods; these pins cover Shift, Network, the floor proxy, every GPU
// mode, plan-per-round, overlap, multi-field, faults, transport and mapping
// so a refactor of the setup path cannot drift any of them silently.
//
// A mismatch prints the case's actual line in the data-file format.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "harness/exchange.h"
#include "harness/experiment.h"
#include "netsim/fabric.h"
#include "netsim/mapping.h"

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
  return out;
}

/// Every Result field in declaration order, doubles as their bit patterns
/// (Stats by count/min/avg/max/sigma).
std::vector<std::pair<std::string, std::uint64_t>> fingerprint(
    const Result& r) {
  std::vector<std::pair<std::string, std::uint64_t>> f;
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

/// One data-file line: `case field=hex ...`, listing the nonzero fields.
std::string to_line(const std::string& name, const Result& r) {
  std::ostringstream os;
  os << name;
  for (const auto& [field, bits] : fingerprint(r)) {
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
  const Result r = run(c.cfg);
  ASSERT_NE(it, golden.end()) << "no pinned line for this case; actual:\n"
                              << to_line(c.name, r);
  std::map<std::string, std::uint64_t> pinned = it->second;
  for (const auto& [field, bits] : fingerprint(r)) {
    EXPECT_EQ(bits, pinned[field]) << c.name << ": field " << field;
    pinned.erase(field);
  }
  EXPECT_TRUE(pinned.empty())
      << c.name << ": pins a field Result does not have: "
      << pinned.begin()->first;
  if (HasFailure()) ADD_FAILURE() << "actual:\n" << to_line(c.name, r);
}

INSTANTIATE_TEST_SUITE_P(Roster, HarnessSeam, ::testing::ValuesIn(roster()),
                         [](const auto& info) { return info.param.name; });

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

}  // namespace
}  // namespace brickx::harness
