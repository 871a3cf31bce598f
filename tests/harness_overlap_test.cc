// Properties of the overlap dependency scheduler (DESIGN.md §14): turning
// cfg.overlap on must never change *what* is computed or sent — only when.
// The oracle is differential: overlap vs bulk over the same configuration
// must validate against the same global reference (so field state is
// bit-identical), move exactly the same messages and bytes, and produce a
// schedule that is a pure function of the configuration (byte-identical
// traces across identical runs).

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "harness/experiment.h"
#include "obs/analyze.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "obs/session.h"
#include "simmpi/fault.h"

namespace obs = brickx::obs;
namespace harness = brickx::harness;

namespace {

harness::Config overlap_config(harness::Method m) {
  harness::Config cfg;
  cfg.machine = brickx::model::theta();
  cfg.rank_dims = {2, 2, 2};
  cfg.subdomain = {16, 16, 16};
  cfg.brick = 4;
  cfg.ghost = 4;
  cfg.method = m;
  cfg.timesteps = 8;  // two measured exchange rounds (k = 4)
  cfg.warmup_exchanges = 1;
  cfg.validate = true;
  return cfg;
}

void expect_same_traffic(const harness::Result& bulk,
                         const harness::Result& ol) {
  // The wire contract is untouched by scheduling: same message count, same
  // padded and payload bytes, same receive totals, per rank per exchange.
  EXPECT_EQ(bulk.msgs_per_rank, ol.msgs_per_rank);
  EXPECT_EQ(bulk.wire_bytes_per_rank, ol.wire_bytes_per_rank);
  EXPECT_EQ(bulk.payload_bytes_per_rank, ol.payload_bytes_per_rank);
  EXPECT_EQ(bulk.msgs_recv_per_rank, ol.msgs_recv_per_rank);
  EXPECT_EQ(bulk.bytes_recv_per_rank, ol.bytes_recv_per_rank);
}

}  // namespace

// ---- the central property: overlap only reorders, never rewrites -----------

TEST(HarnessOverlap, SameFieldsAndSameTrafficAsBulk) {
  for (const harness::Method m :
       {harness::Method::Basic, harness::Method::Layout,
        harness::Method::MemMap}) {
    harness::Config cfg = overlap_config(m);
    const harness::Result bulk = harness::run(cfg);
    cfg.overlap = true;
    const harness::Result ol = harness::run(cfg);
    SCOPED_TRACE(harness::method_name(m));
    // Both validate against the same single-domain reference: every cell of
    // every timestep is bit-identical, which also certifies the scheduler's
    // ordering obligations (a partition readied before its source bricks
    // finished, or a shell piece computed before its ghosts landed, would
    // surface as stale values and fail validation).
    EXPECT_TRUE(bulk.validated);
    EXPECT_TRUE(ol.validated);
    expect_same_traffic(bulk, ol);
  }
}

TEST(HarnessOverlap, HoldsFor125PointStencil) {
  harness::Config cfg = overlap_config(harness::Method::Layout);
  cfg.use125 = true;
  cfg.timesteps = 4;  // radius 2: k = 2 steps per exchange round
  const harness::Result bulk = harness::run(cfg);
  cfg.overlap = true;
  const harness::Result ol = harness::run(cfg);
  EXPECT_TRUE(bulk.validated);
  EXPECT_TRUE(ol.validated);
  expect_same_traffic(bulk, ol);
}

// ---- the property must survive every orthogonal axis ------------------------

TEST(HarnessOverlap, HoldsAcrossFabrics) {
  for (const brickx::netsim::FabricKind fk :
       {brickx::netsim::FabricKind::Dragonfly,
        brickx::netsim::FabricKind::FatTree,
        brickx::netsim::FabricKind::Torus3d}) {
    harness::Config cfg = overlap_config(harness::Method::MemMap);
    cfg.fabric = fk;
    const harness::Result bulk = harness::run(cfg);
    cfg.overlap = true;
    const harness::Result ol = harness::run(cfg);
    SCOPED_TRACE(static_cast<int>(fk));
    EXPECT_TRUE(bulk.validated);
    EXPECT_TRUE(ol.validated);
    expect_same_traffic(bulk, ol);
  }
}

TEST(HarnessOverlap, HoldsAcrossOnNodeTransports) {
  // Multiple ranks per node so the shm and aggregation tiers actually
  // engage; pready routes partitions down the same transport decision tree
  // as isend, so the on-node byte split must match bulk exactly.
  for (const brickx::transport::Kind tk :
       {brickx::transport::Kind::Shm, brickx::transport::Kind::ShmAgg}) {
    harness::Config cfg = overlap_config(harness::Method::Layout);
    cfg.machine.net.ranks_per_node = 4;
    cfg.transport = tk;
    const harness::Result bulk = harness::run(cfg);
    cfg.overlap = true;
    const harness::Result ol = harness::run(cfg);
    SCOPED_TRACE(static_cast<int>(tk));
    EXPECT_TRUE(bulk.validated);
    EXPECT_TRUE(ol.validated);
    expect_same_traffic(bulk, ol);
    EXPECT_EQ(bulk.msgs_intra_per_rank, ol.msgs_intra_per_rank);
    EXPECT_EQ(bulk.msgs_inter_per_rank, ol.msgs_inter_per_rank);
    EXPECT_EQ(bulk.bytes_intra_per_rank, ol.bytes_intra_per_rank);
    EXPECT_EQ(bulk.bytes_inter_per_rank, ol.bytes_inter_per_rank);
  }
}

TEST(HarnessOverlap, DelayFaultsPerturbTimingNeverResults) {
  // A delay-only schedule hits individual partitions (each is its own
  // integrity stream); the run must still validate and move the same bytes.
  harness::Config cfg = overlap_config(harness::Method::Layout);
  cfg.overlap = true;
  const harness::Result clean = harness::run(cfg);
  cfg.faults.delay = 0.5;
  cfg.faults.seed = 21;
  cfg.faults.max_delay = 2e-5;
  const harness::Result faulty = harness::run(cfg);
  EXPECT_TRUE(clean.validated);
  EXPECT_TRUE(faulty.validated);
  expect_same_traffic(clean, faulty);
}

#if BRICKX_OBS

// ---- schedule determinism: a pure function of the configuration ------------

TEST(HarnessOverlap, ScheduleIsPureFunctionOfConfig) {
  auto once = [] {
    obs::Session ses;
    {
      obs::Session::Scope scope(ses);
      harness::Config cfg = overlap_config(harness::Method::Layout);
      cfg.overlap = true;
      const harness::Result res = harness::run(cfg);
      EXPECT_TRUE(res.validated);
    }
    return std::pair<std::string, std::string>(obs::chrome_trace_json(ses),
                                               obs::analysis_json(ses));
  };
  const auto a = once();
  const auto b = once();
  ASSERT_GT(a.first.size(), 100u);
  // Byte-identical trace and analysis: every span boundary, every partition
  // injection time, every wait decision replays exactly.
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

// ---- partition accounting, read off the trace -------------------------------

TEST(HarnessOverlap, EveryPartitionReadiedAndConsumedExactlyOncePerRound) {
  // On the fabric path and inside aggregation frames alike: a partition
  // that rides a frame keeps its index in the sender's flow record.
  for (const brickx::transport::Kind tk :
       {brickx::transport::Kind::Flat, brickx::transport::Kind::ShmAgg}) {
    SCOPED_TRACE(brickx::transport::kind_name(tk));
    obs::Session ses;
    {
      obs::Session::Scope scope(ses);
      harness::Config cfg = overlap_config(harness::Method::MemMap);
      cfg.overlap = true;
      if (tk == brickx::transport::Kind::ShmAgg)
        cfg.machine.net.ranks_per_node = 4;
      cfg.transport = tk;
      const harness::Result res = harness::run(cfg);
      EXPECT_TRUE(res.validated);
    }
    ASSERT_EQ(ses.runs().size(), 1u);
    const obs::Session::Run& run = ses.runs()[0];

    // Each pready emits one FlowEvent with part >= 0 on the sender; each
    // consume emits one RecvEvent with part >= 0 on the receiver. Group by
    // the full partition identity: per key, the count is the number of
    // exchange rounds — and therefore identical across every key. A
    // partition skipped (or readied twice) in any round would break the
    // uniformity.
    std::map<std::tuple<int, int, int, int>, int> flows;  // (src,dst,tag,part)
    std::map<std::tuple<int, int, int, int>, int> recvs;  // (dst,src,tag,part)
    int whole = 0;  // whole-message flows: none under overlap
    for (int r = 0; r < run.nranks; ++r) {
      const obs::RankLog& lg = run.logs[static_cast<std::size_t>(r)];
      for (const obs::FlowEvent& f : lg.flows()) {
        if (f.part >= 0)
          ++flows[{f.src, f.dst, f.tag, f.part}];
        else
          ++whole;
      }
      for (const obs::RecvEvent& e : lg.recvs())
        if (e.part >= 0) ++recvs[{r, e.src, e.tag, e.part}];
    }
    EXPECT_EQ(whole, 0);
    ASSERT_FALSE(flows.empty());
    ASSERT_EQ(flows.size(), recvs.size());
    const int rounds = flows.begin()->second;
    EXPECT_GT(rounds, 1);  // warmup round + measured rounds
    for (const auto& [key, n] : flows) EXPECT_EQ(n, rounds);
    for (const auto& [key, n] : recvs) EXPECT_EQ(n, rounds);
  }
}

TEST(HarnessOverlap, AnalyzerIdentityHoldsUnderOverlap) {
  // The critical-path identity (segments tile [0, makespan] exactly) must
  // survive partition-granularity message edges in the causality DAG.
  obs::Session ses;
  {
    obs::Session::Scope scope(ses);
    for (const harness::Method m :
         {harness::Method::Basic, harness::Method::Layout,
          harness::Method::MemMap}) {
      harness::Config cfg = overlap_config(m);
      cfg.overlap = true;
      (void)harness::run(cfg);
    }
  }
  ASSERT_EQ(ses.runs().size(), 3u);
  for (const obs::Session::Run& run : ses.runs()) {
    const obs::RunAnalysis a = obs::analyze_run(run);
    SCOPED_TRACE(run.label);
    EXPECT_TRUE(a.identity_ok);
    EXPECT_GT(a.makespan, 0.0);
  }
}

#endif  // BRICKX_OBS
