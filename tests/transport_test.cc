// The on-node transport tier (DESIGN.md §13): the generic aggregation
// protocol in isolation (transport::Aggregator is deliberately
// runtime-free), then the simmpi integration — shared-memory short-circuit
// and node-leader frames — for delivery correctness, determinism and
// stats accounting.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "simmpi/comm.h"
#include "transport/aggregate.h"
#include "transport/transport.h"

namespace brickx::transport {
namespace {

// ---- Kind parsing -----------------------------------------------------------

TEST(TransportKind, NamesRoundTrip) {
  for (Kind k : {Kind::Flat, Kind::Shm, Kind::ShmAgg}) {
    Kind back = Kind::Flat;
    ASSERT_TRUE(parse_kind(kind_name(k), &back)) << kind_name(k);
    EXPECT_EQ(back, k);
  }
}

TEST(TransportKind, RejectsUnknownNames) {
  Kind k = Kind::Flat;
  EXPECT_FALSE(parse_kind("", &k));
  EXPECT_FALSE(parse_kind("shm-aggregate", &k));
  EXPECT_FALSE(parse_kind("SHM", &k));
}

// ---- the aggregation protocol, runtime-free ---------------------------------

struct Rec {
  int src_node, dst_node;
  std::int64_t gen;
  std::vector<int> subs;
};

struct Agg {
  std::vector<Rec> frames;
  Aggregator<int> agg;
  explicit Agg(std::vector<int> node_of)
      : agg(std::move(node_of), [this](Aggregator<int>::Frame&& f) {
          frames.push_back(Rec{f.src_node, f.dst_node, f.gen, f.subs});
        }) {}
};

TEST(Aggregator, FrameSealsOnlyWhenEveryMemberCommitsPastItsGeneration) {
  Agg a({0, 0, 1, 1});
  a.agg.stage(0, 1, 100);
  a.agg.stage(1, 1, 101);
  EXPECT_EQ(a.agg.pending(), 2);
  a.agg.commit(0);  // rank 1 has not committed: node minimum still gen 0
  EXPECT_TRUE(a.frames.empty());
  a.agg.commit(1);
  ASSERT_EQ(a.frames.size(), 1u);
  EXPECT_EQ(a.frames[0].src_node, 0);
  EXPECT_EQ(a.frames[0].dst_node, 1);
  EXPECT_EQ(a.frames[0].gen, 0);
  EXPECT_EQ(a.agg.pending(), 0);
}

TEST(Aggregator, SubsOrderedByMemberRankThenProgramOrder) {
  Agg a({0, 0, 1, 1});
  // Interleave staging across the two members; thread timing can never do
  // worse than an adversarial interleave of the same program orders.
  a.agg.stage(1, 1, 10);
  a.agg.stage(0, 1, 20);
  a.agg.stage(1, 1, 11);
  a.agg.stage(0, 1, 21);
  a.agg.commit(0);
  a.agg.commit(1);
  ASSERT_EQ(a.frames.size(), 1u);
  EXPECT_EQ(a.frames[0].subs, (std::vector<int>{20, 21, 10, 11}));
}

TEST(Aggregator, SealOrderIsGenerationThenDstNode) {
  Agg a({0, 0, 1, 1, 2, 2});
  a.agg.stage(0, 2, 1);  // gen 0 -> node 2
  a.agg.stage(0, 1, 2);  // gen 0 -> node 1
  a.agg.commit(0);
  a.agg.commit(1);  // min commit 1: both gen-0 frames seal, node 1 first
  ASSERT_EQ(a.frames.size(), 2u);
  EXPECT_EQ(a.frames[0].dst_node, 1);
  EXPECT_EQ(a.frames[1].dst_node, 2);

  a.frames.clear();
  a.agg.stage(0, 1, 3);  // gen 1
  a.agg.stage(1, 2, 4);  // gen 1
  a.agg.commit(0);
  a.agg.commit(1);
  ASSERT_EQ(a.frames.size(), 2u);
  EXPECT_EQ(a.frames[0].gen, 1);
  EXPECT_EQ(a.frames[0].dst_node, 1);
  EXPECT_EQ(a.frames[1].dst_node, 2);
}

TEST(Aggregator, FinalizeForceSealsEverythingLeft) {
  Agg a({0, 0});
  a.agg.stage(0, 3, 7);
  a.agg.stage(1, 3, 8);
  a.agg.stage(0, 5, 9);
  a.agg.finalize(0);
  EXPECT_TRUE(a.frames.empty());  // member 1 still live
  a.agg.finalize(1);
  ASSERT_EQ(a.frames.size(), 2u);
  EXPECT_EQ(a.frames[0].dst_node, 3);
  EXPECT_EQ(a.frames[0].subs, (std::vector<int>{7, 8}));
  EXPECT_EQ(a.frames[1].dst_node, 5);
  EXPECT_EQ(a.agg.pending(), 0);
}

TEST(Aggregator, PerNodeProtocolsAreIndependent) {
  Agg a({0, 0, 1, 1});
  a.agg.stage(2, 0, 40);
  a.agg.stage(3, 0, 41);
  a.agg.commit(2);
  a.agg.commit(3);  // node 1 seals without node 0 committing at all
  ASSERT_EQ(a.frames.size(), 1u);
  EXPECT_EQ(a.frames[0].src_node, 1);
  EXPECT_EQ(a.frames[0].subs, (std::vector<int>{40, 41}));
}

}  // namespace
}  // namespace brickx::transport

// ---- simmpi integration -----------------------------------------------------

namespace brickx::mpi {
namespace {

/// 4 ranks, 2 per node. Every rank sends one tagged message to every other
/// rank and receives from every other rank — intra- and inter-node pairs in
/// one symmetric program (recv routes through wait, which is a commit
/// point, so aggregation frames seal without an explicit barrier).
void all_pairs(Comm& c, std::vector<std::vector<int>>& got) {
  const int n = c.size();
  std::vector<int> out(static_cast<std::size_t>(n));
  for (int d = 0; d < n; ++d)
    out[static_cast<std::size_t>(d)] = 1000 * c.rank() + d;
  std::vector<Request> reqs;
  for (int d = 0; d < n; ++d) {
    if (d == c.rank()) continue;
    reqs.push_back(c.isend(&out[static_cast<std::size_t>(d)], sizeof(int), d,
                           c.rank()));
  }
  got[static_cast<std::size_t>(c.rank())].assign(static_cast<std::size_t>(n),
                                                 -1);
  for (int s = 0; s < n; ++s) {
    if (s == c.rank()) continue;
    c.recv(&got[static_cast<std::size_t>(c.rank())][static_cast<std::size_t>(s)],
           sizeof(int), s, s);
  }
  for (Request& r : reqs) c.wait(r);
}

NetModel two_per_node() {
  NetModel m;
  m.ranks_per_node = 2;
  return m;
}

struct RunOut {
  std::vector<std::vector<int>> got;
  std::vector<double> vtimes;
  transport::Stats stats;
  CommCounters c0;
};

RunOut run_all_pairs(transport::Kind k) {
  Runtime rt(4, two_per_node());
  rt.set_transport(k);
  RunOut out;
  out.got.resize(4);
  rt.run([&](Comm& c) { all_pairs(c, out.got); });
  for (int r = 0; r < 4; ++r) out.vtimes.push_back(rt.final_vtime(r));
  out.stats = rt.transport_stats();
  out.c0 = rt.final_counters(0);
  return out;
}

TEST(TransportRuntime, DeliveredDataIsTransportInvariant) {
  const RunOut flat = run_all_pairs(transport::Kind::Flat);
  const RunOut shm = run_all_pairs(transport::Kind::Shm);
  const RunOut agg = run_all_pairs(transport::Kind::ShmAgg);
  for (int r = 0; r < 4; ++r) {
    for (int s = 0; s < 4; ++s) {
      if (s == r) continue;
      const int want = 1000 * s + r;
      EXPECT_EQ(flat.got[r][s], want) << "flat " << r << "<-" << s;
      EXPECT_EQ(shm.got[r][s], want) << "shm " << r << "<-" << s;
      EXPECT_EQ(agg.got[r][s], want) << "shm-agg " << r << "<-" << s;
    }
  }
}

TEST(TransportRuntime, VirtualTimesAreBitDeterministic) {
  for (transport::Kind k : {transport::Kind::Shm, transport::Kind::ShmAgg}) {
    const RunOut a = run_all_pairs(k);
    const RunOut b = run_all_pairs(k);
    for (int r = 0; r < 4; ++r)
      EXPECT_EQ(a.vtimes[static_cast<std::size_t>(r)],
                b.vtimes[static_cast<std::size_t>(r)])
          << transport::kind_name(k) << " rank " << r;
  }
}

TEST(TransportRuntime, StatsAccountForEveryMessageExactlyOnce) {
  // Each of the 4 ranks sends 1 intra (its node peer) and 2 inter messages.
  const RunOut shm = run_all_pairs(transport::Kind::Shm);
  EXPECT_EQ(shm.stats.onnode_msgs, 4);
  EXPECT_EQ(shm.stats.onnode_bytes, 4 * static_cast<std::int64_t>(sizeof(int)));
  EXPECT_EQ(shm.stats.onnode_copies, 0);  // contiguous: pointer handoff
  EXPECT_EQ(shm.stats.agg_frames, 0);

  const RunOut agg = run_all_pairs(transport::Kind::ShmAgg);
  EXPECT_EQ(agg.stats.onnode_msgs, 4);
  EXPECT_EQ(agg.stats.agg_submsgs, 8);  // all 8 inter-node messages framed
  // One frame per (node, other node) pair: both members stage before either
  // commits, so everything rides generation 0.
  EXPECT_EQ(agg.stats.agg_frames, 2);
  EXPECT_GT(agg.stats.agg_frame_bytes,
            8 * static_cast<std::int64_t>(sizeof(int)));

  EXPECT_EQ(agg.c0.msgs_intra, 1);
  EXPECT_EQ(agg.c0.msgs_inter, 2);
  EXPECT_EQ(agg.c0.msgs_intra + agg.c0.msgs_inter, agg.c0.msgs_sent);
}

TEST(TransportRuntime, CountersSplitIsTransportIndependent) {
  const RunOut flat = run_all_pairs(transport::Kind::Flat);
  const RunOut shm = run_all_pairs(transport::Kind::Shm);
  EXPECT_EQ(flat.c0.msgs_intra, shm.c0.msgs_intra);
  EXPECT_EQ(flat.c0.msgs_inter, shm.c0.msgs_inter);
  EXPECT_EQ(flat.c0.bytes_intra, shm.c0.bytes_intra);
  EXPECT_EQ(flat.c0.bytes_inter, shm.c0.bytes_inter);
  EXPECT_EQ(flat.c0.msgs_recv, shm.c0.msgs_recv);
}

TEST(TransportRuntime, OnNodeDeliveryIsFasterThanTheFabricPath) {
  // The same-node handoff alpha is far below the inter-node link alpha, so
  // a purely intra-node exchange finishes sooner under shm.
  auto intra_only = [](transport::Kind k) {
    Runtime rt(2, two_per_node());
    rt.set_transport(k);
    rt.run([](Comm& c) {
      int v = c.rank(), got = -1;
      const int peer = 1 - c.rank();
      Request s = c.isend(&v, sizeof v, peer, 0);
      c.recv(&got, sizeof got, peer, 0);
      c.wait(s);
      EXPECT_EQ(got, peer);
    });
    return std::max(rt.final_vtime(0), rt.final_vtime(1));
  };
  EXPECT_LT(intra_only(transport::Kind::Shm),
            intra_only(transport::Kind::Flat));
}

}  // namespace
}  // namespace brickx::mpi
