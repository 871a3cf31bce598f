#include "baseline/array_exchange.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "cell_array_reference.h"
#include "common/rng.h"
#include "core/cell_array.h"
#include "core/field_set.h"
#include "simmpi/cart.h"

namespace brickx::baseline {
namespace {

using mpi::Cart;
using mpi::Comm;
using mpi::NetModel;
using mpi::Runtime;

TEST(Boxes, SendAndRecvBoxesAreConsistent) {
  const Vec3 N{16, 16, 16};
  // Send boxes partition the surface instances; recv boxes the ghost frame.
  std::int64_t send_total = 0, recv_total = 0;
  for (const auto& nu : Cart<3>::all_directions()) {
    const Box<3> s = send_box(nu, N, 4);
    const Box<3> r = recv_box(nu, N, 4);
    EXPECT_EQ(s.volume(), r.volume());
    send_total += s.volume();
    recv_total += r.volume();
    // Send boxes live inside the domain; recv boxes outside.
    EXPECT_TRUE((Box<3>{{0, 0, 0}, N}).contains(s.lo));
    EXPECT_FALSE((Box<3>{{0, 0, 0}, N}).contains(r.lo) &&
                 (Box<3>{{0, 0, 0}, N}).contains(r.hi - Vec3{1, 1, 1}));
  }
  // Ghost frame volume: (N+2g)^3 - N^3.
  EXPECT_EQ(recv_total, 24 * 24 * 24 - 16 * 16 * 16);
  EXPECT_EQ(send_total, recv_total);
}

double gv(Vec3 g, const Vec3& ext) {
  for (int a = 0; a < 3; ++a) g[a] = ((g[a] % ext[a]) + ext[a]) % ext[a];
  return static_cast<double>((g[2] * ext[1] + g[1]) * ext[0] + g[0]);
}

template <typename MakeExchange>
void end_to_end(MakeExchange&& make) {
  Runtime rt(8, NetModel{});
  rt.run([&](Comm& comm) {
    Cart<3> cart(comm, {2, 2, 2});
    const Vec3 N{16, 16, 16};
    const std::int64_t g = 4;
    const Vec3 ext{32, 32, 32};
    const Vec3 off = cart.coords() * N;
    CellArray3 field(Box<3>{{-g, -g, -g}, {20, 20, 20}});
    for_each(Box<3>{{0, 0, 0}, N},
             [&](const Vec3& p) { field.at(p) = gv(p + off, ext); });
    const auto dirs = Cart<3>::all_directions();
    std::vector<int> ranks;
    for (const auto& d : dirs) ranks.push_back(cart.neighbor(d));
    make(comm, N, g, dirs, ranks, field);
    std::int64_t bad = 0;
    for_each(field.box(), [&](const Vec3& p) {
      if (field.at(p) != gv(p + off, ext)) ++bad;
    });
    EXPECT_EQ(bad, 0) << "rank " << comm.rank();
  });
}

TEST(PackExchanger, GhostsExactAfterExchange) {
  end_to_end([](Comm& comm, const Vec3& N, std::int64_t g,
                const std::vector<BitSet>& dirs, const std::vector<int>& ranks,
                CellArray3& field) {
    PackExchanger ex(N, g, dirs, ranks);
    EXPECT_EQ(ex.send_message_count(), 26);
    ex.exchange(comm, field);
  });
}

TEST(PackExchanger, PhaseSplitWorks) {
  end_to_end([](Comm& comm, const Vec3& N, std::int64_t g,
                const std::vector<BitSet>& dirs, const std::vector<int>& ranks,
                CellArray3& field) {
    PackExchanger ex(N, g, dirs, ranks);
    const std::size_t packed = ex.pack(field);
    EXPECT_EQ(packed, static_cast<std::size_t>(ex.send_byte_count()));
    ex.start(comm);
    ex.finish(comm);
    const std::size_t unpacked = ex.unpack(field);
    EXPECT_EQ(unpacked, packed);
    EXPECT_EQ(ex.onnode_byte_count(),
              static_cast<std::int64_t>(packed + unpacked));
  });
}

TEST(MpiTypesExchanger, GhostsExactAfterExchange) {
  end_to_end([](Comm& comm, const Vec3& N, std::int64_t g,
                const std::vector<BitSet>& dirs, const std::vector<int>& ranks,
                CellArray3& field) {
    MpiTypesExchanger ex(N, g, dirs, ranks, field);
    EXPECT_EQ(ex.send_message_count(), 26);
    EXPECT_GT(ex.datatype_block_count(), 26);
    ex.exchange(comm, field);
  });
}

TEST(MpiTypesExchanger, ByteVolumeMatchesPack) {
  const Vec3 N{16, 16, 16};
  CellArray3 shape(Box<3>{{-4, -4, -4}, {20, 20, 20}});
  const auto dirs = Cart<3>::all_directions();
  std::vector<int> ranks(dirs.size(), 0);
  PackExchanger p(N, 4, dirs, ranks);
  MpiTypesExchanger t(N, 4, dirs, ranks, shape);
  EXPECT_EQ(p.send_byte_count(), t.send_byte_count());
}

TEST(MpiTypesExchanger, StridedFacesDominateBlockCount) {
  // The i-contiguous face (ν = {-1}) is maximally strided: g doubles per
  // row, N*N rows. This block explosion is exactly why MPI_Types is slow.
  const Vec3 N{16, 16, 16};
  CellArray3 shape(Box<3>{{-4, -4, -4}, {20, 20, 20}});
  auto dirs = std::vector<BitSet>{BitSet{-1}, BitSet{1}};
  std::vector<int> ranks{0, 0};
  MpiTypesExchanger ex(N, 4, dirs, ranks, shape);
  // Each direction sends a 4x16x16 subarray: 16*16 blocks of 4 doubles per
  // side (send + recv types), for both directions.
  EXPECT_EQ(ex.datatype_block_count(), 2 * 2 * 16 * 16);
}

TEST(PackExchanger, RepeatedExchangesStable) {
  Runtime rt(8, NetModel{});
  rt.run([&](Comm& comm) {
    Cart<3> cart(comm, {2, 2, 2});
    const Vec3 N{8, 8, 8};
    const auto dirs = Cart<3>::all_directions();
    std::vector<int> ranks;
    for (const auto& d : dirs) ranks.push_back(cart.neighbor(d));
    CellArray3 f(Box<3>{{-2, -2, -2}, {10, 10, 10}});
    for_each(Box<3>{{0, 0, 0}, N}, [&](const Vec3& p) {
      f.at(p) = static_cast<double>(comm.rank());
    });
    PackExchanger ex(N, 2, dirs, ranks);
    for (int i = 0; i < 4; ++i) ex.exchange(comm, f);
    // Ghost corner must hold the diagonal neighbor's rank.
    const int diag = cart.neighbor(BitSet{-1, -2, -3});
    EXPECT_EQ(f.at({-1, -1, -1}), static_cast<double>(diag));
  });
}

std::vector<double> random_doubles(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform() - 0.5;
  return v;
}

/// PackExchanger's row copies against the per-cell reference. Rank 0 packs
/// and unpacks with an exchanger whose 26 neighbors are all rank 1. Rank 1
/// receives rank 0's raw send buffers, which must equal the reference
/// packs, and sends back seeded receive buffers; rank 0's unpacked field
/// must equal the reference unpack of them. Both ranks rebuild rank 0's
/// field and the receive buffers from the same seeds.
template <typename Fields>
void expect_rows_match_reference(std::int64_t g, const Fields& shape) {
  const Vec3 N{16, 18, 20};
  const auto nf = static_cast<int>(
      shape.raw().size() / static_cast<std::size_t>(shape.box().volume()));
  const auto dirs = Cart<3>::all_directions();
  auto recv_tag = [&](std::size_t v) {
    return static_cast<int>(
        std::find(dirs.begin(), dirs.end(), dirs[v].flipped()) - dirs.begin());
  };
  auto incoming = [&](std::size_t v) {
    return random_doubles(
        static_cast<std::size_t>(recv_box(dirs[v], N, g).volume() * nf),
        100 + v);
  };
  Runtime rt(2, NetModel{});
  rt.run([&](Comm& comm) {
    Fields field = shape;
    std::ranges::copy(random_doubles(field.raw().size(), 1),
                      field.raw().begin());
    if (comm.rank() == 0) {
      PackExchanger ex(N, g, dirs, std::vector<int>(dirs.size(), 1), nf);
      Fields want = field;
      std::size_t bytes = 0;
      for (std::size_t v = 0; v < dirs.size(); ++v) {
        bytes += reference::pack_box(field, send_box(dirs[v], N, g)).size() *
                 sizeof(double);
        reference::unpack_box(incoming(v), recv_box(dirs[v], N, g), want);
      }
      EXPECT_EQ(ex.pack(field), bytes);
      ex.start(comm);
      ex.finish(comm);
      EXPECT_EQ(ex.unpack(field), bytes);
      EXPECT_EQ(std::memcmp(field.raw().data(), want.raw().data(),
                            want.raw().size() * sizeof(double)),
                0);
    } else {
      for (std::size_t v = 0; v < dirs.size(); ++v) {
        const std::vector<double> want =
            reference::pack_box(field, send_box(dirs[v], N, g));
        std::vector<double> got(want.size());
        comm.recv(got.data(), got.size() * sizeof(double), 0,
                  static_cast<int>(v));
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              want.size() * sizeof(double)),
                  0)
            << "send buffer of direction " << dirs[v].str();
      }
      for (std::size_t v = 0; v < dirs.size(); ++v) {
        const std::vector<double> buf = incoming(v);
        comm.send(buf.data(), buf.size() * sizeof(double), 0, recv_tag(v));
      }
    }
  });
}

TEST(PackExchanger, RowCopiesMatchPerCellReference) {
  // Ghost 1 and 2 make the x faces' rows one and two cells long.
  for (std::int64_t g : {1, 2, 8}) {
    SCOPED_TRACE(::testing::Message() << "ghost " << g);
    const Box<3> frame{Vec3::fill(-g), Vec3{16, 18, 20} + Vec3::fill(g)};
    expect_rows_match_reference(g, CellArray3(frame));
    expect_rows_match_reference(g, ArrayFields(frame, 1));
    expect_rows_match_reference(g, ArrayFields(frame, 3));
  }
}

TEST(PackExchanger, RejectsFieldsSmallerThanTheGhostFrame) {
  const Vec3 N{8, 8, 8};
  const auto dirs = Cart<3>::all_directions();
  PackExchanger ex(N, 2, dirs, std::vector<int>(dirs.size(), 0));
  CellArray3 interior(Box<3>{{0, 0, 0}, N});
  EXPECT_THROW(ex.pack(interior), Error);
  EXPECT_THROW(ex.unpack(interior), Error);
}

}  // namespace
}  // namespace brickx::baseline
