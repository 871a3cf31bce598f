// Multi-field AoSoA workload tests (DESIGN.md §16): FieldSet / ArrayFields
// layout contracts, the field-count-invariant message counts of every
// exchanger, the differential oracle over fields > 1 (including under
// fault injection), and the harness-level invariance of Table-1 counters.

#include "core/field_set.h"

#include <gtest/gtest.h>

#include <cstring>

#include "baseline/array_exchange.h"
#include "check/fuzz.h"
#include "check/oracle.h"
#include "core/cell_array.h"
#include "core/decomp.h"
#include "core/exchange.h"
#include "harness/experiment.h"
#include "simmpi/cart.h"

namespace brickx {
namespace {

using mpi::Cart;
using mpi::Comm;
using mpi::NetModel;
using mpi::Runtime;

// ------------------------------------------------------------- layout ----

TEST(ArrayFields, SlabsAreFieldMajorAndCellArrayOrdered) {
  const Box<3> frame{{-2, -2, -2}, {6, 6, 6}};
  ArrayFields af(frame, 3);
  EXPECT_EQ(af.fields(), 3);
  EXPECT_EQ(af.field_elems(), frame.volume());
  EXPECT_EQ(af.raw().size(),
            static_cast<std::size_t>(3 * frame.volume()));
  // Slab f starts exactly f * volume doubles into the single allocation.
  for (int f = 0; f < 3; ++f)
    EXPECT_EQ(af.field_base(f), af.raw().data() + f * frame.volume());
  // Within a slab, at(f, p) follows CellArray3's lexicographic order
  // (axis 0 fastest) — byte-compatible with the span kernels.
  CellArray3 ca(frame);
  std::int64_t i = 0;
  for_each(frame, [&](const Vec3& p) {
    ca.at(p) = static_cast<double>(i);
    af.at(1, p) = static_cast<double>(i);
    ++i;
  });
  EXPECT_EQ(std::memcmp(af.field_base(1), ca.raw().data(),
                        static_cast<std::size_t>(frame.volume()) *
                            sizeof(double)),
            0);
}

TEST(FieldSet, FieldAccessorsHitAoSoAChunkOffsets) {
  constexpr int B = 4;
  BrickDecomp<3> dec({8, 8, 8}, B, Vec3::fill(B), surface3d());
  BrickInfo<3> info = dec.brick_info();
  BrickStorage store = dec.allocate(3);
  EXPECT_EQ(store.fields(), 3);
  FieldSet<B, B, B> fs(&info, &store);
  EXPECT_EQ(fs.fields(), 3);
  for (int f = 0; f < 3; ++f) {
    // Each field's Brick view anchors f * B^3 elements into every chunk —
    // the AoSoA contract the single-message exchange depends on.
    EXPECT_EQ(fs.field(f).elem_offset(), (f * Brick<B, B, B>::kElems));
    fs.field(f).at(0, 1, 2, 3) = 100.0 + f;
  }
  for (int f = 0; f < 3; ++f)
    EXPECT_EQ(fs.field(f).at(0, 1, 2, 3), 100.0 + f);
}

// -------------------------------------- exchanger message invariance ----

double gv(std::uint64_t salt, Vec3 g, const Vec3& ext) {
  for (int a = 0; a < 3; ++a) g[a] = ((g[a] % ext[a]) + ext[a]) % ext[a];
  return static_cast<double>(salt * 1000000 +
                             static_cast<std::uint64_t>(
                                 (g[2] * ext[1] + g[1]) * ext[0] + g[0]));
}

template <typename MakeExchange>
void multi_field_end_to_end(int fields, MakeExchange&& make) {
  Runtime rt(8, NetModel{});
  rt.run([&](Comm& comm) {
    Cart<3> cart(comm, {2, 2, 2});
    const Vec3 N{8, 8, 8};
    const std::int64_t g = 2;
    const Vec3 ext{16, 16, 16};
    const Vec3 off = cart.coords() * N;
    ArrayFields af(Box<3>{{-g, -g, -g}, {10, 10, 10}}, fields);
    for (int f = 0; f < fields; ++f)
      for_each(Box<3>{{0, 0, 0}, N}, [&](const Vec3& p) {
        af.at(f, p) = gv(static_cast<std::uint64_t>(f), p + off, ext);
      });
    const auto dirs = Cart<3>::all_directions();
    std::vector<int> ranks;
    for (const auto& d : dirs) ranks.push_back(cart.neighbor(d));
    make(comm, N, g, dirs, ranks, af);
    // Every field's ghost frame must hold that field's salted fill — a
    // cross-field routing error shows up as the wrong millions digit.
    for (int f = 0; f < fields; ++f) {
      std::int64_t bad = 0;
      for_each(af.box(), [&](const Vec3& p) {
        if (af.at(f, p) != gv(static_cast<std::uint64_t>(f), p + off, ext))
          ++bad;
      });
      EXPECT_EQ(bad, 0) << "rank " << comm.rank() << " field " << f;
    }
  });
}

TEST(MultiFieldExchange, PackSendsOneMessagePerNeighbor) {
  // Every rank thread runs the body; only rank 0 writes these.
  std::int64_t bytes1 = 0, bytes3 = 0;
  multi_field_end_to_end(1, [&](Comm& comm, const Vec3& N, std::int64_t g,
                                const std::vector<BitSet>& dirs,
                                const std::vector<int>& ranks,
                                ArrayFields& af) {
    baseline::PackExchanger ex(N, g, dirs, ranks, 1);
    EXPECT_EQ(ex.send_message_count(), 26);
    if (comm.rank() == 0) bytes1 = ex.send_byte_count();
    ex.exchange(comm, af);
  });
  multi_field_end_to_end(3, [&](Comm& comm, const Vec3& N, std::int64_t g,
                                const std::vector<BitSet>& dirs,
                                const std::vector<int>& ranks,
                                ArrayFields& af) {
    baseline::PackExchanger ex(N, g, dirs, ranks, 3);
    // The acceptance property: message count is field-count-invariant,
    // bytes scale exactly linearly.
    EXPECT_EQ(ex.send_message_count(), 26);
    if (comm.rank() == 0) bytes3 = ex.send_byte_count();
    ex.exchange(comm, af);
  });
  EXPECT_EQ(bytes3, 3 * bytes1);
}

TEST(MultiFieldExchange, MpiTypesConcatDatatypePerNeighbor) {
  // Every rank thread runs the body; only rank 0 writes these.
  std::int64_t bytes1 = 0, bytes3 = 0;
  multi_field_end_to_end(1, [&](Comm& comm, const Vec3& N, std::int64_t g,
                                const std::vector<BitSet>& dirs,
                                const std::vector<int>& ranks,
                                ArrayFields& af) {
    baseline::MpiTypesExchanger ex(N, g, dirs, ranks, af);
    EXPECT_EQ(ex.send_message_count(), 26);
    if (comm.rank() == 0) bytes1 = ex.send_byte_count();
    ex.exchange(comm, af);
  });
  multi_field_end_to_end(3, [&](Comm& comm, const Vec3& N, std::int64_t g,
                                const std::vector<BitSet>& dirs,
                                const std::vector<int>& ranks,
                                ArrayFields& af) {
    baseline::MpiTypesExchanger ex(N, g, dirs, ranks, af);
    EXPECT_EQ(ex.send_message_count(), 26);
    if (comm.rank() == 0) bytes3 = ex.send_byte_count();
    ex.exchange(comm, af);
  });
  EXPECT_EQ(bytes3, 3 * bytes1);
}

TEST(MultiFieldExchange, PersistentPlansCarryAllFields) {
  multi_field_end_to_end(2, [&](Comm& comm, const Vec3& N, std::int64_t g,
                                const std::vector<BitSet>& dirs,
                                const std::vector<int>& ranks,
                                ArrayFields& af) {
    baseline::MpiTypesExchanger ex(N, g, dirs, ranks, af);
    ex.make_persistent(comm, af);
    for (int round = 0; round < 2; ++round) ex.exchange(comm, af);
  });
}

// -------------------------------------------------------------- oracle ----

conformance::FuzzConfig oracle_config(int fields) {
  conformance::FuzzConfig cfg;
  cfg.seed = 42;
  cfg.rank_dims = {2, 1, 1};
  cfg.brick = {4, 4, 4};
  cfg.ghost = 4;
  cfg.subdomain = {12, 12, 12};
  cfg.rounds = 2;
  cfg.fields = fields;
  return cfg;
}

TEST(MultiFieldOracle, AllFiveMethodsConform) {
  const conformance::OracleReport rep =
      conformance::run_oracle(oracle_config(3));
  EXPECT_TRUE(rep.ok) << rep.diagnosis;
  EXPECT_EQ(rep.methods_compared, 5);
  // Message counts stay the exact single-field 98/42/26 structure.
  EXPECT_EQ(rep.basic_msgs, 98);
  EXPECT_EQ(rep.layout_msgs, 42);
  EXPECT_EQ(rep.memmap_msgs, 26);
  // Payload scales exactly linearly in the field count.
  EXPECT_EQ(rep.payload_bytes, 3 * (20 * 20 * 20 - 12 * 12 * 12) * 8);
}

TEST(MultiFieldOracle, ConformsWithPaddingAndPersistence) {
  conformance::FuzzConfig cfg = oracle_config(2);
  cfg.page_size = 16384;
  cfg.persistent = true;
  const conformance::OracleReport rep = conformance::run_oracle(cfg);
  EXPECT_TRUE(rep.ok) << rep.diagnosis;
}

TEST(MultiFieldOracle, SerializeParseRoundTripsFields) {
  const conformance::FuzzConfig cfg = oracle_config(2);
  const auto back =
      conformance::parse_config(conformance::serialize_config(cfg));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->fields, 2);
  EXPECT_EQ(conformance::serialize_config(*back),
            conformance::serialize_config(cfg));
}

TEST(MultiFieldFaultOracle, CorruptionInAnyFieldIsDetected) {
  mpi::FaultSpec spec;
  spec.corrupt = 1.0;
  spec.seed = 5;
  const conformance::FaultOracleReport rep =
      conformance::run_fault_oracle(oracle_config(2), spec);
  EXPECT_TRUE(rep.ok) << rep.diagnosis;
  EXPECT_TRUE(rep.error_raised);
  EXPECT_TRUE(rep.fault_diagnosed);
}

TEST(MultiFieldFaultOracle, BenignDelaysLeaveEveryFieldBitIdentical) {
  mpi::FaultSpec spec;
  spec.delay = 1.0;
  spec.max_delay = 1e-3;
  spec.seed = 77;
  const conformance::FaultOracleReport rep =
      conformance::run_fault_oracle(oracle_config(2), spec);
  EXPECT_TRUE(rep.ok) << rep.diagnosis;
  EXPECT_FALSE(rep.error_raised);
}

// ------------------------------------------------------------- harness ----

TEST(MultiFieldHarness, MessageCountsAreFieldCountInvariant) {
  for (harness::Method m :
       {harness::Method::Yask, harness::Method::MpiTypes,
        harness::Method::Basic, harness::Method::Layout,
        harness::Method::MemMap}) {
    harness::Config cfg;
    cfg.rank_dims = {2, 1, 1};
    cfg.subdomain = {16, 16, 16};
    cfg.brick = 8;
    cfg.ghost = 8;
    cfg.method = m;
    cfg.timesteps = 2;
    cfg.validate = true;
    const harness::Result one = harness::run(cfg);
    cfg.fields = 3;
    const harness::Result three = harness::run(cfg);
    EXPECT_TRUE(one.validated && three.validated)
        << harness::method_name(m);
    // One message per (neighbor, round) regardless of field count —
    // Table 1's counters must not move; only bytes scale.
    EXPECT_EQ(three.msgs_per_rank, one.msgs_per_rank)
        << harness::method_name(m);
    EXPECT_EQ(three.wire_bytes_per_rank, 3 * one.wire_bytes_per_rank)
        << harness::method_name(m);
    EXPECT_EQ(three.payload_bytes_per_rank, 3 * one.payload_bytes_per_rank)
        << harness::method_name(m);
  }
}

TEST(MultiFieldHarness, FieldZeroReproducesSingleFieldRunExactly) {
  // fields = 1 must stay byte-identical to the historical single-field
  // path: same messages, same bytes, same validation — the golden-stdout
  // guarantee depends on it.
  harness::Config cfg;
  cfg.rank_dims = {2, 1, 1};
  cfg.subdomain = {24, 24, 24};  // > 2 * ghost: the full 42-message regime
  cfg.brick = 8;
  cfg.ghost = 8;
  cfg.method = harness::Method::Layout;
  cfg.timesteps = 2;
  cfg.validate = true;
  cfg.fields = 1;
  const harness::Result r = harness::run(cfg);
  EXPECT_TRUE(r.validated);
  EXPECT_EQ(r.msgs_per_rank, 42);
}

}  // namespace
}  // namespace brickx
