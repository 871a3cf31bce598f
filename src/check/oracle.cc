#include "check/oracle.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "common/error.h"
#include "core/cell_array.h"
#include "core/layout.h"
#include "harness/exchange.h"
#include "netsim/fabric.h"
#include "simmpi/cart.h"
#include "simmpi/comm.h"

namespace brickx::conformance {

namespace {

using harness::Method;
using mpi::Cart;
using mpi::Comm;

/// The five exchange implementations the oracle cross-checks; Basic is the
/// reference the others must match bitwise.
constexpr Method kAllMethods[] = {Method::Basic, Method::Layout, Method::MemMap,
                                  Method::Yask, Method::MpiTypes};

std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// The seeded fill: a hash-valued function of the *global* (periodically
/// wrapped) cell coordinate and the round. Adversarial by design — unlike
/// a linear ramp, any misrouted, stale or byte-shifted cell disagrees.
double fill_value(std::uint64_t seed, int round, Vec3 g, const Vec3& ext) {
  for (int a = 0; a < 3; ++a) g[a] = ((g[a] % ext[a]) + ext[a]) % ext[a];
  const std::uint64_t idx = static_cast<std::uint64_t>(
      (g[2] * ext[1] + g[1]) * ext[0] + g[0]);
  const std::uint64_t h =
      mix64(seed ^ mix64(static_cast<std::uint64_t>(round) ^ idx));
  // Map to a finite double in [1, 2): every bit pattern is a normal value,
  // so bitwise comparison is exact and NaN traps cannot hide mismatches.
  return 1.0 + static_cast<double>(h >> 12) * 0x1.0p-52;
}

/// Per-field fill seed: field 0 keeps the historical single-field fill
/// bit-exactly; higher fields carry distinct salted data so a cross-field
/// routing error (wrong slab, wrong AoSoA offset) cannot hide.
std::uint64_t field_seed(std::uint64_t seed, int f) {
  return f == 0 ? seed
                : mix64(seed ^ (0x8badf00dull + static_cast<std::uint64_t>(f)));
}

/// The harness job a fuzz config describes (the oracle's network model is
/// the default NetModel with the drawn node shape).
harness::Config job_config(const FuzzConfig& cfg) {
  harness::Config job;
  job.machine.net = mpi::NetModel{};
  job.machine.net.ranks_per_node = cfg.ranks_per_node;
  job.rank_dims = cfg.rank_dims;
  job.subdomain = cfg.subdomain;
  job.ghost = cfg.ghost;
  job.fabric = cfg.fabric;
  job.mapping = cfg.mapping;
  job.transport = cfg.transport;
  return job;
}

/// Everything one method run produces: the serialized post-exchange ghost
/// frames (per rank, rounds concatenated), per-rank comm counters and
/// virtual times, and the exchanger's own accounting from rank 0.
struct MethodRun {
  std::vector<std::vector<double>> frames;  ///< [rank] round-major frames
  std::vector<mpi::CommCounters> counters;  ///< [rank]
  std::vector<double> vtimes;               ///< [rank]
  harness::Traffic traffic;                 ///< per round, rank 0
};

/// Run `m` for cfg.rounds exchange rounds on buffer 0 of the storage
/// harness::make_exchange builds, on the runtime harness::make_runtime
/// builds — the construction path the benches and the tuner run.
MethodRun run_method(Method m, const FuzzConfig& cfg, mpi::FaultInjector* fi) {
  const int nranks = cfg.nranks();
  const std::unique_ptr<mpi::Runtime> rt =
      harness::make_runtime(job_config(cfg), fi);

  MethodRun out;
  out.frames.resize(static_cast<std::size_t>(nranks));

  const Vec3 N = cfg.subdomain;
  const Vec3 G = Vec3::fill(cfg.ghost);
  const Vec3 ext = cfg.rank_dims * N;
  const harness::Geometry geo{.subdomain = N,
                              .ghost = cfg.ghost,
                              .brick = cfg.brick,
                              .layout = fuzz_layout(cfg.tuned_layout),
                              .fields = cfg.fields,
                              .page_size = cfg.page_size};
  // The array baselines have no partitioned plan: they replay in bulk.
  const bool overlap =
      cfg.overlap && m != Method::Yask && m != Method::MpiTypes;

  rt->run([&](Comm& comm) {
    Cart<3> cart(comm, cfg.rank_dims);
    const Vec3 off = cart.coords() * N;
    auto& frames = out.frames[static_cast<std::size_t>(comm.rank())];
    const std::unique_ptr<harness::Exchange> ex =
        harness::make_exchange(m, geo, cart);
    // Bound plan handles must also survive a faulted round (the throw
    // unwinds through the Persistent destructors while in flight).
    if (cfg.persistent || overlap) ex->bind(comm, overlap);

    CellArray3 own(Box<3>{{0, 0, 0}, N});
    CellArray3 fr(Box<3>{Vec3{0, 0, 0} - G, N + G});
    for (int round = 0; round < cfg.rounds; ++round) {
      // ONE exchange per round moves every field (AoSoA brick chunks,
      // field-major array slabs) — the message count is asserted
      // field-count-invariant by run_oracle.
      for (int f = 0; f < cfg.fields; ++f) {
        for_each(own.box(), [&](const Vec3& p) {
          own.at(p) = fill_value(field_seed(cfg.seed, f), round, p + off, ext);
        });
        ex->write(0, f, own);
      }
      if (overlap) {
        // The partitioned replay: every send partition readied in flat
        // order, every receive partition consumed in *reverse* order
        // (deliberately not the arrival order), then the round closed.
        // Delivered frames must still be bitwise identical to the bulk
        // path — partition granularity may only change timing, never data.
        PartitionedSet& parts = ex->parts();
        parts.start_all();
        const int ns = static_cast<int>(parts.send_parts().size());
        for (int j = 0; j < ns; ++j) parts.pready(j);
        const int nr = static_cast<int>(parts.recv_parts().size());
        for (int j = nr - 1; j >= 0; --j) (void)parts.arrived(j);
        parts.finish();
      } else {
        ex->pack(0);
        ex->start(comm, 0);
        ex->finish(comm, 0);
        ex->unpack(0);
      }
      // Frames serialize in for_each order over the frame box (axis 0
      // fastest), which is CellArray3's storage order.
      for (int f = 0; f < cfg.fields; ++f) {
        ex->read(0, f, fr);
        frames.insert(frames.end(), fr.raw().begin(), fr.raw().end());
      }
    }
    if (comm.rank() == 0) out.traffic = ex->traffic();
  });

  out.counters.reserve(static_cast<std::size_t>(nranks));
  out.vtimes.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    out.counters.push_back(rt->final_counters(r));
    out.vtimes.push_back(rt->final_vtime(r));
  }
  return out;
}

bool bitwise_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Report through `fail` the first rank whose delivered frames differ
/// between `ref` and `got`, and every rank whose send/receive totals do
/// (with `split`, also its intra/inter message split). `what` names the
/// two settings of the lever that was varied.
template <typename Fail>
void expect_same_delivery(const MethodRun& ref, const MethodRun& got,
                          bool split, const std::string& what, Fail&& fail) {
  for (std::size_t r = 0; r < ref.frames.size(); ++r) {
    if (!bitwise_equal(got.frames[r], ref.frames[r])) {
      fail("delivered frames differ between " + what + " at rank " +
           std::to_string(r));
      return;
    }
    const mpi::CommCounters& a = ref.counters[r];
    const mpi::CommCounters& b = got.counters[r];
    if (a.msgs_sent != b.msgs_sent || a.bytes_sent != b.bytes_sent ||
        a.msgs_recv != b.msgs_recv || a.bytes_recv != b.bytes_recv ||
        (split &&
         (a.msgs_intra != b.msgs_intra || a.msgs_inter != b.msgs_inter)))
      fail("comm counters differ between " + what + " at rank " +
           std::to_string(r));
  }
}

}  // namespace

OracleReport run_oracle(const FuzzConfig& cfg) {
  OracleReport rep;
  auto fail = [&](const std::string& what) {
    if (rep.ok) {
      rep.ok = false;
      rep.diagnosis = what + " [" + serialize_config(cfg) + "]";
    }
  };

  auto name = [](std::size_t i) {
    return std::string(harness::method_name(kAllMethods[i]));
  };
  std::vector<MethodRun> runs;
  runs.reserve(std::size(kAllMethods));
  for (Method m : kAllMethods) runs.push_back(run_method(m, cfg, nullptr));
  rep.methods_compared = static_cast<int>(runs.size());

  const MethodRun& basic = runs[0];
  const MethodRun& layout = runs[1];
  const MethodRun& memmap = runs[2];
  rep.basic_msgs = basic.traffic.msgs;
  rep.layout_msgs = layout.traffic.msgs;
  rep.memmap_msgs = memmap.traffic.msgs;
  rep.payload_bytes = layout.traffic.payload;
  rep.memmap_wire_bytes = memmap.traffic.wire;

  // --- message-count structure (paper Table 1 / Eq. 1) ---------------------
  // The exact 98 / 42 / 26 counts require every surface region non-empty,
  // i.e. subdomain > 2 * ghost on every axis. At exactly 2 * ghost the
  // interior slab along that axis is empty and Basic/Layout legitimately
  // send fewer messages; the ordering and the per-neighbor floor still
  // hold there.
  bool full_regions = true;
  for (int a = 0; a < 3; ++a)
    full_regions = full_regions && cfg.subdomain[a] > 2 * cfg.ghost;
  if (full_regions) {
    if (basic.traffic.msgs != basic_message_count(3))
      fail("Basic sends " + std::to_string(basic.traffic.msgs) +
           " messages per rank, expected " +
           std::to_string(basic_message_count(3)));
    const LayoutSpec lay = fuzz_layout(cfg.tuned_layout);
    if (layout.traffic.msgs != message_count(lay, 3))
      fail("Layout sends " + std::to_string(layout.traffic.msgs) +
           " messages per rank, expected " +
           std::to_string(message_count(lay, 3)));
    if (layout.traffic.msgs < layout_message_lower_bound(3))
      fail("Layout beats the Eq. 1 lower bound — the count model is broken");
  } else if (basic.traffic.msgs > basic_message_count(3)) {
    fail("Basic exceeds the 98-message ceiling with empty regions");
  }
  if (memmap.traffic.msgs != (27 - 1))
    fail("MemMap sends " + std::to_string(memmap.traffic.msgs) +
         " messages per rank, expected 26");
  if (!(memmap.traffic.msgs <= layout.traffic.msgs &&
        layout.traffic.msgs <= basic.traffic.msgs))
    fail("message-count ordering memmap <= layout <= basic violated");
  for (const MethodRun& r : {runs[3], runs[4]})
    if (r.traffic.msgs != 26)
      fail("array baseline sends " + std::to_string(r.traffic.msgs) +
           " messages per rank, expected 26");

  // --- payload accounting --------------------------------------------------
  const Vec3 N = cfg.subdomain;
  const std::int64_t g2 = 2 * cfg.ghost;
  const std::int64_t ghost_cells =
      (N[0] + g2) * (N[1] + g2) * (N[2] + g2) - N.prod();
  const std::int64_t expect_payload =
      ghost_cells * static_cast<std::int64_t>(sizeof(double)) * cfg.fields;
  for (std::size_t i = 0; i < runs.size(); ++i)
    if (runs[i].traffic.payload != expect_payload)
      fail(name(i) + " moves " +
           std::to_string(runs[i].traffic.payload) +
           " payload bytes per exchange, expected ghost-frame volume " +
           std::to_string(expect_payload));
  // Unpadded methods put exactly the payload on the wire.
  for (std::size_t i = 0; i < runs.size(); ++i)
    if (kAllMethods[i] != Method::MemMap &&
        runs[i].traffic.wire != runs[i].traffic.payload)
      fail(name(i) + " wire bytes != payload");
  // MemMap pads views to page boundaries: wire >= payload, and the padding
  // percentage must satisfy Table 2's formula.
  if (memmap.traffic.wire < memmap.traffic.payload)
    fail("MemMap wire bytes below payload — padding accounting corrupt");
  {
    const double expect_pct =
        memmap.traffic.payload == 0
            ? 0.0
            : 100.0 *
                  static_cast<double>(memmap.traffic.wire -
                                      memmap.traffic.payload) /
                  static_cast<double>(memmap.traffic.payload);
    const double got = memmap.traffic.padding;
    if (got < expect_pct - 1e-9 || got > expect_pct + 1e-9)
      fail("MemMap padding percent " + std::to_string(got) +
           " disagrees with (wire - payload) / payload = " +
           std::to_string(expect_pct));
  }

  // --- obs counter consistency --------------------------------------------
  for (std::size_t i = 0; i < runs.size(); ++i) {
    std::int64_t ms = 0, mr = 0, bs = 0, br = 0;
    for (const auto& c : runs[i].counters) {
      ms += c.msgs_sent;
      mr += c.msgs_recv;
      bs += c.bytes_sent;
      br += c.bytes_recv;
    }
    if (ms != mr)
      fail(name(i) + ": global msgs_sent " +
           std::to_string(ms) + " != msgs_recv " + std::to_string(mr));
    if (bs != br)
      fail(name(i) + ": global bytes_sent " +
           std::to_string(bs) + " != bytes_recv " + std::to_string(br));
    // Rank 0's counter must agree with the exchanger's own plan accounting
    // (ties the obs layer to the geometry layer).
    const auto& c0 = runs[i].counters[0];
    const std::int64_t rounds = cfg.rounds;
    if (c0.msgs_sent != rounds * runs[i].traffic.msgs)
      fail(name(i) + ": rank-0 msgs_sent " +
           std::to_string(c0.msgs_sent) + " != rounds * plan count " +
           std::to_string(rounds * runs[i].traffic.msgs));
    if (c0.bytes_sent != rounds * runs[i].traffic.wire)
      fail(name(i) + ": rank-0 bytes_sent " +
           std::to_string(c0.bytes_sent) + " != rounds * plan bytes " +
           std::to_string(rounds * runs[i].traffic.wire));
  }

  // --- bit-identical post-exchange frames ----------------------------------
  // Whole frames are recorded: the own block is locally produced and
  // bitwise-trivially equal — still compared, but a mismatch there means
  // the serializer, not the exchange, broke.
  const Vec3 G = Vec3::fill(cfg.ghost);
  const std::size_t want = static_cast<std::size_t>((N + G + G).prod()) *
                           static_cast<std::size_t>(cfg.rounds) *
                           static_cast<std::size_t>(cfg.fields);
  const Vec3 ext = cfg.rank_dims * N;
  for (int r = 0; r < cfg.nranks(); ++r) {
    const auto& ref = runs[0].frames[static_cast<std::size_t>(r)];
    if (ref.size() != want) {
      fail("serialized frame has wrong cell count");
      break;
    }
    // Analytic expectation: the reference method must reproduce the fill
    // function at every frame cell (wrapped globally).
    {
      // Rank r's cart coords (delinearize is the Cart convention).
      const Vec3 off = delinearize<3>(r, cfg.rank_dims) * N;
      std::size_t at = 0;
      for (int round = 0; round < cfg.rounds && rep.ok; ++round) {
        for (int f = 0; f < cfg.fields && rep.ok; ++f) {
          const std::uint64_t fseed = field_seed(cfg.seed, f);
          std::int64_t bad = 0;
          for_each(Box<3>{Vec3{0, 0, 0} - G, N + G}, [&](const Vec3& p) {
            if (ref[at++] != fill_value(fseed, round, p + off, ext)) ++bad;
          });
          if (bad != 0)
            fail("Basic frame disagrees with the analytic fill at " +
                 std::to_string(bad) + " cells (rank " + std::to_string(r) +
                 ", round " + std::to_string(round) + ", field " +
                 std::to_string(f) + ")");
        }
      }
    }
    for (std::size_t i = 1; i < runs.size(); ++i) {
      const auto& got = runs[i].frames[static_cast<std::size_t>(r)];
      if (!bitwise_equal(got, ref)) {
        std::size_t first = 0;
        while (first < got.size() && first < ref.size() &&
               got[first] == ref[first])
          ++first;
        fail(name(i) +
             " frame differs from Basic at rank " + std::to_string(r) +
             ", flat cell " + std::to_string(first));
      }
    }
  }

  // --- partitioned-vs-bulk invariance --------------------------------------
  // When this config replayed the brick methods over partitioned requests,
  // re-run one of them over the bulk path: scheduling granularity may only
  // change timing — delivered frames and traffic counters must be bitwise
  // identical between the two replay mechanisms.
  if (cfg.overlap) {
    FuzzConfig bulk_cfg = cfg;
    bulk_cfg.overlap = false;
    expect_same_delivery(layout, run_method(Method::Layout, bulk_cfg, nullptr),
                         false, "partitioned and bulk replay", fail);
  }

  // --- transport invariance ------------------------------------------------
  // The on-node tier (DESIGN.md §13) may only change *timing*: delivered
  // ghost frames and the send/receive counters must be bitwise identical
  // whether messages rode the flat fabric path, the shared-memory short
  // circuit, or node-leader aggregation frames.
  {
    std::vector<transport::Kind> kinds = {transport::Kind::Flat,
                                          transport::Kind::Shm};
    if (cfg.ranks_per_node > 1) kinds.push_back(transport::Kind::ShmAgg);
    for (transport::Kind k : kinds) {
      if (k == cfg.transport) continue;
      FuzzConfig alt = cfg;
      alt.transport = k;
      expect_same_delivery(basic, run_method(Method::Basic, alt, nullptr),
                           true,
                           std::string("transport=") +
                               transport::kind_name(cfg.transport) +
                               " and transport=" + transport::kind_name(k),
                           fail);
    }
  }

  // --- mapping invariance ----------------------------------------------------
  // Rank-to-node placement (block / round-robin / greedy / rcb / embed) is
  // a pure timing lever: it decides which messages cross the fabric and
  // what contention they see, but the delivered ghost frames and the
  // send/receive totals must be bitwise identical under every mapping.
  // (The intra/inter locality *split* legitimately moves — that is the
  // point of the lever — so it is exempt.)
  if (cfg.fabric != netsim::FabricKind::Flat) {
    for (netsim::MapKind k :
         {netsim::MapKind::Block, netsim::MapKind::RoundRobin,
          netsim::MapKind::Greedy, netsim::MapKind::Rcb,
          netsim::MapKind::Embed}) {
      if (k == cfg.mapping) continue;
      FuzzConfig alt = cfg;
      alt.mapping = k;
      expect_same_delivery(layout, run_method(Method::Layout, alt, nullptr),
                           false,
                           std::string("mapping=") +
                               netsim::map_name(cfg.mapping) + " and mapping=" +
                               netsim::map_name(k),
                           fail);
    }
  }
  return rep;
}

FaultOracleReport run_fault_oracle(const FuzzConfig& cfg,
                                   const mpi::FaultSpec& spec) {
  FaultOracleReport rep;
  auto fail = [&](const std::string& what) {
    if (rep.ok) {
      rep.ok = false;
      rep.diagnosis = what + " [" + serialize_config(cfg) +
                      " faults: " + describe(spec) + "]";
    }
  };

  const MethodRun ref = run_method(Method::Layout, cfg, nullptr);
  mpi::FaultInjector fi(spec);
  bool completed = false;
  MethodRun faulty;
  try {
    faulty = run_method(Method::Layout, cfg, &fi);
    completed = true;
  } catch (const brickx::Error& e) {
    rep.error_raised = true;
    rep.fault_diagnosed =
        std::string_view(e.what()).find("fault detected") !=
        std::string_view::npos;
    if (!rep.fault_diagnosed)
      fail(std::string("faulty run failed with a non-fault error: ") +
           e.what());
  }
  rep.counts = fi.counts();

  if (!spec.corrupting()) {
    // Benign schedule (delay/reorder only): must complete, deliver
    // bit-identical data, and never trip the integrity layer.
    if (rep.error_raised)
      fail("benign (delay/reorder) schedule raised an error");
    if (completed) {
      if (faulty.frames != ref.frames)
        fail("benign schedule changed delivered data");
      if (rep.counts.detected != 0)
        fail("benign schedule tripped the integrity layer");
      if (rep.counts.leftover != 0)
        fail("benign schedule left undelivered messages");
      // Delays only ever push virtual time forward under the flat fabric
      // (contention fabrics re-solve sharing, so only data is asserted).
      if (cfg.fabric == netsim::FabricKind::Flat) {
        double vmax_ref = 0, vmax = 0;
        for (double v : ref.vtimes) vmax_ref = std::max(vmax_ref, v);
        for (double v : faulty.vtimes) vmax = std::max(vmax, v);
        if (vmax < vmax_ref)
          fail("delay-only schedule moved virtual time backwards");
      }
    }
    return rep;
  }

  // Corrupting schedule: nothing corrupting may slip through silently.
  if (completed) {
    if (rep.counts.dropped + rep.counts.truncated + rep.counts.corrupted > 0)
      fail("corrupting faults were injected but the run completed without "
           "a detection");
    // Every duplicated replay must be quarantined, not absorbed.
    if (rep.counts.leftover != rep.counts.duplicated)
      fail("duplicate replays neither detected nor swept: leftover " +
           std::to_string(rep.counts.leftover) + " of " +
           std::to_string(rep.counts.duplicated));
    if (completed && faulty.frames != ref.frames)
      fail("a corrupting schedule altered delivered data without detection");
  } else if (rep.fault_diagnosed && rep.counts.detected < 1) {
    fail("a fault diagnostic surfaced but the injector counted no "
         "detections");
  }
  return rep;
}

}  // namespace brickx::conformance
