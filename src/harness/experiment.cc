#include "harness/experiment.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/cell_array.h"
#include "gpusim/device.h"
#include "harness/exchange.h"
#include "obs/obs.h"
#include "obs/session.h"
#include "simmpi/cart.h"
#include "stencil/stencils.h"

namespace brickx::harness {

namespace {

using mpi::Comm;

/// Deterministic initial condition shared by every method and the
/// reference, keyed on *global* cell coordinates. Field f > 0 salts the
/// hash so coupled fields carry distinct data; f == 0 reproduces the
/// historical single-field value bit-exactly.
double init_val(const Vec3& g, int f = 0) {
  const std::uint64_t h = static_cast<std::uint64_t>(g[0]) * 73856093u ^
                          static_cast<std::uint64_t>(g[1]) * 19349663u ^
                          static_cast<std::uint64_t>(g[2]) * 83492791u ^
                          static_cast<std::uint64_t>(f) * 2654435761u;
  return static_cast<double>(h % 4096) / 4096.0;
}

/// Phase seconds: one step's deltas, or a rank's measured totals.
struct Phases {
  double calc = 0, pack = 0, call = 0, wait = 0;

  Phases& operator+=(const Phases& o) {
    calc += o.calc;
    pack += o.pack;
    call += o.call;
    wait += o.wait;
    return *this;
  }
};

struct RankOut {
  Phases phases;
  double span = 0;
  double setup = 0, replan = 0;  ///< plan-build time (see DESIGN.md §9)
  Traffic traffic;
  std::int64_t builds = 0;  ///< exchange-plan constructions on this rank
  bool validated = false;
};

/// Per-step average of a measured total; zero when no step was measured.
double per_step(const Config& cfg, double total) {
  return cfg.timesteps > 0 ? total / static_cast<double>(cfg.timesteps) : 0.0;
}

/// Reject configurations the harness cannot run faithfully.
void check_config(const Config& cfg) {
  const int nranks = static_cast<int>(cfg.rank_dims.prod());
  BX_CHECK(nranks >= 1, "empty rank grid");
  BX_CHECK(cfg.timesteps >= 0, "Config::timesteps must not be negative");
  BX_CHECK(cfg.warmup_exchanges >= 0,
           "Config::warmup_exchanges must not be negative");
  BX_CHECK(cfg.layout.order.empty() || cfg.layout.valid(3),
           "Config::layout must be a valid 3-D region layout (every "
           "3-D surface signature exactly once)");
  BX_CHECK(cfg.fields >= 1, "Config::fields must be positive");
  BX_CHECK(cfg.fields == 1 || cfg.gpu == GpuMode::None,
           "multi-field runs are CPU-only (GPU range accounting assumes one "
           "field per storage)");
  BX_CHECK(cfg.gpu == GpuMode::None || cfg.machine.is_gpu,
           "GPU modes require a GPU machine model");
  BX_CHECK(!(cfg.method == Method::MemMap && cfg.gpu == GpuMode::CudaAware &&
             !cfg.machine.gpu.supports_cumemmap),
           "cudaMalloc memory does not support MemMap (paper Section 5; "
           "use summit_future() for the cuMemMap ablation)");
  BX_CHECK(!(cfg.method == Method::Yask && cfg.gpu != GpuMode::None &&
             cfg.gpu != GpuMode::Staged),
           "the packing baseline supports CPU runs and manual GPU staging");
  BX_CHECK(!(cfg.gpu == GpuMode::Staged && cfg.method != Method::Yask),
           "manual staging is the packing baseline's workflow");
  BX_CHECK(!cfg.overlap ||
               ((cfg.method == Method::Basic || cfg.method == Method::Layout ||
                 cfg.method == Method::MemMap) &&
                !cfg.memmap_floor_proxy),
           "overlap is supported for the Basic/Layout/MemMap brick methods");
  BX_CHECK(!(cfg.overlap && cfg.plan == PlanMode::PerRound),
           "overlap requires a build-once plan: the dependency scheduler "
           "binds partitioned requests, which freeze the wire schedule");
  BX_CHECK(!cfg.overlap ||
               stencil::steps_per_exchange(cfg.ghost, cfg.use125 ? 2 : 1) >= 2,
           "overlap needs at least two steps per exchange (ghost >= "
           "2 * stencil radius) so a producer step exists to hide behind");
  BX_CHECK(!(cfg.plan == PlanMode::PerRound && cfg.gpu != GpuMode::None),
           "the plan-per-round ablation is CPU-only (rebuilding exchangers "
           "would churn the GPU range registrations)");

  // The node model must be coherent with the world size before any fabric
  // (flat or routed) derives node assignments from it.
  const int rpn = cfg.machine.net.ranks_per_node;
  BX_CHECK(rpn >= 1, "machine.net.ranks_per_node must be positive");
  if (nranks % rpn != 0)
    std::fprintf(stderr,
                 "harness: warning: world size %d is not a multiple of "
                 "ranks_per_node %d; the last node runs underfilled\n",
                 nranks, rpn);
  BX_CHECK(!(cfg.transport == transport::Kind::ShmAgg && rpn == 1),
           "transport=shm-agg requires ranks_per_node > 1: with one rank "
           "per node there are no co-located ranks to aggregate, so every "
           "frame would carry a single message (use transport=flat or a "
           "machine model with ranks_per_node > 1)");
}

Geometry geometry(const Config& cfg) {
  Geometry geo{.subdomain = cfg.subdomain,
               .ghost = cfg.ghost,
               .brick = Vec3::fill(cfg.brick),
               .fields = cfg.fields,
               .page_size = cfg.page_size,
               .floor_proxy = cfg.memmap_floor_proxy};
  if (!cfg.layout.order.empty()) {
    geo.layout = cfg.layout;
  } else if (cfg.lexicographic_layout) {
    geo.layout = lexicographic_layout(3);
  }
  // MemMap over unified memory must align chunks to the *UM* page size
  // (64 KiB on Power9/ATS) — that alignment is what spares its compute
  // from fault backwash (Figure 15).
  if (geo.page_size == 0 && cfg.gpu != GpuMode::None)
    geo.page_size = cfg.machine.gpu.page_size;
  return geo;
}

/// Virtual seconds `fn` takes on `comm`'s clock, recorded as a span tagged
/// with step `id`. Each phase is both delta-accumulated on the virtual clock
/// (works with obs compiled out) and recorded; the obs build recomputes the
/// phase totals from the spans (see phase_sum) as a live cross-check that
/// the trace carries the ground truth — the two agree bit-exactly.
template <typename F>
double timed(Comm& comm, obs::Cat cat, const char* name, std::int64_t id,
             F&& fn) {
  const double t0 = comm.clock().now();
  {
    obs::ObsSpan sp(cat, name, id);
    fn();
  }
  return comm.clock().now() - t0;
}

// ---- the overlap dependency schedule (DESIGN.md §14) ------------------------
// A partitioned exchange round spans two steps: the *producer* step
// (s == k-1) opens the round and readies each outgoing partition as its
// source surface region finishes computing, so boundary data flows while
// the interior is still being produced; the *consumer* step (s == 0, next
// round) computes ghost-free cells first and then waits only on the
// partitions each shell piece actually reads. `compute(box, first)` runs one
// piece of the step's fused sweep; `first` pays the per-sweep costs.

/// Cell-coordinate box of region ordinal `o` (brick grid → cells; ghost
/// regions land in [-g, 0) ∪ [N, N+g) bands, matching the coordinates the
/// shell pieces read).
Box<3> region_cells(const BrickDecomp<3>& dec, int o) {
  const auto& rg = dec.regions()[static_cast<std::size_t>(o)];
  return Box<3>{rg.box.lo * dec.brick_dims(), rg.box.hi * dec.brick_dims()};
}

bool boxes_overlap(const Box<3>& a, const Box<3>& b) {
  for (int i = 0; i < 3; ++i)
    if (a.lo[i] >= b.hi[i] || b.lo[i] >= a.hi[i]) return false;
  return true;
}

/// Consumer side of a partitioned round, over the output box `whole` whose
/// `interior` reads no ghost data. The round was normally opened (and every
/// partition readied) by the previous producer step; with `round_open`
/// false (the first round of the run, or the first measured one) it
/// cold-starts here instead, since its boundary data came from
/// initialization, not a prior step.
template <typename Compute>
Phases consume_round(Comm& comm, Exchange& ex, const Box<3>& whole,
                     const Box<3>& interior, std::int64_t r, bool& round_open,
                     std::int64_t id, Compute&& compute) {
  PartitionedSet& parts = ex.parts();
  Phases ph;
  if (!round_open) {
    ph.call = timed(comm, obs::Cat::Call, "call", id, [&] {
      parts.start_all();
      const int nsend = static_cast<int>(parts.send_parts().size());
      for (int j = 0; j < nsend; ++j) parts.pready(j);
    });
  }
  // Compute the interior while the remaining partitions are still in
  // flight on the virtual clock.
  ph.calc = timed(comm, obs::Cat::Calc, "calc", id,
                  [&] { compute(interior, /*first=*/true); });
  // Shell pieces wait only on the ghost partitions their stencil footprint
  // (piece expanded by the radius) actually reads.
  const BrickDecomp<3>& dec = *ex.decomp();
  const std::vector<PartSpec>& rp = parts.recv_parts();
  std::vector<char> consumed(rp.size(), 0);
  double shell_wait = 0, shell_calc = 0;
  for (const Box<3>& b : stencil::shell_boxes<3>(whole, interior)) {
    const Box<3> need{b.lo - Vec3::fill(r), b.hi + Vec3::fill(r)};
    shell_wait += timed(comm, obs::Cat::Wait, "wait", id, [&] {
      for (std::size_t j = 0; j < rp.size(); ++j) {
        if (consumed[j]) continue;
        if (!boxes_overlap(region_cells(dec, rp[j].region), need)) continue;
        parts.arrived(static_cast<int>(j));
        consumed[j] = 1;
      }
    });
    shell_calc += timed(comm, obs::Cat::Calc, "calc", id,
                        [&] { compute(b, /*first=*/false); });
  }
  const double closing =
      timed(comm, obs::Cat::Wait, "wait", id, [&] { parts.finish(); });
  round_open = false;
  ph.calc += shell_calc;
  ph.wait = shell_wait + closing;
  return ph;
}

/// Producer side: open the next round up front (receives post first), then
/// compute this step's boundary regions one by one, readying each outgoing
/// partition the moment its source region is done, and finish with the
/// interior — which overlaps with every partition already in flight.
template <typename Compute>
Phases produce_round(Comm& comm, Exchange& ex, bool& round_open,
                     std::int64_t id, Compute&& compute) {
  PartitionedSet& parts = ex.parts();
  Phases ph;
  ph.call =
      timed(comm, obs::Cat::Call, "call", id, [&] { parts.start_all(); });
  round_open = true;
  const BrickDecomp<3>& dec = *ex.decomp();
  const std::vector<PartSpec>& sends = parts.send_parts();
  double prod_calc = 0, prod_call = 0;
  for (int o = 0; o < dec.surface_region_count(); ++o) {
    prod_calc += timed(comm, obs::Cat::Calc, "calc", id,
                       [&] { compute(region_cells(dec, o), o == 0); });
    prod_call += timed(comm, obs::Cat::Call, "call", id, [&] {
      for (std::size_t j = 0; j < sends.size(); ++j)
        if (sends[j].region == o) parts.pready(static_cast<int>(j));
    });
  }
  prod_calc += timed(comm, obs::Cat::Calc, "calc", id, [&] {
    compute(region_cells(dec, dec.interior_ordinal()), /*first=*/false);
  });
  ph.call += prod_call;
  ph.calc = prod_calc;
  return ph;
}

// ---- one rank ---------------------------------------------------------------

/// One rank's experiment: the exchange it owns, the double-buffer selector
/// and the totals the aggregate step reads.
class RankRun {
 public:
  RankRun(const Config& cfg, Comm& comm, gpu::Device* dev)
      : cfg_(cfg),
        comm_(comm),
        dev_(dev),
        cart_(comm, cfg.rank_dims),
        r_(cfg.use125 ? 2 : 1),
        k_(stencil::steps_per_exchange(cfg.ghost, r_)),
        offset_(cart_.coords() * cfg.subdomain),
        execute_(cfg.execute_kernels && cfg.method != Method::Network &&
                 !cfg.memmap_floor_proxy),
        ex_(make_exchange(cfg.method, geometry(cfg), cart_)) {
    // Staged fields stay plain host memory standing in for device arrays.
    if (dev_ != nullptr && cfg.gpu != GpuMode::Staged)
      ex_->attach(*dev_, cfg.gpu == GpuMode::CudaAware
                             ? mpi::MemSpace::Device
                             : mpi::MemSpace::Unified);
    out_.traffic = ex_->traffic();
    // Initialize the input fields from global coordinates, a thin z-slab at
    // a time: a block-sized staging array, live on every rank at once,
    // would raise the run's peak memory. The first exchange fills the
    // ghost frame.
    const Vec3& N = cfg.subdomain;
    constexpr std::int64_t kSlab = 8;  // z-planes staged per write
    for (int f = 0; f < cfg.fields; ++f)
      for (std::int64_t z = 0; z < N[2]; z += kSlab) {
        CellArray3 seed(
            Box<3>{{0, 0, z}, {N[0], N[1], std::min(z + kSlab, N[2])}});
        for_each(seed.box(), [&](const Vec3& p) {
          seed.at(p) = init_val(p + offset_, f);
        });
        ex_->write(0, f, seed);
      }
    setup_plans();
  }

  /// The warmup rounds, the barrier, then the measured steps.
  void loop() {
    const int k = static_cast<int>(k_);
    for (int w = 0; w < cfg_.warmup_exchanges; ++w)
      for (int s = 0; s < k; ++s)
        // Pass the global warmup ordinal so each warmup step's id is
        // unique; step()'s `step % k` recovers the within-round phase.
        step(w * k + s, /*measured=*/false);
    comm_.barrier();
    const double t_begin = comm_.clock().now();
    for (int s = 0; s < cfg_.timesteps; ++s) step(s, /*measured=*/true);
    out_.span = comm_.allreduce_max(comm_.clock().now() - t_begin);
  }

  /// Phase totals (from the trace in obs builds), per-rank metrics and the
  /// validation verdict.
  RankOut finish(obs::Collector& col) {
#if BRICKX_OBS
    // Recompute the phase totals from the recorded spans. phase_sum repeats
    // the per-step accumulation order of the deltas, so this is bit-exact
    // with them — the trace *is* the measurement.
    const obs::RankLog& lg = col.log(comm_.rank());
    out_.phases.calc = obs::phase_sum(lg, obs::Cat::Calc, "calc");
    out_.phases.pack = obs::phase_sum(lg, obs::Cat::Pack, "pack");
    out_.phases.call = obs::phase_sum(lg, obs::Cat::Call, "call");
    out_.phases.wait = obs::phase_sum(lg, obs::Cat::Wait, "wait");
    // The one-time plan_setup span carries step = -1, so phase_sum only
    // sees the measured in-loop rebuilds — matching out_.replan's deltas.
    out_.replan = obs::phase_sum(lg, obs::Cat::Setup, "replan");
#else
    (void)col;
#endif
    // Per-rank metrics into the obs registry (the thread is still bound).
    const mpi::CommCounters& c = comm_.counters();
    obs::counter_add("comm.msgs_sent", c.msgs_sent);
    obs::counter_add("comm.bytes_sent", c.bytes_sent);
    obs::counter_add("comm.msgs_recv", c.msgs_recv);
    obs::counter_add("comm.bytes_recv", c.bytes_recv);
    obs::gauge_max("comm.max_inflight_reqs",
                   static_cast<double>(c.max_inflight_reqs));
    obs::hist_add("harness.calc_s", per_step(cfg_, out_.phases.calc));
    obs::hist_add("harness.pack_s", per_step(cfg_, out_.phases.pack));
    obs::hist_add("harness.call_s", per_step(cfg_, out_.phases.call));
    obs::hist_add("harness.wait_s", per_step(cfg_, out_.phases.wait));
    obs::hist_add("harness.plan_setup_s", out_.setup);
    obs::hist_add("harness.replan_s", per_step(cfg_, out_.replan));
    obs::counter_add("plan.builds", out_.builds);

    if (cfg_.validate && execute_) out_.validated = validate();
    return out_;
  }

 private:
  /// Plan lifetime (DESIGN.md §9). BuildOnce binds the frozen plan(s) to
  /// persistent (overlap: partitioned) requests and charges the modeled
  /// one-time build cost now — before warmup and the barrier in loop(). The
  /// barrier equalizes every rank's clock, so measured results stay
  /// byte-identical to pre-plan builds; the setup cost is visible only
  /// through Result::setup_seconds and the trace. PerRound rebuilds in
  /// step() instead.
  void setup_plans() {
    out_.builds = ex_->plan_copies();
    if (cfg_.plan != PlanMode::BuildOnce) return;
    out_.setup = timed(comm_, obs::Cat::Setup, "plan_setup", -1, [&] {
      ex_->bind(comm_, cfg_.overlap);
      double secs = 0;
      for (int i = 0; i < ex_->plan_copies(); ++i)
        secs += ex_->plan_cost().seconds(comm_.net());
      comm_.compute(secs);
    });
  }

  void step(int step, bool measured) {
    const std::int64_t s = step % k_;
    // No producer step ahead of the last step overall, and none across the
    // warmup→measured barrier: pre-starting the first measured round during
    // (unmeasured) warmup would silently move its injection cost out of the
    // measured window. The first measured round cold-starts at its s == 0
    // instead, exactly like the first warmup round.
    const int warmup_steps = cfg_.warmup_exchanges * static_cast<int>(k_);
    ++steps_done_;
    const bool no_prestart = steps_done_ == warmup_steps + cfg_.timesteps ||
                             steps_done_ == warmup_steps;
    // Measured steps tag spans with their timestep; warmup steps get
    // distinct ids -2, -3, ... so the critical-path analyzer can keep
    // per-step phase identity without them ever colliding with measured
    // steps (phase_sum and the exporters filter on step >= 0 / < 0, so
    // which negative id a warmup span carries is invisible to them).
    const std::int64_t id = measured ? step : -2 - step;
    if (s == 0 && cfg_.plan == PlanMode::PerRound) {
      // Tear down and rebuild this round's plan inside the measured loop,
      // charging the modeled build cost each time.
      const double secs = timed(comm_, obs::Cat::Setup, "replan", id, [&] {
        ex_->rebuild(input_);
        comm_.compute(ex_->plan_cost().seconds(comm_.net()));
        ++out_.builds;
      });
      if (measured) out_.replan += secs;
    }
    auto piece = [&](const Box<3>& box, bool first) { compute(box, first); };
    const Vec3& N = cfg_.subdomain;
    Phases ph;
    if (s == 0 && cfg_.overlap) {
      const Box<3> interior{Vec3::fill(r_), N - Vec3::fill(r_)};
      ph = consume_round(comm_, *ex_,
                         stencil::expansion_output_box<3>(N, cfg_.ghost, r_, 0),
                         interior, r_, round_open_, id, piece);
    } else if (s == k_ - 1 && cfg_.overlap && !no_prestart) {
      ph = produce_round(comm_, *ex_, round_open_, id, piece);
    } else {
      if (s == 0) ph = bulk_round(id);
      ph.calc = timed(comm_, obs::Cat::Calc, "calc", id, [&] {
        compute(stencil::expansion_output_box<3>(N, cfg_.ghost, r_, s), true);
      });
    }
    if (measured) out_.phases += ph;
    input_ = 1 - input_;
  }

  /// One bulk exchange round on the input buffer.
  Phases bulk_round(std::int64_t id) {
    Phases ph;
    if (ex_->packs())
      ph.pack = timed(comm_, obs::Cat::Pack, "pack", id, [&] {
        comm_.compute(onnode_seconds(ex_->pack(input_)));
      });
    ph.call = timed(comm_, obs::Cat::Call, "call", id,
                    [&] { ex_->start(comm_, input_); });
    ph.wait = timed(comm_, obs::Cat::Wait, "wait", id,
                    [&] { ex_->finish(comm_, input_); });
    if (ex_->packs())
      ph.pack += timed(comm_, obs::Cat::Pack, "pack", id, [&] {
        comm_.compute(onnode_seconds(ex_->unpack(input_)));
      });
    return ph;
  }

  /// On-node cost of one pack or unpack pass: CPU runs price the strided
  /// copy; manual GPU staging prices a bandwidth-bound pack kernel plus
  /// shuttling the 26 packed buffers across the CPU-GPU link (Section 5's
  /// motivating workflow).
  [[nodiscard]] double onnode_seconds(std::size_t bytes) const {
    if (cfg_.gpu != GpuMode::Staged)
      return model::pack_seconds(cfg_.machine,
                                 static_cast<std::int64_t>(bytes), 26);
    const auto& gm = cfg_.machine.gpu;
    const double b = static_cast<double>(bytes);
    return b / gm.hbm_bw + gm.launch_overhead  // pack kernel
           + b / gm.link_bw + 26 * gm.launch_overhead;  // cudaMemcpy
  }

  /// Compute `box` from the input buffer into the other one and charge it.
  /// A step's pieces form a single fused sweep that publishes per-region
  /// completion, so the fixed per-sweep cost (OpenMP fork/join on CPU,
  /// kernel launch on GPU) and the per-chunk UM touch pass are charged once
  /// per step — on the `first` piece — and later pieces cost marginal
  /// volume only. A bulk step is one first piece.
  void compute(const Box<3>& box, bool first) {
    if (execute_)
      ex_->stencil(input_, box, cfg_.use125, cfg_.naive_kernels);
    const double flops =
        cfg_.use125 ? stencil::Stencil125::kFlops : stencil::Stencil7::kFlops;
    constexpr double kBytesPerCell = 16.0;  // one read + one write stream
    double secs;
    if (dev_ != nullptr) {
      secs = dev_->kernel_seconds(box.volume(), flops, kBytesPerCell);
      if (first) {
        ex_->visit_payload([&](const void* p, std::size_t n) {
          secs += dev_->touch_device(p, n);
        });
      } else {
        secs -= cfg_.machine.gpu.launch_overhead;
      }
    } else {
      secs = model::cpu_stencil_seconds(cfg_.machine,
                                        box.volume() * cfg_.fields, flops,
                                        kBytesPerCell,
                                        cfg_.method == Method::Yask);
      if (!first) secs -= cfg_.machine.sweep_overhead;
    }
    comm_.compute(secs);
  }

  /// Compare every field's interior against the global reference evolved
  /// for the same number of steps.
  [[nodiscard]] bool validate() const {
    const Vec3& N = cfg_.subdomain;
    const int total_steps =
        cfg_.warmup_exchanges * static_cast<int>(k_) + cfg_.timesteps;
    for (int f = 0; f < cfg_.fields; ++f) {
      CellArray3 got(Box<3>{{0, 0, 0}, N});
      ex_->read(input_, f, got);
      CellArray3 ref(Box<3>{{0, 0, 0}, cfg_.rank_dims * N});
      for_each(ref.box(), [&](const Vec3& p) { ref.at(p) = init_val(p, f); });
      stencil::evolve_reference(ref, total_steps, cfg_.use125);
      std::int64_t bad = 0;
      for_each(got.box(), [&](const Vec3& p) {
        if (got.at(p) != ref.at(p + offset_)) ++bad;
      });
      if (bad != 0) return false;
    }
    return true;
  }

  const Config& cfg_;
  Comm& comm_;
  gpu::Device* dev_;
  mpi::Cart<3> cart_;
  const std::int64_t r_, k_;
  const Vec3 offset_;
  const bool execute_;
  std::unique_ptr<Exchange> ex_;
  RankOut out_;
  int input_ = 0;  ///< double-buffer selector
  int steps_done_ = 0;
  bool round_open_ = false;  ///< a partitioned round spans two steps
};

// ---- aggregate --------------------------------------------------------------

Result aggregate(const Config& cfg, const std::vector<RankOut>& outs,
                 const mpi::Runtime& rt) {
  const int nranks = static_cast<int>(outs.size());
  Result res;
  bool all_valid = true;
  for (const RankOut& o : outs) {
    res.calc.add(per_step(cfg, o.phases.calc));
    res.pack.add(per_step(cfg, o.phases.pack));
    res.call.add(per_step(cfg, o.phases.call));
    res.wait.add(per_step(cfg, o.phases.wait));
    res.plan_setup.add(o.setup);
    res.replan_per_step +=
        per_step(cfg, o.replan) / static_cast<double>(nranks);
    all_valid = all_valid && o.validated;
  }
  const RankOut& o0 = outs[0];
  res.setup_seconds = res.plan_setup.avg();
  res.plan_builds_per_rank = o0.builds;
  res.total_seconds = o0.span;
  res.calc_per_step = res.calc.avg();
  res.comm_per_step = res.pack.avg() + res.call.avg() + res.wait.avg();
  // A run without measured steps (set-up timing) has no throughput.
  if (cfg.timesteps > 0)
    res.gstencils = static_cast<double>(cfg.subdomain.prod()) * nranks *
                    static_cast<double>(cfg.timesteps) / res.total_seconds /
                    1e9;
  res.msgs_per_rank = o0.traffic.msgs;
  res.wire_bytes_per_rank = o0.traffic.wire;
  res.payload_bytes_per_rank = o0.traffic.payload;
  res.padding_percent = o0.traffic.padding;
  const mpi::CommCounters& c0 = rt.final_counters(0);
  res.msgs_recv_per_rank = c0.msgs_recv;
  res.bytes_recv_per_rank = c0.bytes_recv;
  res.msgs_intra_per_rank = c0.msgs_intra;
  res.msgs_inter_per_rank = c0.msgs_inter;
  res.bytes_intra_per_rank = c0.bytes_intra;
  res.bytes_inter_per_rank = c0.bytes_inter;
  res.transport_stats = rt.transport_stats();
  for (int rk = 0; rk < nranks; ++rk)
    res.max_inflight_reqs =
        std::max(res.max_inflight_reqs, rt.final_counters(rk).max_inflight_reqs);
  res.validated = cfg.validate && all_valid;
  return res;
}

/// Fabric- and transport-level observability, only for routed fabrics and
/// non-flat transports, so the default configuration's outputs (results,
/// metrics, traces) stay byte-identical to builds without those tiers.
void observe_network(const Config& cfg, const mpi::Runtime& rt,
                     obs::Collector& col, Result& res) {
  if (cfg.fabric != netsim::FabricKind::Flat) {
    const netsim::FabricStats fs = rt.fabric().stats();
    if (fs.fabric_messages > 0)
      res.avg_hops = static_cast<double>(fs.hop_sum) /
                     static_cast<double>(fs.fabric_messages);
    if (fs.messages > 0)
      res.queue_s_per_msg =
          fs.queue_seconds / static_cast<double>(fs.messages);
    res.max_link_sharing = fs.max_link_sharing;
    res.busiest_link_util = fs.busiest_link_util;
    res.fabric_msgs = fs.fabric_messages;
    obs::RankLog& lg = col.log(0);
    lg.counter_add("net.fabric_msgs", fs.fabric_messages);
    lg.counter_add("net.hop_sum", fs.hop_sum);
    lg.counter_add("net.links", fs.links);
    lg.gauge_max("net.max_link_sharing", fs.max_link_sharing);
    lg.gauge_max("net.busiest_link_util", fs.busiest_link_util);
    lg.hist_add("net.queue_s_per_msg", res.queue_s_per_msg);
  }
  if (cfg.transport != transport::Kind::Flat) {
    const transport::Stats& ts = res.transport_stats;
    obs::RankLog& lg = col.log(0);
    lg.counter_add("transport.onnode_msgs", ts.onnode_msgs);
    lg.counter_add("transport.onnode_bytes", ts.onnode_bytes);
    lg.counter_add("transport.onnode_copies", ts.onnode_copies);
    lg.counter_add("transport.agg_frames", ts.agg_frames);
    lg.counter_add("transport.agg_submsgs", ts.agg_submsgs);
    lg.counter_add("transport.agg_frame_bytes", ts.agg_frame_bytes);
  }
}

/// "Method/gpu" label a bench session files the experiment's trace under.
std::string session_label(const Config& cfg) {
  std::string label = method_name(cfg.method);
  switch (cfg.gpu) {
    case GpuMode::None:
      break;
    case GpuMode::CudaAware:
      label += "/cuda-aware";
      break;
    case GpuMode::Unified:
      label += "/um";
      break;
    case GpuMode::Staged:
      label += "/staged";
      break;
  }
  return label;
}

}  // namespace

std::vector<netsim::CommEdge> exchange_comm_graph(const Config& cfg) {
  const int nranks = static_cast<int>(cfg.rank_dims.prod());
  std::vector<netsim::CommEdge> edges;
  edges.reserve(static_cast<std::size_t>(nranks) * 26);
  for (int r = 0; r < nranks; ++r) {
    const Vec3 c = delinearize(r, cfg.rank_dims);
    for (int dz = -1; dz <= 1; ++dz)
      for (int dy = -1; dy <= 1; ++dy)
        for (int dx = -1; dx <= 1; ++dx) {
          if (dx == 0 && dy == 0 && dz == 0) continue;
          const Vec3 d{dx, dy, dz};
          Vec3 nc = c + d;
          for (int i = 0; i < 3; ++i)
            nc[i] = ((nc[i] % cfg.rank_dims[i]) + cfg.rank_dims[i]) %
                    cfg.rank_dims[i];
          const int n = static_cast<int>(linearize(nc, cfg.rank_dims));
          if (n == r) continue;  // periodic self-neighbor on a size-1 axis
          double w = 8.0;  // doubles on the wire
          for (int i = 0; i < 3; ++i)
            w *= static_cast<double>(d[i] == 0 ? cfg.subdomain[i] : cfg.ghost);
          edges.push_back(netsim::CommEdge{r, n, w});
        }
  }
  return edges;
}

const char* method_name(Method m) {
  switch (m) {
    case Method::Yask:
      return "YASK";
    case Method::MpiTypes:
      return "MPI_Types";
    case Method::Basic:
      return "Basic";
    case Method::Layout:
      return "Layout";
    case Method::MemMap:
      return "MemMap";
    case Method::Shift:
      return "Shift";
    case Method::Network:
      return "Network";
  }
  return "?";
}

Result run(const Config& cfg) {
  check_config(cfg);
  const int nranks = static_cast<int>(cfg.rank_dims.prod());
  // Seeded message-fault schedule (off by default: no injector installed,
  // so the runtime skips the integrity layer entirely and behavior is
  // byte-identical to fault-free builds).
  std::optional<mpi::FaultInjector> faults;
  if (cfg.faults.any()) faults.emplace(cfg.faults);
  const std::unique_ptr<mpi::Runtime> rt =
      make_runtime(cfg, faults ? &*faults : nullptr);
  // Span/metric sink for this experiment; every rank thread binds to its
  // RankLog inside rt->run. A no-op null sink when BRICKX_OBS is off.
  obs::Collector col(nranks);
  rt->set_collector(&col);
  std::optional<gpu::Device> device;
  if (cfg.gpu != GpuMode::None) {
    device.emplace(cfg.machine.gpu);
    rt->set_mem_hooks(device->hooks());
  }

  std::vector<RankOut> outs(static_cast<std::size_t>(nranks));
  rt->run([&](Comm& comm) {
    RankRun rank(cfg, comm, device ? &*device : nullptr);
    rank.loop();
    outs[static_cast<std::size_t>(comm.rank())] = rank.finish(col);
  });

  Result res = aggregate(cfg, outs, *rt);
  if (faults) res.fault_counts = faults->counts();
  observe_network(cfg, *rt, col, res);
  // Hand the experiment's trace to the active bench session (if any).
  rt->set_collector(nullptr);
  if (obs::Session* ses = obs::Session::active())
    ses->absorb(session_label(cfg), std::move(col));
  return res;
}

}  // namespace brickx::harness
