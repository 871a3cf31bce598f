// Traced replay of harness::run (README.md, "Traced run"). For one Config it
// re-drives the same steps harness::run takes — runtime, fabric, cartesian
// grid, decomposition, allocation, seeding, exchanger construction and
// binding, exchange rounds and the stencil engine — through each layer's
// public functions, with a span around every call into a layer. The spans
// time the layers from outside; nothing in src/ is instrumented. main.cc
// checks that every replay reproduces harness::run's message counters and
// virtual time exactly, so the replay cannot drift from the real run.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <ctime>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "baseline/array_exchange.h"
#include "bench.h"
#include "common/error.h"
#include "core/brick.h"
#include "core/cell_array.h"
#include "core/exchange.h"
#include "core/exchange_view.h"
#include "core/field_set.h"
#include "model/machine.h"
#include "netsim/fabric.h"
#include "simmpi/cart.h"
#include "stencil/kernel_engine.h"
#include "stencil/stencils.h"

namespace bench {

double now_s() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::Replay: return "replay";
    case Layer::RuntimeCtor: return "simmpi.runtime";
    case Layer::RuntimeRun: return "simmpi.run";
    case Layer::RankBody: return "simmpi.rank";
    case Layer::Alloc: return "core.alloc";
    case Layer::Seed: return "core.seed";
    case Layer::Plan: return "core.plan";
    case Layer::View: return "memmap.view";
    case Layer::Exchange: return "core.exchange";
    case Layer::Pack: return "baseline.pack";
    case Layer::Types: return "baseline.types";
    case Layer::Kernel: return "stencil.kernel";
    case Layer::Epoch: return "netsim.epoch";
  }
  return "?";
}

namespace {

using namespace brickx;
using harness::Config;
using harness::Method;

std::atomic<std::int64_t> g_next_span{1};

/// Appends spans to one thread's vector, nesting by an explicit stack.
class Recorder {
 public:
  Recorder(std::vector<Span>& out, int rank, std::int64_t root)
      : out_(out), rank_(rank), root_(root) {}

  std::size_t open(Layer l) {
    const std::int64_t id = g_next_span.fetch_add(1, std::memory_order_relaxed);
    // `cpu` holds the opening CPU reading until close() turns it into a delta.
    out_.push_back(Span{id, stack_.empty() ? root_ : stack_.back(), l, rank_,
                        now_s(), 0.0, thread_cpu_s()});
    stack_.push_back(id);
    return out_.size() - 1;
  }
  void close(std::size_t idx) {
    Span& s = out_[idx];
    s.cpu = thread_cpu_s() - s.cpu;
    s.t1 = now_s();
    stack_.pop_back();
  }

 private:
  std::vector<Span>& out_;
  int rank_;
  std::int64_t root_;
  std::vector<std::int64_t> stack_;  ///< ids of the open spans
};

class Scope {
 public:
  Scope(Recorder& r, Layer l) : r_(r), idx_(r.open(l)) {}
  ~Scope() { r_.close(idx_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Recorder& r_;
  std::size_t idx_;
};

/// Forwarding fabric that times every call doing model work. send and
/// send_part run on the sending rank's thread (Fabric's threading
/// contract), so each rank owns one tally; epoch runs at quiescent points
/// and records a span, since collectives are not layer spans themselves.
class TimedFabric final : public netsim::Fabric {
 public:
  TimedFabric(std::unique_ptr<netsim::Fabric> inner, int nranks,
              std::vector<Span>& epochs, std::int64_t root)
      : inner_(std::move(inner)),
        sends_(static_cast<std::size_t>(nranks)),
        epochs_(epochs),
        root_(root) {}

  [[nodiscard]] netsim::FabricKind kind() const override {
    return inner_->kind();
  }
  [[nodiscard]] bool local(int src, int dst) const override {
    return inner_->local(src, dst);
  }
  [[nodiscard]] int node_of(int rank) const override {
    return inner_->node_of(rank);
  }
  netsim::SendTiming send(int src, int dst, std::size_t bytes, double alpha,
                          double bw, double t_ready) override {
    const double t0 = now_s();
    const netsim::SendTiming t =
        inner_->send(src, dst, bytes, alpha, bw, t_ready);
    sends_[static_cast<std::size_t>(src)].add(now_s() - t0);
    return t;
  }
  netsim::SendTiming send_part(int src, int dst, std::size_t bytes,
                               double alpha, double bw, double t_ready,
                               bool first) override {
    const double t0 = now_s();
    const netsim::SendTiming t =
        inner_->send_part(src, dst, bytes, alpha, bw, t_ready, first);
    sends_[static_cast<std::size_t>(src)].add(now_s() - t0);
    return t;
  }
  void epoch() override {
    const double t0 = now_s();
    inner_->epoch();
    const double t1 = now_s();
    const std::int64_t id = g_next_span.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(epochs_mu_);
    // Every other rank is parked in the collective: wall is CPU here.
    epochs_.push_back(Span{id, root_, Layer::Epoch, -1, t0, t1, t1 - t0});
  }
  void reset() override { inner_->reset(); }
  [[nodiscard]] netsim::FabricStats stats() const override {
    return inner_->stats();
  }
  [[nodiscard]] std::string describe() const override {
    return inner_->describe();
  }

  void collect(ReplayOut& out) const {
    for (const Tally& t : sends_) {
      out.send_s += t.seconds();
      out.send_calls += t.calls.load(std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Tally {
    std::atomic<std::int64_t> ns{0}, calls{0};
    void add(double s) {
      ns.fetch_add(static_cast<std::int64_t>(s * 1e9),
                   std::memory_order_relaxed);
      calls.fetch_add(1, std::memory_order_relaxed);
    }
    [[nodiscard]] double seconds() const {
      return static_cast<double>(ns.load(std::memory_order_relaxed)) * 1e-9;
    }
  };
  std::unique_ptr<netsim::Fabric> inner_;
  std::vector<Tally> sends_;
  std::mutex epochs_mu_;
  std::vector<Span>& epochs_;
  std::int64_t root_;
};

/// The harness's initial condition (experiment.cc init_val): a hash of the
/// global cell coordinate, salted per field.
double init_val(const Vec3& g, int f) {
  const std::uint64_t h = static_cast<std::uint64_t>(g[0]) * 73856093u ^
                          static_cast<std::uint64_t>(g[1]) * 19349663u ^
                          static_cast<std::uint64_t>(g[2]) * 83492791u ^
                          static_cast<std::uint64_t>(f) * 2654435761u;
  return static_cast<double>(h % 4096) / 4096.0;
}

bool boxes_overlap(const Box<3>& a, const Box<3>& b) {
  for (int i = 0; i < 3; ++i)
    if (a.lo[i] >= b.hi[i] || b.lo[i] >= a.hi[i]) return false;
  return true;
}

/// One rank's replay: the state harness::run keeps per rank for the CPU,
/// build-once subset, and the same step sequence.
class RankReplay {
 public:
  RankReplay(const Config& cfg, mpi::Comm& comm, Recorder& rec)
      : cfg_(cfg),
        comm_(comm),
        rec_(rec),
        cart_(comm, cfg.rank_dims),
        N_(cfg.subdomain),
        g_(cfg.ghost),
        r_(cfg.use125 ? 2 : 1),
        k_(stencil::steps_per_exchange(g_, r_)),
        brick_(cfg.method == Method::Basic || cfg.method == Method::Layout ||
               cfg.method == Method::MemMap) {}

  std::int64_t cells = 0;  ///< stencil outputs computed, all fields

  /// The whole rank body; returns the measured virtual span (allreduced).
  double run() {
    if (brick_) {
      setup_bricks();
    } else {
      setup_arrays();
    }
    {
      Scope s(rec_, Layer::Plan);
      bind();
      double secs = 0;
      for (int i = 0; i < plan_copies_; ++i)
        secs += plan_cost().seconds(comm_.net());
      comm_.compute(secs);
    }
    total_steps_ =
        cfg_.warmup_exchanges * static_cast<int>(k_) + cfg_.timesteps;
    for (int w = 0; w < cfg_.warmup_exchanges; ++w)
      for (int s = 0; s < static_cast<int>(k_); ++s)
        one_step(w * static_cast<int>(k_) + s);
    comm_.barrier();
    const double t_begin = comm_.clock().now();
    for (int step = 0; step < cfg_.timesteps; ++step) one_step(step);
    return comm_.allreduce_max(comm_.clock().now() - t_begin);
  }

 private:
  void setup_bricks() {
    {
      Scope s(rec_, Layer::Alloc);
      dec_.emplace(N_, g_, Vec3::fill(cfg_.brick),
                   cfg_.layout.order.empty() ? surface3d() : cfg_.layout);
      info_.emplace(dec_->brick_info());
      for (int f = 0; f < 2; ++f)
        stores_.push_back(cfg_.method == Method::MemMap
                              ? dec_->mmap_alloc(cfg_.fields, cfg_.page_size)
                              : dec_->allocate(cfg_.fields));
    }
    {
      Scope s(rec_, Layer::Plan);
      const std::vector<int> ranks = populate(cart_, *dec_);
      if (cfg_.method == Method::MemMap) {
        Scope v(rec_, Layer::View);
        ev_.emplace(*dec_, stores_[0], ranks);
      } else {
        const auto mode = cfg_.method == Method::Layout
                              ? Exchanger<3>::Mode::Layout
                              : Exchanger<3>::Mode::Basic;
        for (BrickStorage& st : stores_)
          exs_.emplace_back(*dec_, st, ranks, mode);
        plan_copies_ = 2;
      }
    }
    // The init_val loop is this file's copy of harness code, so it stays
    // outside the layer span and counts as harness self time.
    const Vec3 offset = cart_.coords() * N_;
    CellArray3 seed(Box<3>{{0, 0, 0}, N_});
    for (int f = 0; f < cfg_.fields; ++f) {
      for_each(seed.box(),
               [&](const Vec3& p) { seed.at(p) = init_val(p + offset, f); });
      Scope s(rec_, Layer::Seed);
      cells_to_bricks(*dec_, seed, stores_[0], f);
    }
  }

  void setup_arrays() {
    const Box<3> frame{Vec3{0, 0, 0} - Vec3::fill(g_), N_ + Vec3::fill(g_)};
    const bool multi = cfg_.fields > 1;
    {
      Scope s(rec_, Layer::Alloc);
      for (int i = 0; i < 2; ++i) {
        if (multi) {
          afields_.emplace_back(frame, cfg_.fields);
        } else {
          fields_.emplace_back(frame);
        }
      }
    }
    {
      Scope s(rec_, Layer::Plan);
      const auto dirs = mpi::Cart<3>::all_directions();
      std::vector<int> ranks;
      for (const auto& d : dirs) ranks.push_back(cart_.neighbor(d));
      if (cfg_.method == Method::Yask) {
        packer_.emplace(N_, g_, dirs, ranks, cfg_.fields);
      } else if (multi) {
        typer_.emplace(N_, g_, dirs, ranks, afields_[0]);
      } else {
        typer_.emplace(N_, g_, dirs, ranks, fields_[0]);
      }
    }
    // Array methods seed their frames in harness code alone: no layer call.
    const Vec3 offset = cart_.coords() * N_;
    if (multi) {
      for (int f = 0; f < cfg_.fields; ++f)
        for_each(afields_[0].box(), [&](const Vec3& p) {
          afields_[0].at(f, p) = init_val(p + offset, f);
        });
    } else {
      for_each(fields_[0].box(), [&](const Vec3& p) {
        fields_[0].at(p) = init_val(p + offset, 0);
      });
    }
  }

  void bind() {
    switch (cfg_.method) {
      case Method::MemMap:
        if (cfg_.overlap) {
          ev_->make_partitioned(comm_);
        } else {
          ev_->make_persistent(comm_);
        }
        break;
      case Method::Layout:
      case Method::Basic:
        if (cfg_.overlap) {
          exs_[0].make_partitioned(comm_);
        } else {
          for (Exchanger<3>& ex : exs_) ex.make_persistent(comm_);
        }
        break;
      case Method::Yask:
        packer_->make_persistent(comm_);
        break;
      default:
        if (cfg_.fields > 1) {
          typer_->make_persistent(comm_, afields_[0]);
        } else {
          typer_->make_persistent(comm_, fields_[0]);
        }
    }
  }

  PlanCost plan_cost() const {
    if (ev_) return ev_->setup_cost();
    if (!exs_.empty()) return exs_[0].setup_cost();
    if (packer_) return packer_->setup_cost();
    return typer_->setup_cost();
  }

  // ---- one bulk exchange round: pack, start, finish, unpack -------------
  void exchange_round() {
    const std::size_t in = static_cast<std::size_t>(input_);
    const bool multi = cfg_.fields > 1;
    if (packer_) {
      {
        Scope s(rec_, Layer::Pack);
        const std::size_t b =
            multi ? packer_->pack(afields_[in]) : packer_->pack(fields_[in]);
        comm_.compute(model::pack_seconds(
            cfg_.machine, static_cast<std::int64_t>(b), 26));
      }
      {
        Scope s(rec_, Layer::Exchange);
        packer_->start(comm_);
      }
      {
        Scope s(rec_, Layer::Exchange);
        packer_->finish(comm_);
      }
      Scope s(rec_, Layer::Pack);
      const std::size_t b =
          multi ? packer_->unpack(afields_[in]) : packer_->unpack(fields_[in]);
      comm_.compute(model::pack_seconds(cfg_.machine,
                                        static_cast<std::int64_t>(b), 26));
      return;
    }
    if (typer_) {
      {
        Scope s(rec_, Layer::Types);
        if (multi) {
          typer_->start(comm_, afields_[in]);
        } else {
          typer_->start(comm_, fields_[in]);
        }
      }
      Scope s(rec_, Layer::Types);
      typer_->finish(comm_);
      return;
    }
    if (ev_) {
      BX_CHECK(input_ == 0, "exchange landed on the view-less buffer");
      {
        Scope s(rec_, Layer::Exchange);
        ev_->start(comm_);
      }
      Scope s(rec_, Layer::Exchange);
      ev_->finish(comm_);
      return;
    }
    {
      Scope s(rec_, Layer::Exchange);
      exs_[in].start(comm_);
    }
    Scope s(rec_, Layer::Exchange);
    exs_[in].finish(comm_);
  }

  // ---- partitioned-round operations (overlap; exchanger 0 / the view) ---
  void pstart() {
    Scope s(rec_, Layer::Exchange);
    if (ev_) {
      ev_->part_start();
    } else {
      exs_[0].part_start();
    }
  }
  void pfinish() {
    Scope s(rec_, Layer::Exchange);
    if (ev_) {
      ev_->part_finish();
    } else {
      exs_[0].part_finish();
    }
  }
  void pready(int j) {
    if (ev_) {
      ev_->part_pready(j);
    } else {
      exs_[0].part_pready(j);
    }
  }
  void parrived(int j) {
    if (ev_) {
      ev_->part_arrived(j);
    } else {
      exs_[0].part_arrived(j);
    }
  }
  const std::vector<PartSpec>& send_parts() const {
    return ev_ ? ev_->send_parts() : exs_[0].send_parts();
  }
  const std::vector<PartSpec>& recv_parts() const {
    return ev_ ? ev_->recv_parts() : exs_[0].recv_parts();
  }

  // ---- compute ------------------------------------------------------------
  template <int B>
  void brick_kernels(const Box<3>& box) {
    BrickStorage& in = stores_[static_cast<std::size_t>(input_)];
    BrickStorage& out = stores_[static_cast<std::size_t>(1 - input_)];
    for (int f = 0; f < in.fields(); ++f) {
      const std::int64_t off = f * dec_->elements_per_brick();
      Brick<B, B, B> bin(&*info_, &in, off);
      Brick<B, B, B> bout(&*info_, &out, off);
      if (cfg_.use125) {
        stencil::engine_apply125<B, B, B>(*dec_, bout, bin, box);
      } else {
        stencil::engine_apply7<B, B, B>(*dec_, bout, bin, box);
      }
    }
  }

  void kernels(const Box<3>& box) {
    if (!cfg_.execute_kernels) return;
    cells += box.volume() * cfg_.fields;
    const std::size_t in = static_cast<std::size_t>(input_);
    const std::size_t out = static_cast<std::size_t>(1 - input_);
    if (brick_) {
      if (cfg_.brick == 8) {
        brick_kernels<8>(box);
      } else {
        BX_CHECK(cfg_.brick == 4, "replay kernels support bricks 4 and 8");
        brick_kernels<4>(box);
      }
    } else if (cfg_.fields > 1) {
      ArrayFields& src = afields_[in];
      ArrayFields& dst = afields_[out];
      for (int f = 0; f < cfg_.fields; ++f) {
        if (cfg_.use125) {
          stencil::engine_apply125_span(src.box(), src.field_base(f),
                                        dst.field_base(f), box);
        } else {
          stencil::engine_apply7_span(src.box(), src.field_base(f),
                                      dst.field_base(f), box);
        }
      }
    } else if (cfg_.use125) {
      stencil::engine_apply125_array(fields_[in], fields_[out], box);
    } else {
      stencil::engine_apply7_array(fields_[in], fields_[out], box);
    }
  }

  /// The harness's compute closure (`piece` selects its overlap variant,
  /// which charges the per-sweep overhead on the first piece only).
  void compute(const Box<3>& box, bool piece = false, bool first = true) {
    Scope s(rec_, Layer::Kernel);
    kernels(box);
    const double flops =
        cfg_.use125 ? stencil::Stencil125::kFlops : stencil::Stencil7::kFlops;
    double secs = model::cpu_stencil_seconds(
        cfg_.machine, box.volume() * cfg_.fields, flops, 16.0,
        !piece && cfg_.method == Method::Yask);
    if (piece && !first) secs -= cfg_.machine.sweep_overhead;
    comm_.compute(secs);
  }

  Box<3> region_cell_box(int o) const {
    const auto& rg = dec_->regions()[static_cast<std::size_t>(o)];
    return Box<3>{rg.box.lo * dec_->brick_dims(),
                  rg.box.hi * dec_->brick_dims()};
  }

  // ---- the timestep, including the overlap dependency scheduler ---------
  void one_step(int step) {
    const std::int64_t s = step % k_;
    const bool last_warmup =
        ++steps_done_ == cfg_.warmup_exchanges * static_cast<int>(k_);
    const bool no_prestart = steps_done_ == total_steps_ || last_warmup;
    if (s == 0 && cfg_.overlap) {
      consumer_step();
    } else if (s == k_ - 1 && cfg_.overlap && !no_prestart) {
      producer_step();
    } else {
      if (s == 0) exchange_round();
      compute(stencil::expansion_output_box<3>(N_, g_, r_, s));
    }
    input_ = 1 - input_;
  }

  void consumer_step() {
    if (!round_open_) {
      pstart();
      Scope sc(rec_, Layer::Exchange);
      const int nsend = static_cast<int>(send_parts().size());
      for (int j = 0; j < nsend; ++j) pready(j);
      round_open_ = true;
    }
    const Box<3> whole = stencil::expansion_output_box<3>(N_, g_, r_, 0);
    const Box<3> interior{Vec3::fill(r_), N_ - Vec3::fill(r_)};
    compute(interior, true, true);
    const std::vector<PartSpec>& rp = recv_parts();
    std::vector<char> consumed(rp.size(), 0);
    for (const Box<3>& b : stencil::shell_boxes<3>(whole, interior)) {
      const Box<3> need{b.lo - Vec3::fill(r_), b.hi + Vec3::fill(r_)};
      {
        Scope sc(rec_, Layer::Exchange);
        for (std::size_t j = 0; j < rp.size(); ++j) {
          if (consumed[j]) continue;
          if (!boxes_overlap(region_cell_box(rp[j].region), need)) continue;
          parrived(static_cast<int>(j));
          consumed[j] = 1;
        }
      }
      compute(b, true, false);
    }
    pfinish();
    round_open_ = false;
  }

  void producer_step() {
    pstart();
    round_open_ = true;
    const std::vector<PartSpec>& sp = send_parts();
    bool first = true;
    for (int o = 0; o < dec_->surface_region_count(); ++o) {
      compute(region_cell_box(o), true, first);
      first = false;
      Scope sc(rec_, Layer::Exchange);
      for (std::size_t j = 0; j < sp.size(); ++j)
        if (sp[j].region == o) pready(static_cast<int>(j));
    }
    compute(region_cell_box(dec_->interior_ordinal()), true, false);
  }

  const Config& cfg_;
  mpi::Comm& comm_;
  Recorder& rec_;
  mpi::Cart<3> cart_;
  const Vec3 N_;
  const std::int64_t g_, r_, k_;
  const bool brick_;

  int input_ = 0;  ///< double-buffer selector
  int plan_copies_ = 1;
  int total_steps_ = 0;
  int steps_done_ = 0;
  bool round_open_ = false;

  std::optional<BrickDecomp<3>> dec_;
  std::optional<BrickInfo<3>> info_;
  std::vector<BrickStorage> stores_;
  std::vector<Exchanger<3>> exs_;
  std::optional<ExchangeView<3>> ev_;
  std::vector<CellArray3> fields_;
  std::vector<ArrayFields> afields_;
  std::optional<baseline::PackExchanger> packer_;
  std::optional<baseline::MpiTypesExchanger> typer_;
};

}  // namespace

ReplayOut replay(const Config& cfg) {
  BX_CHECK(cfg.gpu == harness::GpuMode::None && !cfg.faults.any() &&
               cfg.plan == harness::PlanMode::BuildOnce &&
               !cfg.memmap_floor_proxy && !cfg.naive_kernels &&
               !cfg.validate && !cfg.lexicographic_layout &&
               cfg.transport == transport::Kind::Flat,
           "replay supports CPU build-once runs without faults, proxies, "
           "naive kernels, validation or a non-flat transport");
  BX_CHECK(cfg.method == Method::Basic || cfg.method == Method::Layout ||
               cfg.method == Method::MemMap || cfg.method == Method::Yask ||
               cfg.method == Method::MpiTypes,
           "replay supports Basic, Layout, MemMap, YASK and MPI_Types");
  BX_CHECK(!cfg.overlap || cfg.method == Method::Basic ||
               cfg.method == Method::Layout || cfg.method == Method::MemMap,
           "overlap is a brick-method schedule");

  const int nranks = static_cast<int>(cfg.rank_dims.prod());
  const int rpn = cfg.machine.net.ranks_per_node;
  ReplayOut out;
  out.spans.ranks.resize(static_cast<std::size_t>(nranks));
  Recorder client(out.spans.client, -1, 0);
  const std::size_t root = client.open(Layer::Replay);
  const std::int64_t root_id = out.spans.client[root].id;

  std::optional<mpi::Runtime> rt;
  TimedFabric* fabric = nullptr;
  {
    Scope s(client, Layer::RuntimeCtor);
    rt.emplace(nranks, cfg.machine.net);
    rt->set_transport(cfg.transport);
    std::unique_ptr<netsim::Fabric> inner;
    if (cfg.fabric == netsim::FabricKind::Flat) {
      inner = netsim::make_flat_fabric(nranks, rpn);
    } else {
      const mpi::LinkParams inter = cfg.machine.net.inter_node;
      inner = netsim::make_fabric(
          cfg.fabric, cfg.mapping, nranks, rpn, inter.bw, inter.alpha / 2.0,
          inter.alpha, harness::exchange_comm_graph(cfg),
          {static_cast<int>(cfg.rank_dims[0]),
           static_cast<int>(cfg.rank_dims[1]),
           static_cast<int>(cfg.rank_dims[2])});
    }
    auto timed = std::make_unique<TimedFabric>(std::move(inner), nranks,
                                               out.spans.epochs, root_id);
    fabric = timed.get();
    rt->set_fabric(std::move(timed));
  }

  std::vector<std::int64_t> cells(static_cast<std::size_t>(nranks), 0);
  double span = 0;
  {
    Scope s(client, Layer::RuntimeRun);
    rt->run([&](mpi::Comm& comm) {
      Recorder rec(out.spans.ranks[static_cast<std::size_t>(comm.rank())],
                   comm.rank(), root_id);
      Scope body(rec, Layer::RankBody);
      RankReplay rank(cfg, comm, rec);
      const double sp = rank.run();
      cells[static_cast<std::size_t>(comm.rank())] = rank.cells;
      if (comm.rank() == 0) span = sp;
    });
  }
  client.close(root);

  // Exchange rounds per run: every warmup round plus one per k measured
  // steps (the s == 0 steps), bulk or partitioned alike.
  const std::int64_t k =
      stencil::steps_per_exchange(cfg.ghost, cfg.use125 ? 2 : 1);
  const std::int64_t rounds =
      cfg.warmup_exchanges + (cfg.timesteps + k - 1) / k;
  const mpi::CommCounters& c0 = rt->final_counters(0);
  out.msgs_per_rank = c0.msgs_sent / rounds;
  out.wire_bytes_per_rank = c0.bytes_sent / rounds;
  out.fabric_msgs = cfg.fabric == netsim::FabricKind::Flat
                        ? 0
                        : rt->fabric().stats().fabric_messages;
  out.total_seconds = span;
  for (int r = 0; r < nranks; ++r) {
    out.msgs_total += rt->final_counters(r).msgs_sent;
    out.bytes_total += rt->final_counters(r).bytes_sent;
    out.cells += cells[static_cast<std::size_t>(r)];
  }
  fabric->collect(out);
  return out;
}

}  // namespace bench
