#include "harness/exchange.h"

#include <algorithm>
#include <array>
#include <optional>

#include "baseline/array_exchange.h"
#include "common/error.h"
#include "core/brick.h"
#include "core/exchange.h"
#include "core/exchange_view.h"
#include "core/field_set.h"
#include "core/region.h"
#include "core/shift.h"
#include "gpusim/device.h"
#include "netsim/fabric.h"
#include "stencil/stencils.h"

namespace brickx::harness {

// ---- the interface's shared parts -------------------------------------------

Exchange::~Exchange() {
  for (auto it = regs_.rbegin(); it != regs_.rend(); ++it)
    dev_->unregister_range(*it);
}

PartitionedSet& Exchange::parts() {
  brickx::fail("this method has no partitioned plan");
}

void Exchange::attach(gpu::Device& dev, mpi::MemSpace space) {
  BX_CHECK(dev_ == nullptr, "exchange already attached to a device");
  dev_ = &dev;
  space_ = space;
  register_memory();
}

void Exchange::register_range(const void* base, std::size_t bytes,
                              mpi::MemSpace space) {
  if (bytes == 0) return;
  dev_->register_range(base, bytes, space);
  regs_.push_back(base);
}

void Exchange::register_alias(const void* base, std::size_t bytes,
                              const void* canonical) {
  if (bytes == 0) return;
  dev_->register_alias(base, bytes, canonical);
  regs_.push_back(base);
}

namespace {

using mpi::Comm;

/// Traffic of an exchanger that puts exactly its payload on the wire.
template <typename X>
Traffic unpadded(const X& x) {
  const std::int64_t bytes = x.send_byte_count();
  return {x.send_message_count(), bytes, bytes, 0.0};
}

// ---- brick methods ----------------------------------------------------------

/// Storage and kernels every brick method shares: one decomposition, two
/// brick storages (the double buffer) and the populate() neighbor table.
class BrickExchange : public Exchange {
 public:
  void write(int buf, int f, const CellArray3& cells) override {
    cells_to_bricks(dec_, cells, store(buf), f);
  }
  void read(int buf, int f, CellArray3& cells) const override {
    bricks_to_cells(dec_, stores_[static_cast<std::size_t>(buf)], f, cells);
  }

  void stencil(int in, const Box<3>& box, bool use125, bool naive) override {
    const Vec3& b = dec_.brick_dims();
    BX_CHECK(b == Vec3::fill(b[0]) && (b[0] == 4 || b[0] == 8),
             "harness kernels support brick extents 4 and 8");
    if (b[0] == 8) {
      apply<8>(in, box, use125, naive);
    } else {
      apply<4>(in, box, use125, naive);
    }
  }

  const BrickDecomp<3>* decomp() const override { return &dec_; }

  void visit_payload(const std::function<void(const void*, std::size_t)>& fn)
      const override {
    // A kernel touches chunk payloads only: page-padding tails are never
    // read by compute, so they stay wherever the exchange left them.
    for (const BrickStorage& s : stores_)
      for (const auto& c : s.chunks()) fn(s.data() + c.offset, c.bytes);
  }

 protected:
  BrickExchange(const Geometry& geo, const mpi::Cart<3>& cart, bool mmap)
      : dec_(geo.subdomain, geo.ghost, geo.brick, geo.layout),
        info_(dec_.brick_info()),
        ranks_(populate(cart, dec_)) {
    for (int b = 0; b < 2; ++b)
      stores_.push_back(mmap ? dec_.mmap_alloc(geo.fields, geo.page_size)
                             : dec_.allocate(geo.fields));
  }

  BrickStorage& store(int buf) {
    return stores_[static_cast<std::size_t>(buf)];
  }

  void register_memory() override {
    for (const BrickStorage& s : stores_)
      register_range(s.data(), s.bytes(), space_);
  }

  BrickDecomp<3> dec_;
  BrickInfo<3> info_;
  std::vector<int> ranks_;
  std::vector<BrickStorage> stores_;  ///< never resized: exchangers point in

 private:
  template <int B>
  void apply(int in, const Box<3>& box, bool use125, bool naive) {
    BrickStorage& src = store(in);
    BrickStorage& dst = store(1 - in);
    // AoSoA: field f lives at element offset f * B^3 within every brick
    // chunk; each field runs the same kernel over the same adjacency.
    for (int f = 0; f < src.fields(); ++f) {
      const std::int64_t off = f * dec_.elements_per_brick();
      Brick<B, B, B> bin(&info_, &src, off);
      Brick<B, B, B> bout(&info_, &dst, off);
      if (use125) {
        if (naive) {
          stencil::apply125_bricks_naive<B, B, B>(dec_, bout, bin, box);
        } else {
          stencil::apply125_bricks<B, B, B>(dec_, bout, bin, box);
        }
      } else if (naive) {
        stencil::apply7_bricks_naive<B, B, B>(dec_, bout, bin, box);
      } else {
        stencil::apply7_bricks<B, B, B>(dec_, bout, bin, box);
      }
    }
  }
};

/// Basic and Layout: one pack-free byte-range exchanger per buffer.
class PlanExchange final : public BrickExchange {
 public:
  PlanExchange(const Geometry& geo, const mpi::Cart<3>& cart,
               Exchanger<3>::Mode mode)
      : BrickExchange(geo, cart, /*mmap=*/false), mode_(mode) {
    for (BrickStorage& s : stores_) exs_.emplace_back(dec_, s, ranks_, mode);
  }

  void start(Comm& comm, int buf) override { ex(buf).start(comm); }
  void finish(Comm& comm, int buf) override { ex(buf).finish(comm); }

  void bind(Comm& comm, bool partitioned) override {
    if (partitioned) {
      // The exchange period is even, so exchanger 0 carries every round on
      // both the consumer (s == 0) and the producer (s == k-1) side;
      // exchanger 1 is never used under overlap.
      exs_[0].make_partitioned(comm);
    } else {
      for (Exchanger<3>& x : exs_) x.make_persistent(comm);
    }
  }
  void rebuild(int buf) override {
    ex(buf) = Exchanger<3>(dec_, store(buf), ranks_, mode_);
  }
  PlanCost plan_cost() const override { return exs_[0].setup_cost(); }
  int plan_copies() const override { return 2; }
  Traffic traffic() const override { return unpadded(exs_[0]); }

  PartitionedSet& parts() override { return exs_[0].parts(); }

 private:
  Exchanger<3>& ex(int buf) { return exs_[static_cast<std::size_t>(buf)]; }

  Exchanger<3>::Mode mode_;
  std::vector<Exchanger<3>> exs_;
};

/// MemMap (paper Section 4): mmap views over buffer 0. Ghost-cell
/// expansion gives an even steps-per-exchange, so only buffer 0 is ever on
/// the exchanging side; building views for it alone halves the live mmap
/// segment footprint.
class ViewExchange final : public BrickExchange {
 public:
  ViewExchange(const Geometry& geo, const mpi::Cart<3>& cart)
      : BrickExchange(geo, cart, /*mmap=*/true) {
    rebuild(0);
  }

  void start(Comm& comm, int buf) override {
    BX_CHECK(buf == 0, "exchange landed on the view-less buffer");
    ev_->start(comm);
  }
  void finish(Comm& comm, int) override { ev_->finish(comm); }

  void bind(Comm& comm, bool partitioned) override {
    if (partitioned) {
      ev_->make_partitioned(comm);
    } else {
      ev_->make_persistent(comm);
    }
  }
  void rebuild(int) override {
    // emplace tears the old views down before stitching fresh ones
    // (plan-per-round is CPU-only, so no GPU aliases need re-registering).
    ev_.emplace(dec_, stores_[0], ranks_);
  }
  PlanCost plan_cost() const override { return ev_->setup_cost(); }
  Traffic traffic() const override {
    return {ev_->send_message_count(), ev_->send_byte_count(),
            ev_->payload_byte_count(), ev_->padding_overhead_percent()};
  }

  PartitionedSet& parts() override { return ev_->parts(); }

 protected:
  void register_memory() override {
    BrickExchange::register_memory();
    ev_->visit_views([&](const mm::View& v) {
      if (space_ == mpi::MemSpace::Unified) {
        // The views alias the canonical unified pages.
        for (const auto& seg : v.segment_map())
          register_alias(v.data() + seg.view_offset, seg.length,
                         stores_[0].data() + seg.file_offset);
      } else {
        // cuMemMap future-work mode: the views are device memory too, so
        // the NIC reads them via GPUDirect with no faults.
        register_range(v.data(), v.size(), mpi::MemSpace::Device);
      }
    });
  }

 private:
  std::optional<ExchangeView<3>> ev_;
};

/// Network (the timing floor) and MemMap's floor proxy: one contiguous
/// scratch message per neighbor. The proxy uses MemMap's page-padded chunk
/// volumes without live mmap segments, so it is byte- and timing-exact but
/// delivers no ghosts.
class FloorExchange final : public BrickExchange {
 public:
  FloorExchange(const Geometry& geo, const mpi::Cart<3>& cart, bool proxy)
      : BrickExchange(geo, cart, /*mmap=*/proxy), proxy_(proxy) {
    rebuild(0);
  }

  void start(Comm& comm, int) override {
    touch_chunks(comm, 0,
                 static_cast<std::size_t>(dec_.surface_region_count()));
    floor_->start(comm);
  }
  void finish(Comm& comm, int) override {
    floor_->finish(comm);
    touch_chunks(comm, static_cast<std::size_t>(dec_.ghost_first_ordinal()),
                 dec_.regions().size());
  }

  void bind(Comm& comm, bool partitioned) override {
    BX_CHECK(!partitioned, "the network floor has no partitioned plan");
    floor_->make_persistent(comm);
  }
  void rebuild(int) override {
    floor_.emplace(dec_, stores_[0], ranks_, proxy_);
  }
  PlanCost plan_cost() const override { return floor_->setup_cost(); }
  Traffic traffic() const override {
    Traffic t = unpadded(*floor_);
    if (!proxy_) return t;
    // The views the proxy stands in for carry each surface chunk's payload
    // inside its page-padded span; the chunk table gives both volumes.
    t.payload = 0;
    for (const BitSet& nu : dec_.neighbor_order())
      for (int o = 0; o < dec_.surface_region_count(); ++o)
        if (region_sent_to(dec_.regions()[static_cast<std::size_t>(o)].sigma,
                           nu))
          t.payload += static_cast<std::int64_t>(
              stores_[0].chunks()[static_cast<std::size_t>(o)].bytes);
    if (t.payload != 0)
      t.padding = 100.0 * static_cast<double>(t.wire - t.payload) /
                  static_cast<double>(t.payload);
    return t;
  }

 private:
  /// Under unified memory the real views would fault the canonical chunk
  /// pages host-ward on send/receive; the scratch floor bypasses the hooks,
  /// so the proxy charges chunks [lo, hi) explicitly (page-aligned spans,
  /// so no fragmentation, exactly like the views).
  void touch_chunks(Comm& comm, std::size_t lo, std::size_t hi) {
    if (!proxy_ || dev_ == nullptr || space_ != mpi::MemSpace::Unified)
      return;
    double secs = 0;
    for (std::size_t o = lo; o < hi; ++o) {
      const auto& c = stores_[0].chunks()[o];
      secs += dev_->touch_host(stores_[0].data() + c.offset, c.padded_bytes);
    }
    comm.compute(secs);
  }

  bool proxy_;
  std::optional<NetworkFloorExchanger<3>> floor_;
};

/// Shift (paper Section 8): D synchronized face-neighbor phases, one
/// exchanger per buffer. The phases wait internally, so the whole exchange
/// runs in finish (start is a no-op).
class ShiftExchange final : public BrickExchange {
 public:
  ShiftExchange(const Geometry& geo, const mpi::Cart<3>& cart)
      : BrickExchange(geo, cart, /*mmap=*/false),
        axis_ranks_(shift_neighbors(cart)) {
    for (BrickStorage& s : stores_) shs_.emplace_back(dec_, s, axis_ranks_);
  }

  void start(Comm&, int) override {}
  void finish(Comm& comm, int buf) override {
    shs_[static_cast<std::size_t>(buf)].exchange(comm);
  }

  void bind(Comm& comm, bool partitioned) override {
    BX_CHECK(!partitioned, "Shift has no partitioned plan");
    for (ShiftExchanger<3>& sh : shs_) sh.make_persistent(comm);
  }
  void rebuild(int buf) override {
    shs_[static_cast<std::size_t>(buf)] =
        ShiftExchanger<3>(dec_, store(buf), axis_ranks_);
  }
  PlanCost plan_cost() const override { return shs_[0].setup_cost(); }
  int plan_copies() const override { return 2; }
  Traffic traffic() const override { return unpadded(shs_[0]); }

 private:
  std::vector<std::array<int, 2>> axis_ranks_;
  std::vector<ShiftExchanger<3>> shs_;
};

// ---- array methods ----------------------------------------------------------

/// Storage and kernels the array baselines share: two frame-shaped
/// ArrayFields (field-major slabs, one message per neighbor for all
/// fields) and the 26-direction neighbor table.
class ArrayExchange : public Exchange {
 public:
  void write(int buf, int f, const CellArray3& cells) override {
    // Whole rows at a time: every rank's set-up seeds its block through
    // here, and per-cell addressing would dominate that copy.
    ArrayFields& a = slab(buf);
    const Box<3>& b = cells.box();
    const std::int64_t n = b.extent()[0];
    const double* src = cells.raw().data();
    for (std::int64_t z = b.lo[2]; z < b.hi[2]; ++z)
      for (std::int64_t y = b.lo[1]; y < b.hi[1]; ++y, src += n)
        std::copy_n(src, n, &a.at(f, Vec3{b.lo[0], y, z}));
  }
  void read(int buf, int f, CellArray3& cells) const override {
    const ArrayFields& a = fields_[static_cast<std::size_t>(buf)];
    for_each(cells.box(), [&](const Vec3& p) { cells.at(p) = a.at(f, p); });
  }

  void stencil(int in, const Box<3>& box, bool use125, bool naive) override {
    // Each slab is laid out exactly like a frame-shaped CellArray3, so the
    // span kernels run each field in place.
    auto* k = use125 ? (naive ? &stencil::apply125_span_naive
                              : &stencil::apply125_span)
                     : (naive ? &stencil::apply7_span_naive
                              : &stencil::apply7_span);
    ArrayFields& src = slab(in);
    ArrayFields& dst = slab(1 - in);
    for (int f = 0; f < src.fields(); ++f)
      k(src.box(), src.field_base(f), dst.field_base(f), box);
  }

  void visit_payload(const std::function<void(const void*, std::size_t)>& fn)
      const override {
    for (const ArrayFields& a : fields_)
      fn(a.raw().data(), a.raw().size() * sizeof(double));
  }

 protected:
  ArrayExchange(const Geometry& geo, const mpi::Cart<3>& cart)
      : N_(geo.subdomain),
        g_(geo.ghost),
        dirs_(mpi::Cart<3>::all_directions()) {
    const Box<3> frame{Vec3{0, 0, 0} - Vec3::fill(g_), N_ + Vec3::fill(g_)};
    for (int b = 0; b < 2; ++b) fields_.emplace_back(frame, geo.fields);
    for (const BitSet& d : dirs_) ranks_.push_back(cart.neighbor(d));
  }

  ArrayFields& slab(int buf) { return fields_[static_cast<std::size_t>(buf)]; }

  void register_memory() override {
    for (const ArrayFields& a : fields_)
      register_range(a.raw().data(), a.raw().size() * sizeof(double), space_);
  }

  Vec3 N_;
  std::int64_t g_;
  std::vector<BitSet> dirs_;
  std::vector<int> ranks_;
  std::vector<ArrayFields> fields_;
};

/// YASK: explicit pack into per-neighbor staging buffers, send, unpack.
class PackExchange final : public ArrayExchange {
 public:
  PackExchange(const Geometry& geo, const mpi::Cart<3>& cart)
      : ArrayExchange(geo, cart) {
    rebuild(0);
  }

  bool packs() const override { return true; }
  std::size_t pack(int buf) override { return packer_->pack(slab(buf)); }
  std::size_t unpack(int buf) override { return packer_->unpack(slab(buf)); }
  void start(Comm& comm, int) override { packer_->start(comm); }
  void finish(Comm& comm, int) override { packer_->finish(comm); }

  void bind(Comm& comm, bool partitioned) override {
    BX_CHECK(!partitioned, "the packing baseline has no partitioned plan");
    packer_->make_persistent(comm);
  }
  void rebuild(int) override {
    packer_.emplace(N_, g_, dirs_, ranks_, fields_[0].fields());
  }
  PlanCost plan_cost() const override { return packer_->setup_cost(); }
  Traffic traffic() const override { return unpadded(*packer_); }

 private:
  std::optional<baseline::PackExchanger> packer_;
};

/// MPI_Types: per-neighbor subarray datatypes, packing inside the library.
/// Persistent MPI freezes the buffer address; binding to buffer 0 is safe
/// because steps_per_exchange is always even, so every exchange round lands
/// on buffer 0 (the exchanger checks it on start).
class TypesExchange final : public ArrayExchange {
 public:
  TypesExchange(const Geometry& geo, const mpi::Cart<3>& cart)
      : ArrayExchange(geo, cart) {
    rebuild(0);
  }

  void start(Comm& comm, int buf) override { typer_->start(comm, slab(buf)); }
  void finish(Comm& comm, int) override { typer_->finish(comm); }

  void bind(Comm& comm, bool partitioned) override {
    BX_CHECK(!partitioned, "the datatype baseline has no partitioned plan");
    typer_->make_persistent(comm, fields_[0]);
  }
  void rebuild(int) override {
    typer_.emplace(N_, g_, dirs_, ranks_, fields_[0]);
  }
  PlanCost plan_cost() const override { return typer_->setup_cost(); }
  Traffic traffic() const override { return unpadded(*typer_); }

 private:
  std::optional<baseline::MpiTypesExchanger> typer_;
};

}  // namespace

std::unique_ptr<Exchange> make_exchange(Method m, const Geometry& geo,
                                        const mpi::Cart<3>& cart) {
  switch (m) {
    case Method::Yask:
      return std::make_unique<PackExchange>(geo, cart);
    case Method::MpiTypes:
      return std::make_unique<TypesExchange>(geo, cart);
    case Method::Basic:
      return std::make_unique<PlanExchange>(geo, cart,
                                            Exchanger<3>::Mode::Basic);
    case Method::Layout:
      return std::make_unique<PlanExchange>(geo, cart,
                                            Exchanger<3>::Mode::Layout);
    case Method::MemMap:
      if (geo.floor_proxy)
        return std::make_unique<FloorExchange>(geo, cart, /*proxy=*/true);
      return std::make_unique<ViewExchange>(geo, cart);
    case Method::Shift:
      return std::make_unique<ShiftExchange>(geo, cart);
    case Method::Network:
      return std::make_unique<FloorExchange>(geo, cart, /*proxy=*/false);
  }
  brickx::fail("unknown exchange method");
}

std::unique_ptr<mpi::Runtime> make_runtime(const Config& cfg,
                                           mpi::FaultInjector* faults) {
  const int nranks = static_cast<int>(cfg.rank_dims.prod());
  auto rt = std::make_unique<mpi::Runtime>(nranks, cfg.machine.net);
  rt->set_transport(cfg.transport);
  if (cfg.fabric != netsim::FabricKind::Flat) {
    // Split the flat inter-node alpha across the two hops every fabric
    // route has at minimum, so an uncongested single-switch path costs
    // exactly what the flat model charges.
    const mpi::LinkParams inter = cfg.machine.net.inter_node;
    rt->set_fabric(netsim::make_fabric(
        cfg.fabric, cfg.mapping, nranks, cfg.machine.net.ranks_per_node,
        inter.bw, inter.alpha / 2.0, inter.alpha, exchange_comm_graph(cfg),
        {static_cast<int>(cfg.rank_dims[0]), static_cast<int>(cfg.rank_dims[1]),
         static_cast<int>(cfg.rank_dims[2])}));
  }
  rt->set_fault_injector(faults);
  return rt;
}

}  // namespace brickx::harness
