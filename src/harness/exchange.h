#pragma once

// The exchange seam (DESIGN.md §3): one interface over the seven methods'
// exchangers, built with their storage by make_exchange, on a runtime built
// by make_runtime. harness::run and the DiffOracle (src/check) both build
// through here, so the oracle tests the path the benches and tuner run.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/vec.h"
#include "core/cell_array.h"
#include "core/decomp.h"
#include "core/exchange_plan.h"
#include "core/layout.h"
#include "harness/experiment.h"
#include "simmpi/cart.h"
#include "simmpi/comm.h"

namespace brickx::gpu {
class Device;
}

namespace brickx::harness {

/// One rank's block; every rank of a job uses the same geometry.
struct Geometry {
  Vec3 subdomain{32, 32, 32};       ///< cells per rank
  std::int64_t ghost = 8;           ///< ghost width in cells
  Vec3 brick{8, 8, 8};              ///< per-axis brick extents (brick methods)
  LayoutSpec layout = surface3d();  ///< brick surface-region storage order
  int fields = 1;                   ///< coupled fields, one message for all
  std::size_t page_size = 0;        ///< MemMap chunk alignment (0 = host)
  /// MemMap only: the byte-identical per-neighbor scratch stand-in for the
  /// mmap views (Config::memmap_floor_proxy).
  bool floor_proxy = false;
};

/// What one rank sends per exchange round.
struct Traffic {
  std::int64_t msgs = 0;
  std::int64_t wire = 0;     ///< bytes on the wire, page padding included
  std::int64_t payload = 0;  ///< ghost-frame bytes within them
  double padding = 0;        ///< Table 2's (wire - payload) / payload, in %
};

/// One method's ghost exchange over the double-buffered field storage it
/// owns. `buf` (0 or 1) selects the buffer: the timestep loop computes from
/// buffer `in` into `1 - in` and exchanges the buffer it reads next. Cell
/// coordinates are subdomain-local: [0, subdomain) is the interior,
/// [-ghost, subdomain + ghost) the ghost frame around it.
class Exchange {
 public:
  Exchange() = default;
  Exchange(const Exchange&) = delete;
  Exchange& operator=(const Exchange&) = delete;
  virtual ~Exchange();

  // ---- field data -------------------------------------------------------
  /// Copy `cells` (over its own box) into field `f` of buffer `buf`. Every
  /// method requires the box to lie inside the ghost frame and throws
  /// brickx::Error, before touching any cell, when it does not.
  virtual void write(int buf, int f, const CellArray3& cells) = 0;
  /// Fill `cells` (over its own box) from field `f` of buffer `buf`; the
  /// same box contract as write.
  virtual void read(int buf, int f, CellArray3& cells) const = 0;
  /// Apply the 7- or 125-point stencil to every field over `box`, from
  /// buffer `in` into buffer `1 - in` (naive: the per-access reference
  /// kernels, bit-identical to the fast ones).
  virtual void stencil(int in, const Box<3>& box, bool use125,
                       bool naive) = 0;

  // ---- one bulk round on buffer `buf` -----------------------------------
  /// True when the method stages ghosts through explicit copies (YASK),
  /// which pack/unpack make and return the bytes of.
  [[nodiscard]] virtual bool packs() const { return false; }
  virtual std::size_t pack(int /*buf*/) { return 0; }
  virtual std::size_t unpack(int /*buf*/) { return 0; }
  /// Post the round's receives and sends.
  virtual void start(mpi::Comm& comm, int buf) = 0;
  /// Complete them (Shift runs all its phases here).
  virtual void finish(mpi::Comm& comm, int buf) = 0;

  // ---- plan lifetime (DESIGN.md §9) -------------------------------------
  /// Bind the frozen plan(s) to persistent requests, or with `partitioned`
  /// to partitioned ones (Basic, Layout and MemMap views only). Call once,
  /// before any round is in flight.
  virtual void bind(mpi::Comm& comm, bool partitioned) = 0;
  /// Rebuild the plan the round on buffer `buf` uses (plan-per-round).
  virtual void rebuild(int buf) = 0;
  /// Modeled cost of building one plan.
  [[nodiscard]] virtual PlanCost plan_cost() const = 0;
  /// Plans built up front: 2 when each buffer has its own.
  [[nodiscard]] virtual int plan_copies() const { return 1; }
  [[nodiscard]] virtual Traffic traffic() const = 0;

  // ---- partitioned rounds (after bind(comm, true)) ----------------------
  /// The partitioned requests and the partition tables the overlap schedule
  /// walks (Basic, Layout and MemMap views; the others throw).
  [[nodiscard]] virtual PartitionedSet& parts();
  /// The brick decomposition the tables' region ordinals index (nullptr
  /// for the array methods).
  [[nodiscard]] virtual const BrickDecomp<3>* decomp() const {
    return nullptr;
  }

  // ---- simulated GPU (DESIGN.md §2) -------------------------------------
  /// Register the storage with `dev` as `space` memory (MemMap views as
  /// aliases of it under unified memory, device ranges otherwise); the
  /// registrations are released with the exchange.
  void attach(gpu::Device& dev, mpi::MemSpace space);
  /// Visit the byte ranges a stencil sweep touches: buffer 0's, then as
  /// many of buffer 1's.
  virtual void visit_payload(
      const std::function<void(const void*, std::size_t)>& fn) const = 0;

 protected:
  virtual void register_memory() = 0;
  void register_range(const void* base, std::size_t bytes,
                      mpi::MemSpace space);
  void register_alias(const void* base, std::size_t bytes,
                      const void* canonical);

  gpu::Device* dev_ = nullptr;  ///< set by attach()
  mpi::MemSpace space_ = mpi::MemSpace::Host;

 private:
  std::vector<const void*> regs_;
};

/// Build method `m`'s storage and exchanger for this rank of `cart`.
std::unique_ptr<Exchange> make_exchange(Method m, const Geometry& geo,
                                        const mpi::Cart<3>& cart);

/// The owned cells a rank seeds before its first exchange: all of
/// [0, subdomain) when kernels run, else only the shell within `ghost` of
/// its faces (the whole block once an axis is no wider than 2 * ghost).
/// Every method sends only shell cells, so without kernels the interior is
/// never read, and neither it nor the untouched buffer is ever faulted in.
std::vector<Box<3>> seed_boxes(const Vec3& subdomain, std::int64_t ghost,
                               bool kernels);

/// The simulated job `cfg` describes: a runtime over cfg.machine.net with
/// cfg.transport, and for routed fabrics the contention fabric whose
/// rank-to-node map `cfg.mapping` places over exchange_comm_graph(cfg).
/// `faults` (may be null) must outlive the runtime's runs.
std::unique_ptr<mpi::Runtime> make_runtime(
    const Config& cfg, mpi::FaultInjector* faults = nullptr);

}  // namespace brickx::harness
