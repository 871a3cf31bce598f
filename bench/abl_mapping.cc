// Ablation: process-to-node mapping under a routed fabric. With several
// ranks per node, which ranks share a node decides how much of the ghost
// exchange crosses the fabric at all — the greedy volume-minimizing map
// keeps cartesian neighbors together, round-robin tears them apart, and
// block (the flat model's implicit choice) sits in between. The table
// reports the cut volume each mapping leaves on the wire and the exchange
// time the contention fabric charges for it.

#include "bench_common.h"
#include "harness/exchange.h"
#include "netsim/fabric.h"
#include "netsim/mapping.h"

using namespace brickx;
using namespace brickx::bench;
using harness::Method;

int main(int argc, char** argv) {
  ArgParser ap("abl_mapping", "mapping ablation on a routed fabric");
  ap.add("-s", "per-rank subdomain dimension", "32");
  ap.add("--rpn", "ranks packed per node", "8");
  add_fabric_flags(ap);
  add_obs_flags(ap);
  ap.parse(argc, argv);
  ObsGuard obs_guard(ap);

  banner("Ablation: rank-to-node mapping",
         "Exchange time and inter-node volume for block / round-robin / "
         "greedy / rcb / embed mappings on a routed fabric (2x4x4 ranks, "
         "several per node). The volume-aware maps keep cartesian "
         "neighbors on-node: least cut bytes, fewest fabric messages, "
         "cheapest exchange; round-robin is the adversarial placement. "
         "rcb and embed are guarded to never cut more than block.");

  const std::int64_t dim = ap.get_int("-s");
  const int rpn = static_cast<int>(ap.get_int("--rpn"));

  auto base = [&](Method m) {
    harness::Config cfg = k1_config(dim, m);
    cfg.machine.net.ranks_per_node = rpn;
    // Axis 0 fastest in rank order: block fills whole z-planes (coherent),
    // round-robin deals neighboring ranks to different nodes (scattered).
    cfg.rank_dims = {2, 4, 4};
    apply_fabric(ap, cfg);
    if (cfg.fabric == netsim::FabricKind::Flat)
      cfg.fabric = netsim::FabricKind::FatTree;  // the ablation needs routes
    return cfg;
  };

  Table t({"method", "mapping", "cut_MB", "comm_ms", "avg_hops",
           "queue_us/msg", "max_sharing"});
  for (Method meth : {Method::MpiTypes, Method::Layout, Method::MemMap}) {
    for (netsim::MapKind mk : {netsim::MapKind::Block,
                               netsim::MapKind::RoundRobin,
                               netsim::MapKind::Greedy,
                               netsim::MapKind::Rcb,
                               netsim::MapKind::Embed}) {
      harness::Config cfg = base(meth);
      cfg.mapping = mk;
      // Build the runtime exactly as harness::run will, and read the node
      // assignment back from its fabric, so the cut column describes the
      // very placement the comm_ms column was charged for (embed weighs
      // nodes by the built topology's hop distances — a hintless make_map
      // here could disagree).
      const auto rt = harness::make_runtime(cfg);
      const auto graph = harness::exchange_comm_graph(cfg);
      const auto& nodes =
          static_cast<const netsim::ContentionFabric&>(rt->fabric())
              .rank_node();
      const harness::Result r = run(cfg);
      t.row()
          .cell(harness::method_name(meth))
          .cell(netsim::map_name(mk))
          .cell(netsim::cut_bytes(nodes, graph) / 1e6, 3)
          .cell(r.comm_per_step * 1e3, 4)
          .cell(r.avg_hops, 2)
          .cell(r.queue_s_per_msg * 1e6, 3)
          .cell(r.max_link_sharing, 2);
    }
  }
  t.print(std::cout);
  std::printf(
      "\nShape checks: the volume-aware mappings (greedy, rcb, embed) cut "
      "no more than block in every method block (round-robin the largest), "
      "and exchange time tracks cut volume — the mapping lever moves "
      "communication cost without touching a byte of the application.\n");
  return 0;
}
