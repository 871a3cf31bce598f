// brickx_bench: the host-time benchmark program (README.md).
//
// One process runs one workload as a closed loop: a single client thread
// calls the layer's public entry point — harness::run, or tune::tune for
// tune_search — back to back for --seconds. With --trace 0 it reports the
// end-to-end metrics; with --trace 1 it alternates untraced runs with the
// traced replay (replay.cc) and reports per-layer metrics. Every metric is
// printed as a `name value unit` line; the last stdout line is one JSON
// object {correct, attempted, failed, metrics} holding the metrics
// BENCHMARK.json names. Correctness gates feed `failed`; any failure makes
// the exit status 1.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "common/argparse.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/simd.h"
#include "harness/experiment.h"
#include "obs/obs.h"
#include "simmpi/cart.h"
#include "stencil/stencils.h"
#include "tune/artifact.h"
#include "tune/tuner.h"

namespace {

using namespace brickx;
using bench::now_s;
using harness::Config;
using harness::Method;
using harness::Result;

// ---------------------------------------------------------------------------
// Workloads

struct Entry {
  std::string label;
  Config cfg;
};

struct Workload {
  std::string name, why;
  std::vector<Entry> roster;  ///< harness workloads (tune: its candidates)
  bool tuner = false;
  Config problem;             ///< tune_search: the problem tune() searches
  bool validate_pass = false;
};

/// The paper's K1 setup (bench_common.h k1_config): 2x2x2 ranks on theta,
/// brick = ghost = `b` (8 in the paper), one exchange batch of steps after
/// one warmup batch.
Config k1_config(std::int64_t n, Method m, bool use125, bool execute,
                 std::int64_t b = 8) {
  Config c;
  c.machine = model::theta();
  c.rank_dims = {2, 2, 2};
  c.subdomain = Vec3::fill(n);
  c.brick = b;
  c.ghost = b;
  c.use125 = use125;
  c.method = m;
  c.timesteps = static_cast<int>(use125 ? b / 2 : b);
  c.warmup_exchanges = 1;
  c.execute_kernels = execute;
  return c;
}

/// 64 ranks on theta's native dragonfly: many small messages, little volume.
Config k2_config(bool smoke, Method m, bool overlap) {
  Config c;
  c.machine = model::theta();
  c.rank_dims = {4, 4, 4};
  c.subdomain = Vec3::fill(smoke ? 12 : 16);
  c.brick = 4;
  c.ghost = 4;
  c.method = m;
  c.timesteps = smoke ? 8 : 16;
  c.warmup_exchanges = 1;
  c.execute_kernels = false;
  c.fabric = c.machine.fabric;
  c.mapping = netsim::MapKind::Block;
  c.overlap = overlap;
  return c;
}

/// 48^3 over 2x2x2 ranks on four 2-rank theta dragonfly nodes with the
/// Layout method: 30 candidates per search. A MemMap problem maps and faults
/// in fresh memfd pages for every candidate; its search time was two-thirds
/// kernel page-fault time and drifted by 20% over an hour on a shared VM.
/// Three bricks per dimension keep the hand-picked Layout at the 42
/// messages the count gate expects; larger subdomains varied more.
Config tune_problem(bool smoke) {
  Config c;
  c.machine = model::theta();
  c.machine.net.ranks_per_node = 2;
  c.rank_dims = {2, 2, 2};
  c.subdomain = Vec3::fill(smoke ? 16 : 24);
  c.brick = smoke ? 4 : 8;
  c.ghost = smoke ? 4 : 8;
  c.method = Method::Layout;
  c.timesteps = smoke ? 4 : 8;
  c.warmup_exchanges = 1;
  c.execute_kernels = false;
  c.fabric = c.machine.fabric;
  return c;
}

Workload make_workload(const std::string& name, bool smoke) {
  Workload w;
  w.name = name;
  if (name == "k1_volume") {
    w.why =
        "paper regime, allocation, seeding and packing bound: four "
        "mechanisms move the same ghost bytes with no kernel or fabric solve";
    for (Method m : {Method::Layout, Method::MemMap, Method::Yask,
                     Method::MpiTypes})
      w.roster.push_back({harness::method_name(m),
                          k1_config(smoke ? 24 : 96, m, false, false)});
  } else if (name == "k1_kernels") {
    w.why =
        "kernel bound: 125-pt is compute bound, 7-pt bandwidth bound, "
        "fields=4 takes the AoSoA path; small volume";
    const std::int64_t n = smoke ? 12 : 24, b = smoke ? 4 : 8;
    for (bool u125 : {false, true})
      for (Method m : {Method::Layout, Method::MemMap, Method::Yask})
        w.roster.push_back(
            {std::string(harness::method_name(m)) + (u125 ? ".125pt" : ".7pt"),
             k1_config(n, m, u125, true, b)});
    Config f4 = k1_config(n, Method::Layout, false, true, b);
    f4.fields = 4;
    w.roster.push_back({"Layout.7pt.f4", f4});
    w.validate_pass = true;
  } else if (name == "k2_fabric") {
    w.why =
        "message bound: 64 ranks on the dragonfly fabric load the fair-share "
        "solve and simmpi matching; overlap uses partitioned sends";
    for (Method m : {Method::Basic, Method::Layout, Method::MemMap})
      w.roster.push_back({harness::method_name(m), k2_config(smoke, m, false)});
    w.roster.push_back({"Layout-OL", k2_config(smoke, Method::Layout, true)});
  } else if (name == "tune_search") {
    w.why =
        "set-up bound: a cold, serial autotuner search runs many short "
        "harness runs (spawn, decomposition, plan build)";
    w.tuner = true;
    w.problem = tune_problem(smoke);
  } else {
    brickx::fail("unknown --workload '" + name +
                 "' (k1_volume | k1_kernels | k2_fabric | tune_search)");
  }
  return w;
}

/// The tuner's candidates in its own enumeration order (tuner.cc).
std::vector<Entry> candidates(const Config& problem,
                              const tune::SearchSpace& space) {
  std::vector<Entry> out;
  for (const auto& l : space.layouts)
    for (const auto m : space.mappings)
      for (const auto b : space.bricks)
        for (const auto p : space.pages) {
          Config c = problem;
          c.layout = l.spec;
          c.mapping = m;
          c.brick = b;
          c.page_size = p;
          out.push_back({"c" + std::to_string(out.size()), c});
        }
  return out;
}

/// Cell updates one run performs: global cells x fields x all steps.
double cell_steps(const Config& c) {
  const std::int64_t k =
      stencil::steps_per_exchange(c.ghost, c.use125 ? 2 : 1);
  return static_cast<double>(c.subdomain.prod() * c.rank_dims.prod()) *
         c.fields * static_cast<double>(c.warmup_exchanges * k + c.timesteps);
}

// ---------------------------------------------------------------------------
// Statistics

/// Linear-interpolation quantile (q in [0, 1]) of a non-empty sample.
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Mean over configs of each config's q-quantile: every roster config
/// weighs the same, whatever its run time (a pooled percentile of a mixed
/// roster would land on the boundary between two configs).
double roster_quantile(const std::vector<std::vector<double>>& per_config,
                       double q) {
  double s = 0;
  int n = 0;
  for (const auto& v : per_config) {
    if (v.empty()) continue;
    s += quantile(v, q);
    ++n;
  }
  return n ? s / n : 0.0;
}

std::vector<int> shuffled(int n, Rng& rng) {
  std::vector<int> idx(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) idx[static_cast<std::size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i)
    std::swap(idx[static_cast<std::size_t>(i)],
              idx[rng.below(static_cast<std::uint64_t>(i + 1))]);
  return idx;
}

/// Run whole passes until the next one would end past `seconds` (at least
/// `min_passes`). Returns the number of passes run.
template <typename F>
int closed_loop(double seconds, int min_passes, F&& pass) {
  const double t0 = now_s();
  int passes = 0;
  while (true) {
    pass();
    ++passes;
    const double el = now_s() - t0;
    if (passes >= min_passes && el + el / passes > seconds) return passes;
  }
}

// ---------------------------------------------------------------------------
// Gates and operations

/// Every sample's Result must be bit-identical to the first one of its
/// config: the fields below cover counts, virtual times and fabric stats.
std::vector<std::uint64_t> fingerprint(const Result& r) {
  auto d = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  auto i = [](std::int64_t x) { return static_cast<std::uint64_t>(x); };
  return {d(r.total_seconds),     d(r.calc_per_step),
          d(r.comm_per_step),     d(r.gstencils),
          d(r.calc.max()),        d(r.pack.max()),
          d(r.call.max()),        d(r.wait.max()),
          d(r.setup_seconds),     i(r.msgs_per_rank),
          i(r.wire_bytes_per_rank), i(r.payload_bytes_per_rank),
          i(r.msgs_recv_per_rank), i(r.bytes_recv_per_rank),
          i(r.fabric_msgs),       i(r.max_inflight_reqs),
          i(r.plan_builds_per_rank), d(r.avg_hops),
          d(r.queue_s_per_msg),   d(r.max_link_sharing),
          d(r.busiest_link_util)};
}

/// Per-rank messages per exchange the paper's Eq. 1 and Section 4 fix:
/// 98 Basic, 42 Layout (surface3d), 26 for one message per neighbor.
std::int64_t expected_msgs(const Config& c) {
  if (c.method == Method::Basic) return 98;
  if (c.method == Method::Layout) return c.layout.order.empty() ? 42 : -1;
  return 26;
}

struct Gate {
  std::int64_t checked = 0, failed = 0;
  std::string detail;  ///< first failure
};

/// Counts operations (harness runs, tune calls, replays) and gate checks.
class Ledger {
 public:
  std::int64_t attempted = 0, failed = 0;
  std::map<std::string, Gate> gates;

  bool check(const std::string& gate, bool ok, const std::string& detail) {
    Gate& g = gates[gate];
    ++g.checked;
    if (!ok) {
      ++g.failed;
      if (g.detail.empty()) g.detail = detail;
      std::fprintf(stderr, "gate %s failed: %s\n", gate.c_str(),
                   detail.c_str());
    }
    return ok;
  }
  /// Count one attempted operation; `ok` false marks it failed.
  void op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  [[nodiscard]] bool correct() const {
    if (failed != 0) return false;
    for (const auto& [name, g] : gates)
      if (g.failed != 0) return false;
    return true;
  }

  /// harness::run with the throw gate; `wall` gets its host seconds.
  std::optional<Result> run(const Entry& e, const Config& cfg, double* wall) {
    const double t0 = now_s();
    try {
      Result r = harness::run(cfg);
      if (wall) *wall = now_s() - t0;
      return r;
    } catch (const std::exception& ex) {
      check("no_throw", false, e.label + ": " + ex.what());
      return std::nullopt;
    }
  }
};

/// The reference first pass: fingerprint + message-count gate.
struct Reference {
  std::vector<std::optional<std::vector<std::uint64_t>>> fp;
  std::vector<std::optional<Result>> res;
  explicit Reference(std::size_t n) : fp(n), res(n) {}

  /// Gate one sample of config `i` against the first; adopts the first.
  bool accept(Ledger& L, const Entry& e, std::size_t i, const Result& r) {
    if (!fp[i]) {
      fp[i] = fingerprint(r);
      res[i] = r;
      const std::int64_t want = expected_msgs(e.cfg);
      return want < 0 ||
             L.check("msg_counts", r.msgs_per_rank == want,
                     e.label + ": " + std::to_string(r.msgs_per_rank) +
                         " msgs/rank, expected " + std::to_string(want));
    }
    return L.check("result_repeat", *fp[i] == fingerprint(r),
                   e.label + ": Result differs from the config's first run");
  }
};

// ---------------------------------------------------------------------------
// Metrics

struct Metric {
  std::string name, unit, better;
  double value = 0;
  std::optional<double> q1, q3;
  bool contract = false;  ///< in the BENCHMARK.json list for this mode
};

struct Report {
  std::vector<Metric> metrics;
  std::int64_t samples = 0;
  int passes = 0;
  std::vector<std::string> configs;

  Metric& add(const std::string& name, const std::string& unit,
              const std::string& better, double value, bool contract) {
    metrics.push_back(Metric{name, unit, better, value, {}, {}, contract});
    return metrics.back();
  }
};

void quartiles_of(Metric& m, const std::vector<double>& v) {
  if (v.empty()) return;
  m.q1 = quantile(v, 0.25);
  m.q3 = quantile(v, 0.75);
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The process runs on one CPU, where more tuner workers would only take
/// turns; the search is serial.
constexpr int kTunerThreads = 1;

struct Options {
  std::uint64_t seed = 1;
  double seconds = 20;
  bool smoke = false;

  /// Fewest closed-loop passes; the smoke run takes one.
  [[nodiscard]] int min_passes() const { return smoke ? 1 : 3; }
};

// ---------------------------------------------------------------------------
// End-to-end measurement (--trace 0)

/// The run-time metrics shared by both workload kinds. `work[c]` is the
/// cell updates one operation of config c performs.
///
/// Host time on a shared VM carries bursts of interference from other
/// tenants that only ever add time, so the bounded metrics use each
/// config's 10th percentile; the median and the 80th percentile, which move
/// more between processes, are reported beside them.
void add_run_metrics(Report& rep,
                     const std::vector<std::vector<double>>& per_config,
                     const std::vector<double>& work,
                     const std::vector<double>& setup) {
  rep.add("run_s_p10", "s", "lower", roster_quantile(per_config, 0.1), true);
  double cells = 0, secs = 0;
  for (std::size_t c = 0; c < per_config.size(); ++c) {
    if (per_config[c].empty()) continue;
    cells += work[c];
    secs += quantile(per_config[c], 0.1);
  }
  rep.add("cell_steps_per_s", "1/s", "higher", secs > 0 ? cells / secs : 0.0,
          true);
  quartiles_of(rep.add("setup_s", "s", "lower", quantile(setup, 0.5), true),
               setup);
  rep.add("peak_rss_mb", "MB", "lower", peak_rss_mb(), true);
  Metric& p50 = rep.add("run_s_p50", "s", "lower",
                        roster_quantile(per_config, 0.5), false);
  p50.q1 = roster_quantile(per_config, 0.25);
  p50.q3 = roster_quantile(per_config, 0.75);
  rep.add("run_s_p80", "s", "lower", roster_quantile(per_config, 0.8), false);
}

void measure_harness(const Workload& w, const Options& o, Ledger& L,
                     Report& rep) {
  const int n = static_cast<int>(w.roster.size());
  Rng rng(o.seed);

  // Untimed first pass: fills caches and fixes each config's reference.
  Reference ref(static_cast<std::size_t>(n));
  for (int i : shuffled(n, rng)) {
    const Entry& e = w.roster[static_cast<std::size_t>(i)];
    const auto r = L.run(e, e.cfg, nullptr);
    L.op(r && ref.accept(L, e, static_cast<std::size_t>(i), *r));
  }
  if (w.validate_pass) {
    for (const Entry& e : w.roster) {
      Config c = e.cfg;
      c.validate = true;
      const auto r = L.run(e, c, nullptr);
      L.op(r && L.check("validate", r->validated,
                        e.label + ": fields differ from the reference"));
    }
  }

  // Each pass runs the roster twice in fresh shuffled orders: once with zero
  // steps — set-up only: runtime, decomposition, allocation, seeding,
  // exchanger and plan build — and once in full. Interleaving the two keeps
  // a burst of host interference from landing on only one of them, and
  // work moved out of the timestep loop into set-up shows in setup_s.
  std::vector<double> setup;
  std::vector<std::vector<double>> walls(static_cast<std::size_t>(n));
  rep.passes = closed_loop(o.seconds, o.min_passes(), [&] {
    const double s0 = now_s();
    for (int i : shuffled(n, rng)) {
      const Entry& e = w.roster[static_cast<std::size_t>(i)];
      Config c = e.cfg;
      c.timesteps = 0;
      c.warmup_exchanges = 0;
      L.op(L.run(e, c, nullptr).has_value());
    }
    setup.push_back(now_s() - s0);
    for (int i : shuffled(n, rng)) {
      const Entry& e = w.roster[static_cast<std::size_t>(i)];
      double wall = 0;
      const auto r = L.run(e, e.cfg, &wall);
      const bool ok = r && ref.accept(L, e, static_cast<std::size_t>(i), *r);
      L.op(ok);
      if (ok) walls[static_cast<std::size_t>(i)].push_back(wall);
    }
  });
  for (const auto& v : walls)
    rep.samples += static_cast<std::int64_t>(v.size());

  std::vector<double> work;
  for (const Entry& e : w.roster) work.push_back(cell_steps(e.cfg));
  add_run_metrics(rep, walls, work, setup);

  // Virtual time is exact: any drift between commits is a model change.
  double vstep = 0, vcomm = 0;
  for (int i = 0; i < n; ++i) {
    const auto& r = ref.res[static_cast<std::size_t>(i)];
    if (!r) continue;
    const int steps = w.roster[static_cast<std::size_t>(i)].cfg.timesteps;
    vstep += r->total_seconds / steps / n;
    vcomm += r->comm_per_step / n;
  }
  rep.add("virt_step_us", "us", "exact", 1e6 * vstep, false);
  rep.add("virt_comm_us", "us", "exact", 1e6 * vcomm, false);
  for (int i = 0; i < n; ++i) {
    const auto& v = walls[static_cast<std::size_t>(i)];
    if (v.empty()) continue;
    const Entry& e = w.roster[static_cast<std::size_t>(i)];
    rep.add("run_s_p10." + e.label, "s", "lower", quantile(v, 0.1), false);
    quartiles_of(rep.add("run_s_p50." + e.label, "s", "lower",
                         quantile(v, 0.5), false),
                 v);
  }
}

void measure_tuner(const Workload& w, const Options& o, Ledger& L,
                   Report& rep) {
  // Set-up is building the search space (the layout hill-climb); each pass
  // builds it three times before searching, interleaved like the harness
  // workloads' set-up passes.
  std::vector<double> setup;
  std::optional<tune::SearchSpace> space;
  auto build_space = [&] {
    for (int i = 0; i < 3; ++i) {
      const double t0 = now_s();
      space = tune::SearchSpace::standard(w.problem, 2000, o.seed);
      setup.push_back(now_s() - t0);
    }
  };
  build_space();

  const Entry hand_e{"hand-picked", w.problem};
  const auto hand = L.run(hand_e, w.problem, nullptr);
  L.op(hand && L.check("msg_counts",
                       hand->msgs_per_rank == expected_msgs(w.problem),
                       "hand-picked: " + std::to_string(hand->msgs_per_rank) +
                           " msgs/rank"));

  std::string first_json;
  std::int64_t evaluated = 0, distinct = 0;
  // One search: cold cache, artifact bytes stable across calls, tuned no
  // worse than hand-picked (it is in the space), every candidate evaluated.
  auto search = [&](double* wall) -> bool {
    const double t0 = now_s();
    try {
      tune::EvalCache cache;
      const tune::TuneResult res =
          tune::tune(w.problem, *space, kTunerThreads, &cache);
      if (wall) *wall = now_s() - t0;
      const std::string json = tune::to_json(res.artifact);
      if (first_json.empty()) first_json = json;
      evaluated = res.evaluated;
      distinct = res.distinct;
      bool ok = L.check("tune_artifact_stable", json == first_json,
                        "artifact bytes changed between calls");
      ok = L.check("tune_beats_hand",
                   hand && res.best.total_seconds <= hand->total_seconds,
                   "tuned config slower than the hand-picked one") &&
           ok;
      ok = L.check("tune_cold", res.evaluated == res.distinct,
                   "a cold search skipped distinct candidates") &&
           ok;
      return ok;
    } catch (const std::exception& ex) {
      return L.check("no_throw", false, std::string("tune: ") + ex.what());
    }
  };

  L.op(search(nullptr));  // untimed warm call; fixes the reference artifact
  std::vector<std::vector<double>> walls(1);
  const double per_eval = cell_steps(w.problem);
  setup.clear();
  rep.passes = closed_loop(o.seconds, o.min_passes(), [&] {
    build_space();
    double wall = 0;
    const bool ok = search(&wall);
    L.op(ok);
    if (!ok) return;
    walls[0].push_back(wall);
  });
  rep.samples = static_cast<std::int64_t>(walls[0].size());

  add_run_metrics(rep, walls, {per_eval * static_cast<double>(evaluated)},
                  setup);
  if (!walls[0].empty())
    rep.add("candidates_per_s", "1/s", "higher",
            static_cast<double>(evaluated) / quantile(walls[0], 0.5), false);
  rep.add("tune.evaluated", "count", "exact",
          static_cast<double>(evaluated), false);
  rep.add("tune.distinct", "count", "exact", static_cast<double>(distinct),
          false);
  if (hand) {
    rep.add("virt_step_us", "us", "exact",
            1e6 * hand->total_seconds / w.problem.timesteps, false);
    rep.add("virt_comm_us", "us", "exact", 1e6 * hand->comm_per_step, false);
  }
}

// ---------------------------------------------------------------------------
// Per-layer measurement (--trace 1)

/// One replay reduced to per-layer host seconds. The benchmark runs on one
/// CPU, so every thread's CPU time adds up to the replay's wall time: a
/// layer's time is the CPU all threads spent inside its spans, and the
/// layers, the epoch solve, spawn and the remainder partition the wall.
struct LayerSample {
  double wall = 0;  ///< the replay's root span
  std::array<double, bench::kLayerCount> cpu{};  ///< per layer, all threads
  double spawn = 0;  ///< Runtime ctor + run() wall no rank thread used
  double other = 0;  ///< rank-thread CPU outside every layer span
  double send = 0;   ///< Fabric::send/send_part, all ranks
  double epoch = 0;  ///< Fabric::epoch
  std::int64_t msgs = 0, bytes = 0, calls = 0, cells = 0;

  [[nodiscard]] double at(bench::Layer l) const {
    return cpu[static_cast<std::size_t>(l)];
  }
  /// CPU in message calls: exchanger start/finish and the datatype path.
  [[nodiscard]] double msg_cpu() const {
    return at(bench::Layer::Exchange) + at(bench::Layer::Types);
  }
};

LayerSample reduce(const bench::ReplayOut& o) {
  using bench::Layer;
  LayerSample s;
  double run = 0;
  for (const bench::Span& sp : o.spans.client) {
    if (sp.layer == Layer::Replay) s.wall = sp.t1 - sp.t0;
    if (sp.layer == Layer::RuntimeRun) run = sp.t1 - sp.t0;
    if (sp.layer == Layer::RuntimeCtor)
      s.cpu[static_cast<std::size_t>(sp.layer)] += sp.cpu;
  }
  double bodies = 0, layers = 0;
  for (const auto& spans : o.spans.ranks)
    for (const bench::Span& sp : spans) {
      s.cpu[static_cast<std::size_t>(sp.layer)] += sp.cpu;
      if (sp.layer == Layer::RankBody) {
        bodies += sp.cpu;
      } else if (sp.layer != Layer::View) {  // views nest inside plan spans
        layers += sp.cpu;
      }
    }
  for (const bench::Span& sp : o.spans.epochs) s.epoch += sp.cpu;
  s.spawn = s.at(Layer::RuntimeCtor) + std::max(0.0, run - bodies);
  s.other = std::max(0.0, bodies - layers - s.epoch);
  s.send = o.send_s;
  s.msgs = o.msgs_total;
  s.bytes = o.bytes_total;
  s.calls = o.send_calls + static_cast<std::int64_t>(o.spans.epochs.size());
  s.cells = o.cells;
  return s;
}

/// Spans kept for --trace-out: each config's first replay.
struct KeptSpans {
  int config;
  bench::SampleSpans spans;
};

void write_trace(const std::string& path, const Workload& w,
                 const std::vector<Entry>& roster,
                 const std::vector<KeptSpans>& kept) {
  std::ofstream out(path);
  BX_CHECK(out.good(), "cannot open --trace-out file");
  out << "{\"traceEvents\": [\n";
  bool first = true;
  char buf[512];
  auto emit = [&](const bench::Span& sp, int config) {
    std::snprintf(
        buf, sizeof buf,
        "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": %d, \"tid\": %d, "
        "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %lld, \"parent\": "
        "%lld, \"cpu_us\": %.3f, \"workload\": \"%s\", \"config\": \"%s\", "
        "\"sample\": 0, \"rank\": %d}}",
        first ? "" : ",\n", bench::layer_name(sp.layer), config + 1,
        sp.rank + 1, sp.t0 * 1e6, (sp.t1 - sp.t0) * 1e6,
        static_cast<long long>(sp.id), static_cast<long long>(sp.parent),
        sp.cpu * 1e6,
        w.name.c_str(), roster[static_cast<std::size_t>(config)].label.c_str(),
        sp.rank);
    out << buf;
    first = false;
  };
  for (const KeptSpans& k : kept) {
    for (const bench::Span& sp : k.spans.client) emit(sp, k.config);
    for (const bench::Span& sp : k.spans.epochs) emit(sp, k.config);
    for (const auto& r : k.spans.ranks)
      for (const bench::Span& sp : r) emit(sp, k.config);
  }
  out << "\n]}\n";
}

void measure_layers(const Workload& w, const Options& o,
                    const bench::CopyCeiling& copy,
                    const std::string& trace_out, Ledger& L, Report& rep) {
  using bench::Layer;
  std::vector<Entry> roster = w.roster;
  if (w.tuner) {
    std::vector<double> space_s;
    std::optional<tune::SearchSpace> space;
    while (space_s.size() < 3) {
      const double t0 = now_s();
      space = tune::SearchSpace::standard(w.problem, 2000, o.seed);
      space_s.push_back(now_s() - t0);
    }
    rep.add("tune.space_s", "s", "lower", quantile(space_s, 0.5), false);
    try {
      const double t0 = now_s();
      tune::EvalCache cache;
      const tune::TuneResult res =
          tune::tune(w.problem, *space, kTunerThreads, &cache);
      const double wall = now_s() - t0;
      L.op(L.check("tune_cold", res.evaluated == res.distinct,
                   "a cold search skipped distinct candidates"));
      rep.add("tune.eval_s", "s", "lower",
              wall / static_cast<double>(res.evaluated), false);
      rep.add("tune.evaluated", "count", "exact",
              static_cast<double>(res.evaluated), false);
      rep.add("tune.distinct", "count", "exact",
              static_cast<double>(res.distinct), false);
    } catch (const std::exception& ex) {
      L.op(L.check("no_throw", false, std::string("tune: ") + ex.what()));
    }
    roster = candidates(w.problem, *space);
  }

  const int n = static_cast<int>(roster.size());
  Rng rng(o.seed);
  Reference ref(static_cast<std::size_t>(n));
  std::vector<std::vector<LayerSample>> samples(static_cast<std::size_t>(n));
  std::vector<std::vector<double>> untraced(static_cast<std::size_t>(n));
  std::vector<KeptSpans> kept;
  rep.passes = closed_loop(o.seconds, 1, [&] {
    for (int i : shuffled(n, rng)) {
      const std::size_t ci = static_cast<std::size_t>(i);
      const Entry& e = roster[ci];
      double wall = 0;
      const auto r = L.run(e, e.cfg, &wall);
      const bool ok = r && ref.accept(L, e, ci, *r);
      L.op(ok);
      if (!ok) continue;
      untraced[ci].push_back(wall);
      try {
        bench::ReplayOut out = bench::replay(e.cfg);
        const bool same =
            L.check("replay_counters",
                    out.msgs_per_rank == r->msgs_per_rank &&
                        out.wire_bytes_per_rank == r->wire_bytes_per_rank &&
                        out.fabric_msgs == r->fabric_msgs,
                    e.label + ": replay msgs/bytes/fabric " +
                        std::to_string(out.msgs_per_rank) + "/" +
                        std::to_string(out.wire_bytes_per_rank) + "/" +
                        std::to_string(out.fabric_msgs) + " vs harness " +
                        std::to_string(r->msgs_per_rank) + "/" +
                        std::to_string(r->wire_bytes_per_rank) + "/" +
                        std::to_string(r->fabric_msgs)) &
            L.check("replay_vtime", out.total_seconds == r->total_seconds,
                    e.label + ": replay virtual time differs");
        L.op(same);
        samples[ci].push_back(reduce(out));
        if (!trace_out.empty() && samples[ci].size() == 1)
          kept.push_back({i, std::move(out.spans)});
      } catch (const std::exception& ex) {
        L.op(L.check("no_throw", false, e.label + " replay: " + ex.what()));
      }
    }
  });
  for (const auto& v : samples)
    rep.samples += static_cast<std::int64_t>(v.size());

  // value = mean over configs of the config's median sample.
  auto per_config = [&](auto&& f) {
    std::vector<std::vector<double>> v(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      for (const LayerSample& s : samples[static_cast<std::size_t>(i)]) {
        const std::optional<double> x = f(s);
        if (x) v[static_cast<std::size_t>(i)].push_back(*x);
      }
    return v;
  };
  auto layer_metric = [&](const std::string& name, const std::string& unit,
                          const std::string& better, bool contract,
                          auto&& f) {
    const auto v = per_config(f);
    Metric& m =
        rep.add(name, unit, better, roster_quantile(v, 0.5), contract);
    m.q1 = roster_quantile(v, 0.25);
    m.q3 = roster_quantile(v, 0.75);
    if (!w.tuner)
      for (int i = 0; i < n; ++i) {
        const auto& c = v[static_cast<std::size_t>(i)];
        if (!c.empty())
          rep.add(name + "." + roster[static_cast<std::size_t>(i)].label, unit,
                  better, quantile(c, 0.5), false);
      }
  };
  auto layer = [&](const std::string& name, Layer l) {
    layer_metric(name, "s", "lower", true,
                 [l](const LayerSample& s) -> std::optional<double> {
                   return s.at(l);
                 });
  };
  layer("core.alloc_s", Layer::Alloc);
  layer("core.seed_s", Layer::Seed);
  layer("core.plan_s", Layer::Plan);
  layer_metric("memmap.view_s", "s", "lower", false,  // zero on tune_search
               [](const LayerSample& s) -> std::optional<double> {
                 return s.at(Layer::View);
               });
  layer("core.exchange_s", Layer::Exchange);
  layer("stencil.kernel_s", Layer::Kernel);
  layer_metric("baseline.pack_s", "s", "lower", false,
               [](const LayerSample& s) -> std::optional<double> {
                 return s.at(Layer::Pack);
               });
  layer_metric("baseline.types_s", "s", "lower", false,
               [](const LayerSample& s) -> std::optional<double> {
                 return s.at(Layer::Types);
               });
  layer_metric("netsim.send_s", "s", "lower", true,
               [](const LayerSample& s) -> std::optional<double> {
                 return s.send;
               });
  layer_metric("netsim.epoch_s", "s", "lower", true,
               [](const LayerSample& s) -> std::optional<double> {
                 return s.epoch;
               });
  layer_metric("simmpi.spawn_s", "s", "lower", true,
               [](const LayerSample& s) -> std::optional<double> {
                 return s.spawn;
               });
  layer_metric("harness.other_s", "s", "lower", true,
               [](const LayerSample& s) -> std::optional<double> {
                 return s.other;
               });
  layer_metric("replay.wall_s", "s", "lower", false,
               [](const LayerSample& s) -> std::optional<double> {
                 return s.wall;
               });
  layer_metric("simmpi.us_per_msg", "us", "lower", true,
               [](const LayerSample& s) -> std::optional<double> {
                 if (s.msgs == 0) return std::nullopt;
                 return 1e6 * s.msg_cpu() / static_cast<double>(s.msgs);
               });
  layer_metric("netsim.us_per_call", "us", "lower", true,
               [](const LayerSample& s) -> std::optional<double> {
                 if (s.calls == 0) return std::nullopt;
                 return 1e6 * (s.send + s.epoch) /
                        static_cast<double>(s.calls);
               });
  // Computed bytes, read + write like the copy ceiling: each message byte
  // is read once and written once; each stencil output reads and writes
  // 8 bytes per field. All of it runs on one CPU, so the one-thread copy
  // bandwidth is the ceiling.
  auto exchange_gbps = [](const LayerSample& s) -> std::optional<double> {
    if (s.msg_cpu() <= 0) return std::nullopt;
    return 2.0 * static_cast<double>(s.bytes) / s.msg_cpu() / 1e9;
  };
  auto kernel_gbps = [](const LayerSample& s) -> std::optional<double> {
    if (s.cells == 0 || s.at(Layer::Kernel) <= 0) return std::nullopt;
    return 16.0 * static_cast<double>(s.cells) / s.at(Layer::Kernel) / 1e9;
  };
  layer_metric("core.exchange_gbps", "GB/s", "higher", true, exchange_gbps);
  layer_metric("core.exchange_frac_copy", "ratio", "higher", true,
               [&](const LayerSample& s) -> std::optional<double> {
                 const auto g = exchange_gbps(s);
                 if (!g) return std::nullopt;
                 return *g / copy.gbps_1t;
               });
  if (std::any_of(roster.begin(), roster.end(),
                  [](const Entry& e) { return e.cfg.execute_kernels; })) {
    layer_metric("stencil.gbps_computed", "GB/s", "higher", false,
                 kernel_gbps);
    layer_metric("stencil.gbps_frac_copy", "ratio", "higher", false,
                 [&](const LayerSample& s) -> std::optional<double> {
                   const auto g = kernel_gbps(s);
                   if (!g) return std::nullopt;
                   return *g / copy.gbps_1t;
                 });
    layer_metric("stencil.cells_per_s", "1/s", "higher", false,
                 [](const LayerSample& s) -> std::optional<double> {
                   if (s.cells == 0 || s.at(Layer::Kernel) <= 0)
                     return std::nullopt;
                   return static_cast<double>(s.cells) / s.at(Layer::Kernel);
                 });
  }
  // Shares of the replay wall, for the README's layer-load checks.
  layer_metric("share.netsim", "ratio", "lower", false,
               [](const LayerSample& s) -> std::optional<double> {
                 return (s.send + s.epoch) / s.wall;
               });
  layer_metric("share.kernel", "ratio", "lower", false,
               [](const LayerSample& s) -> std::optional<double> {
                 return s.at(Layer::Kernel) / s.wall;
               });
  layer_metric("share.alloc_seed", "ratio", "lower", false,
               [](const LayerSample& s) -> std::optional<double> {
                 return (s.at(Layer::Alloc) + s.at(Layer::Seed)) / s.wall;
               });

  rep.add("host.copy_gbps", "GB/s", "higher", copy.gbps_1t, true);
  rep.add("host.copy_gbps_mt", "GB/s", "higher", copy.gbps_mt, true);

  // Counts per roster pass, from each config's first replay: exact.
  double msgs = 0, bytes = 0, calls = 0;
  double overhead = 0;
  int m = 0;
  for (int i = 0; i < n; ++i) {
    const auto& v = samples[static_cast<std::size_t>(i)];
    if (v.empty()) continue;
    msgs += static_cast<double>(v.front().msgs);
    bytes += static_cast<double>(v.front().bytes);
    calls += static_cast<double>(v.front().calls);
    std::vector<double> rw;
    for (const LayerSample& s : v) rw.push_back(s.wall);
    overhead += quantile(rw, 0.5) /
                    quantile(untraced[static_cast<std::size_t>(i)], 0.5) -
                1.0;
    ++m;
  }
  rep.add("simmpi.msgs", "count", "lower", msgs, true);
  rep.add("simmpi.bytes", "count", "lower", bytes, true);
  rep.add("netsim.calls", "count", "lower", calls, true);
  rep.add("trace.overhead_frac", "ratio", "lower", m ? overhead / m : 0.0,
          true);

  if (!trace_out.empty()) {
    write_trace(trace_out, w, roster, kept);
    std::printf("wrote trace: %s\n", trace_out.c_str());
  }
}

// ---------------------------------------------------------------------------
// Output

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

void write_document(const std::string& path, const Workload& w,
                    const Options& o, bool trace, const std::string& commit,
                    int ncpu, int pinned_cpu, const Ledger& L,
                    const Report& rep) {
  std::ofstream out(path);
  BX_CHECK(out.good(), "cannot open --json-out file");
  out << "{\n  \"schema\": \"brickx-benchmark-v1\",\n";
  out << "  \"provenance\": {\"git_commit\": \"" << json_escape(commit)
      << "\", \"compiler\": \"" << json_escape(BENCH_COMPILER)
      << "\", \"flags\": \"" << json_escape(BENCH_FLAGS)
      << "\", \"build_type\": \"" << BENCH_BUILD_TYPE
      << "\", \"brickx_obs\": " << BRICKX_OBS
      << ", \"simd_width\": " << simd::kActiveWidth
      << ", \"nproc\": " << ncpu << ", \"pinned_cpu\": " << pinned_cpu
      << ", \"llc_bytes\": " << bench::llc_bytes() << "},\n";
  out << "  \"workload\": {\"name\": \"" << w.name << "\", \"why\": \""
      << json_escape(w.why) << "\", \"seed\": " << o.seed
      << ", \"seconds\": " << num(o.seconds)
      << ", \"trace\": " << (trace ? 1 : 0)
      << ", \"smoke\": " << (o.smoke ? "true" : "false")
      << ", \"n\": " << rep.samples << ", \"passes\": " << rep.passes
      << ", \"tail_percentile\": 80, \"configs\": [";
  for (std::size_t i = 0; i < rep.configs.size(); ++i)
    out << (i ? ", " : "") << '"' << rep.configs[i] << '"';
  out << "]},\n";
  out << "  \"correct\": " << (L.correct() ? "true" : "false")
      << ", \"attempted\": " << L.attempted << ", \"failed\": " << L.failed
      << ",\n  \"gates\": [";
  bool first = true;
  for (const auto& [name, g] : L.gates) {
    out << (first ? "\n" : ",\n") << "    {\"name\": \"" << name
        << "\", \"checked\": " << g.checked << ", \"failed\": " << g.failed
        << ", \"detail\": \"" << json_escape(g.detail) << "\"}";
    first = false;
  }
  out << "\n  ],\n  \"metrics\": [";
  first = true;
  for (const Metric& m : rep.metrics) {
    out << (first ? "\n" : ",\n") << "    {\"name\": \"" << m.name
        << "\", \"unit\": \"" << m.unit << "\", \"better\": \"" << m.better
        << "\", \"value\": " << num(m.value)
        << ", \"q1\": " << (m.q1 ? num(*m.q1) : "null")
        << ", \"q3\": " << (m.q3 ? num(*m.q3) : "null")
        << ", \"contract\": " << (m.contract ? "true" : "false") << "}";
    first = false;
  }
  out << "\n  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  // One malloc arena, a 32 MiB mmap threshold and no trimming: buffers a
  // run frees stay resident and the next run reuses them. Left to glibc's
  // defaults, whether a run faults its buffers in afresh depends on the
  // allocation history of earlier runs and threads, and page faults in a VM
  // cost what the host's memory state makes them; allocation-bound runs then
  // varied by 20% between processes.
  BX_CHECK(mallopt(M_ARENA_MAX, 1) == 1 &&
               mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 &&
               mallopt(M_TRIM_THRESHOLD, 1 << 30) == 1,
           "mallopt rejected the benchmark's allocator settings");
  ArgParser ap("brickx_bench",
               "host-time benchmark: one workload per process (README.md)");
  ap.add("--workload", "k1_volume | k1_kernels | k2_fabric | tune_search", "");
  ap.add("--seed", "shuffles the roster order; the tuner's layout seed", "1");
  ap.add("--seconds", "measured closed-loop duration", "20");
  ap.add("--trace", "0: end-to-end metrics, 1: traced per-layer replay", "0");
  ap.add_flag("--smoke", "shrunken problem sizes (every path, seconds)");
  ap.add("--json-out", "write the workload's JSON document here", "");
  ap.add("--trace-out", "write replay spans (Chrome trace JSON) here", "");
  ap.add("--git-commit", "provenance: the measured revision", "unknown");

  Options o;
  Workload w;
  bool trace = false;
  try {
    ap.parse(argc, argv);
    o.seed = static_cast<std::uint64_t>(ap.get_int("--seed"));
    o.seconds = ap.get_double("--seconds");
    o.smoke = ap.get_flag("--smoke");
    const std::string t = ap.get("--trace");
    BX_CHECK(t == "0" || t == "1", "--trace takes 0 or 1");
    trace = t == "1";
    BX_CHECK(o.seconds > 0, "--seconds must be positive");
    w = make_workload(ap.get("--workload"), o.smoke);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "brickx_bench: %s\n%s", ex.what(),
                 ap.usage().c_str());
    return 2;
  }

  // The copy ceiling uses every CPU; everything after runs on one. Rank
  // threads spread over several vCPUs of a shared host made whole-run times
  // vary 15-30% between processes; on one CPU they are steady, and a run's
  // wall time is the CPU work the simulated experiment costs.
  const int ncpu = static_cast<int>(bench::allowed_cpus().size());
  bench::CopyCeiling copy;
  if (trace) {
    const std::size_t mib = std::size_t{1} << 20;
    // At least 4x the last-level cache per buffer (64 MiB floor, 2 GiB cap;
    // the smoke run uses the floor).
    const std::size_t buf =
        o.smoke ? 64 * mib
                : std::clamp(4 * bench::llc_bytes(), 64 * mib, 2048 * mib);
    copy = bench::measure_copy(buf, ncpu);
    std::printf(
        "copy ceiling: llc %zu bytes, buffers %zu bytes x2, %d threads\n",
        copy.llc_bytes, copy.buffer_bytes, copy.threads);
  }
  const int cpu = bench::allowed_cpus().back();
  bench::pin_to_cpu(cpu);

  Ledger L;
  Report rep;
  for (const Entry& e : w.roster) rep.configs.push_back(e.label);
  if (trace) {
    measure_layers(w, o, copy, ap.get("--trace-out"), L, rep);
  } else if (w.tuner) {
    measure_tuner(w, o, L, rep);
  } else {
    measure_harness(w, o, L, rep);
  }
  rep.add("fail_frac", "ratio", "lower",
          L.attempted ? static_cast<double>(L.failed) / L.attempted : 1.0,
          false);

  for (const Metric& m : rep.metrics)
    std::printf("%s %s %s\n", m.name.c_str(), num(m.value).c_str(),
                m.unit.c_str());
  std::printf("samples %lld count\n", static_cast<long long>(rep.samples));
  const std::string doc = ap.get("--json-out");
  if (!doc.empty())
    write_document(doc, w, o, trace, ap.get("--git-commit"), ncpu, cpu, L,
                   rep);

  std::ostringstream line;
  line << "{\"correct\": " << (L.correct() ? "true" : "false")
       << ", \"attempted\": " << L.attempted << ", \"failed\": " << L.failed
       << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : rep.metrics) {
    if (!m.contract) continue;
    line << (first ? "" : ", ") << '"' << m.name << "\": {\"value\": "
         << num(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  line << "}}";
  std::printf("%s\n", line.str().c_str());
  return L.correct() ? 0 : 1;
}
