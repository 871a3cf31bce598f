// Tests for the obs span tracer / metrics registry: recording semantics,
// phase_sum's per-step grouping, metric merging, and the end-to-end
// guarantees the subsystem advertises — byte-identical exports across
// identical runs, and span-derived phase aggregates bit-equal to the
// harness Result.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "harness/experiment.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "obs/session.h"

namespace obs = brickx::obs;
using brickx::Stats;

TEST(Obs, CatNamesAreStable) {
  EXPECT_STREQ(obs::cat_name(obs::Cat::Calc), "calc");
  EXPECT_STREQ(obs::cat_name(obs::Cat::Pack), "pack");
  EXPECT_STREQ(obs::cat_name(obs::Cat::Call), "call");
  EXPECT_STREQ(obs::cat_name(obs::Cat::Wait), "wait");
  EXPECT_STREQ(obs::cat_name(obs::Cat::DtPack), "dt_pack");
  EXPECT_STREQ(obs::cat_name(obs::Cat::MmapSetup), "mmap_setup");
  EXPECT_STREQ(obs::cat_name(obs::Cat::UmMigrate), "um_migrate");
  EXPECT_STREQ(obs::cat_name(obs::Cat::Collective), "collective");
}

// Everything below exercises the real recorder; in a -DBRICKX_OBS=OFF
// build this binary gets the null sink and only the tests above apply
// (obs_disabled_test covers the null sink's own guarantees).
#if BRICKX_OBS

TEST(Obs, RankLogRecordsNestingDepths) {
  obs::RankLog lg;
  const std::size_t outer = lg.open_span(obs::Cat::Calc, nullptr, 3, 1.0);
  const std::size_t inner = lg.open_span(obs::Cat::Call, "mpi_isend", -1, 1.5);
  lg.close_span(inner, 2.0);
  lg.note_span(obs::Cat::UmMigrate, "um_migrate", 2.0, 2.25);
  lg.close_span(outer, 3.0);
  ASSERT_EQ(lg.spans().size(), 3u);

  const obs::SpanEvent& a = lg.spans()[0];
  EXPECT_EQ(a.cat, obs::Cat::Calc);
  EXPECT_STREQ(a.name, "calc");  // defaulted from the category
  EXPECT_EQ(a.step, 3);
  EXPECT_EQ(a.depth, 0);
  EXPECT_EQ(a.t0, 1.0);
  EXPECT_EQ(a.t1, 3.0);

  const obs::SpanEvent& b = lg.spans()[1];
  EXPECT_STREQ(b.name, "mpi_isend");
  EXPECT_EQ(b.step, -1);
  EXPECT_EQ(b.depth, 1);

  const obs::SpanEvent& c = lg.spans()[2];
  EXPECT_EQ(c.depth, 1);  // noted while the outer span was still open
  EXPECT_EQ(c.t1 - c.t0, 0.25);
  EXPECT_EQ(lg.depth(), 0);
}

TEST(Obs, UnboundThreadIsANoOp) {
  ASSERT_EQ(obs::ambient_log(), nullptr);
  EXPECT_EQ(obs::ambient_now(), 0.0);
  {  // none of these may crash or record anywhere
    obs::ObsSpan sp(obs::Cat::Calc, "calc", 0);
    obs::note_cost(obs::Cat::UmMigrate, "um_migrate", 1.0);
    obs::instant(obs::Cat::MmapSetup, "view_build");
    obs::counter_add("x", 1);
    obs::gauge_max("y", 2.0);
    obs::hist_add("z", 3.0);
  }
  EXPECT_EQ(obs::ambient_log(), nullptr);
}

TEST(Obs, AmbientBindingStampsTheProvidedClock) {
  obs::RankLog lg;
  double clock = 10.0;
  {
    obs::BindGuard guard(&lg, &clock);
    EXPECT_EQ(obs::ambient_log(), &lg);
    EXPECT_EQ(obs::ambient_now(), 10.0);
    {
      obs::ObsSpan outer(obs::Cat::Wait, "mpi_wait");
      clock = 12.0;
      obs::ObsSpan inner(obs::Cat::DtPack, "dt_scatter");
      clock = 13.0;
    }  // inner closes at 13, outer closes at 13
    obs::note_cost(obs::Cat::UmMigrate, "um_migrate", 0.5);
    obs::note_cost(obs::Cat::UmMigrate, "um_migrate", 0.0);  // dropped
    obs::counter_add("gpu.pages_migrated", 7);
  }
  EXPECT_EQ(obs::ambient_log(), nullptr);  // guard unbinds

  ASSERT_EQ(lg.spans().size(), 3u);
  EXPECT_EQ(lg.spans()[0].t0, 10.0);
  EXPECT_EQ(lg.spans()[0].t1, 13.0);
  EXPECT_EQ(lg.spans()[0].depth, 0);
  EXPECT_EQ(lg.spans()[1].t0, 12.0);
  EXPECT_EQ(lg.spans()[1].t1, 13.0);
  EXPECT_EQ(lg.spans()[1].depth, 1);
  EXPECT_EQ(lg.spans()[2].t0, 13.0);
  EXPECT_EQ(lg.spans()[2].t1, 13.5);
  ASSERT_EQ(lg.metrics().count("gpu.pages_migrated"), 1u);
  EXPECT_EQ(lg.metrics().at("gpu.pages_migrated").value, 7);
}

TEST(Obs, PhaseSumGroupsPerStepAndFilters) {
  obs::RankLog lg;
  double clock = 0.0;
  obs::BindGuard guard(&lg, &clock);
  auto span = [&](obs::Cat cat, const char* name, std::int64_t step,
                  double dur) {
    const std::size_t idx = lg.open_span(cat, name, step, clock);
    clock += dur;
    lg.close_span(idx, clock);
  };
  // step 0: two calc spans; step 1: one. Ignored: wrong name, wrong cat,
  // step -1 (warmup), and a nested span at depth 1.
  span(obs::Cat::Calc, "calc", 0, 0.25);
  span(obs::Cat::Calc, "calc", 0, 0.5);
  span(obs::Cat::Calc, "other", 0, 100.0);
  span(obs::Cat::Pack, "calc", 0, 100.0);
  span(obs::Cat::Calc, "calc", -1, 100.0);
  {
    obs::ObsSpan outer(obs::Cat::Wait, "mpi_wait");
    span(obs::Cat::Calc, "calc", 0, 100.0);  // depth 1 -> excluded
  }
  span(obs::Cat::Calc, "calc", 1, 1.0);
  EXPECT_EQ(obs::phase_sum(lg, obs::Cat::Calc, "calc"), (0.25 + 0.5) + 1.0);
  EXPECT_EQ(obs::phase_sum(lg, obs::Cat::Pack, "pack"), 0.0);
}

TEST(Obs, MetricKindsAccumulate) {
  obs::RankLog lg;
  lg.counter_add("c", 2);
  lg.counter_add("c", 3);
  lg.gauge_max("g", 5.0);
  lg.gauge_max("g", 4.0);  // below the watermark
  lg.hist_add("h", 1.0);
  lg.hist_add("h", 3.0);
  EXPECT_EQ(lg.metrics().at("c").value, 5);
  EXPECT_EQ(lg.metrics().at("g").gauge, 5.0);
  EXPECT_EQ(lg.metrics().at("h").hist.count(), 2);
  EXPECT_EQ(lg.metrics().at("h").hist.avg(), 2.0);
}

TEST(Obs, MergedMetricsCombinePerKind) {
  std::vector<obs::RankLog> logs(2);
  logs[0].counter_add("c", 2);
  logs[1].counter_add("c", 3);
  logs[0].gauge_max("g", 1.0);
  logs[1].gauge_max("g", 9.0);
  logs[0].hist_add("h", 1.0);
  logs[1].hist_add("h", 3.0);
  logs[1].counter_add("only1", 7);  // present on one rank only
  const auto m = obs::merged_metrics(logs);
  EXPECT_EQ(m.at("c").value, 5);
  EXPECT_EQ(m.at("g").gauge, 9.0);
  EXPECT_EQ(m.at("h").hist.count(), 2);
  EXPECT_EQ(m.at("h").hist.min(), 1.0);
  EXPECT_EQ(m.at("h").hist.max(), 3.0);
  EXPECT_EQ(m.at("only1").value, 7);
}

TEST(Obs, SessionScopeActivatesAndRestores) {
  EXPECT_EQ(obs::Session::active(), nullptr);
  obs::Session outer;
  {
    obs::Session::Scope so(outer);
    EXPECT_EQ(obs::Session::active(), &outer);
    obs::Session inner;
    {
      obs::Session::Scope si(inner);
      EXPECT_EQ(obs::Session::active(), &inner);
    }
    EXPECT_EQ(obs::Session::active(), &outer);
  }
  EXPECT_EQ(obs::Session::active(), nullptr);

  obs::Collector col(3);
  col.log(1).counter_add("c", 1);
  outer.absorb("lbl", std::move(col));
  ASSERT_EQ(outer.runs().size(), 1u);
  EXPECT_EQ(outer.runs()[0].label, "lbl");
  EXPECT_EQ(outer.runs()[0].nranks, 3);
  EXPECT_EQ(outer.runs()[0].logs.size(), 3u);
}

namespace {

brickx::harness::Config small_config(brickx::harness::Method m) {
  brickx::harness::Config cfg;
  cfg.rank_dims = {2, 1, 1};
  cfg.subdomain = brickx::Vec3::fill(16);
  cfg.brick = 8;
  cfg.ghost = 8;
  cfg.method = m;
  cfg.timesteps = 3;
  cfg.warmup_exchanges = 1;
  cfg.execute_kernels = false;
  return cfg;
}

}  // namespace

TEST(Obs, HarnessExportsAreByteDeterministic) {
  auto once = [] {
    obs::Session ses;
    {
      obs::Session::Scope scope(ses);
      (void)brickx::harness::run(small_config(brickx::harness::Method::Yask));
      (void)brickx::harness::run(
          small_config(brickx::harness::Method::MemMap));
    }
    return std::pair<std::string, std::string>(obs::chrome_trace_json(ses),
                                               obs::metrics_json(ses));
  };
  const auto a = once();
  const auto b = once();
  EXPECT_GT(a.first.size(), 100u);
  EXPECT_EQ(a.first, b.first);    // trace JSON byte-identical
  EXPECT_EQ(a.second, b.second);  // metrics JSON byte-identical
}

// The harness computes Result phase aggregates from spans (when obs is on);
// reconstructing them from the session's logs must reproduce the Stats
// bit-exactly — same samples, same order, no FP drift.
TEST(Obs, SpanAggregatesMatchHarnessResultBitExactly) {
  const brickx::harness::Config cfg =
      small_config(brickx::harness::Method::Yask);
  obs::Session ses;
  brickx::harness::Result res;
  {
    obs::Session::Scope scope(ses);
    res = brickx::harness::run(cfg);
  }
  ASSERT_EQ(ses.runs().size(), 1u);
  const obs::Session::Run& run = ses.runs()[0];
  ASSERT_EQ(run.nranks, 2);

  const double steps = static_cast<double>(cfg.timesteps);
  auto rebuilt = [&](obs::Cat cat, const char* name) {
    Stats st;
    for (const obs::RankLog& lg : run.logs)
      st.add(obs::phase_sum(lg, cat, name) / steps);
    return st;
  };
  const Stats calc = rebuilt(obs::Cat::Calc, "calc");
  const Stats pack = rebuilt(obs::Cat::Pack, "pack");
  const Stats call = rebuilt(obs::Cat::Call, "call");
  const Stats wait = rebuilt(obs::Cat::Wait, "wait");
  EXPECT_EQ(calc.avg(), res.calc.avg());
  EXPECT_EQ(calc.min(), res.calc.min());
  EXPECT_EQ(calc.max(), res.calc.max());
  EXPECT_EQ(pack.avg(), res.pack.avg());
  EXPECT_EQ(call.avg(), res.call.avg());
  EXPECT_EQ(wait.avg(), res.wait.avg());
  EXPECT_GT(pack.avg(), 0.0);  // YASK packs — the samples are non-trivial
  EXPECT_GT(wait.avg(), 0.0);
}

TEST(Obs, ChromeTraceShapeAndFlows) {
  obs::Session ses;
  {
    obs::Session::Scope scope(ses);
    (void)brickx::harness::run(small_config(brickx::harness::Method::Layout));
  }
  const std::string j = obs::chrome_trace_json(ses);
  EXPECT_EQ(j.rfind("{\"traceEvents\":[", 0), 0u);  // starts the event array
  EXPECT_NE(j.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(j.find("\"process_name\""), std::string::npos);
  EXPECT_NE(j.find("\"cat\":\"calc\""), std::string::npos);
  EXPECT_NE(j.find("\"cat\":\"wait\""), std::string::npos);
  // Flow arrows come in start/finish pairs with matching ids.
  std::size_t starts = 0, finishes = 0, pos = 0;
  while ((pos = j.find("\"ph\":\"s\"", pos)) != std::string::npos)
    ++starts, pos += 8;
  pos = 0;
  while ((pos = j.find("\"ph\":\"f\"", pos)) != std::string::npos)
    ++finishes, pos += 8;
  EXPECT_GT(starts, 0u);
  EXPECT_EQ(starts, finishes);
}

TEST(Obs, MetricsExportFormats) {
  obs::Session ses;
  obs::Collector col(2);
  {
    double clock = 0.0;
    obs::BindGuard guard(&col.log(0), &clock);
    obs::counter_add("comm.msgs_sent", 4);
    obs::gauge_max("comm.max_inflight_reqs", 3.0);
    obs::hist_add("harness.calc_s", 0.5);
  }
  ses.absorb("unit", std::move(col));

  const std::string j = obs::metrics_json(ses);
  EXPECT_EQ(j.rfind("{\"version\":1,\"runs\":[", 0), 0u);
  EXPECT_NE(j.find("\"label\":\"unit\""), std::string::npos);
  EXPECT_NE(j.find("\"nranks\":2"), std::string::npos);
  EXPECT_NE(j.find("\"comm.msgs_sent\":{\"kind\":\"counter\",\"value\":4}"),
            std::string::npos);
  EXPECT_NE(j.find("\"kind\":\"gauge\""), std::string::npos);
  EXPECT_NE(j.find("\"kind\":\"hist\""), std::string::npos);

  const std::string c = obs::metrics_csv(ses);
  EXPECT_EQ(c.rfind("run,label,metric,kind,value,count,min,avg,max,sigma", 0),
            0u);
  EXPECT_NE(c.find("0,unit,comm.msgs_sent,counter,4"), std::string::npos);
}

// Run labels carrying CSV delimiters (e.g. "MemMap/um,p=2M") must come out
// RFC-4180 quoted — one field, inner quotes doubled — while plain labels
// stay byte-identical to the unescaped form.
TEST(Obs, MetricsCsvEscapesDelimitersInLabels) {
  obs::Session ses;
  obs::Collector col(1);
  {
    double clock = 0.0;
    obs::BindGuard guard(&col.log(0), &clock);
    obs::counter_add("comm.msgs_sent", 4);
  }
  ses.absorb("MemMap/um,p=2M", std::move(col));
  obs::Collector col2(1);
  {
    double clock = 0.0;
    obs::BindGuard guard(&col2.log(0), &clock);
    obs::counter_add("comm.msgs_sent", 5);
  }
  ses.absorb("say \"hi\"", std::move(col2));

  const std::string c = obs::metrics_csv(ses);
  EXPECT_NE(c.find("0,\"MemMap/um,p=2M\",comm.msgs_sent,counter,4"),
            std::string::npos);
  EXPECT_NE(c.find("1,\"say \"\"hi\"\"\",comm.msgs_sent,counter,5"),
            std::string::npos);
  // The raw label must never appear as two naked fields.
  EXPECT_EQ(c.find("0,MemMap/um,p=2M"), std::string::npos);
}

// Flow-arrow ids in the Chrome trace must be unique across ALL absorbed
// runs (Perfetto joins s/f pairs by id; a reused id cross-links messages
// from different experiments) and deterministic across identical sessions.
TEST(Obs, FlowArrowIdsUniqueAndDeterministicAcrossRuns) {
  auto once = [] {
    obs::Session ses;
    {
      obs::Session::Scope scope(ses);
      (void)brickx::harness::run(small_config(brickx::harness::Method::Layout));
      (void)brickx::harness::run(small_config(brickx::harness::Method::MemMap));
    }
    return obs::chrome_trace_json(ses);
  };
  const std::string j = once();
  EXPECT_EQ(j, once());  // ids (and everything else) deterministic

  std::vector<long long> starts, finishes;
  {
    const std::string needle = "\"ph\":\"s\"";
    std::size_t pos = 0;
    while ((pos = j.find(needle, pos)) != std::string::npos) {
      const std::size_t idk = j.find("\"id\":", pos);
      ASSERT_NE(idk, std::string::npos);
      starts.push_back(std::stoll(j.substr(idk + 5)));
      pos += needle.size();
    }
  }
  {
    const std::string needle = "\"ph\":\"f\"";
    std::size_t pos = 0;
    while ((pos = j.find(needle, pos)) != std::string::npos) {
      const std::size_t idk = j.find("\"id\":", pos);
      ASSERT_NE(idk, std::string::npos);
      finishes.push_back(std::stoll(j.substr(idk + 5)));
      pos += needle.size();
    }
  }
  ASSERT_GT(starts.size(), 0u);
  EXPECT_EQ(starts, finishes);  // each start pairs its finish, in order
  std::vector<long long> sorted = starts;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
              sorted.end())
      << "duplicate flow id across absorbed runs";
}

// A flow record and the receive that consumed it describe one message:
// both must carry the same arrival, injected delay included, and the same
// partition index, on every send path (fabric, on-node tier, aggregation
// frame, partition). Paired by (src, dst, tag, part) and then by order.
TEST(Obs, FlowRecordsAgreeWithTheirReceivesUnderDelay) {
  struct Variant {
    const char* name;
    brickx::transport::Kind transport;
    bool overlap;
  };
  for (const Variant& v :
       {Variant{"flat", brickx::transport::Kind::Flat, false},
        Variant{"shm-agg", brickx::transport::Kind::ShmAgg, false},
        Variant{"overlap", brickx::transport::Kind::Flat, true},
        Variant{"overlap shm-agg", brickx::transport::Kind::ShmAgg, true}}) {
    SCOPED_TRACE(v.name);
    brickx::harness::Config cfg;
    cfg.rank_dims = {2, 2, 2};
    cfg.subdomain = brickx::Vec3::fill(16);
    cfg.brick = 4;
    cfg.ghost = 4;
    cfg.method = brickx::harness::Method::Layout;
    cfg.timesteps = 8;
    cfg.warmup_exchanges = 1;
    cfg.validate = true;
    cfg.machine.net.ranks_per_node = 4;
    cfg.transport = v.transport;
    cfg.overlap = v.overlap;
    cfg.faults.seed = 7;
    cfg.faults.delay = 0.3;
    obs::Session ses;
    {
      obs::Session::Scope scope(ses);
      EXPECT_TRUE(brickx::harness::run(cfg).validated);
    }
    ASSERT_EQ(ses.runs().size(), 1u);
    const obs::Session::Run& run = ses.runs()[0];
    using Key = std::tuple<int, int, int, int>;  // (src, dst, tag, part)
    std::map<Key, std::vector<obs::FlowEvent>> flows;
    std::map<Key, std::vector<obs::RecvEvent>> recvs;
    for (int r = 0; r < run.nranks; ++r) {
      const obs::RankLog& lg = run.logs[static_cast<std::size_t>(r)];
      for (const obs::FlowEvent& f : lg.flows())
        flows[{f.src, f.dst, f.tag, f.part}].push_back(f);
      for (const obs::RecvEvent& e : lg.recvs())
        recvs[{e.src, r, e.tag, e.part}].push_back(e);
    }
    ASSERT_FALSE(flows.empty());
    ASSERT_EQ(flows.size(), recvs.size());
    int arrive_diffs = 0, delay_diffs = 0;
    double delay = 0.0;
    for (const auto& [key, fs] : flows) {
      const auto it = recvs.find(key);
      ASSERT_NE(it, recvs.end());
      ASSERT_EQ(fs.size(), it->second.size());
      for (std::size_t i = 0; i < fs.size(); ++i) {
        const obs::RecvEvent& e = it->second[i];
        arrive_diffs += fs[i].arrive != e.arrive;
        delay_diffs += fs[i].fault_delay != e.fault_delay;
        delay += e.fault_delay;
      }
    }
    EXPECT_EQ(arrive_diffs, 0);
    EXPECT_EQ(delay_diffs, 0);
    EXPECT_GT(delay, 0.0);  // the schedule really delayed messages
  }
}

#endif  // BRICKX_OBS
