// Unit tests for the src/check conformance subsystem: config draw/parse/
// shrink mechanics, the differential oracle on known-good configs, and the
// fault-injection meta-property — including the deliberate negative test
// that an injected payload corruption is *detected and reported*, never
// silently absorbed.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "check/fuzz.h"
#include "check/oracle.h"
#include "common/rng.h"

namespace brickx::conformance {
namespace {

FuzzConfig small_config() {
  FuzzConfig cfg;
  cfg.seed = 42;
  cfg.rank_dims = {2, 1, 1};
  cfg.brick = {4, 4, 4};
  cfg.ghost = 4;
  cfg.subdomain = {12, 12, 12};  // > 2 * ghost: full-region regime
  cfg.rounds = 2;
  return cfg;
}

// ------------------------------------------------------------- configs ----

TEST(FuzzConfigs, DrawnConfigsAreAlwaysValid) {
  for (std::uint64_t s = 1; s <= 200; ++s) {
    Rng rng(s);
    const FuzzConfig cfg = draw_config(rng);
    EXPECT_TRUE(config_valid(cfg)) << serialize_config(cfg);
    EXPECT_GE(cfg.nranks(), 1);
    EXPECT_LE(cfg.nranks(), 8);
  }
}

TEST(FuzzConfigs, DrawIsDeterministicInTheSeed) {
  Rng a(7), b(7);
  EXPECT_EQ(serialize_config(draw_config(a)), serialize_config(draw_config(b)));
}

TEST(FuzzConfigs, DrawCoversOverlapButNeverWithPersistent) {
  int overlap_draws = 0;
  for (std::uint64_t s = 1; s <= 200; ++s) {
    Rng rng(s);
    const FuzzConfig cfg = draw_config(rng);
    if (cfg.overlap) ++overlap_draws;
    EXPECT_FALSE(cfg.overlap && cfg.persistent) << serialize_config(cfg);
  }
  EXPECT_GT(overlap_draws, 20);  // the axis is actually exercised
}

TEST(FuzzConfigs, SerializeParseRoundTrips) {
  for (std::uint64_t s = 1; s <= 50; ++s) {
    Rng rng(s * 31);
    const FuzzConfig cfg = draw_config(rng);
    const auto back = parse_config(serialize_config(cfg));
    ASSERT_TRUE(back.has_value()) << serialize_config(cfg);
    EXPECT_EQ(serialize_config(*back), serialize_config(cfg));
  }
}

TEST(FuzzConfigs, ParseRejectsMalformedAndInvalid) {
  EXPECT_FALSE(parse_config("gibberish").has_value());
  EXPECT_FALSE(parse_config("seed=1,unknown=2").has_value());
  // Structurally invalid: ghost not a multiple of the brick extent.
  EXPECT_FALSE(
      parse_config("seed=1,ranks=1x1x1,brick=8x8x8,ghost=4,sub=8x8x8,"
                   "rounds=1,page=0,rpn=1,fabric=flat,map=block")
          .has_value());
  // Subdomain below 2 * ghost.
  EXPECT_FALSE(
      parse_config("seed=1,ranks=1x1x1,brick=4x4x4,ghost=4,sub=4x4x4,"
                   "rounds=1,page=0,rpn=1,fabric=flat,map=block")
          .has_value());
  // overlap and persistent are mutually exclusive replay mechanisms.
  EXPECT_FALSE(
      parse_config("seed=1,ranks=1x1x1,brick=4x4x4,ghost=4,sub=8x8x8,"
                   "rounds=1,page=0,rpn=1,fabric=flat,map=block,persist=1,"
                   "transport=flat,overlap=1")
          .has_value());
}

// -------------------------------------------------------------- shrink ----

TEST(Shrink, ReachesTheMinimalConfigForAnAlwaysFailingPredicate) {
  Rng rng(3);
  FuzzConfig big = draw_config(rng);
  big.rounds = 3;
  const FuzzConfig small =
      shrink(big, [](const FuzzConfig&) { return true; }, 256);
  EXPECT_EQ(small.rounds, 1);
  EXPECT_EQ(small.nranks(), 1);
  EXPECT_EQ(small.page_size, 0u);
  EXPECT_EQ(small.fabric, netsim::FabricKind::Flat);
  for (int a = 0; a < 3; ++a) {
    EXPECT_EQ(small.brick[a], 2);
    EXPECT_EQ(small.subdomain[a], 2 * small.ghost);
  }
  EXPECT_TRUE(config_valid(small));
}

TEST(Shrink, PreservesThePropertyThePredicateTracks) {
  // A failure that needs at least 2 ranks along axis 0 must not be shrunk
  // past it.
  FuzzConfig cfg = small_config();
  cfg.rank_dims = {4, 1, 1};
  cfg.rounds = 3;
  const FuzzConfig small = shrink(
      cfg, [](const FuzzConfig& c) { return c.rank_dims[0] >= 2; }, 256);
  EXPECT_EQ(small.rank_dims[0], 2);
  EXPECT_EQ(small.rounds, 1);
}

TEST(Shrink, RespectsTheEvaluationBudget) {
  int evals = 0;
  FuzzConfig cfg = small_config();
  cfg.rounds = 3;
  (void)shrink(
      cfg,
      [&](const FuzzConfig&) {
        ++evals;
        return true;
      },
      5);
  EXPECT_LE(evals, 5);
}

TEST(Shrink, ProposesOnlyValidConfigs) {
  Rng rng(11);
  const FuzzConfig cfg = draw_config(rng);
  (void)shrink(
      cfg,
      [](const FuzzConfig& c) {
        EXPECT_TRUE(config_valid(c)) << serialize_config(c);
        return false;
      },
      256);
}

// -------------------------------------------------------------- oracle ----

TEST(Oracle, ConformingImplementationsPass) {
  const OracleReport rep = run_oracle(small_config());
  EXPECT_TRUE(rep.ok) << rep.diagnosis;
  EXPECT_EQ(rep.methods_compared, 5);
  EXPECT_EQ(rep.basic_msgs, 98);
  EXPECT_EQ(rep.layout_msgs, 42);
  EXPECT_EQ(rep.memmap_msgs, 26);
  // Payload per exchange is exactly the ghost-frame volume.
  EXPECT_EQ(rep.payload_bytes, (20 * 20 * 20 - 12 * 12 * 12) * 8);
  EXPECT_GE(rep.memmap_wire_bytes, rep.payload_bytes);
}

TEST(Oracle, DegenerateSubdomainStillConforms) {
  FuzzConfig cfg = small_config();
  cfg.subdomain = {8, 8, 8};  // == 2 * ghost: empty interior slabs
  const OracleReport rep = run_oracle(cfg);
  EXPECT_TRUE(rep.ok) << rep.diagnosis;
  EXPECT_LT(rep.basic_msgs, 98);  // empty regions drop messages
  EXPECT_EQ(rep.memmap_msgs, 26);
}

TEST(Oracle, PagePaddingIsAccounted) {
  FuzzConfig cfg = small_config();
  cfg.page_size = 65536;
  const OracleReport rep = run_oracle(cfg);
  EXPECT_TRUE(rep.ok) << rep.diagnosis;
  EXPECT_GT(rep.memmap_wire_bytes, rep.payload_bytes);
}

TEST(Oracle, RunsOnContentionFabrics) {
  FuzzConfig cfg = small_config();
  cfg.rank_dims = {2, 2, 1};
  cfg.ranks_per_node = 2;
  cfg.fabric = netsim::FabricKind::Dragonfly;
  cfg.mapping = netsim::MapKind::RoundRobin;
  const OracleReport rep = run_oracle(cfg);
  EXPECT_TRUE(rep.ok) << rep.diagnosis;
}

TEST(Oracle, PartitionedReplayConforms) {
  // overlap=1 reruns the brick methods over partitioned requests (pready
  // in order, arrived in reverse) and additionally diffs Layout against
  // its own bulk replay inside the oracle.
  FuzzConfig cfg = small_config();
  cfg.overlap = true;
  const OracleReport rep = run_oracle(cfg);
  EXPECT_TRUE(rep.ok) << rep.diagnosis;
  EXPECT_EQ(rep.layout_msgs, 42);
  EXPECT_EQ(rep.memmap_msgs, 26);
}

TEST(Oracle, PartitionedReplayConformsOnDegenerateSubdomain) {
  // Empty surface regions (subdomain == 2 * ghost) must simply not become
  // partitions — zero-size entries are rejected at init.
  FuzzConfig cfg = small_config();
  cfg.subdomain = {8, 8, 8};
  cfg.overlap = true;
  const OracleReport rep = run_oracle(cfg);
  EXPECT_TRUE(rep.ok) << rep.diagnosis;
}

TEST(Oracle, PartitionedReplayConformsWithPaddingAndTransports) {
  FuzzConfig cfg = small_config();
  cfg.overlap = true;
  cfg.page_size = 16384;
  cfg.ranks_per_node = 2;
  cfg.transport = transport::Kind::ShmAgg;
  const OracleReport rep = run_oracle(cfg);
  EXPECT_TRUE(rep.ok) << rep.diagnosis;
}

// -------------------------------------------------------- fault oracle ----

TEST(FaultOracle, InjectedCorruptionIsDetectedAndReported) {
  // The negative test: a schedule that flips one byte in every payload
  // must surface as a "fault detected" diagnostic — the oracle fails if
  // the corruption is silently absorbed into the exchanged data.
  mpi::FaultSpec spec;
  spec.corrupt = 1.0;
  spec.seed = 5;
  const FaultOracleReport rep = run_fault_oracle(small_config(), spec);
  EXPECT_TRUE(rep.ok) << rep.diagnosis;
  EXPECT_TRUE(rep.error_raised);
  EXPECT_TRUE(rep.fault_diagnosed);
  EXPECT_GE(rep.counts.detected, 1);
  EXPECT_GE(rep.counts.corrupted, 1);
}

TEST(FaultOracle, DropAndTruncateAreDetected) {
  for (double mpi::FaultSpec::* kind :
       {&mpi::FaultSpec::drop, &mpi::FaultSpec::truncate}) {
    mpi::FaultSpec spec;
    spec.*kind = 0.5;
    spec.seed = 9;
    const FaultOracleReport rep = run_fault_oracle(small_config(), spec);
    EXPECT_TRUE(rep.ok) << rep.diagnosis;
    EXPECT_TRUE(rep.error_raised);
    EXPECT_TRUE(rep.fault_diagnosed);
  }
}

TEST(FaultOracle, DelayOnlyScheduleIsInvisibleInTheData) {
  // Acceptance property: delay-only schedules leave every exchanged byte
  // identical and only move virtual time (the oracle compares frames
  // bitwise against the fault-free reference run internally).
  mpi::FaultSpec spec;
  spec.delay = 1.0;
  spec.max_delay = 1e-3;
  spec.seed = 77;
  FuzzConfig cfg = small_config();
  cfg.rounds = 3;
  const FaultOracleReport rep = run_fault_oracle(cfg, spec);
  EXPECT_TRUE(rep.ok) << rep.diagnosis;
  EXPECT_FALSE(rep.error_raised);
  EXPECT_EQ(rep.counts.detected, 0);
  EXPECT_EQ(rep.counts.delayed, rep.counts.messages);
}

TEST(FaultOracle, ReorderOnlyScheduleIsBenign) {
  mpi::FaultSpec spec;
  spec.reorder = 0.5;
  spec.delay = 0.2;
  spec.seed = 13;
  const FaultOracleReport rep = run_fault_oracle(small_config(), spec);
  EXPECT_TRUE(rep.ok) << rep.diagnosis;
  EXPECT_FALSE(rep.error_raised);
}

TEST(FaultOracle, BenignFaultsOnIndividualPartitionsStayBenign) {
  // Under overlap the fault streams are per partition: reorder holds one
  // partition's envelope back, delay shifts another's arrival — data must
  // still assemble bitwise-identically to the fault-free partitioned run.
  mpi::FaultSpec spec;
  spec.reorder = 0.3;
  spec.delay = 0.5;
  spec.seed = 31;
  FuzzConfig cfg = small_config();
  cfg.overlap = true;
  cfg.rounds = 3;
  const FaultOracleReport rep = run_fault_oracle(cfg, spec);
  EXPECT_TRUE(rep.ok) << rep.diagnosis;
  EXPECT_FALSE(rep.error_raised);
  EXPECT_EQ(rep.counts.detected, 0);
  EXPECT_GT(rep.counts.injected(), 0);
}

TEST(FaultOracle, ReorderUnderAggregationIsBenign) {
  // Under shm-agg a reordered sub still rides its own generation's frame
  // with its own arrival; only its delivery moves behind the frame's other
  // subs. A sub displaced into a later frame would break the aggregator's
  // equal-commit-count liveness rule and could hang the run.
  mpi::FaultSpec spec;
  spec.reorder = 0.3;
  spec.seed = 13;
  for (int rpn : {2, 4}) {
    for (bool overlap : {false, true}) {
      FuzzConfig cfg = small_config();
      cfg.rank_dims = {2, 2, 2};
      cfg.rounds = 3;
      cfg.ranks_per_node = rpn;
      cfg.transport = transport::Kind::ShmAgg;
      cfg.overlap = overlap;
      SCOPED_TRACE(serialize_config(cfg));
      const FaultOracleReport rep = run_fault_oracle(cfg, spec);
      EXPECT_TRUE(rep.ok) << rep.diagnosis;
      EXPECT_FALSE(rep.error_raised);
      EXPECT_GT(rep.counts.reordered, 0);
    }
  }
}

TEST(FaultOracle, CorruptedPartitionIsDetectedNotSilent) {
  mpi::FaultSpec spec;
  spec.corrupt = 0.2;
  spec.seed = 17;
  FuzzConfig cfg = small_config();
  cfg.overlap = true;
  const FaultOracleReport rep = run_fault_oracle(cfg, spec);
  EXPECT_TRUE(rep.ok) << rep.diagnosis;
  EXPECT_TRUE(rep.error_raised);
  EXPECT_TRUE(rep.fault_diagnosed);
}

TEST(FaultOracle, LowProbabilityCorruptionStillNeverSlipsThrough) {
  // Sparse corruption over several seeds: whatever the schedule does, the
  // meta-property must hold — either nothing corrupting fired, or it was
  // detected/quarantined.
  for (std::uint64_t s = 1; s <= 6; ++s) {
    mpi::FaultSpec spec;
    spec.corrupt = 0.02;
    spec.duplicate = 0.02;
    spec.seed = s;
    FuzzConfig cfg = small_config();
    cfg.rounds = 3;
    const FaultOracleReport rep = run_fault_oracle(cfg, spec);
    EXPECT_TRUE(rep.ok) << rep.diagnosis << " (seed " << s << ")";
  }
}

}  // namespace
}  // namespace brickx::conformance
