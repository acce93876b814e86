// Churn-scenario invariants: the soak workload must be reproducible, its
// behavior invariant under shard count (the sharding determinism contract
// the soak bench and CI smoke job rely on), and its bounded-memory tiers
// must actually engage when caps are set.
#include <gtest/gtest.h>

#include "netsim/churn.h"

namespace sentinel::netsim {
namespace {

ChurnConfig SmallConfig() {
  ChurnConfig config;
  config.device_count = 48;
  config.session_count = 400;
  config.chatter_packets = 3;
  config.port_count = 8;
  config.seed = 21;
  return config;
}


/// Four shards with every bounded-memory tier capped.
ChurnConfig CappedConfig() {
  ChurnConfig config = SmallConfig();
  config.device_count = 128;
  config.session_count = 1200;
  config.gateway.shard_count = 4;
  config.gateway.max_flow_rules_per_shard = 8;
  config.gateway.max_learned_macs_per_shard = 4;
  config.gateway.max_enforcement_rules_per_shard = 8;
  // Session cap = steady-state population: eviction then lands on
  // fingerprinted leftovers (the tier prefers them), not on devices whose
  // setup phase is still being captured — so identification keeps running.
  config.gateway.max_sessions_per_shard = 32;
  return config;
}

TEST(ChurnScenario, SameSeedReproducesExactly) {
  ScriptedAssessor assessor(5);
  const ChurnReport a = RunChurnScenario(SmallConfig(), assessor);
  const ChurnReport b = RunChurnScenario(SmallConfig(), assessor);
  EXPECT_EQ(a.verdict_hash, b.verdict_hash);
  EXPECT_EQ(a.rule_hash, b.rule_hash);
  EXPECT_EQ(a.frames_injected, b.frames_injected);
  EXPECT_EQ(a.identifications, b.identifications);
  EXPECT_EQ(a.incidents, b.incidents);
  EXPECT_GT(a.frames_injected, 0u);
  EXPECT_GT(a.identifications, 0u);
}

TEST(ChurnScenario, VerdictsInvariantUnderShardCount) {
  ScriptedAssessor assessor(5);
  ChurnConfig seed_config = SmallConfig();
  seed_config.gateway.shard_count = 1;
  const ChurnReport seed = RunChurnScenario(seed_config, assessor);

  for (const std::size_t shards : {2u, 8u}) {
    ChurnConfig config = SmallConfig();
    config.gateway.shard_count = shards;
    const ChurnReport report = RunChurnScenario(config, assessor);
    EXPECT_EQ(report.verdict_hash, seed.verdict_hash) << shards;
    EXPECT_EQ(report.rule_hash, seed.rule_hash) << shards;
    EXPECT_EQ(report.frames_injected, seed.frames_injected) << shards;
    EXPECT_EQ(report.identifications, seed.identifications) << shards;
    EXPECT_EQ(report.incidents, seed.incidents) << shards;
    EXPECT_EQ(report.flow_rules, seed.flow_rules) << shards;
    EXPECT_EQ(report.enforcement_rules, seed.enforcement_rules) << shards;
    EXPECT_EQ(report.total_evictions(), 0u) << shards;
  }
}

TEST(ChurnScenario, DifferentSeedsDiverge) {
  ScriptedAssessor assessor(5);
  ChurnConfig config = SmallConfig();
  const ChurnReport a = RunChurnScenario(config, assessor);
  config.seed = 22;
  const ChurnReport b = RunChurnScenario(config, assessor);
  EXPECT_NE(a.verdict_hash, b.verdict_hash);
}

TEST(ChurnScenario, CapsEngageEveryEvictionTier) {
  ScriptedAssessor assessor(5);
  const ChurnReport report = RunChurnScenario(CappedConfig(), assessor);

  EXPECT_GT(report.flow_evictions, 0u);
  EXPECT_GT(report.monitor_evictions, 0u);
  EXPECT_GT(report.controller_evictions, 0u);
  EXPECT_GT(report.enforcement_evictions, 0u);
  // Residual state respects the caps.
  EXPECT_LE(report.flow_rules, 4u * 8u);
  EXPECT_LE(report.tracked_devices, 4u * 32u);
  EXPECT_LE(report.learned_macs, 4u * 4u);
  EXPECT_LE(report.enforcement_rules, 4u * 8u);
}

// Goldens recorded before the gateway's MAC-keyed tables shared one
// implementation. The shard-count differential above compares runs with
// each other, so a change in which entry a cap evicts would still pass it;
// these pin the absolute outcome, eviction order included.
struct ChurnGolden {
  std::uint64_t verdict_hash;
  std::uint64_t rule_hash;
  std::size_t tracked_devices;
  std::size_t enforcement_rules;
  std::size_t flow_rules;
  std::size_t learned_macs;
  std::uint64_t flow_evictions;
  std::uint64_t monitor_evictions;
  std::uint64_t controller_evictions;
  std::uint64_t enforcement_evictions;
};

void ExpectGolden(const ChurnReport& report, const ChurnGolden& golden) {
  EXPECT_EQ(report.verdict_hash, golden.verdict_hash);
  EXPECT_EQ(report.rule_hash, golden.rule_hash);
  EXPECT_EQ(report.tracked_devices, golden.tracked_devices);
  EXPECT_EQ(report.enforcement_rules, golden.enforcement_rules);
  EXPECT_EQ(report.flow_rules, golden.flow_rules);
  EXPECT_EQ(report.learned_macs, golden.learned_macs);
  EXPECT_EQ(report.flow_evictions, golden.flow_evictions);
  EXPECT_EQ(report.monitor_evictions, golden.monitor_evictions);
  EXPECT_EQ(report.controller_evictions, golden.controller_evictions);
  EXPECT_EQ(report.enforcement_evictions, golden.enforcement_evictions);
}

TEST(ChurnScenario, GoldenShardEightUncapped) {
  ScriptedAssessor assessor(5);
  ChurnConfig config = SmallConfig();
  config.gateway.shard_count = 8;
  ExpectGolden(RunChurnScenario(config, assessor),
               {.verdict_hash = 13783770074894447292ull,
                .rule_hash = 15662346854235615608ull,
                .tracked_devices = 168,
                .enforcement_rules = 266,
                .flow_rules = 82,
                .learned_macs = 37,
                .flow_evictions = 0,
                .monitor_evictions = 0,
                .controller_evictions = 0,
                .enforcement_evictions = 0});
}

TEST(ChurnScenario, GoldenCapsEngageEveryEvictionTier) {
  ScriptedAssessor assessor(5);
  ExpectGolden(RunChurnScenario(CappedConfig(), assessor),
               {.verdict_hash = 5554448158546643447ull,
                .rule_hash = 16927573475249120095ull,
                .tracked_devices = 125,
                .enforcement_rules = 32,
                .flow_rules = 32,
                .learned_macs = 12,
                .flow_evictions = 992,
                .monitor_evictions = 1048,
                .controller_evictions = 1,
                .enforcement_evictions = 1148});
}

TEST(ChurnScenario, GoldenTightMonitorCap) {
  // Sixteen sessions per shard, half the steady-state population: the
  // monitor evicts thousands of sessions, fingerprinted and mid-capture
  // alike, so its preferred-victim scan decides which device survives.
  ScriptedAssessor assessor(5);
  ChurnConfig config = CappedConfig();
  config.gateway.max_sessions_per_shard = 16;
  ExpectGolden(RunChurnScenario(config, assessor),
               {.verdict_hash = 17305267896084584793ull,
                .rule_hash = 1813056835208979819ull,
                .tracked_devices = 63,
                .enforcement_rules = 32,
                .flow_rules = 29,
                .learned_macs = 0,
                .flow_evictions = 79,
                .monitor_evictions = 2263,
                .controller_evictions = 0,
                .enforcement_evictions = 305});
}

}  // namespace
}  // namespace sentinel::netsim
