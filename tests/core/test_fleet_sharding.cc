// Fleet-scale state bounds outside the flow table: the controller's
// learned-MAC table, the enforcement rule cache and the device monitor's
// session table are all sharded and optionally LRU-capped. These tests pin
// the cap arithmetic, the eviction counters, and the seed-equivalence of
// shard count 1.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/device_monitor.h"
#include "core/enforcement.h"
#include "net/frame.h"
#include "sdn/controller.h"
#include "sdn/switch.h"

namespace sentinel::core {
namespace {

net::MacAddress Mac(std::uint64_t v) {
  return net::MacAddress({0x02, static_cast<std::uint8_t>(v >> 32),
                          static_cast<std::uint8_t>(v >> 24),
                          static_cast<std::uint8_t>(v >> 16),
                          static_cast<std::uint8_t>(v >> 8),
                          static_cast<std::uint8_t>(v)});
}

net::Frame Frame(std::uint64_t src, std::uint64_t dst, std::uint64_t ts = 0) {
  net::UdpDatagram udp;
  udp.src_port = 40000;
  udp.dst_port = 8000;
  udp.payload = {1};
  return net::BuildUdp4Frame(ts, Mac(src), Mac(dst),
                             net::Ipv4Address(10, 0, 0, 1),
                             net::Ipv4Address(10, 0, 0, 2), udp);
}

TEST(FleetSharding, ControllerMacTableBoundedByPerShardCap) {
  sdn::SoftwareSwitch sw;
  sw.AttachPort(1, [](const net::Frame&) {});
  sw.AttachPort(2, [](const net::Frame&) {});
  sdn::Controller controller(sdn::ControllerOptions{
      .learning_switch = true, .shard_count = 4,
      .max_learned_macs_per_shard = 8});
  sw.SetController(&controller);

  // 500 distinct stations appear; the table may hold at most 4*8 of them.
  for (std::uint64_t i = 0; i < 500; ++i) {
    const net::Frame frame = Frame(i, 0xffffffffffffull);
    controller.OnPacketIn(sw, 1, frame, net::ParseFrame(frame));
  }

  EXPECT_LE(controller.learned_mac_count(), 4u * 8u);
  EXPECT_GE(controller.macs_evicted_total(), 500u - 4u * 8u);
  EXPECT_EQ(controller.learned_mac_count() + controller.macs_evicted_total(),
            500u);
  EXPECT_EQ(controller.mac_table().size(), controller.learned_mac_count());
}

TEST(FleetSharding, ControllerUncappedLearnsEveryStation) {
  sdn::SoftwareSwitch sw;
  sw.AttachPort(1, [](const net::Frame&) {});
  sdn::Controller controller(sdn::ControllerOptions{.shard_count = 8});
  sw.SetController(&controller);
  for (std::uint64_t i = 0; i < 300; ++i) {
    const net::Frame frame = Frame(i, 0xffffffffffffull);
    controller.OnPacketIn(sw, 1, frame, net::ParseFrame(frame));
  }
  EXPECT_EQ(controller.learned_mac_count(), 300u);
  EXPECT_EQ(controller.macs_evicted_total(), 0u);
}

TEST(FleetSharding, EnforcementRuleCacheBoundedByPerShardCap) {
  EnforcementEngine engine(
      Mac(0xbeef), net::Ipv4Address(10, 0, 0, 1),
      EnforcementOptions{.shard_count = 4, .max_rules_per_shard = 16});

  for (std::uint64_t i = 0; i < 1000; ++i) {
    EnforcementRule rule;
    rule.device_mac = Mac(i);
    rule.level = IsolationLevel::kTrusted;
    rule.device_type = "type-" + std::to_string(i % 7);
    engine.Install(std::move(rule));
  }

  EXPECT_LE(engine.rule_count(), 4u * 16u);
  EXPECT_GE(engine.evicted_total(), 1000u - 4u * 16u);
  EXPECT_EQ(engine.rule_count() + engine.evicted_total(), 1000u);

  // The most recently installed device survives (exact LRU, recency =
  // install order here) and keeps its level; an evicted device falls back
  // to the strict default — fail-closed, never fail-open.
  EXPECT_EQ(engine.EffectiveLevel(Mac(999)), IsolationLevel::kTrusted);
  EXPECT_EQ(engine.EffectiveLevel(Mac(0)), IsolationLevel::kStrict);
  EXPECT_EQ(engine.Find(Mac(0)), nullptr);
}

TEST(FleetSharding, EnforcementReinstallRefreshesRecency) {
  EnforcementEngine engine(
      Mac(0xbeef), net::Ipv4Address(10, 0, 0, 1),
      EnforcementOptions{.shard_count = 1, .max_rules_per_shard = 4});
  const auto install = [&](std::uint64_t i) {
    EnforcementRule rule;
    rule.device_mac = Mac(i);
    rule.level = IsolationLevel::kTrusted;
    engine.Install(std::move(rule));
  };
  for (std::uint64_t i = 0; i < 4; ++i) install(i);
  // Touch device 0: it becomes most recent, so the next overflow evicts
  // device 1, not 0.
  install(0);
  install(100);
  EXPECT_NE(engine.Find(Mac(0)), nullptr);
  EXPECT_EQ(engine.Find(Mac(1)), nullptr);
  EXPECT_EQ(engine.evicted_total(), 1u);
}

TEST(FleetSharding, MonitorSessionTableBoundedByPerShardCap) {
  DeviceMonitor monitor(DeviceMonitorOptions{
      .shard_count = 4, .max_sessions_per_shard = 8});

  // 400 devices chatter; the session table may track at most 4*8 at once.
  for (std::uint64_t i = 0; i < 400; ++i) {
    const auto packet =
        net::ParseFrame(Frame(i, 0xbeef, /*ts=*/i * 1'000'000));
    monitor.Observe(packet);
  }
  EXPECT_LE(monitor.tracked_count(), 4u * 8u);
  EXPECT_GE(monitor.evicted_total(), 400u - 4u * 8u);
  // The most recently active device is still tracked; the earliest was
  // evicted and would be fingerprinted anew on return.
  EXPECT_TRUE(monitor.IsKnown(Mac(399)));
  EXPECT_FALSE(monitor.IsKnown(Mac(0)));
}

TEST(FleetSharding, ShardCountOneMatchesMultiShardDecisions) {
  // The same install stream against shard counts 1 and 8 (no caps) must
  // produce identical policy answers for every device — sharding is a
  // layout choice, not a semantic one.
  EnforcementEngine a(Mac(0xbeef), net::Ipv4Address(10, 0, 0, 1),
                      EnforcementOptions{.shard_count = 1});
  EnforcementEngine b(Mac(0xbeef), net::Ipv4Address(10, 0, 0, 1),
                      EnforcementOptions{.shard_count = 8});
  for (std::uint64_t i = 0; i < 200; ++i) {
    EnforcementRule rule;
    rule.device_mac = Mac(i * 977);
    rule.level = static_cast<IsolationLevel>(i % 3);
    EnforcementRule copy = rule;
    a.Install(std::move(rule));
    b.Install(std::move(copy));
  }
  EXPECT_EQ(a.rule_count(), b.rule_count());
  for (std::uint64_t i = 0; i < 220; ++i)
    EXPECT_EQ(a.EffectiveLevel(Mac(i * 977)), b.EffectiveLevel(Mac(i * 977)));
}

}  // namespace
}  // namespace sentinel::core
