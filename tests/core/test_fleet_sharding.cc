// Fleet-scale state bounds outside the flow table: the controller's
// learned-MAC table, the enforcement rule cache and the device monitor's
// session table are all sharded and optionally LRU-capped. These tests pin
// the cap arithmetic, the eviction counters, the monitor's preferred
// victim, the seed-equivalence of shard count 1, and that concurrent
// ingress through one gateway reaches the one-thread outcome, and stays
// bounded when a rule-cache cap evicts rules other threads are reading.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/device_monitor.h"
#include "core/enforcement.h"
#include "core/gateway.h"
#include "net/frame.h"
#include "netsim/churn.h"
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
      .shard_count = 4, .max_learned_macs_per_shard = 8});
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

/// One packet from `mac`; two packets fingerprint a device under
/// PreferredVictimMonitor's setup config.
void ObserveFrom(DeviceMonitor& monitor, std::uint64_t mac) {
  monitor.Observe(net::ParseFrame(Frame(mac, 0xbeef)));
}

DeviceMonitor PreferredVictimMonitor(std::size_t cap) {
  capture::SetupPhaseConfig setup;
  setup.max_packets = 2;
  return DeviceMonitor(DeviceMonitorOptions{
      .setup = setup, .shard_count = 1, .max_sessions_per_shard = cap});
}

TEST(FleetSharding, MonitorEvictsFingerprintedSessionAmongColdestFirst) {
  DeviceMonitor monitor = PreferredVictimMonitor(10);
  ObserveFrom(monitor, 1);  // oldest, still collecting
  ObserveFrom(monitor, 2);
  ObserveFrom(monitor, 2);  // fingerprinted, second coldest
  for (std::uint64_t mac = 10; mac < 18; ++mac) ObserveFrom(monitor, mac);
  ASSERT_EQ(monitor.tracked_count(), 10u);

  ObserveFrom(monitor, 100);  // overflows the cap
  EXPECT_EQ(monitor.evicted_total(), 1u);
  EXPECT_FALSE(monitor.IsKnown(Mac(2)));
  EXPECT_TRUE(monitor.IsKnown(Mac(1)));
}

TEST(FleetSharding, MonitorPrefersNoFingerprintedSessionBeyondScanDepth) {
  DeviceMonitor monitor = PreferredVictimMonitor(9);
  // Eight collecting sessions are the coldest; the fingerprinted one is
  // ninth from the cold end, past the scan.
  for (std::uint64_t mac = 10; mac < 18; ++mac) ObserveFrom(monitor, mac);
  ObserveFrom(monitor, 2);
  ObserveFrom(monitor, 2);
  ASSERT_EQ(monitor.tracked_count(), 9u);

  ObserveFrom(monitor, 100);
  EXPECT_EQ(monitor.evicted_total(), 1u);
  EXPECT_FALSE(monitor.IsKnown(Mac(10)));
  EXPECT_TRUE(monitor.IsKnown(Mac(11)));
  EXPECT_TRUE(monitor.IsKnown(Mac(2)));
}

/// A device's frames through the gateway: a setup burst to the gateway's
/// DNS, then, after the idle gap ends the capture, frames to three public
/// endpoints that policy allows or drops. Sizes and ports vary by device
/// so the scripted assessor spreads the fleet over every level.
std::vector<net::Frame> DeviceSession(std::uint64_t device,
                                      const net::MacAddress& gateway_mac) {
  constexpr std::size_t kSetupFrames = 15;
  constexpr std::size_t kFrames = 20;
  std::vector<net::Frame> frames;
  for (std::size_t i = 0; i < kFrames; ++i) {
    const bool setup = i < kSetupFrames;
    const std::uint64_t ts =
        i * 100'000'000 + (setup ? 0 : 10'000'000'000);  // idle gap
    net::UdpDatagram udp;
    udp.src_port = static_cast<std::uint16_t>(40000 + device % 7);
    udp.dst_port = setup ? 53 : static_cast<std::uint16_t>(8000 + i % 3);
    udp.payload.assign(1 + (device * 13 + i * 5) % 64,
                       static_cast<std::uint8_t>(device));
    const net::Ipv4Address dst =
        setup ? net::Ipv4Address(192, 168, 1, 1)
              : net::Ipv4Address(52, 8, static_cast<std::uint8_t>(i % 3),
                                 static_cast<std::uint8_t>(device % 5));
    frames.push_back(net::BuildUdp4Frame(
        ts, Mac(device), gateway_mac,
        net::Ipv4Address(10, 1, static_cast<std::uint8_t>(device >> 8),
                         static_cast<std::uint8_t>(device)),
        dst, udp));
  }
  return frames;
}

struct GatewayOutcome {
  std::vector<IsolationLevel> levels;  // per device, in device order
  std::size_t rule_count = 0;
  std::uint64_t rules_evicted = 0;
  std::uint64_t drops_installed = 0;
  std::size_t incidents = 0;
  std::size_t flow_rules = 0;
};

/// Drives `threads` x `devices_per_thread` device sessions through one
/// gateway at shard count 8; each thread owns its devices, so every
/// device's frames arrive in order. `max_rules_per_shard` caps the
/// enforcement-rule cache (0: unbounded).
GatewayOutcome RunConcurrentIngress(std::size_t threads,
                                    std::size_t devices_per_thread,
                                    std::size_t max_rules_per_shard = 0) {
  netsim::ScriptedAssessor assessor(5);
  SecurityGatewayConfig config;
  config.shard_count = 8;
  config.max_enforcement_rules_per_shard = max_rules_per_shard;
  SecurityGateway gateway(assessor, config);
  gateway.AttachWan([](const net::Frame&) {});
  gateway.AttachPort(2, [](const net::Frame&) {});
  // The incident path reads the source's device type on every drop.
  std::atomic<std::size_t> incidents{0};
  gateway.sentinel().OnIncident([&incidents](const IncidentEvent&) {
    incidents.fetch_add(1, std::memory_order_relaxed);
  });

  const std::size_t device_count = threads * devices_per_thread;
  std::vector<std::vector<net::Frame>> sessions;
  for (std::uint64_t d = 0; d < device_count; ++d)
    sessions.push_back(DeviceSession(d + 1, config.gateway_mac));

  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t d = t; d < device_count; d += threads)
        for (const net::Frame& frame : sessions[d]) gateway.Ingress(2, frame);
    });
  }
  for (std::thread& worker : workers) worker.join();

  GatewayOutcome outcome;
  for (std::uint64_t d = 0; d < device_count; ++d)
    outcome.levels.push_back(gateway.enforcement().EffectiveLevel(Mac(d + 1)));
  outcome.rule_count = gateway.enforcement().rule_count();
  outcome.rules_evicted = gateway.enforcement().evicted_total();
  outcome.drops_installed = gateway.sentinel().drops_installed();
  outcome.incidents = incidents.load(std::memory_order_relaxed);
  outcome.flow_rules = gateway.datapath().flow_table().size();
  return outcome;
}

TEST(FleetSharding, ConcurrentGatewayIngressMatchesOneThread) {
  const GatewayOutcome one = RunConcurrentIngress(1, 800);
  const GatewayOutcome four = RunConcurrentIngress(4, 200);
  EXPECT_EQ(four.levels, one.levels);
  EXPECT_EQ(four.rule_count, one.rule_count);
  EXPECT_EQ(four.drops_installed, one.drops_installed);
  EXPECT_EQ(four.incidents, one.incidents);
  EXPECT_EQ(four.flow_rules, one.flow_rules);
  // The scenario exercises every policy path it compares.
  EXPECT_EQ(one.rule_count, 800u);
  EXPECT_GT(one.drops_installed, 0u);
  EXPECT_GT(one.flow_rules, one.drops_installed);
  for (const IsolationLevel level :
       {IsolationLevel::kStrict, IsolationLevel::kRestricted,
        IsolationLevel::kTrusted}) {
    EXPECT_NE(std::count(one.levels.begin(), one.levels.end(), level), 0)
        << ToString(level);
  }

  // A four-rule cap per shard: installs and cap evictions on each thread
  // race the packet-in path's rule reads (flow-rule cookie, incident
  // device type) on the others. Which rules survive depends on the
  // interleaving, so only the bounds are compared.
  const GatewayOutcome capped = RunConcurrentIngress(4, 200, 4);
  EXPECT_LE(capped.rule_count, 8u * 4u);
  EXPECT_EQ(capped.rule_count + capped.rules_evicted, 800u);
  EXPECT_EQ(capped.incidents, capped.drops_installed);
  EXPECT_GT(capped.drops_installed, 0u);
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
