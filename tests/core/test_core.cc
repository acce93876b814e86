// Core IoT Sentinel tests: isolation rules, vulnerability DB, enforcement
// policy, device monitor and the two-stage identifier.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/device_identifier.h"
#include "core/device_monitor.h"
#include "core/enforcement.h"
#include "core/vulnerability_db.h"
#include "devices/simulator.h"

namespace sentinel::core {
namespace {

const net::MacAddress kGwMac = *net::MacAddress::Parse("02:00:5e:00:00:01");
const net::Ipv4Address kGwIp(192, 168, 1, 1);
const net::MacAddress kDevA = *net::MacAddress::Parse("50:c7:bf:00:00:0a");
const net::MacAddress kDevB = *net::MacAddress::Parse("b0:c5:54:00:00:0b");

TEST(IsolationLevel, OverlayMapping) {
  EXPECT_EQ(OverlayOf(IsolationLevel::kStrict), Overlay::kUntrusted);
  EXPECT_EQ(OverlayOf(IsolationLevel::kRestricted), Overlay::kUntrusted);
  EXPECT_EQ(OverlayOf(IsolationLevel::kTrusted), Overlay::kTrusted);
  EXPECT_EQ(ToString(IsolationLevel::kRestricted), "restricted");
}

TEST(EnforcementRule, HashChangesWithContent) {
  EnforcementRule rule;
  rule.device_mac = kDevA;
  rule.level = IsolationLevel::kRestricted;
  rule.allowed_endpoints = {net::Ipv4Address(52, 1, 2, 3)};
  const auto h1 = rule.Hash();
  rule.level = IsolationLevel::kTrusted;
  const auto h2 = rule.Hash();
  rule.allowed_endpoints.push_back(net::Ipv4Address(52, 9, 9, 9));
  const auto h3 = rule.Hash();
  EXPECT_NE(h1, h2);
  EXPECT_NE(h2, h3);
}

TEST(EnforcementRule, AllowsEndpointPerLevel) {
  EnforcementRule rule;
  rule.device_mac = kDevA;
  rule.allowed_endpoints = {net::Ipv4Address(52, 1, 2, 3)};
  rule.level = IsolationLevel::kStrict;
  EXPECT_FALSE(rule.AllowsEndpoint(net::Ipv4Address(52, 1, 2, 3)));
  rule.level = IsolationLevel::kRestricted;
  EXPECT_TRUE(rule.AllowsEndpoint(net::Ipv4Address(52, 1, 2, 3)));
  EXPECT_FALSE(rule.AllowsEndpoint(net::Ipv4Address(52, 9, 9, 9)));
  rule.level = IsolationLevel::kTrusted;
  EXPECT_TRUE(rule.AllowsEndpoint(net::Ipv4Address(52, 9, 9, 9)));
}

TEST(EnforcementRule, ToStringMatchesFig2Shape) {
  EnforcementRule rule;
  rule.device_mac = *net::MacAddress::Parse("13:73:74:7e:a9:c2");
  rule.level = IsolationLevel::kRestricted;
  rule.device_type = "EdimaxPlug1101W";
  rule.allowed_endpoints = {net::Ipv4Address(52, 1, 2, 3)};
  rule.allowed_endpoint_names = {"sp.myedimax.com"};
  const auto text = rule.ToString();
  EXPECT_NE(text.find("13:73:74:7e:a9:c2"), std::string::npos);
  EXPECT_NE(text.find("restricted"), std::string::npos);
  EXPECT_NE(text.find("sp.myedimax.com"), std::string::npos);
  EXPECT_NE(text.find("Hash:"), std::string::npos);
}

TEST(VulnerabilityDb, SeededFromCatalog) {
  const auto db = VulnerabilityDb::SeedFromCatalog();
  EXPECT_GT(db.size(), 0u);
  // Catalog marks the Edimax plugs vulnerable and the TP-Link plugs clean.
  EXPECT_TRUE(db.HasVulnerabilities("EdimaxPlug1101W"));
  EXPECT_FALSE(db.HasVulnerabilities("TP-LinkPlugHS110"));
  const auto advisories = db.Query("EdimaxPlug1101W");
  ASSERT_FALSE(advisories.empty());
  EXPECT_NE(advisories[0].cve_id.find("CVE-2016-"), std::string::npos);
  ASSERT_TRUE(db.MaxSeverity("EdimaxPlug1101W").has_value());
  EXPECT_GT(*db.MaxSeverity("EdimaxPlug1101W"), 8.0);
  EXPECT_FALSE(db.MaxSeverity("TP-LinkPlugHS110").has_value());
}

class EnforcementPolicy : public ::testing::Test {
 protected:
  EnforcementPolicy() : engine_(kGwMac, kGwIp) {}

  static net::ParsedPacket Packet(const net::MacAddress& src,
                                  const net::MacAddress& dst,
                                  net::Ipv4Address sip, net::Ipv4Address dip) {
    net::ParsedPacket p;
    p.src_mac = src;
    p.dst_mac = dst;
    p.protocols.Set(net::Protocol::kIp);
    p.protocols.Set(net::Protocol::kTcp);
    p.src_ip = net::IpAddress(sip);
    p.dst_ip = net::IpAddress(dip);
    p.src_port = 50000;
    p.dst_port = 443;
    return p;
  }

  void SetLevel(const net::MacAddress& mac, IsolationLevel level,
                std::vector<net::Ipv4Address> allowed = {}) {
    EnforcementRule rule;
    rule.device_mac = mac;
    rule.level = level;
    rule.allowed_endpoints = std::move(allowed);
    engine_.Install(std::move(rule));
  }

  EnforcementEngine engine_;
};

TEST_F(EnforcementPolicy, StrictDeviceHasNoInternet) {
  SetLevel(kDevA, IsolationLevel::kStrict);
  const auto decision = engine_.Authorize(
      Packet(kDevA, kGwMac, net::Ipv4Address(192, 168, 1, 100),
             net::Ipv4Address(52, 1, 2, 3)));
  EXPECT_FALSE(decision.allow);
}

TEST_F(EnforcementPolicy, RestrictedDeviceReachesAllowlistOnly) {
  const net::Ipv4Address cloud(52, 1, 2, 3);
  SetLevel(kDevA, IsolationLevel::kRestricted, {cloud});
  EXPECT_TRUE(engine_
                  .Authorize(Packet(kDevA, kGwMac,
                                    net::Ipv4Address(192, 168, 1, 100), cloud))
                  .allow);
  EXPECT_FALSE(engine_
                   .Authorize(Packet(kDevA, kGwMac,
                                     net::Ipv4Address(192, 168, 1, 100),
                                     net::Ipv4Address(52, 9, 9, 9)))
                   .allow);
}

TEST_F(EnforcementPolicy, TrustedDeviceHasFullInternet) {
  SetLevel(kDevA, IsolationLevel::kTrusted);
  EXPECT_TRUE(engine_
                  .Authorize(Packet(kDevA, kGwMac,
                                    net::Ipv4Address(192, 168, 1, 100),
                                    net::Ipv4Address(8, 8, 8, 8)))
                  .allow);
}

TEST_F(EnforcementPolicy, CrossOverlayBlockedSameOverlayAllowed) {
  SetLevel(kDevA, IsolationLevel::kStrict);
  SetLevel(kDevB, IsolationLevel::kTrusted);
  // strict -> trusted: blocked.
  EXPECT_FALSE(engine_
                   .Authorize(Packet(kDevA, kDevB,
                                     net::Ipv4Address(192, 168, 1, 100),
                                     net::Ipv4Address(192, 168, 1, 101)))
                   .allow);
  // trusted -> strict: also blocked (overlays are disjoint).
  EXPECT_FALSE(engine_
                   .Authorize(Packet(kDevB, kDevA,
                                     net::Ipv4Address(192, 168, 1, 101),
                                     net::Ipv4Address(192, 168, 1, 100)))
                   .allow);
  // strict -> restricted: same untrusted overlay, allowed.
  SetLevel(kDevB, IsolationLevel::kRestricted);
  EXPECT_TRUE(engine_
                  .Authorize(Packet(kDevA, kDevB,
                                    net::Ipv4Address(192, 168, 1, 100),
                                    net::Ipv4Address(192, 168, 1, 101)))
                  .allow);
}

TEST_F(EnforcementPolicy, UnknownDeviceTreatedAsStrict) {
  EXPECT_EQ(engine_.EffectiveLevel(kDevA), IsolationLevel::kStrict);
  // Unknown -> Internet: blocked.
  EXPECT_FALSE(engine_
                   .Authorize(Packet(kDevA, kGwMac,
                                     net::Ipv4Address(192, 168, 1, 100),
                                     net::Ipv4Address(52, 1, 2, 3)))
                   .allow);
}

TEST_F(EnforcementPolicy, InfrastructureAlwaysAllowed) {
  net::ParsedPacket arp;
  arp.src_mac = kDevA;
  arp.dst_mac = net::MacAddress::Broadcast();
  arp.protocols.Set(net::Protocol::kArp);
  EXPECT_TRUE(engine_.Authorize(arp).allow);

  net::ParsedPacket dhcp;
  dhcp.src_mac = kDevA;
  dhcp.dst_mac = net::MacAddress::Broadcast();
  dhcp.protocols.Set(net::Protocol::kIp);
  dhcp.protocols.Set(net::Protocol::kUdp);
  dhcp.protocols.Set(net::Protocol::kBootp);
  dhcp.protocols.Set(net::Protocol::kDhcp);
  EXPECT_TRUE(engine_.Authorize(dhcp).allow);

  // DNS to the gateway resolver.
  net::ParsedPacket dns = Packet(kDevA, kGwMac,
                                 net::Ipv4Address(192, 168, 1, 100), kGwIp);
  dns.protocols.Set(net::Protocol::kDns);
  EXPECT_TRUE(engine_.Authorize(dns).allow);
}

TEST_F(EnforcementPolicy, InstallRemoveLifecycle) {
  SetLevel(kDevA, IsolationLevel::kTrusted);
  EXPECT_EQ(engine_.rule_count(), 1u);
  ASSERT_NE(engine_.Find(kDevA), nullptr);
  EXPECT_TRUE(engine_.Remove(kDevA));
  EXPECT_FALSE(engine_.Remove(kDevA));
  EXPECT_EQ(engine_.Find(kDevA), nullptr);
}

TEST_F(EnforcementPolicy, MemoryGrowsWithRules) {
  const auto base = engine_.MemoryBytes();
  for (int i = 0; i < 1000; ++i) {
    EnforcementRule rule;
    rule.device_mac = net::MacAddress::FromUint64(static_cast<std::uint64_t>(i));
    rule.level = IsolationLevel::kRestricted;
    rule.allowed_endpoints = {net::Ipv4Address(52, 1, 2, 3)};
    rule.allowed_endpoint_names = {"vendor.example.com"};
    engine_.Install(std::move(rule));
  }
  EXPECT_GT(engine_.MemoryBytes(), base + 1000 * sizeof(EnforcementRule) / 2);
}

TEST(DeviceMonitor, EmitsCaptureWhenSetupPhaseEnds) {
  capture::SetupPhaseConfig config;
  config.min_packets = 3;
  config.idle_gap_ns = 1'000'000'000;
  DeviceMonitor monitor(config);

  net::ParsedPacket p;
  p.src_mac = kDevA;
  p.protocols.Set(net::Protocol::kIp);
  p.size_bytes = 100;
  for (int i = 0; i < 6; ++i) {
    p.timestamp_ns = static_cast<std::uint64_t>(i) * 10'000'000;
    p.size_bytes = 100 + static_cast<std::uint32_t>(i);
    const Observation seen = monitor.Observe(p);
    EXPECT_FALSE(seen.capture.has_value());
    EXPECT_TRUE(seen.collecting);
  }
  // The idle gap: next packet completes the capture.
  p.timestamp_ns = 10'000'000'000;
  const Observation done = monitor.Observe(p);
  const auto& capture = done.capture;
  ASSERT_TRUE(capture.has_value());
  EXPECT_FALSE(done.collecting);
  EXPECT_EQ(capture->device_mac, kDevA);
  EXPECT_EQ(capture->packet_count, 6u);
  EXPECT_EQ(capture->full.size(), 6u);  // distinct sizes, no dedup

  // A device is fingerprinted once.
  p.timestamp_ns = 11'000'000'000;
  const Observation later = monitor.Observe(p);
  EXPECT_FALSE(later.capture.has_value());
  EXPECT_FALSE(later.collecting);
  EXPECT_TRUE(monitor.IsKnown(kDevA));
}

TEST(DeviceMonitor, FlushIdleCompletesQuietDevices) {
  capture::SetupPhaseConfig config;
  config.min_packets = 2;
  config.idle_gap_ns = 1'000'000'000;
  DeviceMonitor monitor(config);

  net::ParsedPacket p;
  p.src_mac = kDevA;
  p.size_bytes = 60;
  p.timestamp_ns = 0;
  monitor.Observe(p);
  p.timestamp_ns = 1'000'000;
  monitor.Observe(p);

  EXPECT_TRUE(monitor.FlushIdle(500'000'000).empty());
  const auto flushed = monitor.FlushIdle(5'000'000'000);
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_EQ(flushed[0].device_mac, kDevA);
  // Second flush returns nothing.
  EXPECT_TRUE(monitor.FlushIdle(6'000'000'000).empty());
}

TEST(DeviceMonitor, ForgetAllowsRefingerprinting) {
  capture::SetupPhaseConfig config;
  config.max_packets = 2;
  DeviceMonitor monitor(config);
  net::ParsedPacket p;
  p.src_mac = kDevA;
  p.size_bytes = 60;
  monitor.Observe(p);
  ASSERT_TRUE(monitor.Observe(p).capture.has_value());  // max_packets reached
  monitor.Forget(kDevA);
  EXPECT_FALSE(monitor.IsKnown(kDevA));
  monitor.Observe(p);
  EXPECT_TRUE(monitor.IsKnown(kDevA));
}

/// A UDP frame from `src` at `ts` whose payload length is `size`, so that
/// frames of distinct sizes stay distinct rows of F.
net::Frame FrameFrom(const net::MacAddress& src, std::uint64_t ts,
                     std::size_t size) {
  net::UdpDatagram udp;
  udp.src_port = 50000;
  udp.dst_port = 9999;
  udp.payload.assign(size, 0x5a);
  return net::BuildUdp4Frame(ts, src, kGwMac, net::Ipv4Address(10, 0, 0, 2),
                             kGwIp, udp);
}

TEST(DeviceMonitor, ReplayEndsCaptureAtIdleGap) {
  capture::SetupPhaseConfig config;
  config.min_packets = 3;
  config.idle_gap_ns = 1'000'000'000;
  // Standby chatter after a 10 s silence, recorded ahead of the setup
  // burst: Replay puts the trace in time order first.
  capture::Trace trace;
  trace.Append(FrameFrom(kDevA, 10'000'000'000, 90));
  trace.Append(FrameFrom(kDevA, 10'100'000'000, 91));
  for (std::size_t i = 0; i < 6; ++i)
    trace.Append(FrameFrom(kDevA, i * 10'000'000, 10 + i));
  const auto captures = DeviceMonitor(config).Replay(trace);
  ASSERT_EQ(captures.size(), 1u);
  EXPECT_EQ(captures[0].device_mac, kDevA);
  EXPECT_EQ(captures[0].packet_count, 6u);
}

TEST(DeviceMonitor, ReplaySkipsSourcesBelowMinPackets) {
  // Default rule: 8 packets before an idle gap may end the phase. A source
  // with fewer never completes a capture, not even at the closing flush.
  capture::Trace trace;
  for (std::size_t i = 0; i < 8; ++i) {
    if (i < 5) trace.Append(FrameFrom(kDevA, i * 1'000'000, 10 + i));
    trace.Append(FrameFrom(kDevB, i * 1'000'000 + 500'000, 10 + i));
  }
  DeviceMonitor monitor;
  const auto captures = monitor.Replay(trace);
  ASSERT_EQ(captures.size(), 1u);
  EXPECT_EQ(captures[0].device_mac, kDevB);
  EXPECT_EQ(captures[0].packet_count, 8u);
  EXPECT_EQ(monitor.tracked_count(), 2u);
}

TEST(DeviceMonitor, ReplayCapsCaptureAtMaxPackets) {
  capture::SetupPhaseConfig config;
  config.max_packets = 10;
  capture::Trace trace;
  for (std::size_t i = 0; i < 50; ++i)
    trace.Append(FrameFrom(kDevA, i * 1'000'000, 10 + i));
  // A quiet device completes at the closing flush, after the capped one.
  for (std::size_t i = 0; i < 8; ++i)
    trace.Append(FrameFrom(kDevB, i * 1'000'000, 10 + i));
  const auto captures = DeviceMonitor(config).Replay(trace);
  ASSERT_EQ(captures.size(), 2u);
  EXPECT_EQ(captures[0].device_mac, kDevA);
  EXPECT_EQ(captures[0].packet_count, 10u);
  EXPECT_EQ(captures[1].device_mac, kDevB);
}

TEST(DeviceMonitor, ReplayedSetupEpisodeCapturesTheTrainingFingerprint) {
  // The classifiers train on ExtractFingerprint, all of a device's frames;
  // every serving path fingerprints what the monitor captures. On a setup
  // episode the two must agree, or training and serving would disagree
  // on what a device's fingerprint is (a simulated pause of 5 s or more
  // mid-setup would break this).
  devices::DeviceSimulator simulator(4242);
  for (std::size_t t = 0; t < devices::DeviceTypeCount(); ++t) {
    for (int i = 0; i < 10; ++i) {
      const auto episode =
          simulator.RunSetupEpisode(static_cast<devices::DeviceTypeId>(t));
      const auto captures = DeviceMonitor().Replay(episode.trace);
      const auto it = std::find_if(
          captures.begin(), captures.end(), [&](const CompletedCapture& c) {
            return c.device_mac == episode.device_mac;
          });
      ASSERT_NE(it, captures.end()) << "type " << t << " episode " << i;
      EXPECT_EQ(it->full, devices::DeviceSimulator::ExtractFingerprint(episode))
          << "type " << t << " episode " << i;
    }
  }
}

class IdentifierTest : public ::testing::Test {
 protected:
  static devices::FingerprintDataset MakeDataset() {
    return devices::GenerateFingerprintDataset(8, 1234);
  }

  static std::vector<LabelledFingerprint> ToExamples(
      const devices::FingerprintDataset& dataset) {
    std::vector<LabelledFingerprint> out;
    for (std::size_t i = 0; i < dataset.size(); ++i) {
      out.push_back(LabelledFingerprint{&dataset.fingerprints[i],
                                        &dataset.fixed[i], dataset.labels[i]});
    }
    return out;
  }
};

TEST_F(IdentifierTest, TrainsOneClassifierPerType) {
  const auto dataset = MakeDataset();
  DeviceIdentifier identifier;
  identifier.Train(ToExamples(dataset));
  EXPECT_EQ(identifier.type_count(), devices::DeviceTypeCount());
  EXPECT_GT(identifier.MemoryBytes(), 0u);
}

TEST_F(IdentifierTest, OobAccuracyIsHighAfterTraining) {
  const auto dataset = MakeDataset();
  DeviceIdentifier identifier;
  identifier.Train(ToExamples(dataset));
  const double oob = identifier.MeanOobAccuracy();
  // The binary one-vs-rest problems are easy on average (only the cluster
  // siblings are hard), so mean OOB accuracy is high.
  EXPECT_FALSE(std::isnan(oob));
  EXPECT_GT(oob, 0.85);
  EXPECT_LE(oob, 1.0);
}

TEST_F(IdentifierTest, IdentifiesDistinctTypesCorrectly) {
  const auto dataset = MakeDataset();
  DeviceIdentifier identifier;
  identifier.Train(ToExamples(dataset));

  // Probe with fresh episodes of clearly distinct types.
  devices::DeviceSimulator simulator(555);
  for (const char* name : {"Aria", "HueBridge", "WeMoSwitch", "Lightify"}) {
    const auto type = devices::FindDeviceType(name);
    const auto episode = simulator.RunSetupEpisode(type);
    const auto full = devices::DeviceSimulator::ExtractFingerprint(episode);
    const auto fixed = features::FixedFingerprint::FromFingerprint(full);
    const auto result = identifier.Identify(full, fixed);
    ASSERT_TRUE(result.IsKnown()) << name;
    EXPECT_EQ(*result.type, type) << name;
  }
}

TEST_F(IdentifierTest, UnknownDeviceRejectedByAllClassifiers) {
  const auto dataset = MakeDataset();
  // Train WITHOUT the last type (iKettle2's label is 26).
  auto examples = ToExamples(dataset);
  std::erase_if(examples,
                [](const LabelledFingerprint& e) { return e.label >= 25; });
  DeviceIdentifier identifier;
  identifier.Train(examples);
  EXPECT_EQ(identifier.type_count(), devices::DeviceTypeCount() - 2);

  // An Aria fingerprint is still identified...
  devices::DeviceSimulator simulator(777);
  const auto aria = simulator.RunSetupEpisode(0);
  const auto full_a = devices::DeviceSimulator::ExtractFingerprint(aria);
  const auto result_a = identifier.Identify(
      full_a, features::FixedFingerprint::FromFingerprint(full_a));
  EXPECT_TRUE(result_a.IsKnown());

  // ...while a type never trained on is reported unknown (the Smarter
  // appliances look like nothing else in the catalog).
  const auto kettle =
      simulator.RunSetupEpisode(devices::FindDeviceType("iKettle2"));
  const auto full_k = devices::DeviceSimulator::ExtractFingerprint(kettle);
  const auto result_k = identifier.Identify(
      full_k, features::FixedFingerprint::FromFingerprint(full_k));
  EXPECT_FALSE(result_k.IsKnown());
}

TEST_F(IdentifierTest, AddTypeExtendsWithoutRetraining) {
  const auto dataset = MakeDataset();
  auto examples = ToExamples(dataset);
  std::vector<LabelledFingerprint> last_type;
  std::erase_if(examples, [&](const LabelledFingerprint& e) {
    if (e.label == 26) {
      last_type.push_back(e);
      return true;
    }
    return false;
  });
  DeviceIdentifier identifier;
  identifier.Train(examples);
  const auto before = identifier.type_count();
  identifier.AddType(26, last_type, examples);
  EXPECT_EQ(identifier.type_count(), before + 1);
  EXPECT_THROW(identifier.AddType(26, last_type, examples),
               std::invalid_argument);
}

TEST_F(IdentifierTest, DeterministicIdentification) {
  const auto dataset = MakeDataset();
  DeviceIdentifier identifier;
  identifier.Train(ToExamples(dataset));
  const auto& full = dataset.fingerprints[100];
  const auto& fixed = dataset.fixed[100];
  const auto r1 = identifier.Identify(full, fixed);
  const auto r2 = identifier.Identify(full, fixed);
  ASSERT_EQ(r1.IsKnown(), r2.IsKnown());
  if (r1.IsKnown()) {
    EXPECT_EQ(*r1.type, *r2.type);
  }
  EXPECT_EQ(r1.matched_types, r2.matched_types);
}

}  // namespace
}  // namespace sentinel::core
