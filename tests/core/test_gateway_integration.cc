// End-to-end integration: simulated device setup traffic flows through the
// Security Gateway, the Sentinel module fingerprints and identifies the
// device via the IoT Security Service, installs its enforcement rule, and
// the datapath enforces the resulting isolation level.
#include <gtest/gtest.h>

#include <map>

#include "core/gateway.h"
#include "devices/simulator.h"
#include "net/dns.h"

namespace sentinel::core {
namespace {

class GatewayIntegration : public ::testing::Test {
 protected:
  static constexpr sdn::PortId kDevicePort = 10;
  static constexpr sdn::PortId kOtherDevicePort = 11;

  // One trained service shared by every test in the suite (training 27
  // forests takes ~a second; identification itself is microseconds).
  static void SetUpTestSuite() {
    service_ = BuildTrainedSecurityService(/*n_per_type=*/10, /*seed=*/42)
                   .release();
  }
  static void TearDownTestSuite() {
    delete service_;
    service_ = nullptr;
  }

  GatewayIntegration() : gateway_(*service_) {
    gateway_.AttachWan([this](const net::Frame& f) { wan_.push_back(f); });
    gateway_.AttachPort(kDevicePort,
                        [this](const net::Frame& f) { device_.push_back(f); });
    gateway_.AttachPort(kOtherDevicePort, [this](const net::Frame& f) {
      other_.push_back(f);
    });
    gateway_.sentinel().OnIdentification(
        [this](const IdentificationEvent& event) { events_.push_back(event); });
  }

  /// Streams a full setup episode through the gateway: frames sourced by
  /// the device enter on its port, responses enter on the WAN port.
  void PlayEpisode(const devices::SimulatedEpisode& episode) {
    for (const auto& frame : episode.trace.frames()) {
      const auto packet = net::ParseFrame(frame);
      const auto port = packet.src_mac == episode.device_mac
                            ? kDevicePort
                            : gateway_.config().wan_port;
      gateway_.Ingress(port, frame);
    }
    const auto last = episode.trace.frames().back().timestamp_ns;
    gateway_.sentinel().FlushIdle(last + 60'000'000'000ull);
  }

  /// Streams a setup phase no catalog type exhibits from `mac` (entering
  /// on kDevicePort) and flushes it, so the device is identified as
  /// unknown. Returns the time after the flushed capture.
  std::uint64_t PlayAlienSetup(const net::MacAddress& mac,
                               net::Ipv4Address ip) {
    // A protocol mix no catalog device exhibits: LLC chatter interleaved
    // with jumbo vendor UDP and large ICMP probes.
    const net::MacAddress gateway_mac = gateway_.config().gateway_mac;
    const net::Ipv4Address cloud(52, 10, 20, 30);
    std::uint64_t t = 0;
    for (int i = 0; i < 8; ++i) {
      gateway_.Ingress(
          kDevicePort,
          net::BuildLlcFrame(t, mac, net::MacAddress::Broadcast(),
                             static_cast<std::size_t>(60 + 11 * i)));
      t += 20'000'000;
      net::UdpDatagram udp;
      udp.src_port = static_cast<std::uint16_t>(1024 + i);
      udp.dst_port = 31337;
      udp.payload.assign(static_cast<std::size_t>(900 + 37 * i), 0x5a);
      gateway_.Ingress(kDevicePort, net::BuildUdp4Frame(t, mac, gateway_mac,
                                                        ip, cloud, udp));
      t += 20'000'000;
      gateway_.Ingress(kDevicePort,
                       net::BuildIcmp4Frame(
                           t, mac, gateway_mac, ip, cloud,
                           net::IcmpMessage::EchoRequest(
                               static_cast<std::uint16_t>(i), 1, 500)));
      t += 20'000'000;
    }
    t += 60'000'000'000ull;
    gateway_.sentinel().FlushIdle(t);
    return t;
  }

  static SecurityService* service_;
  SecurityGateway gateway_;
  std::vector<net::Frame> wan_, device_, other_;
  std::vector<IdentificationEvent> events_;
};

SecurityService* GatewayIntegration::service_ = nullptr;

TEST_F(GatewayIntegration, IdentifiesCleanDeviceAsTrusted) {
  devices::DeviceSimulator simulator(101);
  const auto type = devices::FindDeviceType("WeMoSwitch");  // no CVEs seeded
  const auto episode = simulator.RunSetupEpisode(type);
  PlayEpisode(episode);

  ASSERT_EQ(events_.size(), 1u);
  EXPECT_EQ(events_[0].device_mac, episode.device_mac);
  ASSERT_TRUE(events_[0].assessment.type.has_value());
  EXPECT_EQ(*events_[0].assessment.type, type);
  EXPECT_EQ(events_[0].assessment.level, IsolationLevel::kTrusted);

  const EnforcementRule* rule =
      gateway_.enforcement().Find(episode.device_mac);
  ASSERT_NE(rule, nullptr);
  EXPECT_EQ(rule->level, IsolationLevel::kTrusted);
  EXPECT_EQ(rule->device_type, "WeMoSwitch");
}

TEST_F(GatewayIntegration, IdentifiesVulnerableDeviceAsRestricted) {
  devices::DeviceSimulator simulator(102);
  const auto type = devices::FindDeviceType("EdimaxCam");  // CVEs seeded
  const auto episode = simulator.RunSetupEpisode(type);
  PlayEpisode(episode);

  ASSERT_EQ(events_.size(), 1u);
  EXPECT_EQ(events_[0].assessment.level, IsolationLevel::kRestricted);
  EXPECT_FALSE(events_[0].assessment.allowed_endpoints.empty());
  EXPECT_FALSE(events_[0].assessment.advisories.empty());

  const EnforcementRule* rule =
      gateway_.enforcement().Find(episode.device_mac);
  ASSERT_NE(rule, nullptr);
  EXPECT_EQ(rule->level, IsolationLevel::kRestricted);
  EXPECT_FALSE(rule->allowed_endpoints.empty());
}

TEST_F(GatewayIntegration, RestrictedDeviceBlockedFromUnlistedEndpoint) {
  devices::DeviceSimulator simulator(103);
  const auto type = devices::FindDeviceType("EdimaxCam");
  const auto episode = simulator.RunSetupEpisode(type);
  PlayEpisode(episode);
  const EnforcementRule* rule =
      gateway_.enforcement().Find(episode.device_mac);
  ASSERT_NE(rule, nullptr);
  ASSERT_EQ(rule->level, IsolationLevel::kRestricted);

  // Post-identification traffic to an allowlisted endpoint flows to WAN.
  wan_.clear();
  net::UdpDatagram udp;
  udp.src_port = 50000;
  udp.dst_port = 9000;
  udp.payload = {1};
  ASSERT_FALSE(rule->allowed_endpoints.empty());
  const auto allowed = rule->allowed_endpoints.front();
  gateway_.Ingress(kDevicePort,
                   net::BuildUdp4Frame(0, episode.device_mac,
                                       gateway_.config().gateway_mac,
                                       episode.device_ip, allowed, udp));
  EXPECT_EQ(wan_.size(), 1u);

  // Traffic to an arbitrary public address is dropped and a drop flow rule
  // is installed.
  wan_.clear();
  const auto drops_before = gateway_.sentinel().drops_installed();
  gateway_.Ingress(kDevicePort,
                   net::BuildUdp4Frame(0, episode.device_mac,
                                       gateway_.config().gateway_mac,
                                       episode.device_ip,
                                       net::Ipv4Address(8, 8, 8, 8), udp));
  EXPECT_TRUE(wan_.empty());
  EXPECT_EQ(gateway_.sentinel().drops_installed(), drops_before + 1);
}

TEST_F(GatewayIntegration, CrossOverlayTrafficBlocked) {
  devices::DeviceSimulator simulator(104);
  // Vulnerable device (untrusted overlay)...
  const auto bad = simulator.RunSetupEpisode(
      devices::FindDeviceType("EdnetCam"));
  PlayEpisode(bad);
  // ...and a clean one (trusted overlay) on another port.
  const auto good = simulator.RunSetupEpisode(
      devices::FindDeviceType("WeMoSwitch"));
  for (const auto& frame : good.trace.frames()) {
    const auto packet = net::ParseFrame(frame);
    gateway_.Ingress(packet.src_mac == good.device_mac
                         ? kOtherDevicePort
                         : gateway_.config().wan_port,
                     frame);
  }
  gateway_.sentinel().FlushIdle(good.trace.frames().back().timestamp_ns +
                                60'000'000'000ull);
  ASSERT_EQ(events_.size(), 2u);
  ASSERT_EQ(gateway_.enforcement().EffectiveLevel(bad.device_mac),
            IsolationLevel::kRestricted);
  ASSERT_EQ(gateway_.enforcement().EffectiveLevel(good.device_mac),
            IsolationLevel::kTrusted);

  // The compromised camera tries to reach the trusted device: blocked.
  other_.clear();
  net::UdpDatagram attack;
  attack.src_port = 50000;
  attack.dst_port = 23;  // telnet probe
  attack.payload = {0x41, 0x41};
  gateway_.Ingress(kDevicePort,
                   net::BuildUdp4Frame(0, bad.device_mac, good.device_mac,
                                       bad.device_ip, good.device_ip, attack));
  EXPECT_TRUE(other_.empty());
  EXPECT_GT(gateway_.sentinel().drops_installed(), 0u);

  // The installed drop rule handles subsequent packets in the datapath
  // (no second packet-in needed).
  const auto packet_ins = gateway_.datapath().counters().packet_ins;
  gateway_.Ingress(kDevicePort,
                   net::BuildUdp4Frame(1, bad.device_mac, good.device_mac,
                                       bad.device_ip, good.device_ip, attack));
  EXPECT_TRUE(other_.empty());
  EXPECT_EQ(gateway_.datapath().counters().packet_ins, packet_ins);
}

TEST_F(GatewayIntegration, UnknownDeviceGetsStrictIsolation) {
  // A device type the service was never trained on cannot exist in the
  // catalog, so synthesize "alien" traffic: raw vendor UDP bursts from an
  // unknown MAC with an atypical setup sequence.
  const auto alien = *net::MacAddress::Parse("de:ad:be:ef:00:01");
  const net::Ipv4Address alien_ip(192, 168, 1, 200);
  const std::uint64_t t = PlayAlienSetup(alien, alien_ip);

  ASSERT_EQ(events_.size(), 1u);
  EXPECT_FALSE(events_[0].assessment.type.has_value());
  EXPECT_EQ(events_[0].assessment.level, IsolationLevel::kStrict);
  EXPECT_EQ(gateway_.enforcement().EffectiveLevel(alien),
            IsolationLevel::kStrict);

  // Strict: no Internet access after identification.
  wan_.clear();
  net::UdpDatagram udp;
  udp.src_port = 2048;
  udp.dst_port = 31337;
  udp.payload = {1};
  gateway_.Ingress(kDevicePort,
                   net::BuildUdp4Frame(t, alien, gateway_.config().gateway_mac,
                                       alien_ip,
                                       net::Ipv4Address(52, 10, 20, 30), udp));
  EXPECT_TRUE(wan_.empty());
}

TEST_F(GatewayIntegration, StrictDeviceCannotReachInternetThroughGatewayMac) {
  // A permitted frame to the gateway MAC (here a DNS query) must not leave
  // a learned (device, gateway MAC) -> WAN rule behind: the device's later
  // Internet-bound frames, also addressed to the gateway MAC, would ride it
  // past their policy check.
  const auto alien = *net::MacAddress::Parse("de:ad:be:ef:00:02");
  const net::Ipv4Address alien_ip(192, 168, 1, 201);
  const std::uint64_t t = PlayAlienSetup(alien, alien_ip);
  ASSERT_EQ(gateway_.enforcement().EffectiveLevel(alien),
            IsolationLevel::kStrict);
  const auto& config = gateway_.config();

  net::ByteWriter query_bytes;
  const auto query = net::DnsMessage::Query(7, "example.com");
  query.Encode(query_bytes);
  net::UdpDatagram to_gateway;
  to_gateway.src_port = 50001;
  to_gateway.dst_port = net::kPortDns;
  to_gateway.payload = std::move(query_bytes).Take();

  net::ByteWriter answer_bytes;
  net::DnsMessage::Response(query, net::Ipv4Address(52, 10, 20, 30))
      .Encode(answer_bytes);
  net::UdpDatagram from_gateway;
  from_gateway.src_port = net::kPortDns;
  from_gateway.dst_port = 50001;
  from_gateway.payload = std::move(answer_bytes).Take();

  // One gateway answer on the WAN port, as PlayEpisode feeds them: the
  // learning switch learns the gateway MAC there.
  gateway_.Ingress(config.wan_port,
                   net::BuildUdp4Frame(t, config.gateway_mac, alien,
                                       config.gateway_ip, alien_ip,
                                       from_gateway));
  // The device's DNS query to the gateway is permitted.
  gateway_.Ingress(kDevicePort,
                   net::BuildUdp4Frame(t + 1, alien, config.gateway_mac,
                                       alien_ip, config.gateway_ip,
                                       to_gateway));
  for (const sdn::FlowRule* rule : gateway_.datapath().flow_table().Rules()) {
    EXPECT_FALSE(rule->match.eth_dst == config.gateway_mac && !rule->IsDrop())
        << "forwarding rule toward the gateway: " << rule->ToString();
  }

  wan_.clear();
  net::UdpDatagram udp;
  udp.src_port = 2048;
  udp.dst_port = 31337;
  udp.payload = {1};
  gateway_.Ingress(kDevicePort,
                   net::BuildUdp4Frame(t + 2, alien, config.gateway_mac,
                                       alien_ip,
                                       net::Ipv4Address(52, 10, 20, 30), udp));
  EXPECT_TRUE(wan_.empty()) << "strict device reached the Internet";
}

TEST_F(GatewayIntegration, ConcurrentOnboardingSeparatesDevicesByMac) {
  // Five devices are unboxed simultaneously; their setup frames interleave
  // on the wire. The monitor must demultiplex per MAC and identify each.
  devices::DeviceSimulator simulator(105);
  const std::vector<devices::DeviceTypeId> types = {
      devices::FindDeviceType("HueBridge"),
      devices::FindDeviceType("Aria"),
      devices::FindDeviceType("WeMoLink"),
      devices::FindDeviceType("EdimaxCam"),
      devices::FindDeviceType("Lightify")};
  const auto concurrent = simulator.RunConcurrentSetupEpisodes(types);
  ASSERT_EQ(concurrent.episodes.size(), types.size());

  // Sanity: the merged capture really interleaves sources.
  {
    const auto packets = concurrent.merged.Parse();
    net::MacAddress previous = packets.front().src_mac;
    int source_switches = 0;
    for (const auto& packet : packets) {
      if (packet.src_mac != previous) {
        ++source_switches;
        previous = packet.src_mac;
      }
    }
    EXPECT_GT(source_switches, 20);
  }

  std::map<std::string, std::string> mac_to_device;
  for (const auto& episode : concurrent.episodes) {
    gateway_.AttachPort(
        static_cast<sdn::PortId>(20 + episode.type), [](const net::Frame&) {});
  }
  for (const auto& frame : concurrent.merged.frames()) {
    const auto packet = net::ParseFrame(frame);
    sdn::PortId port = gateway_.config().wan_port;
    for (const auto& episode : concurrent.episodes) {
      if (packet.src_mac == episode.device_mac) {
        port = static_cast<sdn::PortId>(20 + episode.type);
        break;
      }
    }
    gateway_.Ingress(port, frame);
  }
  gateway_.sentinel().FlushIdle(
      concurrent.merged.frames().back().timestamp_ns + 60'000'000'000ull);

  ASSERT_EQ(events_.size(), types.size());
  int correct = 0;
  for (const auto& event : events_) {
    for (std::size_t k = 0; k < types.size(); ++k) {
      if (event.device_mac == concurrent.episodes[k].device_mac &&
          event.assessment.type.has_value() &&
          *event.assessment.type == types[k]) {
        ++correct;
      }
    }
  }
  // All five are behaviourally distinct types: every one must identify.
  EXPECT_EQ(correct, static_cast<int>(types.size()));
}

TEST_F(GatewayIntegration, SetupTrafficIsForwardedDuringFingerprinting) {
  devices::DeviceSimulator simulator(106);
  const auto episode =
      simulator.RunSetupEpisode(devices::FindDeviceType("Aria"));
  PlayEpisode(episode);
  // The device's cloud-bound setup traffic reached the WAN port while the
  // device was still being fingerprinted.
  EXPECT_FALSE(wan_.empty());
}

}  // namespace
}  // namespace sentinel::core
