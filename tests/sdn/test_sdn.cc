// SDN substrate tests: flow matching, the flow table and its tiers, switch
// datapath semantics and the learning controller.
#include <gtest/gtest.h>

#include "sdn/controller.h"
#include "sdn/flow_table.h"
#include "sdn/switch.h"

namespace sentinel::sdn {
namespace {

const net::MacAddress kA = *net::MacAddress::Parse("aa:00:00:00:00:01");
const net::MacAddress kB = *net::MacAddress::Parse("bb:00:00:00:00:02");
const net::Ipv4Address kIpA(192, 168, 1, 10);
const net::Ipv4Address kIpB(192, 168, 1, 11);

net::Frame UdpFrame(const net::MacAddress& src, const net::MacAddress& dst,
                    net::Ipv4Address sip, net::Ipv4Address dip,
                    std::uint16_t sport = 50000, std::uint16_t dport = 7000) {
  net::UdpDatagram udp;
  udp.src_port = sport;
  udp.dst_port = dport;
  udp.payload = {1, 2, 3};
  return net::BuildUdp4Frame(1, src, dst, sip, dip, udp);
}

net::ParsedPacket Parse(const net::Frame& f) { return net::ParseFrame(f); }

TEST(FlowMatch, WildcardMatchesEverything) {
  FlowMatch match;
  EXPECT_TRUE(match.IsWildcard());
  EXPECT_TRUE(match.Matches(Parse(UdpFrame(kA, kB, kIpA, kIpB)), 3));
}

TEST(FlowMatch, FieldsFilterIndependently) {
  const auto packet = Parse(UdpFrame(kA, kB, kIpA, kIpB, 50000, 7000));

  FlowMatch match;
  match.eth_src = kA;
  EXPECT_TRUE(match.Matches(packet, 1));
  match.eth_src = kB;
  EXPECT_FALSE(match.Matches(packet, 1));

  match = FlowMatch{};
  match.in_port = 2;
  EXPECT_FALSE(match.Matches(packet, 1));
  EXPECT_TRUE(match.Matches(packet, 2));

  match = FlowMatch{};
  match.ip_dst = kIpB;
  EXPECT_TRUE(match.Matches(packet, 1));
  match.ip_dst = kIpA;
  EXPECT_FALSE(match.Matches(packet, 1));

  match = FlowMatch{};
  match.ip_proto = net::kIpProtoUdp;
  EXPECT_TRUE(match.Matches(packet, 1));
  match.ip_proto = net::kIpProtoTcp;
  EXPECT_FALSE(match.Matches(packet, 1));

  match = FlowMatch{};
  match.tp_dst = 7000;
  EXPECT_TRUE(match.Matches(packet, 1));
  match.tp_dst = 7001;
  EXPECT_FALSE(match.Matches(packet, 1));
}

TEST(FlowMatch, EthTypeDiscriminatesArpFromIp) {
  const auto arp = Parse(net::BuildArpFrame(
      1, kA, net::MacAddress::Broadcast(), net::ArpPacket::Probe(kA, kIpB)));
  FlowMatch match;
  match.eth_type = net::kEtherTypeArp;
  EXPECT_TRUE(match.Matches(arp, 1));
  match.eth_type = net::kEtherTypeIpv4;
  EXPECT_FALSE(match.Matches(arp, 1));
}

TEST(FlowTable, ExactRulesServedFromHashIndex) {
  FlowTable table;
  FlowRule rule;
  rule.priority = 10;
  rule.match.eth_src = kA;
  rule.match.eth_dst = kB;
  rule.actions = {ActionOutput{4}};
  table.Add(std::move(rule));

  const auto packet = Parse(UdpFrame(kA, kB, kIpA, kIpB));
  const FlowRule* hit = table.Lookup(packet, 1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(table.stats().hash_hits, 1u);
  EXPECT_EQ(table.stats().linear_hits, 0u);

  // Reverse direction misses.
  EXPECT_EQ(table.Lookup(Parse(UdpFrame(kB, kA, kIpB, kIpA)), 1), nullptr);
  EXPECT_EQ(table.stats().misses, 1u);
}

TEST(FlowTable, PriorityOrderWithinMacPair) {
  FlowTable table;
  FlowRule allow;
  allow.priority = 10;
  allow.match.eth_src = kA;
  allow.match.eth_dst = kB;
  allow.actions = {ActionOutput{4}};
  table.Add(allow);

  FlowRule drop;
  drop.priority = 100;
  drop.match.eth_src = kA;
  drop.match.eth_dst = kB;
  drop.match.ip_dst = kIpB;
  table.Add(drop);  // drop (empty actions after move? no — copy ctor)

  const auto packet = Parse(UdpFrame(kA, kB, kIpA, kIpB));
  const FlowRule* hit = table.Lookup(packet, 1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->priority, 100);
  EXPECT_TRUE(hit->IsDrop());
}

TEST(FlowTable, WildcardRulesScanAfterExact) {
  FlowTable table;
  FlowRule wildcard;
  wildcard.priority = 200;
  wildcard.match.ip_proto = net::kIpProtoUdp;
  wildcard.actions = {ActionFlood{}};
  table.Add(wildcard);

  FlowRule exact;
  exact.priority = 10;
  exact.match.eth_src = kA;
  exact.match.eth_dst = kB;
  exact.actions = {ActionOutput{4}};
  table.Add(exact);

  // Higher-priority wildcard wins over lower-priority exact rule.
  const FlowRule* hit = table.Lookup(Parse(UdpFrame(kA, kB, kIpA, kIpB)), 1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->priority, 200);
  // The lookup counts once, under the tier that won it.
  const auto stats = table.stats();
  EXPECT_EQ(stats.lookups, 1u);
  EXPECT_EQ(stats.hash_hits, 0u);
  EXPECT_EQ(stats.linear_hits, 1u);
  EXPECT_EQ(stats.lookups, stats.hash_hits + stats.linear_hits + stats.misses);
}

TEST(FlowTable, FlowModReplaceSemantics) {
  FlowTable table;
  FlowRule rule;
  rule.priority = 10;
  rule.match.eth_src = kA;
  rule.match.eth_dst = kB;
  rule.actions = {ActionOutput{4}};
  table.Add(rule);
  rule.actions = {ActionOutput{9}};
  table.Add(rule);  // same match+priority: replace, not duplicate
  EXPECT_EQ(table.size(), 1u);
  const FlowRule* hit = table.Lookup(Parse(UdpFrame(kA, kB, kIpA, kIpB)), 1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(std::get<ActionOutput>(hit->actions[0]).port, 9u);
}

TEST(FlowTable, RemoveByCookieAndMac) {
  FlowTable table;
  for (int i = 0; i < 4; ++i) {
    FlowRule rule;
    rule.priority = 10;
    rule.match.eth_src = net::MacAddress::FromUint64(static_cast<std::uint64_t>(i));
    rule.match.eth_dst = kB;
    rule.cookie = (i % 2 == 0) ? 111 : 222;
    rule.actions = {ActionOutput{1}};
    table.Add(std::move(rule));
  }
  EXPECT_EQ(table.RemoveByCookie(111), 2u);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.RemoveByMac(kB), 2u);
  EXPECT_TRUE(table.empty());
}

TEST(FlowTable, MemoryGrowsLinearlyWithRules) {
  FlowTable table;
  const std::size_t base = table.MemoryBytes();
  for (int i = 0; i < 1000; ++i) {
    FlowRule rule;
    rule.priority = 10;
    rule.match.eth_src = net::MacAddress::FromUint64(static_cast<std::uint64_t>(i));
    rule.match.eth_dst = kB;
    rule.actions = {ActionOutput{1}};
    table.Add(std::move(rule));
  }
  const std::size_t grown = table.MemoryBytes();
  EXPECT_GT(grown, base + 1000 * sizeof(FlowRule) / 2);
}

TEST(SoftwareSwitch, ForwardsOnMatchDropsOnDropRule) {
  SoftwareSwitch sw;
  std::vector<net::Frame> delivered;
  sw.AttachPort(1, [](const net::Frame&) {});
  sw.AttachPort(2, [&](const net::Frame& f) { delivered.push_back(f); });

  FlowRule forward;
  forward.priority = 10;
  forward.match.eth_src = kA;
  forward.match.eth_dst = kB;
  forward.actions = {ActionOutput{2}};
  sw.flow_table().Add(forward);

  FlowRule drop;
  drop.priority = 100;
  drop.match.eth_src = kB;
  drop.match.eth_dst = kA;
  sw.flow_table().Add(drop);

  EXPECT_TRUE(sw.Inject(1, UdpFrame(kA, kB, kIpA, kIpB)));
  EXPECT_EQ(delivered.size(), 1u);
  EXPECT_FALSE(sw.Inject(2, UdpFrame(kB, kA, kIpB, kIpA)));
  EXPECT_EQ(sw.counters().dropped, 1u);
  EXPECT_EQ(sw.counters().forwarded, 1u);
}

TEST(SoftwareSwitch, FloodSkipsIngressPort) {
  SoftwareSwitch sw;
  int port1 = 0, port2 = 0, port3 = 0;
  sw.AttachPort(1, [&](const net::Frame&) { ++port1; });
  sw.AttachPort(2, [&](const net::Frame&) { ++port2; });
  sw.AttachPort(3, [&](const net::Frame&) { ++port3; });
  FlowRule flood;
  flood.priority = 1;
  flood.actions = {ActionFlood{}};
  sw.flow_table().Add(flood);

  sw.Inject(1, UdpFrame(kA, kB, kIpA, kIpB));
  EXPECT_EQ(port1, 0);
  EXPECT_EQ(port2, 1);
  EXPECT_EQ(port3, 1);
}

TEST(SoftwareSwitch, CountsMatchedBytesAndPackets) {
  SoftwareSwitch sw;
  sw.AttachPort(2, [](const net::Frame&) {});
  FlowRule forward;
  forward.priority = 10;
  forward.match.eth_src = kA;
  forward.match.eth_dst = kB;
  forward.actions = {ActionOutput{2}};
  sw.flow_table().Add(forward);

  const auto frame = UdpFrame(kA, kB, kIpA, kIpB);
  sw.Inject(1, frame);
  sw.Inject(1, frame);
  const auto rules = sw.flow_table().Rules();
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules[0]->packet_count, 2u);
  EXPECT_EQ(rules[0]->byte_count, 2 * frame.bytes.size());
}

TEST(SoftwareSwitch, MalformedFrameCounted) {
  SoftwareSwitch sw;
  net::Frame garbage;
  garbage.bytes = {1, 2, 3};
  EXPECT_FALSE(sw.Inject(1, garbage));
  EXPECT_EQ(sw.counters().malformed, 1u);
}

TEST(Controller, LearningSwitchFloodsThenInstallsExactPath) {
  SoftwareSwitch sw;
  Controller controller;
  sw.SetController(&controller);
  int at2 = 0, at3 = 0;
  sw.AttachPort(1, [](const net::Frame&) {});
  sw.AttachPort(2, [&](const net::Frame&) { ++at2; });
  sw.AttachPort(3, [&](const net::Frame&) { ++at3; });

  // A (port 1) -> B: unknown destination, flooded to 2 and 3.
  sw.Inject(1, UdpFrame(kA, kB, kIpA, kIpB));
  EXPECT_EQ(at2, 1);
  EXPECT_EQ(at3, 1);
  EXPECT_TRUE(sw.flow_table().empty());

  // B (port 2) -> A: A's location is known, rule installed + forwarded.
  sw.Inject(2, UdpFrame(kB, kA, kIpB, kIpA));
  EXPECT_EQ(sw.flow_table().size(), 1u);

  // Second B->A packet hits the table without a packet-in.
  const auto packet_ins = sw.counters().packet_ins;
  sw.Inject(2, UdpFrame(kB, kA, kIpB, kIpA));
  EXPECT_EQ(sw.counters().packet_ins, packet_ins);
}

TEST(Controller, ModuleChainCanHandlePacket) {
  class DropAll : public ControllerModule {
   public:
    [[nodiscard]] std::string name() const override { return "drop-all"; }
    Verdict OnPacketIn(SoftwareSwitch&, PortId, const net::Frame&,
                       const net::ParsedPacket&) override {
      ++count;
      return Verdict::kHandled;
    }
    int count = 0;
  };
  SoftwareSwitch sw;
  Controller controller;
  auto module = std::make_shared<DropAll>();
  controller.AddModule(module);
  sw.SetController(&controller);
  int delivered = 0;
  sw.AttachPort(2, [&](const net::Frame&) { ++delivered; });

  sw.Inject(1, UdpFrame(kA, kB, kIpA, kIpB));
  EXPECT_EQ(module->count, 1);
  EXPECT_EQ(delivered, 0);  // module handled (dropped) it
  EXPECT_TRUE(sw.flow_table().empty());
}

}  // namespace
}  // namespace sentinel::sdn
