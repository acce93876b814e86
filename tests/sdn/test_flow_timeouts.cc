// Flow-rule timeout semantics and a property-based churn test: under a
// random add/remove/expire workload over every rule shape, the table must
// pick the same winning rule as a naive reference scan, at shard counts 1
// and 8.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <random>
#include <string>

#include "sdn/flow_table.h"
#include "sdn/switch.h"

namespace sentinel::sdn {
namespace {

const net::MacAddress kA = *net::MacAddress::Parse("aa:00:00:00:00:01");
const net::MacAddress kB = *net::MacAddress::Parse("bb:00:00:00:00:02");

net::Frame Frame(const net::MacAddress& src, const net::MacAddress& dst,
                 std::uint64_t ts = 0) {
  net::UdpDatagram udp;
  udp.src_port = 50000;
  udp.dst_port = 7000;
  udp.payload = {1};
  return net::BuildUdp4Frame(ts, src, dst, net::Ipv4Address(10, 0, 0, 1),
                             net::Ipv4Address(10, 0, 0, 2), udp);
}

FlowRule Rule(const net::MacAddress& src, const net::MacAddress& dst,
              std::uint64_t idle_ns = 0, std::uint64_t hard_ns = 0) {
  FlowRule rule;
  rule.priority = 10;
  rule.match.eth_src = src;
  rule.match.eth_dst = dst;
  rule.idle_timeout_ns = idle_ns;
  rule.hard_timeout_ns = hard_ns;
  rule.actions = {ActionOutput{1}};
  return rule;
}

TEST(FlowTimeouts, HardTimeoutExpiresRegardlessOfTraffic) {
  FlowTable table;
  table.Add(Rule(kA, kB, 0, /*hard=*/1'000'000'000), /*now=*/0);

  // Keep the rule busy: hard timeout must still fire.
  const auto packet = net::ParseFrame(Frame(kA, kB, 900'000'000));
  ASSERT_NE(table.Lookup(packet, 1), nullptr);
  EXPECT_EQ(table.ExpireRules(999'999'999), 0u);
  EXPECT_EQ(table.ExpireRules(1'000'000'000), 1u);
  EXPECT_TRUE(table.empty());
}

TEST(FlowTimeouts, IdleTimeoutCountsFromLastHit) {
  FlowTable table;
  table.Add(Rule(kA, kB, /*idle=*/500'000'000, 0), /*now=*/0);

  // Traffic at t=400ms refreshes the idle clock (the switch stamps
  // last_hit via Inject; emulate by looking up and setting it the same
  // way the datapath does).
  SoftwareSwitch sw;
  sw.AttachPort(1, [](const net::Frame&) {});
  sw.flow_table().Add(Rule(kA, kB, 500'000'000, 0), 0);
  sw.Inject(2, Frame(kA, kB, 400'000'000));
  EXPECT_EQ(sw.ExpireFlows(800'000'000), 0u);  // idle since 400ms only
  EXPECT_EQ(sw.ExpireFlows(900'000'000), 1u);  // 500ms idle reached
  (void)table;
}

TEST(FlowTimeouts, ZeroTimeoutsNeverExpire) {
  FlowTable table;
  table.Add(Rule(kA, kB), 0);
  EXPECT_EQ(table.ExpireRules(UINT64_MAX / 2), 0u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlowTimeouts, ReplaceResetsInstallationTime) {
  FlowTable table;
  table.Add(Rule(kA, kB, 0, 1'000'000'000), 0);
  // Re-install the same match at t=900ms: hard timeout restarts.
  table.Add(Rule(kA, kB, 0, 1'000'000'000), 900'000'000);
  EXPECT_EQ(table.ExpireRules(1'500'000'000), 0u);
  EXPECT_EQ(table.ExpireRules(1'900'000'000), 1u);
}

// ---- Property: churned table always agrees with a naive reference ----------

/// A UDP or TCP probe from src to dst (MAC pool values), addressed to
/// `ip_dst`.
net::ParsedPacket Probe(std::uint64_t src, std::uint64_t dst,
                        net::Ipv4Address ip_dst, bool tcp) {
  const auto src_mac = net::MacAddress::FromUint64(src);
  const auto dst_mac = net::MacAddress::FromUint64(dst);
  const net::Ipv4Address ip_src(10, 0, 0, 1);
  if (tcp) {
    net::TcpSegment segment;
    segment.src_port = 50000;
    segment.dst_port = 443;
    return net::ParseFrame(
        net::BuildTcp4Frame(0, src_mac, dst_mac, ip_src, ip_dst, segment));
  }
  net::UdpDatagram udp;
  udp.src_port = 50000;
  udp.dst_port = 7000;
  udp.payload = {1};
  return net::ParseFrame(
      net::BuildUdp4Frame(0, src_mac, dst_mac, ip_src, ip_dst, udp));
}

class FlowTableChurn : public ::testing::TestWithParam<unsigned> {};

TEST_P(FlowTableChurn, MatchesNaiveReference) {
  // Reference: every rule in one vector, in installation order (FlowMod
  // replacement keeps a rule's place). The winner is the matching rule
  // with the highest priority; on equal priority an exact (eth_src +
  // eth_dst) rule beats every other, and among the others the first
  // installed wins.
  struct RefRule {
    std::uint16_t priority;
    FlowMatch match;
    std::uint64_t cookie;
    std::uint64_t installed_at_ns;
    std::uint64_t hard_timeout_ns;
  };
  const auto exact = [](const RefRule& rule) {
    return rule.match.eth_src.has_value() && rule.match.eth_dst.has_value();
  };
  const std::array<net::Ipv4Address, 2> public_ips = {
      net::Ipv4Address(52, 0, 0, 1), net::Ipv4Address(52, 0, 0, 2)};

  for (const std::size_t shards : {1u, 8u}) {
    std::mt19937_64 rng(GetParam());
    std::uniform_int_distribution<int> op(0, 9);
    std::uniform_int_distribution<int> shape(0, 5);
    std::uniform_int_distribution<std::uint64_t> mac_pool(0, 7);
    std::uniform_int_distribution<int> prio(1, 3);
    std::uniform_int_distribution<int> coin(0, 1);
    FlowTable table(FlowTableOptions{.shard_count = shards});
    std::vector<RefRule> reference;
    std::uint64_t next_cookie = 1;

    for (int step = 0; step < 600; ++step) {
      const std::uint64_t now = static_cast<std::uint64_t>(step) * 1'000;
      const int operation = op(rng);
      if (operation < 5) {  // add one of the shapes the gateway installs, or
                            // a rule without eth_src
        FlowRule rule;
        rule.priority = static_cast<std::uint16_t>(prio(rng));
        rule.cookie = next_cookie++;
        rule.actions = {ActionOutput{1}};
        const auto src = net::MacAddress::FromUint64(mac_pool(rng));
        const auto dst = net::MacAddress::FromUint64(100 + mac_pool(rng));
        switch (shape(rng)) {
          case 0:  // learning-switch forward
            rule.match.eth_src = src;
            rule.match.eth_dst = dst;
            break;
          case 1:  // drop
            rule.match.eth_src = src;
            rule.match.eth_dst = dst;
            rule.match.ip_dst = public_ips[coin(rng)];
            rule.actions = {};
            break;
          case 2:  // WAN allow
            rule.match.eth_src = src;
            rule.match.ip_dst = public_ips[coin(rng)];
            break;
          case 3:
            rule.match.eth_src = src;
            break;
          case 4:
            rule.match.ip_proto =
                coin(rng) ? net::kIpProtoUdp : net::kIpProtoTcp;
            break;
          default:
            rule.match.in_port = static_cast<PortId>(1 + coin(rng));
            break;
        }
        if (op(rng) < 3) rule.hard_timeout_ns = 50'000;
        const RefRule ref{rule.priority, rule.match, rule.cookie, now,
                          rule.hard_timeout_ns};
        const auto existing = std::find_if(
            reference.begin(), reference.end(), [&](const RefRule& r) {
              return r.match == ref.match && r.priority == ref.priority;
            });
        if (existing != reference.end()) {
          *existing = ref;
        } else {
          reference.push_back(ref);
        }
        table.Add(std::move(rule), now);
      } else if (operation == 5 && !reference.empty()) {  // remove by cookie
        std::uniform_int_distribution<std::size_t> pick(
            0, reference.size() - 1);
        const std::uint64_t cookie = reference[pick(rng)].cookie;
        const auto erased = std::erase_if(
            reference,
            [cookie](const RefRule& r) { return r.cookie == cookie; });
        EXPECT_EQ(table.RemoveByCookie(cookie), erased) << "step " << step;
      } else if (operation == 6) {  // a device or a peer leaves
        const auto mac =
            net::MacAddress::FromUint64(coin(rng) ? mac_pool(rng)
                                                  : 100 + mac_pool(rng));
        const auto erased = std::erase_if(reference, [&](const RefRule& r) {
          return r.match.eth_src == mac || r.match.eth_dst == mac;
        });
        EXPECT_EQ(table.RemoveByMac(mac), erased) << "step " << step;
      } else if (operation == 7) {
        const auto erased = std::erase_if(reference, [&](const RefRule& r) {
          return r.hard_timeout_ns != 0 &&
                 now - r.installed_at_ns >= r.hard_timeout_ns;
        });
        EXPECT_EQ(table.ExpireRules(now), erased) << "step " << step;
      } else {  // verify with random probes
        for (int probe = 0; probe < 8; ++probe) {
          const std::uint64_t src = mac_pool(rng);
          const std::uint64_t dst = 100 + mac_pool(rng);
          const auto packet =
              Probe(src, dst, public_ips[coin(rng)], coin(rng) != 0);
          const auto in_port = static_cast<PortId>(1 + coin(rng));

          const RefRule* expected = nullptr;
          for (const auto& rule : reference) {
            if (!rule.match.Matches(packet, in_port)) continue;
            if (expected == nullptr || rule.priority > expected->priority ||
                (rule.priority == expected->priority && exact(rule) &&
                 !exact(*expected)))
              expected = &rule;
          }
          const FlowRule* actual = table.Lookup(packet, in_port);
          const FlowTable::MatchResult match =
              table.Match(packet, in_port, now, 64);
          const std::string where = "shards " + std::to_string(shards) +
                                    ", step " + std::to_string(step);
          if (expected == nullptr) {
            EXPECT_EQ(actual, nullptr) << where;
            EXPECT_FALSE(match.matched) << where;
            continue;
          }
          ASSERT_NE(actual, nullptr) << where;
          EXPECT_EQ(actual->cookie, expected->cookie) << where;
          EXPECT_EQ(actual->priority, expected->priority) << where;
          ASSERT_TRUE(match.matched) << where;
          EXPECT_EQ(match.rule_id, actual->id) << where;
        }
      }
      ASSERT_EQ(table.size(), reference.size()) << "step " << step;
    }
    const auto stats = table.stats();
    EXPECT_EQ(stats.lookups,
              stats.hash_hits + stats.linear_hits + stats.misses);
    EXPECT_GT(stats.hash_hits, 0u);
    EXPECT_GT(stats.linear_hits, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowTableChurn,
                         ::testing::Values(7u, 42u, 99u, 1234u));

}  // namespace
}  // namespace sentinel::sdn
