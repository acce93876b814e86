// Sharded flow-table behavior: timeout edge cases, duplicate installs on
// one MAC pair, lookups racing the bounded-memory eviction tier, a
// randomized sharded-vs-unsharded differential, and concurrent ingress
// (the TSan job runs this binary).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <random>
#include <thread>
#include <variant>
#include <vector>

#include "net/frame.h"
#include "sdn/flow_table.h"

namespace sentinel::sdn {
namespace {

net::MacAddress Mac(std::uint64_t v) {
  return net::MacAddress({0x02, static_cast<std::uint8_t>(v >> 32),
                          static_cast<std::uint8_t>(v >> 24),
                          static_cast<std::uint8_t>(v >> 16),
                          static_cast<std::uint8_t>(v >> 8),
                          static_cast<std::uint8_t>(v)});
}

net::ParsedPacket Packet(std::uint64_t src, std::uint64_t dst,
                         std::uint64_t ts = 0) {
  net::UdpDatagram udp;
  udp.src_port = 40000;
  udp.dst_port = 8000;
  udp.payload = {1, 2, 3};
  return net::ParseFrame(net::BuildUdp4Frame(
      ts, Mac(src), Mac(dst), net::Ipv4Address(10, 0, 0, 1),
      net::Ipv4Address(10, 0, 0, 2), udp));
}

FlowRule ExactRule(std::uint64_t src, std::uint64_t dst,
                   std::uint16_t priority = 10, std::uint64_t cookie = 0) {
  FlowRule rule;
  rule.priority = priority;
  rule.cookie = cookie;
  rule.match.eth_src = Mac(src);
  rule.match.eth_dst = Mac(dst);
  rule.actions = {ActionOutput{1}};
  return rule;
}

TEST(ShardedFlowTable, IdleVsHardTimeoutAcrossShards) {
  FlowTable table(FlowTableOptions{.shard_count = 8});
  // Idle-only rule: refreshed by Match traffic, expires 500ms after the
  // last hit. Hard-only rule: expires at install + 1s no matter what.
  FlowRule idle = ExactRule(1, 2);
  idle.idle_timeout_ns = 500'000'000;
  FlowRule hard = ExactRule(3, 4);
  hard.hard_timeout_ns = 1'000'000'000;
  table.Add(std::move(idle), /*now=*/0);
  table.Add(std::move(hard), /*now=*/0);

  // Traffic at t=400ms refreshes the idle rule's clock (Match stamps
  // last_hit); the hard rule is hit too but that must not extend it.
  EXPECT_TRUE(table.Match(Packet(1, 2), 1, 400'000'000, 64).matched);
  EXPECT_TRUE(table.Match(Packet(3, 4), 1, 400'000'000, 64).matched);

  EXPECT_EQ(table.ExpireRules(800'000'000), 0u);   // idle since 400ms only
  EXPECT_EQ(table.ExpireRules(900'000'000), 1u);   // idle rule expires
  EXPECT_EQ(table.ExpireRules(999'999'999), 0u);
  EXPECT_EQ(table.ExpireRules(1'000'000'000), 1u);  // hard deadline
  EXPECT_TRUE(table.empty());
}

TEST(ShardedFlowTable, DuplicateInstallSameMacPair) {
  FlowTable table(FlowTableOptions{.shard_count = 4});
  // Same pair, three priorities: highest wins the match.
  table.Add(ExactRule(1, 2, 5, /*cookie=*/50));
  table.Add(ExactRule(1, 2, 20, /*cookie=*/200));
  table.Add(ExactRule(1, 2, 10, /*cookie=*/100));
  EXPECT_EQ(table.size(), 3u);
  const FlowRule* hit = table.Lookup(Packet(1, 2), 1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->cookie, 200u);

  // Identical match + priority replaces (OpenFlow FlowMod semantics)
  // rather than stacking a fourth rule.
  table.Add(ExactRule(1, 2, 20, /*cookie=*/201));
  EXPECT_EQ(table.size(), 3u);
  hit = table.Lookup(Packet(1, 2), 1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->cookie, 201u);

  // Removing the top rule falls through to the next priority.
  EXPECT_EQ(table.RemoveByCookie(201), 1u);
  hit = table.Lookup(Packet(1, 2), 1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->cookie, 100u);
}

TEST(ShardedFlowTable, LookupDuringEvictionStaysConsistent) {
  FlowTable table(
      FlowTableOptions{.shard_count = 4, .max_exact_rules_per_shard = 16});
  // Install far beyond the cap, probing as we go: every lookup must
  // return either a miss (pair evicted) or the exact rule installed for
  // that pair — never a stale or mismatched entry.
  for (std::uint64_t i = 0; i < 2000; ++i) {
    table.Add(ExactRule(i, 100000 + i, 10, /*cookie=*/i), /*now=*/i);
    const std::uint64_t probe = i / 2;  // mix resident and evicted pairs
    const FlowRule* hit = table.Lookup(Packet(probe, 100000 + probe), 1);
    if (hit != nullptr) {
      EXPECT_EQ(hit->cookie, probe);
    }
  }
  EXPECT_LE(table.size(), 4u * 16u);
  EXPECT_GE(table.evicted_total(), 2000u - 4u * 16u);
  // Every surviving pair still resolves through the cache.
  std::size_t resident = 0;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    const FlowRule* hit = table.Lookup(Packet(i, 100000 + i), 1);
    if (hit == nullptr) continue;
    ++resident;
    EXPECT_EQ(hit->cookie, i);
  }
  EXPECT_EQ(resident, table.size());
}

TEST(ShardedFlowTable, RandomizedShardedVsUnshardedDifferential) {
  FlowTable seed_table(FlowTableOptions{.shard_count = 1});
  FlowTable sharded(FlowTableOptions{.shard_count = 8});
  std::mt19937_64 rng(0x5eed);

  // Identical op stream against both tables; source-MAC-only rules
  // included so the (src, any) probe is covered.
  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t src = rng() % 128;
    const std::uint64_t dst = 1000 + rng() % 128;
    const auto now = static_cast<std::uint64_t>(step) * 1'000'000;
    switch (rng() % 8) {
      case 0:
      case 1:
      case 2:
      case 3: {
        FlowRule rule = ExactRule(
            src, dst, static_cast<std::uint16_t>(rng() % 16), rng() % 32);
        rule.idle_timeout_ns = (rng() % 2) ? 50'000'000 : 0;
        FlowRule copy = rule;
        seed_table.Add(std::move(rule), now);
        sharded.Add(std::move(copy), now);
        break;
      }
      case 4: {
        FlowRule wild;
        wild.priority = static_cast<std::uint16_t>(rng() % 16);
        wild.cookie = rng() % 32;
        wild.match.eth_src = Mac(src);  // src-only: the (src, any) key
        wild.actions = {ActionOutput{2}};
        FlowRule copy = wild;
        seed_table.Add(std::move(wild), now);
        sharded.Add(std::move(copy), now);
        break;
      }
      case 5: {
        const std::uint64_t cookie = rng() % 32;
        EXPECT_EQ(seed_table.RemoveByCookie(cookie),
                  sharded.RemoveByCookie(cookie));
        break;
      }
      case 6: {
        EXPECT_EQ(seed_table.RemoveByMac(Mac(src)),
                  sharded.RemoveByMac(Mac(src)));
        break;
      }
      case 7: {
        EXPECT_EQ(seed_table.ExpireRules(now), sharded.ExpireRules(now));
        break;
      }
    }
    // Probe both tables with the same packet: identical verdicts.
    const auto packet = Packet(rng() % 128, 1000 + rng() % 128);
    const FlowRule* a = seed_table.Lookup(packet, 1);
    const FlowRule* b = sharded.Lookup(packet, 1);
    ASSERT_EQ(a == nullptr, b == nullptr);
    if (a != nullptr) {
      EXPECT_EQ(a->id, b->id);
      EXPECT_EQ(a->priority, b->priority);
      EXPECT_EQ(a->cookie, b->cookie);
    }
  }

  // Final rule sets are identical in installation order.
  const auto rules_a = seed_table.Rules();
  const auto rules_b = sharded.Rules();
  ASSERT_EQ(rules_a.size(), rules_b.size());
  for (std::size_t i = 0; i < rules_a.size(); ++i) {
    EXPECT_EQ(rules_a[i]->id, rules_b[i]->id);
    EXPECT_EQ(rules_a[i]->priority, rules_b[i]->priority);
    EXPECT_EQ(rules_a[i]->cookie, rules_b[i]->cookie);
  }
}

TEST(ShardedFlowTable, ConcurrentIngressWithMutations) {
  FlowTable table(
      FlowTableOptions{.shard_count = 8, .max_exact_rules_per_shard = 64});
  constexpr std::uint64_t kPairs = 256;
  for (std::uint64_t i = 0; i < kPairs; ++i)
    table.Add(ExactRule(i, 5000 + i, 10, i), 0);

  // Besides the exact rules (output 1), the writer churns WAN-allow rules
  // keyed by source MAC (eth_src + kAllowIp, output 2) and one rule
  // without eth_src (ip_dst = kGlobalIp, output 3). A probe to a private
  // address can only match its exact rule; one to kAllowIp or kGlobalIp
  // may also match the rule installed for that address.
  const net::Ipv4Address kPrivateIp(10, 0, 0, 2);
  const net::Ipv4Address kAllowIp(52, 0, 0, 1);
  const net::Ipv4Address kGlobalIp(52, 0, 0, 3);
  constexpr std::uint64_t kAllowCookie = 100'000;
  constexpr std::uint64_t kGlobalCookie = 200'000;
  const auto allow_rule = [&](std::uint64_t i) {
    FlowRule rule;
    rule.priority = 50;
    rule.cookie = kAllowCookie + i;
    rule.match.eth_src = Mac(i);
    rule.match.ip_dst = kAllowIp;
    rule.actions = {ActionOutput{2}};
    return rule;
  };
  const auto probe = [](std::uint64_t i, net::Ipv4Address ip_dst) {
    net::UdpDatagram udp;
    udp.src_port = 40000;
    udp.dst_port = 8000;
    udp.payload = {1, 2, 3};
    return net::ParseFrame(net::BuildUdp4Frame(
        0, Mac(i), Mac(5000 + i), net::Ipv4Address(10, 0, 0, 1), ip_dst,
        udp));
  };

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> hits{0};
  std::atomic<int> ready{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      std::mt19937_64 rng(0xabc + t);
      bool first = true;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t i = rng() % kPairs;
        const std::array<net::Ipv4Address, 3> targets = {kPrivateIp, kAllowIp,
                                                         kGlobalIp};
        const std::size_t target = rng() % targets.size();
        const auto result = table.Match(probe(i, targets[target]), 1,
                                        rng() % 1'000'000, 64);
        if (result.matched) {
          hits.fetch_add(1, std::memory_order_relaxed);
          EXPECT_FALSE(result.drop);
          EXPECT_EQ(result.action_count, 1u);
          const PortId port =
              result.action_count == 0
                  ? 0
                  : std::get<ActionOutput>(result.action(0)).port;
          // Output port and priority identify the rule that won.
          const bool exact = port == 1 && result.priority == 10;
          const bool allow =
              port == 2 && result.priority == 50 && target == 1;
          const bool global =
              port == 3 && result.priority == 30 && target == 2;
          EXPECT_TRUE(exact || allow || global)
              << "port " << port << ", priority " << result.priority
              << ", target " << target;
        }
        if (first) {
          // The first pass ran against the fully populated table (the
          // writer waits for it), so it is a guaranteed hit — without this
          // handshake an overloaded box can finish the whole churn loop
          // and set `stop` before any reader thread is scheduled.
          EXPECT_TRUE(result.matched);
          ready.fetch_add(1, std::memory_order_release);
          first = false;
        }
      }
    });
  }
  while (ready.load(std::memory_order_acquire) < 4)
    std::this_thread::yield();

  // Writer: churn installs, removals and expiries under the readers.
  std::mt19937_64 rng(0xdef);
  for (int step = 0; step < 2000; ++step) {
    const std::uint64_t i = rng() % kPairs;
    switch (rng() % 6) {
      case 0: {
        FlowRule rule = ExactRule(i, 5000 + i, 10, i);
        rule.idle_timeout_ns = 1'000;
        table.Add(std::move(rule), static_cast<std::uint64_t>(step));
        break;
      }
      case 1:
        table.RemoveByMac(Mac(i));
        break;
      case 2:
        table.ExpireRules(static_cast<std::uint64_t>(step));
        break;
      case 3:
        table.Add(allow_rule(i), static_cast<std::uint64_t>(step));
        break;
      case 4:
        table.RemoveByCookie(kAllowCookie + i);
        break;
      case 5:
        if (rng() % 2 == 0) {
          FlowRule global;
          global.priority = 30;
          global.cookie = kGlobalCookie;
          global.match.ip_dst = kGlobalIp;
          global.actions = {ActionOutput{3}};
          table.Add(std::move(global), static_cast<std::uint64_t>(step));
        } else {
          table.RemoveByCookie(kGlobalCookie);
        }
        break;
    }
  }
  stop.store(true);
  for (auto& thread : readers) thread.join();
  EXPECT_GT(hits.load(), 0u);
  const auto stats = table.stats();
  EXPECT_EQ(stats.lookups, stats.hash_hits + stats.linear_hits + stats.misses);
}

}  // namespace
}  // namespace sentinel::sdn
