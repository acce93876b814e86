// Enforcement-rule cache and policy evaluation (paper Sect. V).
//
// The Security Gateway keeps one enforcement rule per device in a hash
// table ("to minimize the lookup time as the enforcement rule cache
// grows"); for any given flow exactly one rule decides. Policy semantics
// follow Fig. 3:
//   strict      — untrusted overlay only, no Internet;
//   restricted  — untrusted overlay + allowlisted remote endpoints;
//   trusted     — trusted overlay + full Internet.
// Devices without a rule (still being fingerprinted) are treated as
// strict-by-default so a compromised device cannot attack before
// identification completes.
//
// Fleet scale: the rule cache is a util::MacTable, sharded by device MAC
// with per-shard reader/writer locks — Authorize() takes shared locks only
// — and optionally bounded by a per-shard LRU cap over installation
// recency. Defaults (one shard, no cap) reproduce the seed behavior
// exactly.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/isolation.h"
#include "net/frame.h"
#include "obs/metrics.h"
#include "util/mac_table.h"

namespace sentinel::core {

/// Outcome of a policy check for one packet/flow.
struct Decision {
  bool allow = false;
  std::string reason;
};

/// True when the packet is addressed to a public IPv4 unicast host: the
/// Internet-bound traffic that policy allowlists and the WAN port carries.
[[nodiscard]] inline bool HasPublicDestination(
    const net::ParsedPacket& packet) {
  return packet.dst_ip && packet.dst_ip->IsV4() &&
         !packet.dst_ip->v4().IsPrivate() &&
         !packet.dst_ip->v4().IsMulticast() &&
         packet.dst_ip->v4() != net::Ipv4Address::Broadcast();
}

struct EnforcementOptions {
  /// Rule-cache shards; rounded up to a power of two. 1 (default) keeps
  /// the seed's single-shard behavior.
  std::size_t shard_count = 1;
  /// Bounded-memory tier: maximum device rules per shard; installs past
  /// the cap evict the least-recently-installed rule. 0 disables eviction.
  std::size_t max_rules_per_shard = 0;
};

class EnforcementEngine {
 public:
  EnforcementEngine(net::MacAddress gateway_mac, net::Ipv4Address gateway_ip,
                    EnforcementOptions options = {});

  /// Installs (or replaces) the enforcement rule for a device.
  void Install(EnforcementRule rule);
  /// Removes a device's rule; returns true if one existed.
  bool Remove(const net::MacAddress& mac);
  /// Single-writer API: the returned pointer is valid only until the next
  /// Install/Remove. Concurrent readers go through Authorize(),
  /// EffectiveLevel() or Tag(), which copy state out under the lock.
  [[nodiscard]] const EnforcementRule* Find(const net::MacAddress& mac) const;

  /// What a flow rule for a device's traffic carries of its enforcement
  /// rule: the rule hash as the cookie (0 without a rule) and, when asked
  /// for, the device type.
  struct RuleTag {
    std::uint64_t cookie = 0;
    std::string device_type;
  };
  /// Copies `mac`'s rule tag out under the shard's reader lock; the device
  /// type only `with_type`. Safe to call concurrently with Install/Remove.
  [[nodiscard]] RuleTag Tag(const net::MacAddress& mac, bool with_type) const;
  [[nodiscard]] std::size_t rule_count() const { return rules_.size(); }

  /// Policy check for one packet. Infrastructure traffic (ARP, EAPoL,
  /// ICMPv6 ND, DHCP, and DNS/NTP to the gateway) is always permitted so
  /// devices can associate and be fingerprinted. Safe to call concurrently
  /// with Install/Remove (reader locks; no rule pointers escape).
  [[nodiscard]] Decision Authorize(const net::ParsedPacket& packet) const;

  /// Isolation level effective for a device (strict when no rule exists).
  [[nodiscard]] IsolationLevel EffectiveLevel(
      const net::MacAddress& mac) const;

  /// Real memory footprint of the rule cache (Fig. 6c).
  [[nodiscard]] std::size_t MemoryBytes() const;

  [[nodiscard]] net::MacAddress gateway_mac() const { return gateway_mac_; }
  [[nodiscard]] net::Ipv4Address gateway_ip() const { return gateway_ip_; }
  [[nodiscard]] std::size_t shard_count() const {
    return rules_.shard_count();
  }
  /// Rules evicted by the bounded-memory tier so far.
  [[nodiscard]] std::uint64_t evicted_total() const {
    return rules_.evicted_total();
  }

  /// Attaches enforcement telemetry: the enforce stage's histogram (rule
  /// installation time, obs/stage.h), per-isolation-level install
  /// counters, the denied-flows counter, the eviction counter, and the
  /// rule-cache size gauge. nullptr detaches; the uninstrumented path
  /// takes no clock reads.
  void set_metrics(obs::MetricsRegistry* registry);

 private:
  struct EnforcementMetrics {
    obs::Histogram* enforce_ns = nullptr;
    obs::Counter* rules_strict_total = nullptr;
    obs::Counter* rules_restricted_total = nullptr;
    obs::Counter* rules_trusted_total = nullptr;
    obs::Counter* denied_total = nullptr;
    obs::Counter* evicted_total = nullptr;
    obs::Gauge* rules = nullptr;
  };

  /// Copy-out snapshot of a device's rule taken under the shard's reader
  /// lock — everything Authorize() needs without letting a pointer escape.
  struct RuleProbe {
    IsolationLevel level = IsolationLevel::kStrict;
    bool endpoint_allowed = false;
  };
  [[nodiscard]] RuleProbe Probe(
      const net::MacAddress& mac,
      const std::optional<net::Ipv4Address>& endpoint) const;

  [[nodiscard]] bool IsInfrastructure(const net::ParsedPacket& packet) const;

  net::MacAddress gateway_mac_;
  net::Ipv4Address gateway_ip_;
  /// Device rule by MAC, recency = installation order.
  util::MacTable<EnforcementRule> rules_;
  EnforcementMetrics handles_;
};

}  // namespace sentinel::core
