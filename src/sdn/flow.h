// OpenFlow-style match/action flow rules, the substrate the Security
// Gateway's enforcement compiles into (paper Sect. V: Open vSwitch managed
// by a custom Floodlight module).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "net/frame.h"
#include "util/relaxed_counter.h"

namespace sentinel::sdn {

using PortId = std::uint32_t;

/// Reserved logical ports.
inline constexpr PortId kPortController = 0xfffffffd;
inline constexpr PortId kPortFlood = 0xfffffffb;

/// Wildcardable match over the packet summary a switch extracts. An unset
/// field matches anything.
struct FlowMatch {
  std::optional<PortId> in_port;
  std::optional<net::MacAddress> eth_src;
  std::optional<net::MacAddress> eth_dst;
  std::optional<std::uint16_t> eth_type;
  std::optional<net::Ipv4Address> ip_src;
  std::optional<net::Ipv4Address> ip_dst;
  std::optional<std::uint8_t> ip_proto;
  std::optional<std::uint16_t> tp_src;
  std::optional<std::uint16_t> tp_dst;

  /// True when every set field matches `packet` (arriving on `in`).
  [[nodiscard]] bool Matches(const net::ParsedPacket& packet, PortId in) const;

  /// True when no field is set (matches everything).
  [[nodiscard]] bool IsWildcard() const;

  [[nodiscard]] std::string ToString() const;

  friend bool operator==(const FlowMatch&, const FlowMatch&) = default;
};

/// Forwarding actions. An empty action list means drop.
struct ActionOutput {
  PortId port = 0;
  friend bool operator==(const ActionOutput&, const ActionOutput&) = default;
};
struct ActionFlood {
  friend bool operator==(const ActionFlood&, const ActionFlood&) = default;
};
struct ActionToController {
  friend bool operator==(const ActionToController&,
                         const ActionToController&) = default;
};
using FlowAction = std::variant<ActionOutput, ActionFlood, ActionToController>;

struct FlowRule {
  std::uint16_t priority = 0;
  FlowMatch match;
  std::vector<FlowAction> actions;  // empty = drop
  /// Cookie chosen by the installing module (the Sentinel module stores the
  /// enforcement-rule hash here, tying flow rules back to their policy).
  std::uint64_t cookie = 0;

  /// OpenFlow-style timeouts (0 = never expires). Idle timeout counts from
  /// the last matched packet; hard timeout from installation. Expiry is
  /// driven by FlowTable::ExpireRules.
  std::uint64_t idle_timeout_ns = 0;
  std::uint64_t hard_timeout_ns = 0;

  // Counters maintained by the datapath. Relaxed atomics: the flow table's
  // match path updates them under a *shared* shard lock, so concurrent
  // ingress threads hitting the same rule must not race.
  util::RelaxedCounter packet_count;
  util::RelaxedCounter byte_count;
  mutable std::uint64_t installed_at_ns = 0;
  util::RelaxedCounter last_hit_ns;

  /// Rule id assigned by the owning FlowTable on install (0 before). Stable
  /// across FlowMod replacement; orders Rules() by installation.
  mutable std::uint64_t id = 0;
  /// FlowTable bookkeeping: the rule's position in its shard's storage slab
  /// (enables O(1) swap-remove). Meaningless outside the table.
  mutable std::uint32_t table_index = 0;

  /// True when the rule has timed out as of `now_ns`.
  [[nodiscard]] bool IsExpired(std::uint64_t now_ns) const {
    if (hard_timeout_ns != 0 && now_ns >= installed_at_ns &&
        now_ns - installed_at_ns >= hard_timeout_ns)
      return true;
    if (idle_timeout_ns != 0) {
      const std::uint64_t last_hit = last_hit_ns.Load();
      const std::uint64_t reference =
          last_hit != 0 ? last_hit : installed_at_ns;
      if (now_ns >= reference && now_ns - reference >= idle_timeout_ns)
        return true;
    }
    return false;
  }

  [[nodiscard]] bool IsDrop() const { return actions.empty(); }
  [[nodiscard]] std::string ToString() const;
  /// Approximate heap footprint (for the memory benchmarks).
  [[nodiscard]] std::size_t MemoryBytes() const;
};

}  // namespace sentinel::sdn
