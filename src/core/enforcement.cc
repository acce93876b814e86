#include "core/enforcement.h"

#include "obs/log.h"
#include "obs/stage.h"

namespace sentinel::core {

EnforcementEngine::EnforcementEngine(net::MacAddress gateway_mac,
                                     net::Ipv4Address gateway_ip,
                                     EnforcementOptions options)
    : gateway_mac_(gateway_mac),
      gateway_ip_(gateway_ip),
      rules_("enforcement.rule_shard", options.shard_count,
             options.max_rules_per_shard) {}

void EnforcementEngine::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    handles_ = EnforcementMetrics{};
    return;
  }
  handles_.enforce_ns = obs::StageHistogram(registry, obs::Stage::kEnforce);
  handles_.rules_strict_total = &registry->GetCounter(
      "sentinel_enforce_rules_strict_total",
      "enforcement rules installed at strict isolation");
  handles_.rules_restricted_total = &registry->GetCounter(
      "sentinel_enforce_rules_restricted_total",
      "enforcement rules installed at restricted isolation");
  handles_.rules_trusted_total = &registry->GetCounter(
      "sentinel_enforce_rules_trusted_total",
      "enforcement rules installed at trusted isolation");
  handles_.denied_total = &registry->GetCounter(
      "sentinel_enforce_denied_total", "flows denied by policy evaluation");
  handles_.evicted_total = &registry->GetCounter(
      "sentinel_enforce_rules_evicted_total",
      "enforcement rules evicted by the bounded-memory LRU tier");
  handles_.rules = &registry->GetGauge(
      "sentinel_enforce_rules", "devices in the enforcement-rule cache");
  handles_.rules->Set(static_cast<double>(rule_count()));
}

void EnforcementEngine::Install(EnforcementRule rule) {
  // Context-only span: nests under the module's per-device root span when
  // one is active (the engine itself needs no tracer wiring).
  obs::StageScope stage(obs::Stage::kEnforce, handles_.enforce_ns);
  if (stage.traced()) {
    stage.AddArg("mac", rule.device_mac.ToString());
    stage.AddArg("level", ToString(rule.level));
  }
  if (handles_.rules_strict_total != nullptr) {
    switch (rule.level) {
      case IsolationLevel::kStrict:
        handles_.rules_strict_total->Increment();
        break;
      case IsolationLevel::kRestricted:
        handles_.rules_restricted_total->Increment();
        break;
      case IsolationLevel::kTrusted:
        handles_.rules_trusted_total->Increment();
        break;
    }
  }
  SENTINEL_LOG_INFO("enforcement", "rule_installed",
                    {"mac", rule.device_mac.ToString()},
                    {"type", rule.device_type},
                    {"level", ToString(rule.level)});

  const std::size_t evicted = rules_.Upsert(
      rule.device_mac.ToUint64(), [] { return EnforcementRule{}; },
      [&rule](EnforcementRule& installed, bool /*inserted*/) {
        installed = std::move(rule);
      });
  if (evicted > 0 && handles_.evicted_total != nullptr)
    handles_.evicted_total->Increment(evicted);
  if (handles_.rules != nullptr)
    handles_.rules->Set(static_cast<double>(rule_count()));
}

bool EnforcementEngine::Remove(const net::MacAddress& mac) {
  const bool removed = rules_.Erase(mac.ToUint64());
  if (removed && handles_.rules != nullptr)
    handles_.rules->Set(static_cast<double>(rule_count()));
  return removed;
}

const EnforcementRule* EnforcementEngine::Find(
    const net::MacAddress& mac) const {
  return rules_.Read(mac.ToUint64(),
                     [](const EnforcementRule* rule) { return rule; });
}

EnforcementEngine::RuleTag EnforcementEngine::Tag(const net::MacAddress& mac,
                                                  bool with_type) const {
  return rules_.Read(mac.ToUint64(), [with_type](const EnforcementRule* rule) {
    RuleTag tag;
    if (rule == nullptr) return tag;
    tag.cookie = rule->Hash();
    if (with_type) tag.device_type = rule->device_type;
    return tag;
  });
}

EnforcementEngine::RuleProbe EnforcementEngine::Probe(
    const net::MacAddress& mac,
    const std::optional<net::Ipv4Address>& endpoint) const {
  return rules_.Read(mac.ToUint64(), [&endpoint](const EnforcementRule* rule) {
    RuleProbe probe;
    if (rule == nullptr) return probe;
    probe.level = rule->level;
    if (endpoint.has_value())
      probe.endpoint_allowed = rule->AllowsEndpoint(*endpoint);
    return probe;
  });
}

IsolationLevel EnforcementEngine::EffectiveLevel(
    const net::MacAddress& mac) const {
  return Probe(mac, std::nullopt).level;
}

bool EnforcementEngine::IsInfrastructure(
    const net::ParsedPacket& packet) const {
  using net::Protocol;
  if (packet.protocols.Has(Protocol::kArp) ||
      packet.protocols.Has(Protocol::kEapol) ||
      packet.protocols.Has(Protocol::kIcmpv6) ||
      packet.protocols.Has(Protocol::kBootp) ||
      packet.protocols.Has(Protocol::kDhcp)) {
    return true;
  }
  // DNS/NTP served by the gateway itself.
  if ((packet.protocols.Has(Protocol::kDns) ||
       packet.protocols.Has(Protocol::kNtp)) &&
      packet.dst_ip && packet.dst_ip->IsV4() &&
      packet.dst_ip->v4() == gateway_ip_) {
    return true;
  }
  return false;
}

Decision EnforcementEngine::Authorize(const net::ParsedPacket& packet) const {
  if (IsInfrastructure(packet)) {
    return {.allow = true, .reason = "infrastructure traffic"};
  }

  // Remote (Internet) destination?
  const bool is_public = HasPublicDestination(packet);
  const RuleProbe src = Probe(
      packet.src_mac, is_public ? std::optional<net::Ipv4Address>(
                                      packet.dst_ip->v4())
                                : std::nullopt);

  if (is_public) {
    switch (src.level) {
      case IsolationLevel::kTrusted:
        return {.allow = true,
                .reason = "trusted device, full Internet access"};
      case IsolationLevel::kRestricted:
        if (src.endpoint_allowed) {
          return {.allow = true,
                  .reason = "restricted device, allowlisted endpoint"};
        }
        if (handles_.denied_total != nullptr) handles_.denied_total->Increment();
        return {.allow = false,
                .reason = "restricted device, endpoint not allowlisted"};
      case IsolationLevel::kStrict:
        if (handles_.denied_total != nullptr) handles_.denied_total->Increment();
        return {.allow = false,
                .reason = "strict isolation, no Internet access"};
    }
  }

  // Local multicast/broadcast discovery stays within the device's overlay;
  // the gateway mirrors it only to same-overlay ports, so permitting it
  // here is safe.
  if (packet.dst_mac.IsMulticast() || packet.dst_mac.IsBroadcast()) {
    return {.allow = true, .reason = "local discovery within overlay"};
  }

  // Traffic addressed to the gateway itself.
  if (packet.dst_mac == gateway_mac_) {
    return {.allow = true, .reason = "gateway services"};
  }

  // Device-to-device: both ends must share an overlay (Fig. 3).
  const IsolationLevel dst_level = EffectiveLevel(packet.dst_mac);
  if (OverlayOf(src.level) == OverlayOf(dst_level)) {
    return {.allow = true,
            .reason = OverlayOf(src.level) == Overlay::kTrusted
                          ? "both devices in trusted network"
                          : "both devices in untrusted network"};
  }
  if (handles_.denied_total != nullptr) handles_.denied_total->Increment();
  return {.allow = false, .reason = "cross-overlay communication blocked"};
}

std::size_t EnforcementEngine::MemoryBytes() const {
  return sizeof(*this) + rules_.MemoryBytes([](const EnforcementRule& rule) {
           return rule.MemoryBytes();
         });
}

}  // namespace sentinel::core
