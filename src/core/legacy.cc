#include "core/legacy.h"

#include "capture/setup_phase.h"

namespace sentinel::core {

std::vector<LegacyDeviceReport> MigrateLegacyNetwork(
    const capture::Trace& standby_capture, SecurityServiceClient& service,
    EnforcementEngine& engine, const LegacyMigrationConfig& config) {
  std::vector<LegacyDeviceReport> reports;
  const auto packets = standby_capture.Parse();
  const auto by_mac = capture::SplitBySourceMac(packets);

  for (const auto& [mac, device_packets] : by_mac) {
    if (mac == engine.gateway_mac()) continue;
    if (device_packets.size() < config.min_packets) continue;

    LegacyDeviceReport report;
    report.mac = mac;
    report.packets_observed = device_packets.size();

    // Fingerprint the whole observation window (capped at max_packets).
    // Standby traffic has idle gaps *by nature* (heartbeats are tens of
    // seconds apart), so the setup-phase idle-gap rule does not apply —
    // the standby-trained classifiers were built from full observation
    // windows and the probe must match that framing.
    const std::size_t end =
        std::min(device_packets.size(), config.phase.max_packets);
    const std::vector<net::ParsedPacket> window(
        device_packets.begin(),
        device_packets.begin() + static_cast<std::ptrdiff_t>(end));
    const auto full = features::Fingerprint::FromPackets(window);
    const auto fixed = features::FixedFingerprint::FromFingerprint(full);

    const AssessmentResult assessment = service.Assess(full, fixed);
    report.type = assessment.type;
    report.type_identifier = assessment.type_identifier;
    report.requires_user_notification = assessment.requires_user_notification;

    // Start from the service's verdict, which stands for vulnerable (or
    // strict) devices. The service lists endpoints only for restricted
    // verdicts, so the overrides below start from an empty allowlist.
    EnforcementRule rule = MakeEnforcementRule(mac, assessment);
    if (!assessment.type.has_value()) {
      // Unidentifiable: strict isolation in the untrusted overlay.
      rule.level = IsolationLevel::kStrict;
    } else if (assessment.level == IsolationLevel::kTrusted) {
      const auto& info = devices::GetDeviceType(*assessment.type);
      if (info.supports_wps_rekeying) {
        // WPS re-keying moves the device into the trusted overlay with a
        // fresh device-specific PSK.
        rule.level = IsolationLevel::kTrusted;
        report.migrated_to_trusted = true;
      } else {
        // Clean but cannot re-key: stays in the untrusted overlay with
        // vendor-cloud access until the user re-introduces it manually.
        rule.level = IsolationLevel::kRestricted;
        devices::NetworkEnvironment resolver;
        for (const auto& endpoint : info.cloud_endpoints) {
          rule.allowed_endpoints.push_back(resolver.ResolveEndpoint(endpoint));
          rule.allowed_endpoint_names.push_back(endpoint);
        }
        report.needs_manual_reintroduction = true;
      }
    }
    report.level = rule.level;
    engine.Install(std::move(rule));
    reports.push_back(std::move(report));
  }
  return reports;
}

}  // namespace sentinel::core
