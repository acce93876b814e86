#include "core/security_service.h"

#include "devices/simulator.h"

namespace sentinel::core {

EnforcementRule MakeEnforcementRule(const net::MacAddress& mac,
                                    const AssessmentResult& assessment) {
  EnforcementRule rule;
  rule.device_mac = mac;
  rule.level = assessment.level;
  rule.device_type = assessment.type_identifier;
  rule.allowed_endpoints = assessment.allowed_endpoints;
  rule.allowed_endpoint_names = assessment.allowed_endpoint_names;
  return rule;
}

SecurityService::SecurityService(DeviceIdentifier identifier,
                                 VulnerabilityDb db)
    : identifier_(std::move(identifier)), db_(std::move(db)) {}

IsolationLevel SecurityService::AssessType(devices::DeviceTypeId type) const {
  const auto& info = devices::GetDeviceType(type);
  return db_.HasVulnerabilities(info.identifier) ? IsolationLevel::kRestricted
                                                 : IsolationLevel::kTrusted;
}

AssessmentResult SecurityService::Assess(
    const features::Fingerprint& full,
    const features::FixedFingerprint& fixed) {
  AssessmentResult result;
  result.identification = identifier_.Identify(full, fixed);

  if (!result.identification.IsKnown()) {
    // Unknown device-type: strict isolation (paper Sect. III-B).
    result.level = IsolationLevel::kStrict;
    return result;
  }

  const auto type =
      static_cast<devices::DeviceTypeId>(*result.identification.type);
  const auto& info = devices::GetDeviceType(type);
  result.type = type;
  result.type_identifier = info.identifier;
  result.advisories = db_.Query(info.identifier);
  // Crowdsourced early warning: enough independent gateways reporting
  // incidents involving this type marks it vulnerable ahead of any CVE.
  if (result.advisories.empty() && incidents_.IsFlagged(info.identifier)) {
    result.advisories.push_back(VulnerabilityRecord{
        .cve_id = "CROWD-" + info.identifier,
        .device_type = info.identifier,
        .summary = "security incidents reported by " +
                   std::to_string(incidents_.DistinctReporters(
                       info.identifier)) +
                   " independent gateways",
        .cvss_score = 6.5});
  }
  result.level = result.advisories.empty() ? IsolationLevel::kTrusted
                                           : IsolationLevel::kRestricted;
  result.requires_user_notification =
      !result.advisories.empty() && info.HasUncontrollableChannel();
  if (result.level == IsolationLevel::kRestricted) {
    for (const auto& endpoint : info.cloud_endpoints) {
      result.allowed_endpoints.push_back(resolver_.ResolveEndpoint(endpoint));
      result.allowed_endpoint_names.push_back(endpoint);
    }
  }
  return result;
}

std::unique_ptr<SecurityService> BuildTrainedSecurityService(
    std::size_t n_per_type, std::uint64_t seed, IdentifierConfig config,
    TrainingTrafficMode mode) {
  const auto dataset =
      mode == TrainingTrafficMode::kStandby
          ? devices::GenerateStandbyFingerprintDataset(n_per_type, seed)
          : devices::GenerateFingerprintDataset(n_per_type, seed);
  std::vector<LabelledFingerprint> examples;
  examples.reserve(dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    examples.push_back(LabelledFingerprint{&dataset.fingerprints[i],
                                           &dataset.fixed[i],
                                           dataset.labels[i]});
  }
  DeviceIdentifier identifier(config);
  identifier.Train(examples);
  return std::make_unique<SecurityService>(std::move(identifier),
                                           VulnerabilityDb::SeedFromCatalog());
}

}  // namespace sentinel::core
