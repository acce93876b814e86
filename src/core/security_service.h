// The IoT Security Service (IoTSSP, paper Sect. III-B): receives device
// fingerprints from Security Gateways, classifies them, assesses the
// identified type against the vulnerability database and returns the
// isolation level (plus the endpoint allowlist for restricted devices).
// Stateless towards its clients: it stores no per-gateway information.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "core/device_identifier.h"
#include "core/incident_registry.h"
#include "core/isolation.h"
#include "core/vulnerability_db.h"
#include "devices/catalog.h"
#include "devices/environment.h"

namespace sentinel::core {

/// The IoTSSP's verdict for one fingerprint.
struct AssessmentResult {
  /// Identified catalog type, or nullopt for an unknown device-type.
  std::optional<devices::DeviceTypeId> type;
  std::string type_identifier;  // empty if unknown
  IsolationLevel level = IsolationLevel::kStrict;
  std::vector<net::Ipv4Address> allowed_endpoints;
  std::vector<std::string> allowed_endpoint_names;
  /// Advisories that triggered the restriction (empty if none).
  std::vector<VulnerabilityRecord> advisories;
  /// Paper Sect. III-C3: the device is vulnerable AND has a communication
  /// channel the gateway cannot control (Bluetooth/LTE/proprietary RF), so
  /// isolation alone is insufficient — the user must be told to remove it.
  bool requires_user_notification = false;
  IdentificationResult identification;
};

/// The enforcement rule a gateway installs for `mac` on `assessment`: its
/// isolation level, type and endpoint allowlist.
EnforcementRule MakeEnforcementRule(const net::MacAddress& mac,
                                    const AssessmentResult& assessment);

/// Client-side interface: what a Security Gateway needs from the IoTSSP.
/// Production deployments talk to a remote service (possibly over Tor, per
/// the paper); tests and examples use the in-process implementation below.
class SecurityServiceClient {
 public:
  virtual ~SecurityServiceClient() = default;
  virtual AssessmentResult Assess(const features::Fingerprint& full,
                                  const features::FixedFingerprint& fixed) = 0;
};

/// In-process IoT Security Service.
class SecurityService : public SecurityServiceClient {
 public:
  /// `identifier` must already be trained with catalog labels
  /// (DeviceTypeId values). `db` supplies vulnerability assessments.
  SecurityService(DeviceIdentifier identifier, VulnerabilityDb db);

  AssessmentResult Assess(const features::Fingerprint& full,
                          const features::FixedFingerprint& fixed) override;

  /// Vulnerability assessment only (by catalog type), as used when a
  /// gateway re-queries for updates.
  [[nodiscard]] IsolationLevel AssessType(devices::DeviceTypeId type) const;

  /// Crowdsourced incident intake (Sect. III-B): gateways report security
  /// incidents tagged with the device-type they involve; once enough
  /// distinct gateways report a type it is treated as vulnerable even
  /// without a published CVE. Returns true when this report flips the
  /// type's status.
  bool ReportIncident(const IncidentReport& report) {
    return incidents_.Report(report);
  }

  [[nodiscard]] const DeviceIdentifier& identifier() const {
    return identifier_;
  }
  /// Mutable access for runtime wiring (thread pool, metrics registry).
  DeviceIdentifier& identifier() { return identifier_; }
  /// Forwards a metrics registry to the embedded identifier so Assess()
  /// records bank-scan and discrimination telemetry.
  void set_metrics(obs::MetricsRegistry* registry) {
    identifier_.set_metrics(registry);
  }
  /// Forwards the model-quality monitor to the embedded identifier so
  /// every Assess() verdict feeds the quality/drift plane.
  void set_quality_monitor(obs::QualityMonitor* monitor) {
    identifier_.set_quality_monitor(monitor);
  }
  [[nodiscard]] const VulnerabilityDb& vulnerability_db() const { return db_; }
  [[nodiscard]] const IncidentRegistry& incidents() const {
    return incidents_;
  }

 private:
  DeviceIdentifier identifier_;
  VulnerabilityDb db_;
  IncidentRegistry incidents_;
  devices::NetworkEnvironment resolver_;
};

/// Traffic the classifiers are trained on: the setup burst of new devices
/// (the paper's primary mode) or standby/operational traffic (legacy
/// installations, Sect. VIII-A — required by MigrateLegacyNetwork).
enum class TrainingTrafficMode : std::uint8_t {
  kSetupPhase = 0,
  kStandby = 1,
};

/// Builds a ready-to-use SecurityService: simulates `n_per_type` episodes
/// per catalog type in the requested traffic mode, trains the per-type
/// classifiers, and seeds the vulnerability database from the catalog.
std::unique_ptr<SecurityService> BuildTrainedSecurityService(
    std::size_t n_per_type = 20, std::uint64_t seed = 42,
    IdentifierConfig config = {},
    TrainingTrafficMode mode = TrainingTrafficMode::kSetupPhase);

}  // namespace sentinel::core
