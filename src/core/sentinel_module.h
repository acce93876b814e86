// The custom SDN-controller module (paper Sect. V): performs network
// monitoring, fingerprint generation, talks to the IoT Security Service,
// and generates/enforces the per-device isolation rules in the datapath.
#pragma once

#include <functional>
#include <memory>
#include <unordered_set>

#include "core/device_monitor.h"
#include "core/enforcement.h"
#include "core/security_service.h"
#include "obs/metrics.h"
#include "obs/quality.h"
#include "sdn/controller.h"
#include "util/relaxed_counter.h"

namespace sentinel::core {

struct SentinelModuleConfig {
  /// Switch port leading to the Internet (public destinations are output
  /// here when permitted).
  sdn::PortId wan_port = 0;
  /// The embedded device monitor: setup-phase detection, session shards
  /// and the session cap.
  DeviceMonitorOptions monitor;
};

/// Notification issued when a device has been identified and its
/// enforcement rule installed (drives UIs / the paper's user notification
/// mitigation for devices that cannot be safely isolated).
struct IdentificationEvent {
  net::MacAddress device_mac;
  AssessmentResult assessment;
};

/// Security incident observed by the gateway: an *identified* device
/// attempted something its policy forbids. These are the crowdsourced
/// reports the IoTSSP correlates across gateways (Sect. III-B).
struct IncidentEvent {
  net::MacAddress device_mac;
  std::string device_type;  // empty if the device was never identified
  std::string description;  // the denial reason
};

class SentinelModule : public sdn::ControllerModule {
 public:
  SentinelModule(SecurityServiceClient& service, EnforcementEngine& engine,
                 SentinelModuleConfig config);

  [[nodiscard]] std::string name() const override { return "iot-sentinel"; }

  Verdict OnPacketIn(sdn::SoftwareSwitch& sw, sdn::PortId in_port,
                     const net::Frame& frame,
                     const net::ParsedPacket& packet) override;

  /// MACs whose traffic is never fingerprinted or policed (the gateway
  /// itself, upstream routers). Permitted device frames addressed to them
  /// leave on the WAN port without a flow rule.
  void AddInfrastructureMac(const net::MacAddress& mac) {
    infrastructure_.insert(mac);
  }

  /// Registers a callback fired on every completed identification.
  void OnIdentification(std::function<void(const IdentificationEvent&)> cb) {
    on_identification_ = std::move(cb);
  }

  /// Registers a callback fired whenever policy blocks a flow from an
  /// identified device — the gateway-side source of crowdsourced incident
  /// reports.
  void OnIncident(std::function<void(const IncidentEvent&)> cb) {
    on_incident_ = std::move(cb);
  }

  /// Clock-driven flush: identifies devices whose setup phase ended by
  /// going quiet (no packet arrived to trigger the boundary). Call this
  /// periodically (or after injecting a capture) with the current time.
  void FlushIdle(std::uint64_t now_ns);

  /// The onboarding step, for every completed capture: assesses it with
  /// the Security Service, journals the verdict and installs the device's
  /// enforcement rule, under one identify_enforce span. OnPacketIn and
  /// FlushIdle call it for live captures; a recorded trace replayed
  /// through monitor() is onboarded by calling it per capture.
  AssessmentResult Onboard(const CompletedCapture& capture);

  DeviceMonitor& monitor() { return monitor_; }
  [[nodiscard]] std::uint64_t drops_installed() const {
    return drops_installed_.Load();
  }

  /// Attaches controller-module telemetry and propagates the registry to
  /// the embedded DeviceMonitor. The module records the identify stage's
  /// histogram around the Security Service assessment (the monitor owns
  /// the capture/fingerprint stages, the enforcement engine the enforce
  /// stage) plus drop-rule / WAN-allow / incident / identification
  /// counters. nullptr detaches everything.
  void set_metrics(obs::MetricsRegistry* registry);

  /// Attaches decision-provenance tracing and propagates it to the
  /// embedded DeviceMonitor: each identified device gets one trace id
  /// under which the capture → fingerprint → identify → tie-break →
  /// enforce spans nest. nullptr detaches.
  void set_tracer(obs::Tracer* tracer) {
    tracer_ = tracer;
    monitor_.set_tracer(tracer);
  }
  /// Attaches the per-device flight recorder (propagated to the monitor);
  /// the module journals classifier votes, tie-break scores, verdicts,
  /// flow-rule installs and incidents into it. nullptr detaches.
  void set_flight_recorder(obs::FlightRecorder* recorder) {
    recorder_ = recorder;
    monitor_.set_flight_recorder(recorder);
  }

  /// Attaches the model-quality monitor: the module records each
  /// gateway-level assessment outcome (known vs unknown/isolated) on it.
  /// Identification-level samples are recorded by the identifier itself —
  /// wire the monitor there too (SecurityService::set_quality_monitor).
  /// nullptr detaches; pure read-side, verdicts unchanged.
  void set_quality_monitor(obs::QualityMonitor* monitor) {
    quality_ = monitor;
  }

 private:
  /// Installs the flow rule for a policed frame: a drop rule, or with
  /// `allow_wan` a specific WAN allow rule for a permitted public flow.
  /// `cookie` is the source device's rule tag (EnforcementEngine::Tag),
  /// `trace_id` its provenance trace.
  void InstallFlowRule(sdn::SoftwareSwitch& sw,
                       const net::ParsedPacket& packet, bool allow_wan,
                       std::uint64_t cookie, obs::TraceId trace_id);

  struct ModuleMetrics {
    obs::Histogram* identify_ns = nullptr;
    obs::Counter* identifications_total = nullptr;
    obs::Counter* drops_total = nullptr;
    obs::Counter* wan_allows_total = nullptr;
    obs::Counter* incidents_total = nullptr;
  };

  SecurityServiceClient& service_;
  EnforcementEngine& engine_;
  SentinelModuleConfig config_;
  DeviceMonitor monitor_;
  std::unordered_set<net::MacAddress> infrastructure_;
  std::function<void(const IdentificationEvent&)> on_identification_;
  std::function<void(const IncidentEvent&)> on_incident_;
  /// Bumped on the packet-in path, which may run on several threads.
  util::RelaxedCounter drops_installed_;
  ModuleMetrics handles_;
  obs::Tracer* tracer_ = nullptr;
  obs::FlightRecorder* recorder_ = nullptr;
  obs::QualityMonitor* quality_ = nullptr;
};

}  // namespace sentinel::core
