// Security Gateway facade (paper Fig. 1): the SDN switch + controller +
// Sentinel module + enforcement engine assembled into the component that
// sits as the home router. This is the top-level object applications embed.
#pragma once

#include <memory>

#include "core/gateway_services.h"
#include "core/sentinel_module.h"
#include "devices/environment.h"
#include "sdn/controller.h"
#include "sdn/switch.h"

namespace sentinel::core {

struct SecurityGatewayConfig {
  net::MacAddress gateway_mac =
      net::MacAddress({0x02, 0x00, 0x5e, 0x00, 0x00, 0x01});
  net::Ipv4Address gateway_ip = net::Ipv4Address(192, 168, 1, 1);
  sdn::PortId wan_port = 1;
  /// Setup-phase detection for the device monitor.
  capture::SetupPhaseConfig setup;
  /// Fleet-scale knobs for the four MAC-keyed tables (flow rules, learned
  /// stations, enforcement rules, device sessions). One shard count for
  /// all four, rounded up to a power of two, and one bounded-memory cap
  /// per table, per shard (0 = unbounded). Defaults (one shard, no caps)
  /// keep the single-tenant behavior bit-identical.
  std::size_t shard_count = 1;
  /// Flow rules matching on eth_src (sdn::FlowTableOptions).
  std::size_t max_flow_rules_per_shard = 0;
  std::size_t max_learned_macs_per_shard = 0;
  std::size_t max_enforcement_rules_per_shard = 0;
  std::size_t max_sessions_per_shard = 0;
  /// When true the gateway also runs its network services (DHCP, DNS, NTP,
  /// ARP/ICMP responder) on the datapath, answering devices directly. Off
  /// by default for deployments where an existing router keeps those roles.
  bool enable_services = false;
  /// Upstream DNS resolution for the services module (defaults to the
  /// deterministic simulator resolver when unset).
  DnsResolverFn dns_resolver;
};

class SecurityGateway {
 public:
  /// `service` must outlive the gateway.
  SecurityGateway(SecurityServiceClient& service,
                  SecurityGatewayConfig config = {});

  /// Attaches a device-facing port (WiFi or Ethernet).
  void AttachPort(sdn::PortId port, sdn::PortOutput output) {
    switch_.AttachPort(port, std::move(output));
  }
  /// Attaches the Internet uplink.
  void AttachWan(sdn::PortOutput output) {
    switch_.AttachPort(config_.wan_port, std::move(output));
  }

  /// Feeds a frame arriving on `port` through monitoring + enforcement +
  /// forwarding. Returns true when the frame was forwarded.
  bool Ingress(sdn::PortId port, const net::Frame& frame) {
    return switch_.Inject(port, frame);
  }

  sdn::SoftwareSwitch& datapath() { return switch_; }
  sdn::Controller& controller() { return controller_; }
  SentinelModule& sentinel() { return *module_; }
  EnforcementEngine& enforcement() { return engine_; }
  /// Gateway network services; only valid when config.enable_services.
  GatewayServices& services() { return services_module_->services(); }
  [[nodiscard]] bool has_services() const {
    return services_module_ != nullptr;
  }
  [[nodiscard]] const SecurityGatewayConfig& config() const { return config_; }

  /// Total gateway state attributable to Sentinel (enforcement-rule cache +
  /// datapath flow table) — the growing component of Fig. 6c.
  [[nodiscard]] std::size_t MemoryBytes() const {
    return switch_.MemoryBytes() + engine_.MemoryBytes();
  }

  /// Attaches one metrics registry across the whole gateway: datapath
  /// (switch + flow table), Sentinel module (monitor + identify stage) and
  /// enforcement engine. The stage histograms of the stage table
  /// (obs/stage.h), ingress through enforce, all come live through this
  /// one call. nullptr detaches everything. Runtime
  /// wiring only — nothing here alters forwarding or identification
  /// results.
  void set_metrics(obs::MetricsRegistry* registry) {
    switch_.set_metrics(registry);
    controller_.set_metrics(registry);
    module_->set_metrics(registry);
    engine_.set_metrics(registry);
  }

  /// Attaches decision-provenance tracing across the gateway: the Sentinel
  /// module (and its monitor) assign one trace id per device, and its
  /// capture, fingerprint and identify_enforce stages (identify, bank
  /// scan, tie-break and enforce nested) all join it. nullptr detaches;
  /// untraced runs stay bit-identical.
  void set_tracer(obs::Tracer* tracer) { module_->set_tracer(tracer); }
  /// Attaches the per-device flight recorder journaling every device's
  /// identification story (served by `sentinelctl serve` under
  /// /devices/<mac> and rendered by `sentinelctl explain`).
  void set_flight_recorder(obs::FlightRecorder* recorder) {
    module_->set_flight_recorder(recorder);
  }
  /// Attaches the model-quality monitor to the Sentinel module (assessment
  /// outcomes). The identifier-level wiring lives on the SecurityService
  /// the gateway talks to, which the caller owns.
  void set_quality_monitor(obs::QualityMonitor* monitor) {
    module_->set_quality_monitor(monitor);
  }

 private:
  SecurityGatewayConfig config_;
  sdn::SoftwareSwitch switch_;
  sdn::Controller controller_;
  EnforcementEngine engine_;
  std::shared_ptr<GatewayServicesModule> services_module_;
  std::shared_ptr<SentinelModule> module_;
};

}  // namespace sentinel::core
