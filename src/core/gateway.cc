#include "core/gateway.h"

namespace sentinel::core {

SecurityGateway::SecurityGateway(SecurityServiceClient& service,
                                 SecurityGatewayConfig config)
    : config_(config),
      switch_("security-gateway",
              {.shard_count = config.shard_count,
               .max_exact_rules_per_shard = config.max_flow_rules_per_shard}),
      controller_({.shard_count = config.shard_count,
                   .max_learned_macs_per_shard =
                       config.max_learned_macs_per_shard}),
      engine_(config.gateway_mac, config.gateway_ip,
              {.shard_count = config.shard_count,
               .max_rules_per_shard =
                   config.max_enforcement_rules_per_shard}) {
  if (config.enable_services) {
    GatewayServicesConfig services_config;
    services_config.mac = config.gateway_mac;
    services_config.ip = config.gateway_ip;
    DnsResolverFn resolver = config.dns_resolver;
    if (!resolver) {
      resolver = [](const std::string& name)
          -> std::optional<net::Ipv4Address> {
        return devices::NetworkEnvironment().ResolveEndpoint(name);
      };
    }
    services_module_ = std::make_shared<GatewayServicesModule>(
        services_config, std::move(resolver));
    // Services answer first; the Sentinel module still sees every packet
    // because the services module never consumes.
    controller_.AddModule(services_module_);
  }
  const SentinelModuleConfig module_config{
      .wan_port = config.wan_port,
      .monitor = {.setup = config.setup,
                  .shard_count = config.shard_count,
                  .max_sessions_per_shard = config.max_sessions_per_shard}};
  module_ = std::make_shared<SentinelModule>(service, engine_, module_config);
  controller_.AddModule(module_);
  switch_.SetController(&controller_);
}

}  // namespace sentinel::core
