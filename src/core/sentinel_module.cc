#include "core/sentinel_module.h"

#include "core/decision_journal.h"
#include "obs/log.h"
#include "obs/stage.h"

namespace sentinel::core {

namespace {
/// Flow-rule priorities: drop rules outrank the WAN allow rules, and both
/// outrank the learning switch's forwarding rules (priority 10).
constexpr std::uint16_t kDropPriority = 100;
constexpr std::uint16_t kAllowPriority = 50;
}  // namespace

SentinelModule::SentinelModule(SecurityServiceClient& service,
                               EnforcementEngine& engine,
                               SentinelModuleConfig config)
    : service_(service),
      engine_(engine),
      config_(config),
      monitor_(config.monitor) {
  infrastructure_.insert(engine_.gateway_mac());
}

void SentinelModule::set_metrics(obs::MetricsRegistry* registry) {
  monitor_.set_metrics(registry);
  if (registry == nullptr) {
    handles_ = ModuleMetrics{};
    return;
  }
  handles_.identify_ns = obs::StageHistogram(registry, obs::Stage::kIdentify);
  handles_.identifications_total = &registry->GetCounter(
      "sentinel_module_identifications_total",
      "completed captures submitted for assessment");
  handles_.drops_total = &registry->GetCounter(
      "sentinel_module_drop_rules_total",
      "drop rules installed for denied flows");
  handles_.wan_allows_total = &registry->GetCounter(
      "sentinel_module_wan_allow_rules_total",
      "specific WAN allow rules installed for permitted public flows");
  handles_.incidents_total = &registry->GetCounter(
      "sentinel_module_incidents_total",
      "policy denials from already-identified devices");
}

SentinelModule::Verdict SentinelModule::OnPacketIn(
    sdn::SoftwareSwitch& sw, sdn::PortId in_port, const net::Frame& frame,
    const net::ParsedPacket& packet) {
  obs::StageScope stage(obs::Stage::kPacketIn);
  // Frames sourced by the gateway/upstream infrastructure are neither
  // fingerprinted nor policed; default forwarding applies.
  if (infrastructure_.contains(packet.src_mac)) {
    return Verdict::kContinue;
  }

  // 1. Monitoring & fingerprinting of device traffic.
  const Observation seen = monitor_.Observe(packet);
  if (seen.capture.has_value()) Onboard(*seen.capture);

  // Devices still in their setup phase are not policed yet (the paper
  // identifies first, then enforces): forward their traffic so the setup
  // procedure — including cloud registration — can complete, but do not
  // let the learning switch install fast-path rules that would bypass the
  // monitor while fingerprinting is in progress.
  if (seen.collecting) {
    if (HasPublicDestination(packet) && config_.wan_port != 0) {
      sw.PacketOut(config_.wan_port, in_port, frame);
    } else {
      sw.PacketOut(sdn::kPortFlood, in_port, frame);
    }
    return Verdict::kHandled;
  }

  // 2. Policy.
  const Decision decision = engine_.Authorize(packet);
  if (!decision.allow) {
    // The rule is copied out under the cache's lock: an Install or a cap
    // eviction on another thread may replace it at any moment.
    const EnforcementEngine::RuleTag tag =
        engine_.Tag(packet.src_mac, /*with_type=*/on_incident_ != nullptr);
    InstallFlowRule(sw, packet, /*allow_wan=*/false, tag.cookie,
                    seen.trace_id);
    ++drops_installed_;
    if (handles_.drops_total != nullptr) {
      handles_.drops_total->Increment();
      handles_.incidents_total->Increment();
    }
    if (recorder_ != nullptr) {
      recorder_->Record(packet.src_mac,
                        {.kind = obs::DeviceEventKind::kIncident,
                         .timestamp_ns = packet.timestamp_ns,
                         .label = decision.reason});
    }
    SENTINEL_LOG_INFO("module", "flow_denied",
                      {"mac", packet.src_mac.ToString()},
                      {"reason", decision.reason});
    if (on_incident_) {
      on_incident_(
          IncidentEvent{packet.src_mac, tag.device_type, decision.reason});
    }
    return Verdict::kHandled;  // drop: do not forward
  }

  // 3. Permitted Internet-bound traffic: forward on the WAN port with a
  // specific allow rule (so the learning switch never installs a broader
  // device->gateway rule that would bypass the endpoint allowlist).
  if (HasPublicDestination(packet) && config_.wan_port != 0) {
    InstallFlowRule(sw, packet, /*allow_wan=*/true,
                    engine_.Tag(packet.src_mac, /*with_type=*/false).cookie,
                    seen.trace_id);
    if (handles_.wan_allows_total != nullptr)
      handles_.wan_allows_total->Increment();
    sw.PacketOut(config_.wan_port, in_port, frame);
    return Verdict::kHandled;
  }

  // 4. Permitted frames to the gateway or an upstream router (DNS, NTP,
  // gateway services) go out on the WAN port without a flow rule: a learned
  // device->gateway-MAC rule would also carry the device's later
  // Internet-bound frames past the policy check above.
  if (config_.wan_port != 0 && infrastructure_.contains(packet.dst_mac)) {
    sw.PacketOut(config_.wan_port, in_port, frame);
    return Verdict::kHandled;
  }

  // 5. Local traffic: let the learning switch forward it.
  return Verdict::kContinue;
}

void SentinelModule::FlushIdle(std::uint64_t now_ns) {
  for (const auto& capture : monitor_.FlushIdle(now_ns)) Onboard(capture);
}

AssessmentResult SentinelModule::Onboard(const CompletedCapture& capture) {
  // Root span of the device's identification story: the identify, bank
  // scan, tie-break and enforce stages all nest under it on the trace id
  // the monitor assigned at first sight.
  obs::StageScope device(obs::Stage::kIdentifyEnforce, nullptr, tracer_);
  device.JoinTrace(capture.trace_id);
  if (device.traced()) device.AddArg("mac", capture.device_mac.ToString());
  obs::StageScope identify(obs::Stage::kIdentify, handles_.identify_ns);
  const AssessmentResult assessment =
      service_.Assess(capture.full, capture.fixed);
  identify.End();  // rule installation is the enforce stage
  if (handles_.identifications_total != nullptr)
    handles_.identifications_total->Increment();
  if (quality_ != nullptr)
    quality_->RecordAssessmentOutcome(assessment.type.has_value());
  JournalAssessment(recorder_, capture.device_mac, assessment);
  SENTINEL_LOG_INFO("module", "device_identified",
                    {"mac", capture.device_mac.ToString()},
                    {"type", assessment.type_identifier},
                    {"level", static_cast<int>(assessment.level)});

  engine_.Install(MakeEnforcementRule(capture.device_mac, assessment));

  if (on_identification_) {
    on_identification_(IdentificationEvent{capture.device_mac, assessment});
  }
  return assessment;
}

void SentinelModule::InstallFlowRule(sdn::SoftwareSwitch& sw,
                                     const net::ParsedPacket& packet,
                                     bool allow_wan, std::uint64_t cookie,
                                     obs::TraceId trace_id) {
  obs::StageScope stage(obs::Stage::kFlowInstall, nullptr, tracer_);
  stage.JoinTrace(trace_id);
  sdn::FlowRule rule;
  rule.match.eth_src = packet.src_mac;
  if (allow_wan) {
    rule.priority = kAllowPriority;
    rule.match.ip_dst = packet.dst_ip->v4();
    rule.actions = {sdn::ActionOutput{config_.wan_port}};
  } else {
    rule.priority = kDropPriority;
    rule.match.eth_dst = packet.dst_mac;
    if (packet.dst_ip && packet.dst_ip->IsV4() &&
        !packet.dst_ip->v4().IsPrivate()) {
      rule.match.ip_dst = packet.dst_ip->v4();
    }
  }
  rule.cookie = cookie;
  if (recorder_ != nullptr) {
    recorder_->Record(
        packet.src_mac,
        {.kind = obs::DeviceEventKind::kFlowRuleInstalled,
         .timestamp_ns = packet.timestamp_ns,
         .label = allow_wan
                      ? "allow wan -> " + packet.dst_ip->v4().ToString()
                      : "drop -> " + packet.dst_mac.ToString()});
  }
  if (stage.traced()) stage.AddArg("action", allow_wan ? "allow_wan" : "drop");
  sdn::Controller::InstallRule(sw, std::move(rule));
}

}  // namespace sentinel::core
