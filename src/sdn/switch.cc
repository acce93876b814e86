#include "sdn/switch.h"

#include "obs/stage.h"
#include "sdn/controller.h"

namespace sentinel::sdn {

SoftwareSwitch::SoftwareSwitch(std::string datapath_id,
                               FlowTableOptions table_options)
    : datapath_id_(std::move(datapath_id)), table_(table_options) {}

void SoftwareSwitch::set_metrics(obs::MetricsRegistry* registry) {
  table_.set_metrics(registry);
  if (registry == nullptr) {
    handles_ = SwitchMetrics{};
    return;
  }
  handles_.ingress_ns = obs::StageHistogram(registry, obs::Stage::kIngress);
  handles_.received_total = &registry->GetCounter(
      "sentinel_switch_received_total", "frames injected into the datapath");
  handles_.forwarded_total = &registry->GetCounter(
      "sentinel_switch_forwarded_total", "frames forwarded by rule or "
      "controller PacketOut");
  handles_.flooded_total = &registry->GetCounter(
      "sentinel_switch_flooded_total", "frames flooded to all other ports");
  handles_.dropped_total = &registry->GetCounter(
      "sentinel_switch_dropped_total", "frames dropped by drop rules");
  handles_.packet_ins_total = &registry->GetCounter(
      "sentinel_switch_packet_ins_total", "table misses punted to the "
      "controller");
  handles_.malformed_total = &registry->GetCounter(
      "sentinel_switch_malformed_total", "frames that failed to parse");
}

void SoftwareSwitch::AttachPort(PortId port, PortOutput output) {
  ports_[port] = std::move(output);
}

void SoftwareSwitch::DetachPort(PortId port) { ports_.erase(port); }

bool SoftwareSwitch::Inject(PortId in_port, const net::Frame& frame) {
  obs::StageScope stage(obs::Stage::kIngress, handles_.ingress_ns);
  ++counters_.received;
  if (handles_.received_total != nullptr) handles_.received_total->Increment();
  net::ParsedPacket packet;
  try {
    packet = net::ParseFrame(frame);
  } catch (const net::CodecError&) {
    ++counters_.malformed;
    if (handles_.malformed_total != nullptr)
      handles_.malformed_total->Increment();
    return false;
  }

  // Copy-out match: the table bumps the winning rule's hit counters and
  // releases its locks before any action runs, so output callbacks that
  // re-enter Inject() (netsim delivery is synchronous) never hold a lock.
  const FlowTable::MatchResult match =
      table_.Match(packet, in_port, frame.timestamp_ns, frame.size());
  if (!match.matched) {
    ++counters_.packet_ins;
    if (handles_.packet_ins_total != nullptr)
      handles_.packet_ins_total->Increment();
    if (controller_ != nullptr)
      controller_->OnPacketIn(*this, in_port, frame, packet);
    // The controller may have installed rules and/or forwarded the frame
    // itself; from the datapath's perspective this frame is handled.
    return true;
  }

  if (match.drop) {
    ++counters_.dropped;
    if (handles_.dropped_total != nullptr) handles_.dropped_total->Increment();
    return false;
  }
  bool forwarded = false;
  for (std::size_t i = 0; i < match.action_count; ++i) {
    const FlowAction& action = match.action(i);
    if (const auto* out = std::get_if<ActionOutput>(&action)) {
      Output(out->port, in_port, frame);
      forwarded = true;
    } else if (std::holds_alternative<ActionFlood>(action)) {
      Flood(in_port, frame);
      forwarded = true;
    } else if (std::holds_alternative<ActionToController>(action)) {
      ++counters_.packet_ins;
      if (handles_.packet_ins_total != nullptr)
        handles_.packet_ins_total->Increment();
      if (controller_ != nullptr)
        controller_->OnPacketIn(*this, in_port, frame, packet);
    }
  }
  if (forwarded) {
    ++counters_.forwarded;
    if (handles_.forwarded_total != nullptr)
      handles_.forwarded_total->Increment();
  }
  return forwarded;
}

void SoftwareSwitch::PacketOut(PortId out_port, PortId in_port,
                               const net::Frame& frame) {
  ++counters_.forwarded;
  if (handles_.forwarded_total != nullptr)
    handles_.forwarded_total->Increment();
  Output(out_port, in_port, frame);
}

void SoftwareSwitch::Output(PortId out_port, PortId in_port,
                            const net::Frame& frame) {
  if (out_port == kPortFlood) {
    Flood(in_port, frame);
    return;
  }
  const auto it = ports_.find(out_port);
  if (it != ports_.end() && it->second) it->second(frame);
}

void SoftwareSwitch::Flood(PortId in_port, const net::Frame& frame) {
  ++counters_.flooded;
  if (handles_.flooded_total != nullptr) handles_.flooded_total->Increment();
  for (const auto& [port, output] : ports_) {
    if (port == in_port || !output) continue;
    output(frame);
  }
}

std::size_t SoftwareSwitch::MemoryBytes() const {
  std::size_t total = sizeof(*this) + table_.MemoryBytes();
  total += ports_.size() * (sizeof(PortId) + sizeof(PortOutput) +
                            2 * sizeof(void*));
  return total;
}

}  // namespace sentinel::sdn
