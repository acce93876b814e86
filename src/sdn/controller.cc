#include "sdn/controller.h"

namespace sentinel::sdn {

Controller::Controller(ControllerOptions options)
    : macs_("controller.mac_shard", options.shard_count,
            options.max_learned_macs_per_shard) {}

void Controller::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    evicted_metric_ = nullptr;
    learned_gauge_ = nullptr;
    return;
  }
  evicted_metric_ = &registry->GetCounter(
      "sentinel_controller_mac_evicted_total",
      "learned stations evicted by the bounded-memory LRU tier");
  learned_gauge_ = &registry->GetGauge(
      "sentinel_controller_learned_macs",
      "stations currently in the learning-switch MAC table");
  learned_gauge_->Set(static_cast<double>(learned_mac_count()));
}

void Controller::Learn(std::uint64_t mac, PortId port) {
  bool inserted = false;
  const std::size_t evicted = macs_.Upsert(
      mac, [port] { return port; },
      [&](PortId& learned, bool is_new) {
        learned = port;
        inserted = is_new;
      });
  if (evicted > 0 && evicted_metric_ != nullptr)
    evicted_metric_->Increment(evicted);
  if (inserted && learned_gauge_ != nullptr)
    learned_gauge_->Set(static_cast<double>(learned_mac_count()));
}

std::unordered_map<std::uint64_t, PortId> Controller::mac_table() const {
  std::unordered_map<std::uint64_t, PortId> out;
  out.reserve(learned_mac_count());
  macs_.ForEach([&out](std::uint64_t mac, const PortId& port) {
    out.emplace(mac, port);
  });
  return out;
}

void Controller::OnPacketIn(SoftwareSwitch& sw, PortId in_port,
                            const net::Frame& frame,
                            const net::ParsedPacket& packet) {
  for (const auto& module : modules_) {
    if (module->OnPacketIn(sw, in_port, frame, packet) ==
        ControllerModule::Verdict::kHandled) {
      return;
    }
  }

  // Learn the source location.
  Learn(packet.src_mac.ToUint64(), in_port);

  const std::optional<PortId> dst = macs_.Read(
      packet.dst_mac.ToUint64(), [](const PortId* port) {
        return port != nullptr ? std::optional<PortId>(*port) : std::nullopt;
      });
  if (!dst.has_value() || packet.dst_mac.IsMulticast()) {
    // Unknown or multicast destination: flood without installing state.
    sw.PacketOut(kPortFlood, in_port, frame);
    return;
  }

  // Known destination: install an exact forwarding rule and forward.
  FlowRule rule;
  rule.priority = 10;
  rule.match.eth_src = packet.src_mac;
  rule.match.eth_dst = packet.dst_mac;
  rule.actions = {ActionOutput{*dst}};
  InstallRule(sw, std::move(rule));
  sw.PacketOut(*dst, in_port, frame);
}

}  // namespace sentinel::sdn
