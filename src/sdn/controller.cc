#include "sdn/controller.h"

#include "util/mutex.h"
#include "util/shard.h"

namespace sentinel::sdn {

Controller::Controller(ControllerOptions options)
    : learning_switch_(options.learning_switch),
      max_learned_macs_per_shard_(options.max_learned_macs_per_shard) {
  const std::size_t shard_count =
      util::NormalizeShardCount(options.shard_count);
  mac_shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i)
    mac_shards_.push_back(std::make_unique<MacShard>());
}

Controller::MacShard& Controller::ShardFor(std::uint64_t mac) const {
  return *mac_shards_[util::ShardIndexFor(mac, mac_shards_.size())];
}

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
  MacShard& shard = ShardFor(mac);
  WriterLock lock(shard.mutex);
  const auto it = shard.macs.find(mac);
  if (it != shard.macs.end()) {
    it->second.port = port;
    // Refresh recency: move to the front of the shard's list.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
    return;
  }
  shard.lru.push_front(mac);
  shard.macs.emplace(mac, MacEntry{port, shard.lru.begin()});
  std::size_t evicted_here = 0;
  if (max_learned_macs_per_shard_ > 0) {
    while (shard.macs.size() > max_learned_macs_per_shard_) {
      shard.macs.erase(shard.lru.back());
      shard.lru.pop_back();
      ++evicted_here;
    }
  }
  lock.Unlock();
  if (evicted_here > 0) {
    evicted_.fetch_add(evicted_here, std::memory_order_relaxed);
    if (evicted_metric_ != nullptr) evicted_metric_->Increment(evicted_here);
  }
  if (learned_gauge_ != nullptr)
    learned_gauge_->Set(static_cast<double>(learned_mac_count()));
}

std::optional<PortId> Controller::LookupPort(std::uint64_t mac) const {
  const MacShard& shard = ShardFor(mac);
  ReaderLock lock(shard.mutex);
  const auto it = shard.macs.find(mac);
  if (it == shard.macs.end()) return std::nullopt;
  return it->second.port;
}

std::unordered_map<std::uint64_t, PortId> Controller::mac_table() const {
  std::unordered_map<std::uint64_t, PortId> out;
  out.reserve(learned_mac_count());
  for (const auto& shard_ptr : mac_shards_) {
    ReaderLock lock(shard_ptr->mutex);
    for (const auto& [mac, entry] : shard_ptr->macs) out.emplace(mac, entry.port);
  }
  return out;
}

std::size_t Controller::learned_mac_count() const {
  std::size_t total = 0;
  for (const auto& shard_ptr : mac_shards_) {
    ReaderLock lock(shard_ptr->mutex);
    total += shard_ptr->macs.size();
  }
  return total;
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

  if (!learning_switch_) return;

  // Learn the source location.
  Learn(packet.src_mac.ToUint64(), in_port);

  const std::optional<PortId> dst = LookupPort(packet.dst_mac.ToUint64());
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
