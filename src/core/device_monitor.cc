#include "core/device_monitor.h"

#include "obs/log.h"
#include "obs/stage.h"
#include "util/shard.h"

namespace sentinel::core {

namespace {
/// How far from the cold end of the recency list the eviction walk looks
/// for a fingerprinted (cheap-to-drop) session before falling back to the
/// strict LRU victim.
constexpr std::size_t kEvictionScanDepth = 8;
}  // namespace

DeviceMonitor::DeviceMonitor(DeviceMonitorOptions options)
    : config_(options.setup),
      max_sessions_per_shard_(options.max_sessions_per_shard) {
  const std::size_t shard_count =
      util::NormalizeShardCount(options.shard_count);
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i)
    shards_.push_back(std::make_unique<Shard>());
}

DeviceMonitor::Shard& DeviceMonitor::ShardFor(
    const net::MacAddress& mac) const {
  return *shards_[util::ShardIndexFor(mac.ToUint64(), shards_.size())];
}

void DeviceMonitor::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    handles_ = MonitorMetrics{};
    return;
  }
  handles_.capture_ns = obs::StageHistogram(registry, obs::Stage::kCapture);
  handles_.fingerprint_ns =
      obs::StageHistogram(registry, obs::Stage::kFingerprint);
  handles_.packets_total = &registry->GetCounter(
      "sentinel_monitor_packets_total", "packets observed by the monitor");
  handles_.captures_total = &registry->GetCounter(
      "sentinel_monitor_captures_total", "setup-phase captures completed");
  handles_.evicted_total = &registry->GetCounter(
      "sentinel_monitor_session_evicted_total",
      "device sessions evicted by the bounded-memory LRU tier");
  handles_.tracked = &registry->GetGauge(
      "sentinel_monitor_tracked_devices", "distinct MACs currently tracked");
  handles_.tracked->Set(static_cast<double>(tracked_count()));
}

void DeviceMonitor::SetTrackedGauge() const {
  if (handles_.tracked != nullptr)
    handles_.tracked->Set(static_cast<double>(tracked_count()));
}

bool DeviceMonitor::EvictOneSession(Shard& shard) {
  if (shard.lru.empty()) return false;
  // Prefer a fingerprinted session near the cold end: its capture buffers
  // are already freed and re-observing it just restarts a capture, whereas
  // evicting a mid-capture device loses setup packets outright.
  auto victim = std::prev(shard.lru.end());
  std::size_t scanned = 0;
  for (auto it = std::prev(shard.lru.end());
       scanned < kEvictionScanDepth; ++scanned) {
    const auto state_it = shard.states.find(*it);
    if (state_it != shard.states.end() && state_it->second.fingerprinted) {
      victim = it;
      break;
    }
    if (it == shard.lru.begin()) break;
    --it;
  }
  const net::MacAddress mac = *victim;
  shard.states.erase(mac);
  shard.lru.erase(victim);
  tracked_count_.fetch_sub(1, std::memory_order_relaxed);
  evicted_.fetch_add(1, std::memory_order_relaxed);
  if (handles_.evicted_total != nullptr) handles_.evicted_total->Increment();
  return true;
}

std::optional<CompletedCapture> DeviceMonitor::Observe(
    const net::ParsedPacket& packet) {
  obs::StageScope capture(obs::Stage::kCapture, handles_.capture_ns, tracer_);
  if (handles_.packets_total != nullptr) handles_.packets_total->Increment();
  Shard& shard = ShardFor(packet.src_mac);
  MutexLock lock(shard.mutex);
  auto [it, inserted] = shard.states.try_emplace(packet.src_mac, config_);
  DeviceState& state = it->second;
  if (inserted) {
    shard.lru.push_front(packet.src_mac);
    state.lru_pos = shard.lru.begin();
    tracked_count_.fetch_add(1, std::memory_order_relaxed);
    if (max_sessions_per_shard_ > 0) {
      while (shard.states.size() > max_sessions_per_shard_ &&
             EvictOneSession(shard)) {
      }
    }
    SetTrackedGauge();
    if (tracer_ != nullptr) {
      state.trace_id = tracer_->NewTraceId();
      tracer_->LabelTrace(state.trace_id,
                          "device " + packet.src_mac.ToString());
    }
    if (recorder_ != nullptr) {
      recorder_->SetTraceId(packet.src_mac, state.trace_id);
      recorder_->Record(packet.src_mac,
                        {.kind = obs::DeviceEventKind::kFirstSeen,
                         .timestamp_ns = packet.timestamp_ns});
    }
  } else {
    shard.lru.splice(shard.lru.begin(), shard.lru, state.lru_pos);
  }
  if (state.fingerprinted) return std::nullopt;

  capture.JoinTrace(state.trace_id);
  const bool accepted = state.tracker.Offer(packet);
  if (recorder_ != nullptr) {
    recorder_->Record(packet.src_mac,
                      {.kind = obs::DeviceEventKind::kPacketObserved,
                       .timestamp_ns = packet.timestamp_ns,
                       .flag = accepted});
  }
  if (accepted) {
    state.vectors.push_back(state.extractor.Extract(packet));
    if (!state.tracker.Done()) return std::nullopt;
  }
  // The phase ended: at max_packets with this packet included, or before
  // this packet, which arrived after the idle gap.
  capture.End();  // fingerprint assembly is its own stage
  return Finish(packet.src_mac, state);
}

std::vector<CompletedCapture> DeviceMonitor::FlushIdle(std::uint64_t now_ns) {
  std::vector<CompletedCapture> out;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    MutexLock lock(shard.mutex);
    for (auto& [mac, state] : shard.states) {
      if (state.fingerprinted || state.vectors.empty()) continue;
      if (state.tracker.CheckIdle(now_ns)) out.push_back(Finish(mac, state));
    }
  }
  return out;
}

void DeviceMonitor::Forget(const net::MacAddress& mac) {
  Shard& shard = ShardFor(mac);
  {
    MutexLock lock(shard.mutex);
    const auto it = shard.states.find(mac);
    if (it == shard.states.end()) return;
    shard.lru.erase(it->second.lru_pos);
    shard.states.erase(it);
    tracked_count_.fetch_sub(1, std::memory_order_relaxed);
  }
  SetTrackedGauge();
}

std::size_t DeviceMonitor::MemoryBytes() const {
  std::size_t total = sizeof(*this);
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    total += sizeof(Shard);
    total += shard->states.bucket_count() * sizeof(void*);
    for (const auto& [mac, state] : shard->states) {
      total += sizeof(mac) + sizeof(state) + 2 * sizeof(void*);
      total += state.vectors.capacity() *
               sizeof(features::PacketFeatureVector);
      // lru list node: mac + prev/next pointers.
      total += sizeof(net::MacAddress) + 2 * sizeof(void*);
    }
  }
  return total;
}

bool DeviceMonitor::IsKnown(const net::MacAddress& mac) const {
  const Shard& shard = ShardFor(mac);
  MutexLock lock(shard.mutex);
  return shard.states.contains(mac);
}

bool DeviceMonitor::IsCollecting(const net::MacAddress& mac) const {
  const Shard& shard = ShardFor(mac);
  MutexLock lock(shard.mutex);
  const auto it = shard.states.find(mac);
  return it != shard.states.end() && !it->second.fingerprinted;
}

obs::TraceId DeviceMonitor::trace_id(const net::MacAddress& mac) const {
  const Shard& shard = ShardFor(mac);
  MutexLock lock(shard.mutex);
  const auto it = shard.states.find(mac);
  return it == shard.states.end() ? 0 : it->second.trace_id;
}

CompletedCapture DeviceMonitor::Finish(const net::MacAddress& mac,
                                       DeviceState& state) {
  obs::StageScope fingerprint(obs::Stage::kFingerprint,
                              handles_.fingerprint_ns, tracer_);
  fingerprint.JoinTrace(state.trace_id);
  state.fingerprinted = true;
  CompletedCapture capture;
  capture.device_mac = mac;
  capture.packet_count = state.vectors.size();
  capture.trace_id = state.trace_id;
  capture.full = features::Fingerprint::FromPacketVectors(state.vectors);
  capture.fixed = features::FixedFingerprint::FromFingerprint(capture.full);
  state.vectors.clear();
  state.vectors.shrink_to_fit();
  if (handles_.captures_total != nullptr) handles_.captures_total->Increment();
  if (fingerprint.traced()) {
    fingerprint.AddArg("packets", std::to_string(capture.packet_count));
    fingerprint.AddArg("f_rows", std::to_string(capture.full.size()));
    fingerprint.AddArg("f_prime_packets",
                       std::to_string(capture.fixed.packet_count()));
  }
  if (recorder_ != nullptr) {
    recorder_->Record(mac,
                      {.kind = obs::DeviceEventKind::kCaptureComplete,
                       .value = static_cast<double>(capture.packet_count),
                       .extra = static_cast<double>(capture.full.size())});
    recorder_->Record(
        mac, {.kind = obs::DeviceEventKind::kFingerprintReady,
              .value = static_cast<double>(capture.full.size()),
              .extra = static_cast<double>(capture.fixed.packet_count())});
  }
  SENTINEL_LOG_DEBUG("monitor", "capture_complete",
                     {"mac", mac.ToString()},
                     {"packets", capture.packet_count});
  return capture;
}

}  // namespace sentinel::core
