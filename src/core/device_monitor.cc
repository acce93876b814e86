#include "core/device_monitor.h"

#include "obs/log.h"
#include "obs/stage.h"

namespace sentinel::core {

DeviceMonitor::DeviceMonitor(DeviceMonitorOptions options)
    : config_(options.setup),
      states_("monitor.session_shard", options.shard_count,
              options.max_sessions_per_shard,
              [](const DeviceState& state) { return state.fingerprinted; }) {}

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

Observation DeviceMonitor::Observe(const net::ParsedPacket& packet) {
  obs::StageScope capture(obs::Stage::kCapture, handles_.capture_ns, tracer_);
  if (handles_.packets_total != nullptr) handles_.packets_total->Increment();
  Observation seen;
  bool inserted = false;
  const std::size_t evicted = states_.Upsert(
      packet.src_mac.ToUint64(), [this] { return DeviceState(config_); },
      [&](DeviceState& state, bool is_new) {
        inserted = is_new;
        if (is_new) {
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
        }
        seen.trace_id = state.trace_id;
        if (state.fingerprinted) return;

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
          if (!state.tracker.Done()) {
            seen.collecting = true;
            return;
          }
        }
        // The phase ended: at max_packets with this packet included, or
        // before this packet, which arrived after the idle gap.
        capture.End();  // fingerprint assembly is its own stage
        seen.capture = Finish(packet.src_mac, state);
      });
  if (evicted > 0 && handles_.evicted_total != nullptr)
    handles_.evicted_total->Increment(evicted);
  if (inserted) SetTrackedGauge();
  return seen;
}

std::vector<CompletedCapture> DeviceMonitor::FlushIdle(std::uint64_t now_ns) {
  std::vector<CompletedCapture> out;
  states_.ForEach([&](std::uint64_t mac, DeviceState& state) {
    if (state.fingerprinted || state.vectors.empty()) return;
    if (state.tracker.CheckIdle(now_ns))
      out.push_back(Finish(net::MacAddress::FromUint64(mac), state));
  });
  return out;
}

std::vector<CompletedCapture> DeviceMonitor::Replay(capture::Trace trace) {
  trace.SortByTime();
  const std::vector<net::ParsedPacket> packets = trace.Parse();
  std::vector<CompletedCapture> out;
  for (const net::ParsedPacket& packet : packets) {
    Observation seen = Observe(packet);
    if (seen.capture) out.push_back(std::move(*seen.capture));
  }
  if (packets.empty()) return out;
  for (CompletedCapture& capture :
       FlushIdle(packets.back().timestamp_ns + config_.idle_gap_ns))
    out.push_back(std::move(capture));
  return out;
}

void DeviceMonitor::Forget(const net::MacAddress& mac) {
  if (states_.Erase(mac.ToUint64())) SetTrackedGauge();
}

std::size_t DeviceMonitor::MemoryBytes() const {
  return sizeof(*this) + states_.MemoryBytes([](const DeviceState& state) {
           return sizeof(state) + state.vectors.capacity() *
                                      sizeof(features::PacketFeatureVector);
         });
}

bool DeviceMonitor::IsKnown(const net::MacAddress& mac) const {
  return states_.Read(mac.ToUint64(), [](const DeviceState* state) {
    return state != nullptr;
  });
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
