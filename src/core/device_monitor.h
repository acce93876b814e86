// Device monitoring on the Security Gateway (paper Fig. 1 "Device
// monitoring" + "Fingerprinting" blocks): tracks every MAC seen on the
// network, collects the setup-phase packets of new devices, and emits a
// fingerprint once the setup phase ends. It is the one place that decides
// which packets form a device's fingerprint: live frames arrive through
// Observe, recorded traces (pcap files, POST /ingest) through Replay.
//
// Fleet scale: session state is a util::MacTable, sharded by device MAC
// with a per-shard lock, and optionally bounded — a per-shard LRU cap
// evicts the least-recently-active session, preferring already-fingerprinted
// devices (whose capture buffers are long freed) over ones mid-capture.
// Defaults (one shard, no cap) reproduce the seed behavior exactly.
#pragma once

#include <optional>
#include <vector>

#include "capture/setup_phase.h"
#include "capture/trace.h"
#include "features/fingerprint.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/mac_table.h"

namespace sentinel::core {

/// A completed setup capture ready for identification.
struct CompletedCapture {
  net::MacAddress device_mac;
  features::Fingerprint full;
  features::FixedFingerprint fixed;
  std::size_t packet_count = 0;
  /// The device's provenance trace (0 when the monitor has no tracer);
  /// downstream stages open their spans on it so one trace id follows the
  /// device from first packet to installed rule.
  obs::TraceId trace_id = 0;
};

/// What one observed packet did to its device's session.
struct Observation {
  /// The completed capture, when this packet ended the setup phase.
  std::optional<CompletedCapture> capture;
  /// True while the device's setup phase is still being captured: known
  /// and not yet fingerprinted after this packet.
  bool collecting = false;
  /// The device's provenance trace (0 when the monitor has no tracer).
  obs::TraceId trace_id = 0;
};

struct DeviceMonitorOptions {
  capture::SetupPhaseConfig setup{};
  /// Session-table shards; rounded up to a power of two.
  std::size_t shard_count = 1;
  /// Bounded-memory tier: maximum device sessions per shard; 0 (default)
  /// disables eviction. Evicts the least-recently-active session,
  /// preferring fingerprinted ones.
  std::size_t max_sessions_per_shard = 0;
};

class DeviceMonitor {
 public:
  explicit DeviceMonitor(capture::SetupPhaseConfig config = {})
      : DeviceMonitor(DeviceMonitorOptions{.setup = config}) {}
  explicit DeviceMonitor(DeviceMonitorOptions options);

  /// Feeds one packet (already attributed to its source device by MAC)
  /// with one session lookup. The observation carries the capture when
  /// this packet completes a device's setup phase. Thread-safe per shard;
  /// attach tracer/recorder only in single-threaded runs (they are driven
  /// under the shard lock).
  Observation Observe(const net::ParsedPacket& packet);

  /// Clock-driven flush: returns captures of devices whose setup phase
  /// ended by idle timeout (no further packets arrived to trigger it).
  std::vector<CompletedCapture> FlushIdle(std::uint64_t now_ns);

  /// Feeds a recorded trace through Observe in time order, then flushes
  /// one idle gap past its last frame, and returns the captures in the
  /// order they completed. Frames that fail to parse are skipped.
  std::vector<CompletedCapture> Replay(capture::Trace trace);

  /// Forgets a device (e.g. after it leaves the network), so a future
  /// appearance is fingerprinted anew.
  void Forget(const net::MacAddress& mac);

  [[nodiscard]] bool IsKnown(const net::MacAddress& mac) const;
  [[nodiscard]] std::size_t tracked_count() const { return states_.size(); }
  [[nodiscard]] std::size_t shard_count() const {
    return states_.shard_count();
  }
  /// Sessions evicted by the bounded-memory tier so far.
  [[nodiscard]] std::uint64_t evicted_total() const {
    return states_.evicted_total();
  }

  /// Estimated bytes held by the session tables (shards, tracked-device
  /// state, capture buffers). Takes each shard lock in turn; scrape
  /// path, not packet path.
  [[nodiscard]] std::size_t MemoryBytes() const;

  /// Attaches capture/fingerprint telemetry: the capture and fingerprint
  /// stage histograms (obs/stage.h), packet/capture/eviction counters and
  /// the tracked-devices gauge. nullptr detaches; the uninstrumented path
  /// takes no clock reads.
  void set_metrics(obs::MetricsRegistry* registry);

  /// Attaches decision-provenance tracing: each newly seen MAC is assigned
  /// its own trace id (labelled "device <mac>") and per-packet capture /
  /// fingerprint-assembly spans join it. nullptr detaches — untraced runs
  /// take one branch per site and stay bit-identical.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  /// Attaches the per-device flight recorder journaling first-seen,
  /// setup-phase packet accept/reject and capture/fingerprint completion.
  void set_flight_recorder(obs::FlightRecorder* recorder) {
    recorder_ = recorder;
  }

 private:
  struct DeviceState {
    capture::SetupPhaseTracker tracker;
    features::FeatureExtractor extractor;
    std::vector<features::PacketFeatureVector> vectors;
    bool fingerprinted = false;
    obs::TraceId trace_id = 0;

    explicit DeviceState(const capture::SetupPhaseConfig& config)
        : tracker(config) {}
  };

  struct MonitorMetrics {
    obs::Histogram* capture_ns = nullptr;
    obs::Histogram* fingerprint_ns = nullptr;
    obs::Counter* packets_total = nullptr;
    obs::Counter* captures_total = nullptr;
    obs::Counter* evicted_total = nullptr;
    obs::Gauge* tracked = nullptr;
  };

  CompletedCapture Finish(const net::MacAddress& mac, DeviceState& state);
  void SetTrackedGauge() const;

  capture::SetupPhaseConfig config_;
  /// Device session by MAC, recency = last packet; the cap evicts a
  /// fingerprinted session among the coldest first (its capture buffers
  /// are freed, and re-observing it just restarts a capture, whereas
  /// evicting a mid-capture device loses setup packets outright).
  util::MacTable<DeviceState> states_;
  MonitorMetrics handles_;
  obs::Tracer* tracer_ = nullptr;
  obs::FlightRecorder* recorder_ = nullptr;
};

}  // namespace sentinel::core
