// Per-device flight recorder: a bounded ring journal of every step of a
// device's identification story — first sighting, setup-phase packets,
// fingerprint completion, each per-type classifier's accept/reject with
// its probability, every edit-distance tie-break score, vulnerability-DB
// hits, the enforcement level and the flow rules installed. This is the
// debugging surface metrics cannot give: `sentinelctl explain <mac>`
// renders the journal as a verdict narrative and the telemetry endpoint
// serves it as JSON under /devices/<mac>.
//
// Bounds: at most `events_per_device` journal entries per MAC (oldest
// overwritten first) and `max_devices` journals (least-recently-updated
// evicted first: a one-shard util::MacTable capped at max_devices), so
// recorder memory is constant no matter how long the gateway runs.
// Components hold a `FlightRecorder*` defaulting to nullptr; detached call
// sites are a single branch, and recording never feeds back into
// identification, so journalled runs stay bit-identical to unjournalled
// ones.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "net/address.h"
#include "obs/trace.h"
#include "util/mac_table.h"

namespace sentinel::obs {

enum class DeviceEventKind : std::uint8_t {
  kFirstSeen = 0,
  kPacketObserved = 1,     // flag: accepted into the setup capture
  kCaptureComplete = 2,    // value: packets captured, extra: after dedup
  kFingerprintReady = 3,   // value: F rows, extra: F' packet count
  kClassifierVote = 4,     // label: type, value: proba, extra: threshold,
                           // flag: accepted
  kTieBreakScore = 5,      // label: type, value: dissimilarity score
  kVerdict = 6,            // label: type or "unknown", flag: known
  kVulnerabilityHit = 7,   // label: CVE id, value: CVSS score
  kEnforcementLevel = 8,   // label: isolation level, value: allowlist size
  kFlowRuleInstalled = 9,  // label: rule description
  kIncident = 10,          // label: denial reason
};

/// Stable lower-snake name for exports ("classifier_vote", ...).
const char* DeviceEventKindName(DeviceEventKind kind);

struct DeviceEvent {
  DeviceEventKind kind = DeviceEventKind::kFirstSeen;
  /// Packet/episode time where one exists, else 0 (the recorder does not
  /// read clocks — journal content stays deterministic for a given run).
  std::uint64_t timestamp_ns = 0;
  std::string label;
  double value = 0.0;
  double extra = 0.0;
  bool flag = false;
};

struct FlightRecorderConfig {
  std::size_t events_per_device = 512;
  std::size_t max_devices = 1024;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderConfig config = {});
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void Record(const net::MacAddress& mac, DeviceEvent event);

  /// Associates the device's journal with its span-trace id so the two
  /// provenance surfaces cross-reference.
  void SetTraceId(const net::MacAddress& mac, TraceId trace_id);
  [[nodiscard]] TraceId trace_id(const net::MacAddress& mac) const;

  [[nodiscard]] bool Known(const net::MacAddress& mac) const;
  /// Journalled devices in first-seen order.
  [[nodiscard]] std::vector<net::MacAddress> Devices() const;
  /// Retained events, oldest first.
  [[nodiscard]] std::vector<DeviceEvent> Events(
      const net::MacAddress& mac) const;
  /// Events ever recorded for `mac` (>= Events().size() once wrapped).
  [[nodiscard]] std::uint64_t total_events(const net::MacAddress& mac) const;

  /// JSON journal for /devices/<mac>:
  /// {"mac": ..., "trace_id": ..., "events_total": ..., "events": [...]}.
  [[nodiscard]] std::string RenderJson(const net::MacAddress& mac) const;
  /// Human-readable verdict narrative (`sentinelctl explain`).
  [[nodiscard]] std::string Explain(const net::MacAddress& mac) const;

 private:
  struct DeviceJournal {
    TraceId trace_id = 0;
    /// Ticket drawn when the journal was created: Devices() order.
    std::uint64_t first_seen = 0;
    std::vector<DeviceEvent> ring;
    std::size_t next = 0;
    std::uint64_t total = 0;
  };

  /// Runs `fn(journal)` on `mac`'s journal, created on first use, and
  /// marks it most recently updated.
  template <typename Fn>
  void Update(const net::MacAddress& mac, Fn&& fn);

  FlightRecorderConfig config_;
  /// Journal by MAC, recency = last update; one shard, so the cap is
  /// max_devices and the victim the journal quiet longest.
  util::MacTable<DeviceJournal> journals_;
  // ordering: relaxed — tickets are drawn inside the table's one writer
  // lock, which already orders them; the counter needs no ordering of its
  // own.
  std::atomic<std::uint64_t> next_ticket_{0};
};

}  // namespace sentinel::obs
