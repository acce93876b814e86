#include "obs/flight_recorder.h"

#include <algorithm>
#include <cstdio>

#include "obs/json.h"
#include "util/check.h"

namespace sentinel::obs {

namespace {

std::string FormatNumber(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

const char* DeviceEventKindName(DeviceEventKind kind) {
  switch (kind) {
    case DeviceEventKind::kFirstSeen:
      return "first_seen";
    case DeviceEventKind::kPacketObserved:
      return "packet";
    case DeviceEventKind::kCaptureComplete:
      return "capture_complete";
    case DeviceEventKind::kFingerprintReady:
      return "fingerprint";
    case DeviceEventKind::kClassifierVote:
      return "classifier_vote";
    case DeviceEventKind::kTieBreakScore:
      return "tie_break";
    case DeviceEventKind::kVerdict:
      return "verdict";
    case DeviceEventKind::kVulnerabilityHit:
      return "vulnerability";
    case DeviceEventKind::kEnforcementLevel:
      return "enforcement";
    case DeviceEventKind::kFlowRuleInstalled:
      return "flow_rule";
    case DeviceEventKind::kIncident:
      return "incident";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(FlightRecorderConfig config)
    : config_(config),
      journals_("obs.flight_recorder", 1, config.max_devices) {
  SENTINEL_CHECK(config_.events_per_device > 0)
      << "flight recorder needs a positive per-device capacity";
  SENTINEL_CHECK(config_.max_devices > 0)
      << "flight recorder needs a positive device capacity";
}

template <typename Fn>
void FlightRecorder::Update(const net::MacAddress& mac, Fn&& fn) {
  journals_.Upsert(
      mac.ToUint64(),
      [this] {
        return DeviceJournal{
            .first_seen = next_ticket_.fetch_add(1, std::memory_order_relaxed)};
      },
      [&fn](DeviceJournal& journal, bool /*inserted*/) { fn(journal); });
}

void FlightRecorder::Record(const net::MacAddress& mac, DeviceEvent event) {
  Update(mac, [&](DeviceJournal& journal) {
    if (journal.ring.size() < config_.events_per_device) {
      journal.ring.push_back(std::move(event));
    } else {
      journal.ring[journal.next] = std::move(event);
    }
    journal.next = (journal.next + 1) % config_.events_per_device;
    ++journal.total;
  });
}

void FlightRecorder::SetTraceId(const net::MacAddress& mac,
                                TraceId trace_id) {
  Update(mac, [trace_id](DeviceJournal& journal) {
    journal.trace_id = trace_id;
  });
}

TraceId FlightRecorder::trace_id(const net::MacAddress& mac) const {
  return journals_.Read(mac.ToUint64(), [](const DeviceJournal* journal) {
    return journal == nullptr ? TraceId{0} : journal->trace_id;
  });
}

bool FlightRecorder::Known(const net::MacAddress& mac) const {
  return journals_.Read(mac.ToUint64(), [](const DeviceJournal* journal) {
    return journal != nullptr;
  });
}

std::vector<net::MacAddress> FlightRecorder::Devices() const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ordered;
  journals_.ForEach(
      [&ordered](std::uint64_t mac, const DeviceJournal& journal) {
        ordered.emplace_back(journal.first_seen, mac);
      });
  std::sort(ordered.begin(), ordered.end());
  std::vector<net::MacAddress> out;
  out.reserve(ordered.size());
  for (const auto& [ticket, mac] : ordered)
    out.push_back(net::MacAddress::FromUint64(mac));
  return out;
}

std::vector<DeviceEvent> FlightRecorder::Events(
    const net::MacAddress& mac) const {
  return journals_.Read(mac.ToUint64(), [this](const DeviceJournal* journal) {
    std::vector<DeviceEvent> out;
    if (journal == nullptr) return out;
    out.reserve(journal->ring.size());
    const std::size_t start =
        journal->ring.size() < config_.events_per_device ? 0 : journal->next;
    for (std::size_t i = 0; i < journal->ring.size(); ++i)
      out.push_back(journal->ring[(start + i) % journal->ring.size()]);
    return out;
  });
}

std::uint64_t FlightRecorder::total_events(const net::MacAddress& mac) const {
  return journals_.Read(mac.ToUint64(), [](const DeviceJournal* journal) {
    return journal == nullptr ? std::uint64_t{0} : journal->total;
  });
}

std::string FlightRecorder::RenderJson(const net::MacAddress& mac) const {
  const TraceId trace = trace_id(mac);
  const std::uint64_t total = total_events(mac);
  const auto events = Events(mac);
  std::string out = "{\"mac\": " + JsonQuote(mac.ToString()) +
                    ", \"trace_id\": " + std::to_string(trace) +
                    ", \"events_total\": " + std::to_string(total) +
                    ", \"events\": [";
  bool first = true;
  for (const auto& event : events) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "  {\"kind\": ";
    out += JsonQuote(DeviceEventKindName(event.kind));
    out += ", \"t_ns\": " + std::to_string(event.timestamp_ns);
    if (!event.label.empty()) out += ", \"label\": " + JsonQuote(event.label);
    out += ", \"value\": " + FormatNumber(event.value) +
           ", \"extra\": " + FormatNumber(event.extra) +
           ", \"flag\": " + (event.flag ? std::string("true")
                                        : std::string("false")) +
           "}";
  }
  out += first ? "]}\n" : "\n]}\n";
  return out;
}

std::string FlightRecorder::Explain(const net::MacAddress& mac) const {
  const TraceId trace = trace_id(mac);
  const std::uint64_t total = total_events(mac);
  const auto events = Events(mac);
  char line[256];
  std::string out;
  std::snprintf(line, sizeof(line), "== %s (trace %llu, %llu events) ==\n",
                mac.ToString().c_str(),
                static_cast<unsigned long long>(trace),
                static_cast<unsigned long long>(total));
  out += line;
  if (events.empty()) {
    out += "no journal for this device\n";
    return out;
  }
  if (total > events.size()) {
    std::snprintf(line, sizeof(line),
                  "(ring wrapped: oldest %llu events overwritten)\n",
                  static_cast<unsigned long long>(total - events.size()));
    out += line;
  }

  std::size_t packets_accepted = 0;
  std::size_t packets_rejected = 0;
  bool votes_header = false;
  bool tiebreak_header = false;
  const auto FlushPackets = [&] {
    if (packets_accepted == 0 && packets_rejected == 0) return;
    std::snprintf(line, sizeof(line),
                  "setup-phase packets: %zu accepted, %zu after the phase\n",
                  packets_accepted, packets_rejected);
    out += line;
    packets_accepted = 0;
    packets_rejected = 0;
  };
  for (const auto& event : events) {
    if (event.kind != DeviceEventKind::kPacketObserved) FlushPackets();
    if (event.kind != DeviceEventKind::kClassifierVote) votes_header = false;
    if (event.kind != DeviceEventKind::kTieBreakScore) tiebreak_header = false;
    switch (event.kind) {
      case DeviceEventKind::kFirstSeen:
        out += "first seen on the network\n";
        break;
      case DeviceEventKind::kPacketObserved:
        ++(event.flag ? packets_accepted : packets_rejected);
        break;
      case DeviceEventKind::kCaptureComplete:
        std::snprintf(line, sizeof(line),
                      "capture complete: %.0f packets, %.0f after duplicate "
                      "removal\n",
                      event.value, event.extra);
        out += line;
        break;
      case DeviceEventKind::kFingerprintReady:
        std::snprintf(line, sizeof(line),
                      "fingerprint ready: F spans %.0f packets, F' packs "
                      "%.0f\n",
                      event.value, event.extra);
        out += line;
        break;
      case DeviceEventKind::kClassifierVote:
        if (!votes_header) {
          std::snprintf(line, sizeof(line),
                        "classifier votes (accept threshold %.2f):\n",
                        event.extra);
          out += line;
          votes_header = true;
        }
        std::snprintf(line, sizeof(line), "  [%s] %-24s p=%.3f\n",
                      event.flag ? "accept" : "reject", event.label.c_str(),
                      event.value);
        out += line;
        break;
      case DeviceEventKind::kTieBreakScore:
        if (!tiebreak_header) {
          out += "tie-break dissimilarity scores (lower wins):\n";
          tiebreak_header = true;
        }
        std::snprintf(line, sizeof(line), "  %-24s %.4f\n",
                      event.label.c_str(), event.value);
        out += line;
        break;
      case DeviceEventKind::kVerdict:
        std::snprintf(line, sizeof(line), "verdict: %s\n",
                      event.flag ? event.label.c_str()
                                 : "UNKNOWN device-type");
        out += line;
        break;
      case DeviceEventKind::kVulnerabilityHit:
        std::snprintf(line, sizeof(line), "vulnerability: %s (CVSS %.1f)\n",
                      event.label.c_str(), event.value);
        out += line;
        break;
      case DeviceEventKind::kEnforcementLevel:
        std::snprintf(line, sizeof(line),
                      "enforcement: %s (%.0f allowlisted endpoints)\n",
                      event.label.c_str(), event.value);
        out += line;
        break;
      case DeviceEventKind::kFlowRuleInstalled:
        std::snprintf(line, sizeof(line), "flow rule: %s\n",
                      event.label.c_str());
        out += line;
        break;
      case DeviceEventKind::kIncident:
        std::snprintf(line, sizeof(line), "incident: %s\n",
                      event.label.c_str());
        out += line;
        break;
    }
  }
  FlushPackets();
  return out;
}

}  // namespace sentinel::obs
