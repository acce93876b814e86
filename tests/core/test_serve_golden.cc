// Golden transcript of the identification service's POST routes: a fixed
// script of requests through IdentifyServer::Submit/Collect on servers
// that are never started (so each Collect serves the queue itself and
// every batch is deterministic), pinning every status, Retry-After and
// body byte a client receives. Timing-derived fields are masked: every
// served probe's queue_wait_ns, and a retry_after_ms computed once the
// server has timed a batch. A change to this transcript is a change to
// what clients see; re-pin it only together with a reason.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/device_identifier.h"
#include "core/identify_server.h"
#include "devices/simulator.h"
#include "features/fingerprint_codec.h"
#include "net/frame.h"

namespace sentinel::core {
namespace {

/// A 6-type bank (4 fingerprints per type), default identifier config.
const DeviceIdentifier& Bank() {
  static const DeviceIdentifier* bank = [] {
    const auto dataset = devices::GenerateFingerprintDataset(4, 2026);
    std::vector<LabelledFingerprint> examples;
    for (std::size_t i = 0; i < dataset.size(); ++i) {
      if (dataset.labels[i] >= 6) continue;
      examples.push_back(LabelledFingerprint{
          &dataset.fingerprints[i], &dataset.fixed[i], dataset.labels[i]});
    }
    auto* identifier = new DeviceIdentifier();
    identifier->Train(examples);
    return identifier;
  }();
  return *bank;
}

/// One probe of every catalog type; types past the bank's six are unknown.
const devices::FingerprintDataset& Probes() {
  static const auto* probes = new devices::FingerprintDataset(
      devices::GenerateFingerprintDataset(/*n_per_type=*/1, /*seed=*/777));
  return *probes;
}

std::string Mac(std::size_t last) {
  char text[18];
  std::snprintf(text, sizeof(text), "02:00:00:00:00:%02zx", last);
  return text;
}

std::string JsonProbe(std::size_t probe, std::size_t mac) {
  const auto& fingerprint = Probes().fingerprints[probe];
  std::string body = "{\"mac\":\"" + Mac(mac) + "\",\"packets\":[";
  for (std::size_t p = 0; p < fingerprint.packets().size(); ++p) {
    if (p > 0) body += ',';
    body += '[';
    for (std::size_t f = 0; f < features::kFeatureCount; ++f) {
      if (f > 0) body += ',';
      body += std::to_string(fingerprint.packets()[p][f]);
    }
    body += ']';
  }
  return body + "]}";
}

std::string BinaryProbe(std::size_t probe, std::size_t mac) {
  std::string body = {0x02, 0, 0, 0, 0, static_cast<char>(mac)};
  const auto bytes =
      features::SerializeFingerprint(Probes().fingerprints[probe]);
  body.append(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  return body;
}

/// Classic little-endian pcap bytes of `frames`, written here rather than
/// through the codec under src/ so that a codec change cannot move the
/// pinned /ingest responses together with their input.
std::string PcapBytes(const std::vector<net::Frame>& frames) {
  std::string out;
  const auto u32 = [&out](std::uint64_t value) {
    for (int shift = 0; shift < 32; shift += 8)
      out += static_cast<char>((value >> shift) & 0xff);
  };
  u32(0xa1b2c3d4);
  u32(2 | (4 << 16));  // version 2.4
  u32(0);              // thiszone
  u32(0);              // sigfigs
  u32(65535);          // snaplen
  u32(1);              // LINKTYPE_ETHERNET
  for (const net::Frame& frame : frames) {
    const std::uint64_t usec = frame.timestamp_ns / 1000;
    u32(usec / 1000000);
    u32(usec % 1000000);
    u32(frame.bytes.size());
    u32(frame.bytes.size());
    out.append(reinterpret_cast<const char*>(frame.bytes.data()),
               frame.bytes.size());
  }
  return out;
}

/// Four devices set up at once, their frames interleaved on the wire.
const std::string& JoinsPcap() {
  static const auto* pcap = new std::string([] {
    devices::DeviceSimulator simulator(31);
    return PcapBytes(
        simulator.RunConcurrentSetupEpisodes({0, 2, 4, 5}).merged.frames());
  }());
  return *pcap;
}

/// Replaces the digits after every `"<field>":` with '#'.
std::string MaskField(std::string body, const std::string& field) {
  const std::string key = "\"" + field + "\":";
  for (std::size_t at = body.find(key); at != std::string::npos;
       at = body.find(key, at)) {
    at += key.size();
    std::size_t end = at;
    while (end < body.size() && body[end] >= '0' && body[end] <= '9') ++end;
    body.replace(at, end - at, "#");
  }
  return body;
}

/// The script's requests and what each answered, one line per response.
class Transcript {
 public:
  /// `timed`: the server has served a batch, so a Retry-After it computes
  /// now derives from a measured service time.
  void Collect(IdentifyServer& server, std::uint64_t id,
               const std::string& label, bool timed) {
    const obs::PostResponse response = server.Collect(id);
    std::string body = MaskField(response.body, "queue_wait_ns");
    std::string retry = std::to_string(response.retry_after_ms);
    if (timed) {
      body = MaskField(body, "retry_after_ms");
      if (response.retry_after_ms > 0) retry = "#";
    }
    if (!body.empty() && body.back() == '\n') body.pop_back();
    out_ << label << " -> " << response.status << " retry=" << retry << ' '
         << response.content_type << ' ' << body << '\n';
  }
  [[nodiscard]] std::string str() const { return out_.str(); }

 private:
  std::ostringstream out_;
};

std::string RunScript() {
  Transcript t;
  const std::string json = "application/json";
  const std::string binary = "application/octet-stream";
  const std::string pcap = "application/vnd.tcpdump.pcap";

  IdentifyServer server(&Bank(), {.queue_depth = 64, .batch_target = 4});
  t.Collect(server, server.Submit("/identify", json, JsonProbe(0, 1)),
            "json /identify", false);
  t.Collect(server, server.Submit("/identify", binary, BinaryProbe(1, 2)),
            "binary /identify", false);
  // Five pipelined probes at a batch target of 4: one batch of 4, then 1.
  std::vector<std::uint64_t> burst;
  for (std::size_t i = 0; i < 5; ++i) {
    const std::size_t probe = 2 + i * 5;
    burst.push_back(
        i % 2 == 0
            ? server.Submit("/identify", json, JsonProbe(probe, 3 + i))
            : server.Submit("/identify", binary, BinaryProbe(probe, 3 + i)));
  }
  for (std::size_t i = 0; i < burst.size(); ++i)
    t.Collect(server, burst[i], "burst " + std::to_string(i), true);
  t.Collect(server, server.Submit("/ingest", pcap, JoinsPcap()),
            "pcap /ingest", true);
  t.Collect(server, server.Submit("/ingest", binary, JoinsPcap()),
            "octet-stream /ingest", true);
  const std::string& joins = JoinsPcap();
  t.Collect(
      server,
      server.Submit("/ingest", pcap, joins.substr(0, joins.size() - 3)),
      "truncated /ingest", true);
  t.Collect(server, server.Submit("/ingest", binary, "not a pcap"),
            "short /ingest", true);
  std::string bad_magic = joins;
  bad_magic[0] = 0x00;
  t.Collect(server, server.Submit("/ingest", pcap, bad_magic),
            "bad-magic /ingest", true);
  std::string ones;  // 22 valid feature values, then a negative one
  for (std::size_t i = 0; i + 1 < features::kFeatureCount; ++i) ones += "1,";
  const std::vector<std::pair<std::string, std::string>> bad = {
      {json, "not json"},
      {json, "{\"mac\":\"nope\",\"packets\":[]}"},
      {json, "{\"packets\":[]}"},
      {json, "{\"mac\":\"02:00:00:00:00:01\"}"},
      {json, "{\"mac\":\"02:00:00:00:00:01\",\"packets\":[[1,2]]}"},
      {json,
       "{\"mac\":\"02:00:00:00:00:01\",\"packets\":[[" + ones + "-1]]}"},
      {json, "{\"mac\":\"02:00:00:00:00:01\",\"packets\":[]}"},
      {binary, "tooshort"},
      {binary, std::string(6, '\0') + "garbage"},
      {"text/plain", "x"},
  };
  for (std::size_t i = 0; i < bad.size(); ++i)
    t.Collect(server, server.Submit("/identify", bad[i].first, bad[i].second),
              "bad /identify " + std::to_string(i), true);
  t.Collect(server, server.Submit("/ingest", json, "{}"), "json /ingest",
            true);
  t.Collect(server, server.Submit("/elsewhere", json, "{}"),
            "unknown route", true);

  // Overload at a depth of 2. A third probe of device 1 sheds its first,
  // a probe of device 3 finds no same-device victim and is rejected with
  // the 1 ms-per-probe Retry-After of a server that has timed nothing.
  IdentifyServer small(&Bank(), {.queue_depth = 2, .batch_target = 16});
  const std::uint64_t a = small.Submit("/identify", json, JsonProbe(7, 1));
  const std::uint64_t b =
      small.Submit("/identify", binary, BinaryProbe(8, 2));
  const std::uint64_t c = small.Submit("/identify", json, JsonProbe(9, 1));
  const std::uint64_t d = small.Submit("/identify", json, JsonProbe(10, 3));
  t.Collect(small, a, "overload shed", false);
  t.Collect(small, d, "overload rejected", false);
  t.Collect(small, b, "overload survivor", false);
  t.Collect(small, c, "overload replacement", true);
  // Full again after a timed batch: the rejection's Retry-After is masked.
  const std::uint64_t e = small.Submit("/identify", json, JsonProbe(11, 4));
  const std::uint64_t f = small.Submit("/identify", json, JsonProbe(12, 5));
  const std::uint64_t g = small.Submit("/identify", json, JsonProbe(13, 6));
  t.Collect(small, g, "timed rejection", true);
  t.Collect(small, e, "after overload 0", true);
  t.Collect(small, f, "after overload 1", true);
  return t.str();
}

constexpr const char* kGolden = R"golden(json /identify -> 200 retry=0 application/json {"mac":"02:00:00:00:00:01","status":"served","verdict":{"known":true,"type":0,"matched_types":[0],"tie_break_count":0,"dissimilarity":0.38095238095238093},"batch_size":1,"queue_wait_ns":#}
binary /identify -> 200 retry=0 application/json {"mac":"02:00:00:00:00:02","status":"served","verdict":{"known":true,"type":1,"matched_types":[1],"tie_break_count":0,"dissimilarity":1.1428571428571428},"batch_size":1,"queue_wait_ns":#}
burst 0 -> 200 retry=0 application/json {"mac":"02:00:00:00:00:03","status":"served","verdict":{"known":true,"type":2,"matched_types":[2],"tie_break_count":0,"dissimilarity":0.5333333333333333},"batch_size":4,"queue_wait_ns":#}
burst 1 -> 200 retry=0 application/json {"mac":"02:00:00:00:00:04","status":"served","verdict":{"known":false,"type":null,"matched_types":[2],"tie_break_count":0,"dissimilarity":null},"batch_size":4,"queue_wait_ns":#}
burst 2 -> 200 retry=0 application/json {"mac":"02:00:00:00:00:05","status":"served","verdict":{"known":false,"type":null,"matched_types":[0,4],"tie_break_count":0,"dissimilarity":null},"batch_size":4,"queue_wait_ns":#}
burst 3 -> 200 retry=0 application/json {"mac":"02:00:00:00:00:06","status":"served","verdict":{"known":false,"type":null,"matched_types":[0,4],"tie_break_count":0,"dissimilarity":null},"batch_size":4,"queue_wait_ns":#}
burst 4 -> 200 retry=0 application/json {"mac":"02:00:00:00:00:07","status":"served","verdict":{"known":false,"type":null,"matched_types":[0],"tie_break_count":0,"dissimilarity":null},"batch_size":1,"queue_wait_ns":#}
pcap /ingest -> 200 retry=0 application/json {"frames":146,"devices_skipped":0,"devices":[{"mac":"00:17:88:d8:a8:60","status":"served","verdict":{"known":true,"type":5,"matched_types":[5],"tie_break_count":0,"dissimilarity":0.4444444444444444},"batch_size":4,"queue_wait_ns":#},{"mac":"20:f8:5e:6c:72:4d","status":"served","verdict":{"known":true,"type":0,"matched_types":[0],"tie_break_count":0,"dissimilarity":0.38095238095238093},"batch_size":4,"queue_wait_ns":#},{"mac":"00:24:e4:c4:6a:cc","status":"served","verdict":{"known":true,"type":2,"matched_types":[2],"tie_break_count":0,"dissimilarity":0.5333333333333333},"batch_size":4,"queue_wait_ns":#},{"mac":"02:00:5e:00:00:01","status":"served","verdict":{"known":false,"type":null,"matched_types":[3],"tie_break_count":0,"dissimilarity":null},"batch_size":4,"queue_wait_ns":#},{"mac":"00:17:88:3b:a2:69","status":"served","verdict":{"known":true,"type":4,"matched_types":[4],"tie_break_count":0,"dissimilarity":0.6},"batch_size":1,"queue_wait_ns":#}]}
octet-stream /ingest -> 200 retry=0 application/json {"frames":146,"devices_skipped":0,"devices":[{"mac":"00:17:88:d8:a8:60","status":"served","verdict":{"known":true,"type":5,"matched_types":[5],"tie_break_count":0,"dissimilarity":0.4444444444444444},"batch_size":4,"queue_wait_ns":#},{"mac":"20:f8:5e:6c:72:4d","status":"served","verdict":{"known":true,"type":0,"matched_types":[0],"tie_break_count":0,"dissimilarity":0.38095238095238093},"batch_size":4,"queue_wait_ns":#},{"mac":"00:24:e4:c4:6a:cc","status":"served","verdict":{"known":true,"type":2,"matched_types":[2],"tie_break_count":0,"dissimilarity":0.5333333333333333},"batch_size":4,"queue_wait_ns":#},{"mac":"02:00:5e:00:00:01","status":"served","verdict":{"known":false,"type":null,"matched_types":[3],"tie_break_count":0,"dissimilarity":null},"batch_size":4,"queue_wait_ns":#},{"mac":"00:17:88:3b:a2:69","status":"served","verdict":{"known":true,"type":4,"matched_types":[4],"tie_break_count":0,"dissimilarity":0.6},"batch_size":1,"queue_wait_ns":#}]}
truncated /ingest -> 400 retry=0 application/json {"error":"malformed pcap: truncated_record at record 145: payload needs 90 bytes, have 87"}
short /ingest -> 400 retry=0 application/json {"error":"malformed pcap: truncated_header at record 0: global header needs 24 bytes, have 10"}
bad-magic /ingest -> 400 retry=0 application/json {"error":"malformed pcap: bad_magic at record 0: magic 0xa1b2c300"}
bad /identify 0 -> 400 retry=0 application/json {"error":"body is not a JSON object"}
bad /identify 1 -> 400 retry=0 application/json {"error":"malformed MAC address"}
bad /identify 2 -> 400 retry=0 application/json {"error":"missing string field \"mac\""}
bad /identify 3 -> 400 retry=0 application/json {"error":"missing array field \"packets\""}
bad /identify 4 -> 400 retry=0 application/json {"error":"each packet must be an array of 23 feature values"}
bad /identify 5 -> 400 retry=0 application/json {"error":"feature values must be integers in [0, 2^32)"}
bad /identify 6 -> 400 retry=0 application/json {"error":"empty fingerprint"}
bad /identify 7 -> 400 retry=0 application/json {"error":"bad fingerprint bytes: bad magic for fingerprint"}
bad /identify 8 -> 400 retry=0 application/json {"error":"bad fingerprint bytes: bad magic for fingerprint"}
bad /identify 9 -> 415 retry=0 application/json {"error":"unsupported media type for /identify"}
json /ingest -> 415 retry=0 application/json {"error":"unsupported media type for /ingest"}
unknown route -> 404 retry=0 application/json {"error":"no such POST route"}
overload shed -> 429 retry=0 application/json {"error":"superseded","detail":"a newer probe for this device replaced this one"}
overload rejected -> 429 retry=2 application/json {"error":"overloaded","retry_after_ms":2}
overload survivor -> 200 retry=0 application/json {"mac":"02:00:00:00:00:02","status":"served","verdict":{"known":false,"type":null,"matched_types":[0,2,4],"tie_break_count":0,"dissimilarity":null},"batch_size":2,"queue_wait_ns":#}
overload replacement -> 200 retry=0 application/json {"mac":"02:00:00:00:00:01","status":"served","verdict":{"known":false,"type":null,"matched_types":[0,2],"tie_break_count":0,"dissimilarity":null},"batch_size":2,"queue_wait_ns":#}
timed rejection -> 429 retry=# application/json {"error":"overloaded","retry_after_ms":#}
after overload 0 -> 200 retry=0 application/json {"mac":"02:00:00:00:00:04","status":"served","verdict":{"known":true,"type":4,"matched_types":[2,4],"tie_break_count":0,"dissimilarity":2.318181818181818},"batch_size":2,"queue_wait_ns":#}
after overload 1 -> 200 retry=0 application/json {"mac":"02:00:00:00:00:05","status":"served","verdict":{"known":false,"type":null,"matched_types":[0,4],"tie_break_count":0,"dissimilarity":null},"batch_size":2,"queue_wait_ns":#}
)golden";

TEST(ServeGolden, ScriptedRequestsAnswerThePinnedBytes) {
  std::istringstream actual(RunScript());
  std::istringstream expected(kGolden);
  std::string actual_line;
  std::string expected_line;
  std::size_t line = 0;
  while (true) {
    const bool more_actual =
        static_cast<bool>(std::getline(actual, actual_line));
    const bool more_expected =
        static_cast<bool>(std::getline(expected, expected_line));
    if (!more_actual && !more_expected) break;
    ++line;
    EXPECT_EQ(more_actual ? actual_line : "<missing>",
              more_expected ? expected_line : "<missing>")
        << "transcript line " << line;
  }
}

}  // namespace
}  // namespace sentinel::core
