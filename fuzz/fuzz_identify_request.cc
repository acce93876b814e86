// Fuzz target: the identification request bodies IdentifyServer parses
// (core/identify_server.cc) — JSON and binary /identify probes and /ingest
// pcaps, the bytes `sentinelctl serve` accepts from any network client.
//
// Input format: the first byte picks the route and media type (mod 4):
//   0  POST /identify, application/json
//   1  POST /identify, application/octet-stream (6 MAC octets + SFP bytes)
//   2  POST /ingest,   application/vnd.tcpdump.pcap
//   3  POST /ingest,   application/octet-stream
// and the rest of the input is the body.
//
// Properties enforced:
//   - Submit never throws, whatever the body.
//   - Collect answers 200, 400, 404, 415 or 429 — nothing else — and a 200
//     carries a JSON object.
//   - Collect leaves no probe behind: the queue is empty afterwards, and
//     every probe ever admitted was served or shed.
// The server is never started, so each Collect serves its own probes on
// the calling thread and every input is identified before the next.
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "core/device_identifier.h"
#include "core/identify_server.h"
#include "devices/simulator.h"
#include "util/check.h"

namespace {

namespace core = sentinel::core;

/// A small bank: four device-types of two fingerprints each, three trees
/// per forest — every identification stage, at a few microseconds a probe.
const core::DeviceIdentifier& Bank() {
  static const core::DeviceIdentifier* bank = [] {
    static const auto dataset =
        sentinel::devices::GenerateFingerprintDataset(2, 11);
    std::vector<core::LabelledFingerprint> examples;
    for (std::size_t i = 0; i < dataset.size(); ++i) {
      if (dataset.labels[i] >= 4) continue;
      examples.push_back({&dataset.fingerprints[i], &dataset.fixed[i],
                          dataset.labels[i]});
    }
    core::IdentifierConfig config;
    config.forest.tree_count = 3;
    auto* identifier = new core::DeviceIdentifier(config);
    identifier->Train(examples);
    return identifier;
  }();
  return *bank;
}

core::IdentifyServer& Server() {
  static auto* server = new core::IdentifyServer(&Bank());
  return *server;
}

struct Route {
  const char* path;
  const char* content_type;
};
constexpr Route kRoutes[] = {
    {"/identify", "application/json"},
    {"/identify", "application/octet-stream"},
    {"/ingest", "application/vnd.tcpdump.pcap"},
    {"/ingest", "application/octet-stream"},
};

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0) return 0;
  const Route& route = kRoutes[data[0] % std::size(kRoutes)];
  std::string body(reinterpret_cast<const char*>(data) + 1, size - 1);
  auto& server = Server();
  std::uint64_t id = 0;
  try {
    id = server.Submit(route.path, route.content_type, std::move(body));
  } catch (...) {
    SENTINEL_CHECK(false) << "Submit threw on a " << route.path << " body";
  }
  const auto response = server.Collect(id);
  const int status = response.status;
  SENTINEL_CHECK(status == 200 || status == 400 || status == 404 ||
                 status == 415 || status == 429)
      << "unexpected status " << status << " on " << route.path;
  if (status == 200) {
    SENTINEL_CHECK(response.body.size() >= 3 && response.body.front() == '{' &&
                   response.body.compare(response.body.size() - 2, 2, "}\n") ==
                       0)
        << "a 200 without a JSON object body: " << response.body;
  }
  SENTINEL_CHECK(server.queue_depth() == 0)
      << server.queue_depth() << " probes left queued after a Collect";
  const core::ServeStats stats = server.stats();
  SENTINEL_CHECK(stats.admitted == stats.probes_served + stats.shed)
      << "admitted " << stats.admitted << " != served " << stats.probes_served
      << " + shed " << stats.shed;
  return 0;
}
