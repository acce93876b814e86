// pcap interoperability tool: record a simulated setup capture to a
// standard pcap file (openable in Wireshark/tcpdump), read it back, and
// identify the device purely from the file — the offline path a Security
// Gateway uses when shipping captures to the IoT Security Service.
//
// Usage:
//   pcap_roundtrip                     # simulate, write, read, identify
//   pcap_roundtrip <file.pcap>         # identify an existing capture
//   pcap_roundtrip <file.pcap> <type>  # record <type>'s setup to the file
#include <cstdio>
#include <string>

#include "capture/trace.h"
#include "core/device_monitor.h"
#include "core/security_service.h"
#include "devices/simulator.h"

namespace {
using namespace sentinel;

int IdentifyFromPcap(const std::string& path,
                     core::SecurityService& service) {
  std::printf("reading %s...\n", path.c_str());
  capture::TraceError error;
  auto trace = capture::ReadPcapFile(path, &error);
  if (!trace) {
    std::fprintf(stderr, "%s: malformed pcap: %s\n", path.c_str(),
                 error.ToString().c_str());
    return 1;
  }
  std::printf("%zu frames\n", trace->size());

  // Cut each source's setup phase exactly as the gateway's device monitor
  // does, and identify every captured device.
  core::DeviceMonitor monitor;
  for (const auto& capture : monitor.Replay(std::move(*trace))) {
    const auto assessment = service.Assess(capture.full, capture.fixed);
    std::printf("  %s: %zu setup packets -> %s (isolation: %s)\n",
                capture.device_mac.ToString().c_str(), capture.packet_count,
                assessment.type ? assessment.type_identifier.c_str()
                                : "<unknown type>",
                core::ToString(assessment.level).c_str());
  }
  return 0;
}
}  // namespace

int main(int argc, char** argv) {
  using namespace sentinel;
  std::printf("training IoT Security Service...\n");
  const auto service = core::BuildTrainedSecurityService(/*n_per_type=*/20);

  std::string path = argc > 1 ? argv[1] : "sentinel_demo.pcap";
  if (argc <= 1 || argc > 2) {
    const std::string type_name = argc > 2 ? argv[2] : "Lightify";
    const auto type = devices::FindDeviceType(type_name);
    if (type < 0) {
      std::fprintf(stderr, "unknown device type '%s'\n", type_name.c_str());
      std::fprintf(stderr, "known types:\n");
      for (const auto& info : devices::DeviceCatalog())
        std::fprintf(stderr, "  %s\n", info.identifier.c_str());
      return 1;
    }
    std::printf("simulating a %s setup episode...\n", type_name.c_str());
    devices::DeviceSimulator simulator(/*seed=*/12345);
    const auto episode = simulator.RunSetupEpisode(type);
    capture::WritePcapFile(path, episode.trace.frames());
    std::printf("wrote %zu frames to %s (classic pcap, Ethernet)\n",
                episode.trace.size(), path.c_str());
  }
  return IdentifyFromPcap(path, *service);
}
