// The probes a gateway actually assesses, for identification tests:
// setup-phase captures cut from concurrent joins whose frames interleave
// with background phones and laptops, fingerprinted by the monitor in
// arrival order — not whole training-style episodes sorted by type.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/gateway.h"
#include "core/security_service.h"
#include "devices/simulator.h"
#include "features/fingerprint.h"

namespace sentinel::test_support {

/// Every fingerprint a gateway asked its service to assess, in arrival
/// order.
struct CapturedProbes {
  std::vector<features::Fingerprint> full;
  std::vector<features::FixedFingerprint> fixed;
};

/// Forwards to the service and records every fingerprint the gateway asks
/// it to assess.
class RecordingClient : public core::SecurityServiceClient {
 public:
  RecordingClient(core::SecurityService& service, CapturedProbes& out)
      : service_(service), out_(out) {}
  core::AssessmentResult Assess(
      const features::Fingerprint& full,
      const features::FixedFingerprint& fixed) override {
    out_.full.push_back(full);
    out_.fixed.push_back(fixed);
    return service_.Assess(full, fixed);
  }

 private:
  core::SecurityService& service_;
  CapturedProbes& out_;
};

/// Runs ten groups of five concurrent joins (plus a phone and a laptop
/// per group) through a SecurityGateway backed by `service`, each group
/// after the previous one has been flushed, and returns what it assessed.
inline CapturedProbes CaptureGatewayProbes(core::SecurityService& service) {
  CapturedProbes captured;
  RecordingClient client(service, captured);
  core::SecurityGateway gateway(client);
  gateway.AttachWan([](const net::Frame&) {});
  constexpr std::size_t kFirstPort = 10;
  constexpr std::size_t kPorts = 8;
  for (std::size_t p = 0; p < kPorts; ++p) {
    gateway.AttachPort(static_cast<sdn::PortId>(kFirstPort + p),
                       [](const net::Frame&) {});
  }

  const std::size_t catalog = devices::DeviceTypeCount();
  std::uint64_t clock_ns = 1'000'000'000;
  for (std::size_t group = 0; group < 10; ++group) {
    devices::DeviceSimulator simulator(9000 + group);
    std::vector<devices::DeviceTypeId> types;
    for (std::size_t k = 0; k < 5; ++k) {
      types.push_back(
          static_cast<devices::DeviceTypeId>((group * 5 + k * 7) % catalog));
    }
    auto joins = simulator.RunConcurrentSetupEpisodes(types);
    std::vector<net::Frame> frames = joins.merged.frames();
    std::vector<devices::SimulatedEpisode> episodes = std::move(joins.episodes);
    // Background devices join at the same instant as the group.
    const std::uint64_t base = frames.front().timestamp_ns;
    for (const auto kind : {devices::BackgroundDeviceKind::kSmartphone,
                            devices::BackgroundDeviceKind::kLaptop}) {
      auto episode = simulator.RunBackgroundEpisode(kind);
      const std::uint64_t shift =
          episode.trace.frames().front().timestamp_ns - base;
      for (net::Frame frame : episode.trace.frames()) {
        frame.timestamp_ns -= shift;
        frames.push_back(std::move(frame));
      }
      episodes.push_back(std::move(episode));
    }
    std::stable_sort(frames.begin(), frames.end(),
                     [](const net::Frame& a, const net::Frame& b) {
                       return a.timestamp_ns < b.timestamp_ns;
                     });
    std::unordered_map<std::uint64_t, sdn::PortId> ports;
    for (std::size_t e = 0; e < episodes.size(); ++e) {
      ports.emplace(episodes[e].device_mac.ToUint64(),
                    static_cast<sdn::PortId>(kFirstPort + e % kPorts));
    }
    // Each group arrives after the previous one has been flushed.
    const std::uint64_t offset = clock_ns - base;
    for (net::Frame frame : frames) {
      frame.timestamp_ns += offset;
      const auto packet = net::ParseFrame(frame);
      const auto it = ports.find(packet.src_mac.ToUint64());
      gateway.Ingress(
          it == ports.end() ? gateway.config().wan_port : it->second, frame);
    }
    clock_ns = frames.back().timestamp_ns + offset + 60'000'000'000ull;
    gateway.sentinel().FlushIdle(clock_ns);
  }
  return captured;
}

}  // namespace sentinel::test_support
