// Setup-phase boundary detection (paper Sect. IV-A): "The end of the setup
// phase can be automatically identified by a decrease in the rate of packets
// sent." A new device emits a dense burst of traffic while associating and
// registering; once it settles into standby its packet rate collapses. The
// rule applied here: the phase ends at the first silence of at least
// idle_gap_ns after min_packets packets, or at max_packets packets. The
// gateway's DeviceMonitor is its one user, live and on recorded traces.
#pragma once

#include <cstdint>

#include "net/frame.h"

namespace sentinel::capture {

struct SetupPhaseConfig {
  /// A silence of at least this long after min_packets ends the setup phase.
  std::uint64_t idle_gap_ns = 5'000'000'000;  // 5 s
  /// Never cut the phase before this many packets (very chatty devices
  /// pause briefly mid-setup while rebooting onto the user's network).
  std::size_t min_packets = 8;
  /// Hard cap: fingerprinting needs only the first packets; stop collecting
  /// after this many regardless of rate.
  std::size_t max_packets = 256;
};

/// Feed a device's packets one at a time; Done() flips once the phase
/// boundary is reached.
class SetupPhaseTracker {
 public:
  explicit SetupPhaseTracker(SetupPhaseConfig config = {})
      : config_(config) {}

  /// Offers the next packet (by timestamp). Returns true if the packet is
  /// still part of the setup phase; false if the phase had already ended.
  bool Offer(const net::ParsedPacket& packet);

  /// True once the setup phase has been declared over. A packet arriving
  /// after the idle gap triggers this; so does reaching max_packets.
  [[nodiscard]] bool Done() const { return done_; }
  [[nodiscard]] std::size_t packet_count() const { return count_; }

  /// Declares the phase over based on the current wall clock (no packet
  /// needed): true if `now_ns` is an idle gap past the last packet.
  bool CheckIdle(std::uint64_t now_ns);

 private:
  SetupPhaseConfig config_;
  std::size_t count_ = 0;
  std::uint64_t last_timestamp_ns_ = 0;
  bool done_ = false;
};

}  // namespace sentinel::capture
