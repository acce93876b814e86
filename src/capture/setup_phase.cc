#include "capture/setup_phase.h"

namespace sentinel::capture {

bool SetupPhaseTracker::Offer(const net::ParsedPacket& packet) {
  if (done_) return false;
  if (count_ > 0 && count_ >= config_.min_packets &&
      packet.timestamp_ns >= last_timestamp_ns_ &&
      packet.timestamp_ns - last_timestamp_ns_ >= config_.idle_gap_ns) {
    done_ = true;
    return false;
  }
  ++count_;
  last_timestamp_ns_ = packet.timestamp_ns;
  if (count_ >= config_.max_packets) done_ = true;
  return true;
}

bool SetupPhaseTracker::CheckIdle(std::uint64_t now_ns) {
  if (done_) return true;
  if (count_ >= config_.min_packets && now_ns >= last_timestamp_ns_ &&
      now_ns - last_timestamp_ns_ >= config_.idle_gap_ns) {
    done_ = true;
  }
  return done_;
}

}  // namespace sentinel::capture
