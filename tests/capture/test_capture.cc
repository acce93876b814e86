#include <gtest/gtest.h>

#include "capture/setup_phase.h"
#include "capture/trace.h"

namespace sentinel::capture {
namespace {

using net::MacAddress;

net::Frame MakeUdpFrame(std::uint64_t ts, const MacAddress& src) {
  net::UdpDatagram udp;
  udp.src_port = 50000;
  udp.dst_port = 9999;
  udp.payload = {1, 2, 3};
  return net::BuildUdp4Frame(ts, src, MacAddress::Broadcast(),
                             net::Ipv4Address(10, 0, 0, 2),
                             net::Ipv4Address(10, 0, 0, 255), udp);
}

net::ParsedPacket PacketAt(std::uint64_t ts) {
  net::ParsedPacket p;
  p.timestamp_ns = ts;
  return p;
}

TEST(Trace, SortByTimeIsStable) {
  const auto mac = *MacAddress::Parse("aa:00:00:00:00:01");
  Trace trace;
  trace.Append(MakeUdpFrame(300, mac));
  trace.Append(MakeUdpFrame(100, mac));
  trace.Append(MakeUdpFrame(200, mac));
  trace.SortByTime();
  EXPECT_EQ(trace.frames()[0].timestamp_ns, 100u);
  EXPECT_EQ(trace.frames()[2].timestamp_ns, 300u);
}

TEST(Trace, ParseSkipsMalformedFrames) {
  const auto mac = *MacAddress::Parse("aa:00:00:00:00:01");
  Trace trace;
  trace.Append(MakeUdpFrame(1, mac));
  net::Frame garbage;
  garbage.bytes = {1, 2, 3};  // shorter than an Ethernet header
  trace.Append(garbage);
  trace.Append(MakeUdpFrame(2, mac));
  EXPECT_EQ(trace.Parse().size(), 2u);
}

TEST(Trace, SplitBySourceMacPreservesOrder) {
  const auto a = *MacAddress::Parse("aa:00:00:00:00:01");
  const auto b = *MacAddress::Parse("bb:00:00:00:00:02");
  Trace trace;
  trace.Append(MakeUdpFrame(1, a));
  trace.Append(MakeUdpFrame(2, b));
  trace.Append(MakeUdpFrame(3, a));
  const auto split = SplitBySourceMac(trace.Parse());
  ASSERT_EQ(split.size(), 2u);
  ASSERT_EQ(split.at(a).size(), 2u);
  EXPECT_EQ(split.at(a)[0].timestamp_ns, 1u);
  EXPECT_EQ(split.at(a)[1].timestamp_ns, 3u);
  EXPECT_EQ(split.at(b)[0].timestamp_ns, 2u);
}

TEST(RingTrace, KeepsMostRecentFramesInOrder) {
  const auto mac = *MacAddress::Parse("aa:00:00:00:00:01");
  RingTrace ring(4);
  for (std::uint64_t t = 1; t <= 10; ++t) ring.Append(MakeUdpFrame(t, mac));
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.total_appended(), 10u);
  const auto snapshot = ring.Snapshot();
  ASSERT_EQ(snapshot.size(), 4u);
  EXPECT_EQ(snapshot.front().timestamp_ns, 7u);
  EXPECT_EQ(snapshot.back().timestamp_ns, 10u);
}

TEST(RingTrace, PartialFillAndPerMacSnapshot) {
  const auto a = *MacAddress::Parse("aa:00:00:00:00:01");
  const auto b = *MacAddress::Parse("bb:00:00:00:00:02");
  RingTrace ring(10);
  ring.Append(MakeUdpFrame(1, a));
  ring.Append(MakeUdpFrame(2, b));
  ring.Append(MakeUdpFrame(3, a));
  ring.Append(MakeUdpFrame(4, a));
  EXPECT_EQ(ring.size(), 3u + 1u);
  const auto of_a = ring.SnapshotFor(a, 2);
  ASSERT_EQ(of_a.size(), 2u);
  EXPECT_EQ(of_a[0].timestamp_ns, 3u);
  EXPECT_EQ(of_a[1].timestamp_ns, 4u);
  EXPECT_EQ(ring.SnapshotFor(b, 10).size(), 1u);
}

TEST(SetupPhaseTracker, IncrementalMatchesBatch) {
  SetupPhaseConfig config;
  config.min_packets = 3;
  config.idle_gap_ns = 1'000'000'000;
  SetupPhaseTracker tracker(config);
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(
        tracker.Offer(PacketAt(static_cast<std::uint64_t>(i) * 10'000'000)));
  }
  EXPECT_FALSE(tracker.Done());
  // Packet after the idle gap is NOT part of the phase.
  EXPECT_FALSE(tracker.Offer(PacketAt(10'000'000'000)));
  EXPECT_TRUE(tracker.Done());
  EXPECT_EQ(tracker.packet_count(), 6u);
}

TEST(SetupPhaseTracker, CheckIdleWithoutTraffic) {
  SetupPhaseConfig config;
  config.min_packets = 2;
  config.idle_gap_ns = 1'000'000'000;
  SetupPhaseTracker tracker(config);
  tracker.Offer(PacketAt(0));
  tracker.Offer(PacketAt(1'000'000));
  EXPECT_FALSE(tracker.CheckIdle(500'000'000));
  EXPECT_TRUE(tracker.CheckIdle(2'000'000'000));
  EXPECT_TRUE(tracker.Done());
}

TEST(SetupPhaseTracker, MaxPacketsMarksDone) {
  SetupPhaseConfig config;
  config.max_packets = 4;
  SetupPhaseTracker tracker(config);
  for (int i = 0; i < 4; ++i)
    tracker.Offer(PacketAt(static_cast<std::uint64_t>(i)));
  EXPECT_TRUE(tracker.Done());
  EXPECT_FALSE(tracker.Offer(PacketAt(100)));
}

}  // namespace
}  // namespace sentinel::capture
