// The classic pcap file codec (capture/trace.h): encoder and typed decoder
// round trips, the header layout, both byte orders, the streaming sink and
// file I/O. One malformed-input class per test lives in
// test_trace_errors.cc.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "capture/trace.h"
#include "net/byte_io.h"
#include "net/frame.h"

namespace sentinel::capture {
namespace {

using net::ArpPacket;
using net::BuildArpFrame;
using net::BuildUdp4Frame;
using net::ByteWriter;
using net::Frame;
using net::Ipv4Address;
using net::MacAddress;
using net::UdpDatagram;

std::vector<Frame> SampleFrames() {
  const auto dev = *MacAddress::Parse("50:c7:bf:00:00:01");
  const auto gw = *MacAddress::Parse("02:00:5e:00:00:01");
  std::vector<Frame> frames;
  frames.push_back(BuildArpFrame(1'000'000'000, dev, MacAddress::Broadcast(),
                                 ArpPacket::Probe(dev, Ipv4Address(10, 0, 0, 9))));
  UdpDatagram udp;
  udp.src_port = 50000;
  udp.dst_port = 53;
  udp.payload = {1, 2, 3};
  frames.push_back(BuildUdp4Frame(2'000'123'000, dev, gw,
                                  Ipv4Address(10, 0, 0, 9),
                                  Ipv4Address(10, 0, 0, 1), udp));
  return frames;
}

TEST(Pcap, InMemoryRoundTrip) {
  const auto frames = SampleFrames();
  const auto decoded = Trace::FromPcap(EncodePcap(frames));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(decoded->frames()[i].bytes, frames[i].bytes);
    // pcap stores microseconds: timestamps round down to usec precision.
    EXPECT_EQ(decoded->frames()[i].timestamp_ns / 1000,
              frames[i].timestamp_ns / 1000);
  }
}

TEST(Pcap, FileRoundTrip) {
  const auto path =
      (std::filesystem::temp_directory_path() / "sentinel_test.pcap").string();
  const auto frames = SampleFrames();
  WritePcapFile(path, frames);
  TraceError error;
  const auto decoded = ReadPcapFile(path, &error);
  ASSERT_TRUE(decoded.has_value()) << error.ToString();
  ASSERT_EQ(decoded->size(), frames.size());
  EXPECT_EQ(decoded->frames()[0].bytes, frames[0].bytes);
  std::remove(path.c_str());
}

TEST(Pcap, GlobalHeaderFields) {
  const auto blob = EncodePcap({});
  ASSERT_EQ(blob.size(), 24u);
  // Little-endian magic.
  EXPECT_EQ(blob[0], 0xd4);
  EXPECT_EQ(blob[1], 0xc3);
  EXPECT_EQ(blob[2], 0xb2);
  EXPECT_EQ(blob[3], 0xa1);
  // Link type Ethernet (1) in the last word.
  EXPECT_EQ(blob[20], 1);
}

TEST(Pcap, RejectsBadMagic) {
  std::vector<std::uint8_t> blob = EncodePcap({});
  blob[0] = 0x00;
  TraceError error;
  EXPECT_FALSE(Trace::FromPcap(blob, &error).has_value());
  EXPECT_EQ(error.kind, TraceErrorKind::kBadMagic);
}

TEST(Pcap, DecodesBigEndianWriter) {
  // Construct a big-endian (swapped relative to us) pcap manually.
  ByteWriter w;
  w.WriteU32(0xa1b2c3d4);  // written big-endian = swapped for our reader
  w.WriteU16(2);
  w.WriteU16(4);
  w.WriteU32(0);
  w.WriteU32(0);
  w.WriteU32(65535);
  w.WriteU32(1);  // Ethernet
  const auto frames = SampleFrames();
  w.WriteU32(1);  // ts sec
  w.WriteU32(500);
  w.WriteU32(static_cast<std::uint32_t>(frames[0].bytes.size()));
  w.WriteU32(static_cast<std::uint32_t>(frames[0].bytes.size()));
  w.WriteBytes(frames[0].bytes);

  const auto decoded = Trace::FromPcap(w.bytes());
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), 1u);
  EXPECT_EQ(decoded->frames()[0].bytes, frames[0].bytes);
  EXPECT_EQ(decoded->frames()[0].timestamp_ns, 1'000'500'000ull);
}

TEST(Pcap, StreamingSinkProducesReadableFile) {
  const auto path =
      (std::filesystem::temp_directory_path() / "sentinel_stream.pcap")
          .string();
  const auto frames = SampleFrames();
  {
    PcapFileSink sink(path);
    for (const auto& frame : frames) sink.Append(frame);
    EXPECT_EQ(sink.frames_written(), frames.size());
  }
  const auto decoded = ReadPcapFile(path);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i)
    EXPECT_EQ(decoded->frames()[i].bytes, frames[i].bytes);
  std::remove(path.c_str());
}

TEST(Pcap, StreamingSinkRejectsBadPath) {
  EXPECT_THROW(PcapFileSink("/nonexistent/dir/stream.pcap"),
               std::runtime_error);
}

TEST(Pcap, ReadMissingFileThrows) {
  EXPECT_THROW({ auto trace = ReadPcapFile("/nonexistent/dir/file.pcap"); },
               std::runtime_error);
}

}  // namespace
}  // namespace sentinel::capture
