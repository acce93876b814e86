// Unit tests for the typed pcap/trace parse errors: one malformed-input
// class per test, mirroring the failure classes found during fuzz
// bring-up. The reader is all-or-nothing — no partially-filled Trace may
// escape on any of these inputs.
#include <cstdint>
#include <cstdio>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "capture/trace.h"
#include "net/frame.h"

namespace sentinel::capture {
namespace {

net::Frame MakeFrame(std::uint64_t ts_ns, std::size_t payload) {
  net::UdpDatagram udp;
  udp.src_port = 5000;
  udp.dst_port = 6000;
  udp.payload.assign(payload, 0xab);
  return net::BuildUdp4Frame(ts_ns, net::MacAddress::FromUint64(0x1),
                             net::MacAddress::FromUint64(0x2),
                             net::Ipv4Address(10, 0, 0, 1),
                             net::Ipv4Address(10, 0, 0, 2), udp);
}

std::vector<std::uint8_t> ValidCapture() {
  return EncodePcap({MakeFrame(1000, 4), MakeFrame(2000, 9)});
}

TEST(TraceFromPcap, ValidCaptureRoundTrips) {
  TraceError error;
  const auto trace = Trace::FromPcap(ValidCapture(), &error);
  ASSERT_TRUE(trace.has_value());
  ASSERT_EQ(trace->size(), 2u);
  EXPECT_EQ(trace->frames()[0].timestamp_ns, 1000u);
  const auto expected = EncodePcap(
      {MakeFrame(1000, 4), MakeFrame(2000, 9)});
  EXPECT_EQ(EncodePcap(trace->frames()), expected);
}

TEST(TraceFromPcap, EmptyRecordSectionIsAnEmptyTrace) {
  const auto data = EncodePcap({});
  const auto trace = Trace::FromPcap(data);
  ASSERT_TRUE(trace.has_value());
  EXPECT_TRUE(trace->empty());
}

TEST(TraceFromPcap, TruncatedGlobalHeader) {
  auto data = ValidCapture();
  data.resize(10);
  TraceError error;
  const auto trace = Trace::FromPcap(data, &error);
  EXPECT_FALSE(trace.has_value());
  EXPECT_EQ(error.kind, TraceErrorKind::kTruncatedHeader);
  EXPECT_EQ(error.record_index, 0u);
}

TEST(TraceFromPcap, BadMagic) {
  auto data = ValidCapture();
  data[0] = 0x00;
  TraceError error;
  EXPECT_FALSE(Trace::FromPcap(data, &error).has_value());
  EXPECT_EQ(error.kind, TraceErrorKind::kBadMagic);
  EXPECT_NE(error.ToString().find("bad_magic"), std::string::npos);
}

TEST(TraceFromPcap, UnsupportedLinkType) {
  auto data = ValidCapture();
  data[20] = 113;  // LINKTYPE_LINUX_SLL instead of Ethernet
  TraceError error;
  EXPECT_FALSE(Trace::FromPcap(data, &error).has_value());
  EXPECT_EQ(error.kind, TraceErrorKind::kUnsupportedLinkType);
}

TEST(TraceFromPcap, TruncatedRecordHeader) {
  auto data = ValidCapture();
  data.resize(24 + 8);  // global header + half a record header
  TraceError error;
  EXPECT_FALSE(Trace::FromPcap(data, &error).has_value());
  EXPECT_EQ(error.kind, TraceErrorKind::kTruncatedRecord);
  EXPECT_EQ(error.record_index, 0u);
}

TEST(TraceFromPcap, TruncatedRecordPayload) {
  auto data = ValidCapture();
  data.resize(data.size() - 3);  // cut the last frame's payload short
  TraceError error;
  EXPECT_FALSE(Trace::FromPcap(data, &error).has_value());
  EXPECT_EQ(error.kind, TraceErrorKind::kTruncatedRecord);
  EXPECT_EQ(error.record_index, 1u);  // second record is the broken one
}

TEST(TraceFromPcap, OversizedRecord) {
  auto data = ValidCapture();
  // Patch the first record's incl_len (offset 24 + 8) to 70000 (LE).
  const std::uint32_t huge = 70000;
  data[32] = static_cast<std::uint8_t>(huge & 0xff);
  data[33] = static_cast<std::uint8_t>((huge >> 8) & 0xff);
  data[34] = static_cast<std::uint8_t>((huge >> 16) & 0xff);
  data[35] = static_cast<std::uint8_t>((huge >> 24) & 0xff);
  TraceError error;
  EXPECT_FALSE(Trace::FromPcap(data, &error).has_value());
  EXPECT_EQ(error.kind, TraceErrorKind::kOversizedRecord);
  EXPECT_EQ(error.record_index, 0u);
}

TEST(TraceFromPcap, TruncatedRecordPayloadNamesItsRecord) {
  // A capture cut inside its last payload names that record and both
  // lengths — what `sentinelctl identify` prints for a cut-short file. The
  // last frame is 62 bytes (Ethernet, IPv4 and UDP headers + 20 payload
  // bytes); cutting 10 leaves 52.
  auto data = EncodePcap({MakeFrame(1000, 4), MakeFrame(2000, 9),
                          MakeFrame(3000, 1), MakeFrame(4000, 20)});
  data.resize(data.size() - 10);
  TraceError error;
  EXPECT_FALSE(Trace::FromPcap(data, &error).has_value());
  EXPECT_EQ(error.ToString(),
            "truncated_record at record 3: payload needs 62 bytes, have 52");
}

TEST(TraceFromPcap, NoPartialTraceOnMidCaptureCorruption) {
  // First record intact, second truncated: the intact prefix must NOT be
  // returned as a shorter-but-valid capture.
  auto data = ValidCapture();
  data.resize(data.size() - 1);
  EXPECT_FALSE(Trace::FromPcap(data).has_value());
}

TEST(TraceFromPcap, SwappedByteOrderAccepted) {
  // Byte-swap the writer's little-endian header and record headers by
  // building a minimal big-endian capture by hand: empty record section.
  std::vector<std::uint8_t> data = {
      0xa1, 0xb2, 0xc3, 0xd4,  // magic, big-endian on disk => swapped reader
      0x00, 0x02, 0x00, 0x04,  // version 2.4
      0x00, 0x00, 0x00, 0x00,  // thiszone
      0x00, 0x00, 0x00, 0x00,  // sigfigs
      0x00, 0x00, 0xff, 0xff,  // snaplen
      0x00, 0x00, 0x00, 0x01,  // linktype ethernet
  };
  const auto trace = Trace::FromPcap(data);
  ASSERT_TRUE(trace.has_value());
  EXPECT_TRUE(trace->empty());
}

TEST(TraceFromPcapFile, MalformedFileReportsTypedError) {
  const std::string path = testing::TempDir() + "/garbage.pcap";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char garbage[] = "this is not a capture file at all, honestly";
    std::fwrite(garbage, 1, sizeof(garbage), f);
    std::fclose(f);
  }
  TraceError error;
  EXPECT_FALSE(ReadPcapFile(path, &error).has_value());
  EXPECT_EQ(error.kind, TraceErrorKind::kBadMagic);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sentinel::capture
