// Seed-corpus generator. Emits one directory per harness under the output
// root (default: the current directory):
//
//   corpus_gen [out_root]
//     -> <out_root>/pcap/*            seeds for fuzz_pcap
//     -> <out_root>/packet_features/* seeds for fuzz_packet_features
//     -> <out_root>/fingerprint_codec/* seeds for fuzz_fingerprint_codec
//     -> <out_root>/vulnerability_db/* seeds for fuzz_vulnerability_db
//     -> <out_root>/model_load/*       seeds for fuzz_model_load
//     -> <out_root>/identify_request/* seeds for fuzz_identify_request
//     -> <out_root>/http_request/*     seeds for fuzz_http_request
//     -> <out_root>/dns_message/*      seeds for fuzz_dns_message
//     -> <out_root>/dhcp_message/*     seeds for fuzz_dhcp_message
//
// The seeds are checked in under fuzz/corpus/ so fuzz runs start from
// structurally valid inputs (plus a few near-valid negatives); regenerate
// with this tool if the wire formats change.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "capture/trace.h"
#include "core/device_identifier.h"
#include "core/vulnerability_db.h"
#include "features/fingerprint.h"
#include "features/fingerprint_codec.h"
#include "net/byte_io.h"
#include "net/dhcp.h"
#include "net/dns.h"
#include "net/frame.h"

namespace {

namespace fs = std::filesystem;
using namespace sentinel;  // NOLINT: small generator tool

void WriteSeed(const fs::path& dir, const std::string& name,
               std::span<const std::uint8_t> bytes) {
  fs::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  std::printf("  %s/%s (%zu bytes)\n", dir.string().c_str(), name.c_str(),
              bytes.size());
}

void WriteSeed(const fs::path& dir, const std::string& name,
               std::string_view text) {
  WriteSeed(dir, name,
            std::span<const std::uint8_t>(
                reinterpret_cast<const std::uint8_t*>(text.data()),
                text.size()));
}

/// A short, protocol-diverse setup-phase capture: ARP probe, DHCP-port UDP,
/// HTTP-port TCP, and a duplicate — the shapes the extractor cares about.
std::vector<net::Frame> SetupPhaseFrames() {
  const net::MacAddress dev({0x02, 0x00, 0x00, 0x00, 0x00, 0x01});
  const net::MacAddress gw({0x02, 0x00, 0x00, 0x00, 0x00, 0xfe});
  const net::Ipv4Address dev_ip(10, 0, 0, 2);
  const net::Ipv4Address gw_ip(10, 0, 0, 1);

  std::vector<net::Frame> frames;
  frames.push_back(net::BuildArpFrame(1000, dev, net::MacAddress::Broadcast(),
                                      net::ArpPacket::Probe(dev, dev_ip)));

  net::UdpDatagram dhcp;
  dhcp.src_port = 68;
  dhcp.dst_port = 67;
  dhcp.payload.assign(64, 0x00);
  frames.push_back(net::BuildUdp4Frame(2000, dev, net::MacAddress::Broadcast(),
                                       net::Ipv4Address::Any(),
                                       net::Ipv4Address::Broadcast(), dhcp));

  net::TcpSegment http;
  http.src_port = 50000;
  http.dst_port = 80;
  http.flags = net::TcpFlags::kPsh | net::TcpFlags::kAck;
  http.payload.assign(32, 'x');
  frames.push_back(net::BuildTcp4Frame(3000, dev, gw, dev_ip, gw_ip, http));

  frames.push_back(net::BuildTcp4Frame(4000, dev, gw, dev_ip, gw_ip, http));
  return frames;
}

void EmitPcapSeeds(const fs::path& dir) {
  WriteSeed(dir, "empty_capture.pcap", capture::EncodePcap({}));
  const auto capture = capture::EncodePcap(SetupPhaseFrames());
  WriteSeed(dir, "setup_phase.pcap", capture);
  WriteSeed(dir, "truncated_record.pcap",
            std::span<const std::uint8_t>(capture).first(30));
  WriteSeed(dir, "bad_magic.bin", std::string_view("not a capture file"));
}

void EmitPacketFeatureSeeds(const fs::path& dir) {
  // The harness's input format: up to 8 frames, each a u16 big-endian
  // length prefix followed by that many frame-image bytes.
  net::ByteWriter w;
  for (const auto& frame : SetupPhaseFrames()) {
    w.WriteU16(static_cast<std::uint16_t>(frame.bytes.size()));
    w.WriteBytes(frame.bytes);
  }
  WriteSeed(dir, "setup_phase.frames", w.bytes());

  net::ByteWriter runt;
  runt.WriteU16(5);
  runt.WriteString("short");
  WriteSeed(dir, "runt_frame.frames", runt.bytes());
}

void EmitFingerprintSeeds(const fs::path& dir) {
  std::vector<net::ParsedPacket> packets;
  for (const auto& frame : SetupPhaseFrames())
    packets.push_back(net::ParseFrame(frame));
  const auto fingerprint = features::Fingerprint::FromPackets(packets);

  WriteSeed(dir, "fingerprint.bin",
            features::SerializeFingerprint(fingerprint));
  WriteSeed(dir, "empty_fingerprint.bin",
            features::SerializeFingerprint(features::Fingerprint()));

  net::ByteWriter w;
  features::EncodeFixedFingerprint(
      w, features::FixedFingerprint::FromFingerprint(fingerprint));
  WriteSeed(dir, "fixed_fingerprint.bin", w.bytes());
}

void EmitFeedSeeds(const fs::path& dir) {
  WriteSeed(dir, "catalog.feed",
            core::VulnerabilityDb::SeedFromCatalog().DumpFeed());
  WriteSeed(dir, "handwritten.feed",
            std::string_view("# operator-maintained advisories\n"
                             "CVE-2016-10401|D-LinkCam|8.1|hard-coded "
                             "credentials in setup | config service\n"
                             "\n"
                             "CVE-2017-0144|EdimaxPlug|9.3|remote code "
                             "execution\n"));
  WriteSeed(dir, "bad_score.feed",
            std::string_view("CVE-2020-1|HueSwitch|eleven|score not "
                             "numeric\n"));
}

/// A small trained model bundle: three types of three fingerprints each
/// (the setup-phase capture with packet sizes shifted per type), three
/// trees per forest — every section of the format, in a few kilobytes.
void EmitModelSeeds(const fs::path& dir) {
  std::vector<net::ParsedPacket> packets;
  for (const auto& frame : SetupPhaseFrames())
    packets.push_back(net::ParseFrame(frame));
  const auto base = features::Fingerprint::FromPackets(packets);
  std::vector<features::Fingerprint> full;
  std::vector<int> labels;
  for (int label = 0; label < 3; ++label) {
    for (std::uint32_t copy = 0; copy < 3; ++copy) {
      auto vectors = base.packets();
      for (auto& vector : vectors)
        vector[features::kFeatPacketSize] +=
            static_cast<std::uint32_t>(label) * 400 + copy;
      full.push_back(features::Fingerprint::FromPacketVectors(vectors));
      labels.push_back(label);
    }
  }
  std::vector<features::FixedFingerprint> fixed;
  for (const auto& fingerprint : full)
    fixed.push_back(features::FixedFingerprint::FromFingerprint(fingerprint));
  std::vector<core::LabelledFingerprint> examples;
  for (std::size_t i = 0; i < full.size(); ++i)
    examples.push_back({&full[i], &fixed[i], labels[i]});

  core::IdentifierConfig config;
  config.forest.tree_count = 3;
  core::DeviceIdentifier identifier(config);
  identifier.Train(examples);
  net::ByteWriter w;
  identifier.Save(w);
  WriteSeed(dir, "small_model.bin", w.bytes());
}

/// One seed per request kind, each a route byte (see
/// fuzz_identify_request.cc) followed by the body: a JSON probe, a binary
/// probe (6 MAC octets + SFP bytes) and the setup-phase pcap.
void EmitIdentifyRequestSeeds(const fs::path& dir) {
  std::vector<net::ParsedPacket> packets;
  for (const auto& frame : SetupPhaseFrames())
    packets.push_back(net::ParseFrame(frame));
  const auto fingerprint = features::Fingerprint::FromPackets(packets);

  std::string json(1, '\0');
  json += "{\"mac\":\"02:00:00:00:00:01\",\"packets\":[";
  for (std::size_t p = 0; p < fingerprint.packets().size(); ++p) {
    json += p > 0 ? ",[" : "[";
    for (std::size_t f = 0; f < features::kFeatureCount; ++f) {
      if (f > 0) json += ',';
      json += std::to_string(fingerprint.packets()[p][f]);
    }
    json += ']';
  }
  json += "]}";
  WriteSeed(dir, "json_probe.bin", std::string_view(json));

  std::vector<std::uint8_t> binary = {1, 0x02, 0, 0, 0, 0, 0x01};
  const auto sfp = features::SerializeFingerprint(fingerprint);
  binary.insert(binary.end(), sfp.begin(), sfp.end());
  WriteSeed(dir, "binary_probe.bin", binary);

  std::vector<std::uint8_t> ingest = {2};
  const auto capture = capture::EncodePcap(SetupPhaseFrames());
  ingest.insert(ingest.end(), capture.begin(), capture.end());
  WriteSeed(dir, "setup_phase_pcap.bin", ingest);
}

/// One connection's bytes per seed (see fuzz_http_request.cc): a GET, a
/// pipeline, and the framing edge cases the request gate answers.
void EmitHttpRequestSeeds(const fs::path& dir) {
  const auto post = [](std::string_view body, std::string_view extra) {
    return "POST /identify HTTP/1.1\r\nHost: x\r\n"
           "Content-Type: application/json\r\nContent-Length: " +
           std::to_string(body.size()) + "\r\n" + std::string(extra) +
           "\r\n" + std::string(body);
  };
  WriteSeed(dir, "get.http",
            std::string_view("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"));
  WriteSeed(dir, "pipelined_posts.http",
            post("{\"n\":1}", "") + post("{\"n\":2}", "Connection: close\r\n"));
  WriteSeed(dir, "chunked_post.http",
            std::string_view("POST /identify HTTP/1.1\r\nHost: x\r\n"
                             "Content-Type: application/json\r\n"
                             "Transfer-Encoding: chunked\r\n\r\n"
                             "2\r\n{}\r\n0\r\n\r\n"));
  WriteSeed(dir, "huge_declared_length.http",
            std::string_view("POST /identify HTTP/1.1\r\nHost: x\r\n"
                             "Content-Type: application/json\r\n"
                             "Content-Length: 10485760\r\n\r\n"));
  WriteSeed(dir, "malformed_length.http",
            std::string_view("POST /identify HTTP/1.1\r\nHost: x\r\n"
                             "Content-Type: application/json\r\n"
                             "Content-Length: 2x\r\n\r\n{}"));
  WriteSeed(dir, "long_request_line.http",
            "GET /" + std::string(8192, 'a') + " HTTP/1.1\r\n\r\n");
}

/// One offset byte (where fuzz_dns_message starts its DecodeDnsName)
/// followed by a DNS message: a device's query, the gateway's answer,
/// an mDNS announcement with a compressed-name reference, and a message
/// whose name pointer points at itself.
void EmitDnsSeeds(const fs::path& dir) {
  const auto seed = [&](const std::string& name, std::uint8_t offset,
                        const net::DnsMessage& message) {
    net::ByteWriter w;
    w.WriteU8(offset);
    message.Encode(w);
    WriteSeed(dir, name, w.bytes());
  };
  const auto query = net::DnsMessage::Query(0x1234, "time.nist.gov");
  seed("query.dns", 12, query);
  seed("response.dns", 12,
       net::DnsMessage::Response(query, net::Ipv4Address(192, 0, 2, 7)));
  seed("mdns_announce.dns", 12,
       net::DnsMessage::MdnsAnnounce("hue-bridge", "_hue._tcp.local",
                                     net::Ipv4Address(10, 0, 0, 2)));
  // Header with one question whose name is a pointer to offset 12, itself.
  const std::vector<std::uint8_t> loop = {12,   0x00, 0x01, 0x01, 0x00, 0x00,
                                          0x01, 0x00, 0x00, 0x00, 0x00, 0x00,
                                          0x00, 0xc0, 0x0c, 0x00, 0x01, 0x00,
                                          0x01};
  WriteSeed(dir, "pointer_loop.dns", loop);
}

/// DHCP payloads as a joining device sends them: DISCOVER, REQUEST, a
/// plain BOOTP request, and a DISCOVER with a corrupted magic cookie.
void EmitDhcpSeeds(const fs::path& dir) {
  const net::MacAddress mac({0x02, 0x00, 0x00, 0x00, 0x00, 0x01});
  const auto seed = [&](const std::string& name,
                        const net::DhcpMessage& message) {
    net::ByteWriter w;
    message.Encode(w);
    WriteSeed(dir, name, w.bytes());
    return std::move(w).Take();
  };
  auto discover = seed(
      "discover.dhcp",
      net::DhcpMessage::Discover(mac, 0xdeadbeef, "cam", {1, 3, 6, 15}));
  seed("request.dhcp",
       net::DhcpMessage::Request(mac, 0xdeadbeef, net::Ipv4Address(10, 0, 0, 2),
                                 net::Ipv4Address(10, 0, 0, 1), "cam"));
  seed("bootp.dhcp", net::DhcpMessage::BootpRequest(mac, 0x00c0ffee));
  discover[236] ^= 0xff;  // first byte of the magic cookie
  WriteSeed(dir, "bad_cookie.dhcp", discover);
}

}  // namespace

int main(int argc, char** argv) {
  const fs::path root = argc > 1 ? fs::path(argv[1]) : fs::path(".");
  std::printf("writing seed corpora under %s\n", root.string().c_str());
  EmitPcapSeeds(root / "pcap");
  EmitPacketFeatureSeeds(root / "packet_features");
  EmitFingerprintSeeds(root / "fingerprint_codec");
  EmitFeedSeeds(root / "vulnerability_db");
  EmitModelSeeds(root / "model_load");
  EmitIdentifyRequestSeeds(root / "identify_request");
  EmitHttpRequestSeeds(root / "http_request");
  EmitDnsSeeds(root / "dns_message");
  EmitDhcpSeeds(root / "dhcp_message");
  return 0;
}
