// Fuzz target: the DNS codec (net/dns.cc) — DnsMessage::Decode and
// DecodeDnsName, which GatewayServices runs on every DNS query a device
// sends to the gateway during its setup phase.
//
// Input format: one offset byte, then a DNS message. The message goes
// through DnsMessage::Decode; separately, DecodeDnsName decodes one name
// starting at (offset byte mod message size), with the whole message as
// the compression-pointer space.
//
// Properties enforced:
//   - both decoders either return or throw net::CodecError; no other
//     escape;
//   - a decoded name reads from at most nine places (the name's own bytes
//     plus eight compression jumps), so it is at most nine times the
//     message size;
//   - a decoded message that re-encodes decodes back to the same message.
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/byte_io.h"
#include "net/dns.h"
#include "util/check.h"

namespace {

namespace net = sentinel::net;

void CheckSameRecords(const std::vector<net::DnsRecord>& a,
                      const std::vector<net::DnsRecord>& b) {
  SENTINEL_CHECK(a.size() == b.size()) << "record count changed";
  for (std::size_t i = 0; i < a.size(); ++i) {
    SENTINEL_CHECK(a[i].name == b[i].name && a[i].type == b[i].type &&
                   a[i].klass == b[i].klass && a[i].ttl == b[i].ttl &&
                   a[i].rdata == b[i].rdata)
        << "record " << i << " changed in the round trip";
  }
}

void CheckRoundTrip(const net::DnsMessage& message) {
  net::ByteWriter w;
  try {
    message.Encode(w);
  } catch (const net::CodecError&) {
    return;  // a decoded name the encoder cannot split into labels
  }
  const auto bytes = std::move(w).Take();
  net::ByteReader r(bytes);
  const net::DnsMessage again = net::DnsMessage::Decode(r);
  SENTINEL_CHECK(again.id == message.id && again.flags == message.flags)
      << "header changed in the round trip";
  SENTINEL_CHECK(again.questions.size() == message.questions.size())
      << "question count changed";
  for (std::size_t i = 0; i < message.questions.size(); ++i) {
    const auto& a = message.questions[i];
    const auto& b = again.questions[i];
    SENTINEL_CHECK(a.name == b.name && a.type == b.type &&
                   a.klass == b.klass)
        << "question " << i << " changed in the round trip";
  }
  CheckSameRecords(message.answers, again.answers);
  CheckSameRecords(message.authority, again.authority);
  CheckSameRecords(message.additional, again.additional);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 2) return 0;
  const std::span<const std::uint8_t> message(data + 1, size - 1);

  try {
    net::ByteReader r(message);
    CheckRoundTrip(net::DnsMessage::Decode(r));
  } catch (const net::CodecError&) {
  }

  net::ByteReader r(message.subspan(data[0] % message.size()));
  try {
    const std::string name = net::DecodeDnsName(r, message);
    SENTINEL_CHECK(name.size() <= 9 * message.size())
        << "a " << name.size() << "-byte name from a " << message.size()
        << "-byte message";
  } catch (const net::CodecError&) {
  }
  return 0;
}
