// Fuzz target: the DHCP / BOOTP codec (net/dhcp.cc) — DhcpMessage::Decode,
// which GatewayServices runs on every DHCP request a device broadcasts
// while it joins.
//
// Input format: one DHCP message (the UDP payload).
//
// Properties enforced:
//   - Decode either returns or throws net::CodecError; no other escape;
//   - a decoded message carries options only behind the magic cookie,
//     none of them pad (0) or end (255);
//   - a decoded message re-encodes and decodes back to the same message.
#include <cstddef>
#include <cstdint>
#include <span>

#include "net/byte_io.h"
#include "net/dhcp.h"
#include "util/check.h"

namespace {

namespace net = sentinel::net;

void CheckRoundTrip(const net::DhcpMessage& message) {
  for (const auto& option : message.options) {
    SENTINEL_CHECK(option.code != 0 && option.code != 255)
        << "decoded pad/end option " << int{option.code};
  }
  net::ByteWriter w;
  message.Encode(w);
  const auto bytes = std::move(w).Take();
  net::ByteReader r(bytes);
  const net::DhcpMessage again = net::DhcpMessage::Decode(r);
  SENTINEL_CHECK(again.op == message.op &&
                 again.transaction_id == message.transaction_id &&
                 again.seconds == message.seconds &&
                 again.flags == message.flags &&
                 again.client_ip == message.client_ip &&
                 again.your_ip == message.your_ip &&
                 again.server_ip == message.server_ip &&
                 again.gateway_ip == message.gateway_ip &&
                 again.client_mac == message.client_mac)
      << "fixed header changed in the round trip";
  SENTINEL_CHECK(again.options.size() == message.options.size())
      << "option count changed in the round trip";
  for (std::size_t i = 0; i < message.options.size(); ++i) {
    SENTINEL_CHECK(again.options[i].code == message.options[i].code &&
                   again.options[i].data == message.options[i].data)
        << "option " << i << " changed in the round trip";
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  net::ByteReader r(std::span<const std::uint8_t>(data, size));
  try {
    CheckRoundTrip(net::DhcpMessage::Decode(r));
  } catch (const net::CodecError&) {
  }
  return 0;
}
