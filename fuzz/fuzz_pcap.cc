// Fuzz target: the pcap/trace reader (capture/trace.cc) — the first byte
// parser hostile setup-phase traffic hits when captures are loaded from
// disk or a remote transport.
//
// Properties enforced (beyond "no crash / no sanitizer finding"):
//   - FromPcap is all-or-nothing: failure implies a filled TraceError.
//   - A successfully parsed capture re-encodes and re-parses to the same
//     frame count (codec round trip is stable).
//   - Trace::Parse never throws: malformed frames inside a well-formed
//     capture are skipped, not fatal.
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <span>

#include "capture/trace.h"
#include "util/check.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::span<const std::uint8_t> input(data, size);
  sentinel::capture::TraceError error;
  error.detail = "unset";
  const auto trace = sentinel::capture::Trace::FromPcap(input, &error);
  if (!trace.has_value()) {
    SENTINEL_CHECK(error.detail != "unset")
        << "FromPcap failed without filling the typed error";
    return 0;
  }
  // Round trip: re-encode and re-parse; the frame count must be stable.
  const auto encoded = sentinel::capture::EncodePcap(trace->frames());
  const auto again = sentinel::capture::Trace::FromPcap(encoded);
  SENTINEL_CHECK(again.has_value()) << "re-encoded capture failed to parse";
  SENTINEL_CHECK(again->size() == trace->size())
      << "round trip changed frame count: " << trace->size() << " -> "
      << again->size();
  // Frame parsing over hostile frame bytes must never throw out of Parse.
  const auto packets = trace->Parse();
  SENTINEL_CHECK(packets.size() <= trace->size())
      << "Parse produced more packets than frames";
  return 0;
}
