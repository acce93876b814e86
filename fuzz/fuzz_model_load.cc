// Fuzz target: the model-bundle loader (core/device_identifier.cc and the
// forest/tree loaders under it). A model file is operator-supplied bytes
// that the security service loads and then scores every device against,
// so a hostile or corrupted file must be rejected, not crash, hang or
// allocate from an untrusted count.
//
// Properties enforced:
//   - DeviceIdentifier::Load either throws net::CodecError or returns an
//     identifier that identifies a fixed probe.
//   - On such an identifier, the compiled bank scan and the reference walk
//     agree on every forest's probability, bit for bit, and on the
//     accepted types — whatever trees the file holds.
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/device_identifier.h"
#include "features/fingerprint.h"
#include "net/byte_io.h"
#include "util/check.h"

namespace {

namespace feat = sentinel::features;

/// A three-packet probe with a spread of feature values, so it reaches
/// both sides of the seed model's splits.
const feat::Fingerprint& Probe() {
  static const feat::Fingerprint probe = [] {
    std::vector<feat::PacketFeatureVector> packets(3);
    for (std::size_t p = 0; p < packets.size(); ++p) {
      for (std::size_t f = 0; f < feat::kFeatureCount; ++f)
        packets[p][f] = static_cast<std::uint32_t>((p * 7 + f * 3) % 5);
      packets[p][feat::kFeatPacketSize] =
          static_cast<std::uint32_t>(60 + 300 * p);
    }
    return feat::Fingerprint::FromPacketVectors(packets);
  }();
  return probe;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  sentinel::net::ByteReader r(std::span<const std::uint8_t>(data, size));
  try {
    const auto identifier = sentinel::core::DeviceIdentifier::Load(r);
    const auto fixed = feat::FixedFingerprint::FromFingerprint(Probe());
    const auto fast = identifier.Identify(Probe(), fixed);
    const auto reference = identifier.IdentifyReference(Probe(), fixed);
    SENTINEL_CHECK(fast.bank_probabilities.size() ==
                   reference.bank_probabilities.size())
        << "bank sizes differ";
    for (std::size_t k = 0; k < fast.bank_probabilities.size(); ++k) {
      SENTINEL_CHECK(
          std::bit_cast<std::uint64_t>(fast.bank_probabilities[k]) ==
          std::bit_cast<std::uint64_t>(reference.bank_probabilities[k]))
          << "compiled bank scan diverged from the reference walk on forest "
          << k;
    }
    SENTINEL_CHECK(fast.matched_types == reference.matched_types)
        << "accepted types diverged from the reference walk";
  } catch (const sentinel::net::CodecError&) {
    // Typed rejection is the expected failure mode for hostile bytes.
  }
  return 0;
}
