// Failure-injection / fuzz robustness: every parser in the stack must
// handle arbitrary and mutated input by either succeeding or throwing
// CodecError (the pcap decoder: by returning a typed error) — never
// crashing, hanging or reading out of bounds. (Run
// under ASan/UBSan for full effect; the bounds-checked ByteReader makes
// violations throw deterministically in any build.)
#include <gtest/gtest.h>

#include <random>

#include "core/remote_service.h"
#include "devices/simulator.h"
#include "features/fingerprint_codec.h"
#include "net/frame.h"
#include "capture/trace.h"

namespace sentinel {
namespace {

class FuzzRobustness : public ::testing::TestWithParam<unsigned> {};

template <typename Parser>
void ExpectNoCrash(Parser&& parse, std::span<const std::uint8_t> bytes) {
  try {
    parse(bytes);
  } catch (const net::CodecError&) {
    // expected for malformed input
  }
  // Anything else (segfault, std::bad_alloc from absurd sizes, arbitrary
  // exceptions) fails the test by crashing or by gtest's uncaught-throw.
}

TEST_P(FuzzRobustness, RandomBytesNeverCrashParsers) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<std::size_t> len(0, 600);
  std::uniform_int_distribution<int> byte(0, 255);

  for (int iter = 0; iter < 300; ++iter) {
    std::vector<std::uint8_t> blob(len(rng));
    for (auto& b : blob) b = static_cast<std::uint8_t>(byte(rng));

    ExpectNoCrash(
        [](std::span<const std::uint8_t> bytes) {
          net::Frame frame;
          frame.bytes.assign(bytes.begin(), bytes.end());
          (void)net::ParseFrame(frame);
        },
        blob);
    ExpectNoCrash(
        [](std::span<const std::uint8_t> bytes) {
          (void)capture::Trace::FromPcap(bytes);
        },
        blob);
    ExpectNoCrash(
        [](std::span<const std::uint8_t> bytes) {
          (void)features::ParseFingerprint(bytes);
        },
        blob);
    ExpectNoCrash(
        [](std::span<const std::uint8_t> bytes) {
          (void)core::DecodeAssessRequest(bytes);
        },
        blob);
    ExpectNoCrash(
        [](std::span<const std::uint8_t> bytes) {
          (void)core::DecodeAssessResponse(bytes);
        },
        blob);
    ExpectNoCrash(
        [](std::span<const std::uint8_t> bytes) {
          net::ByteReader r(bytes);
          (void)net::DnsMessage::Decode(r);
        },
        blob);
    ExpectNoCrash(
        [](std::span<const std::uint8_t> bytes) {
          net::ByteReader r(bytes);
          (void)net::DhcpMessage::Decode(r);
        },
        blob);
  }
}

TEST_P(FuzzRobustness, MutatedValidFramesNeverCrash) {
  std::mt19937_64 rng(GetParam() ^ 0xf00dULL);
  devices::DeviceSimulator simulator(GetParam());
  const auto episode =
      simulator.RunSetupEpisode(static_cast<int>(GetParam() % 27));

  std::uniform_int_distribution<std::size_t> frame_pick(
      0, episode.trace.size() - 1);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<int> mutations(1, 8);

  for (int iter = 0; iter < 400; ++iter) {
    net::Frame frame = episode.trace.frames()[frame_pick(rng)];
    // Flip a few random bytes (valid-looking headers with corrupt fields
    // probe far deeper parser paths than pure noise).
    const int count = mutations(rng);
    for (int m = 0; m < count; ++m) {
      std::uniform_int_distribution<std::size_t> pos(0, frame.bytes.size() - 1);
      frame.bytes[pos(rng)] = static_cast<std::uint8_t>(byte(rng));
    }
    // Occasionally truncate or extend.
    if (iter % 5 == 0) frame.bytes.resize(frame.bytes.size() / 2);
    if (iter % 7 == 0) frame.bytes.insert(frame.bytes.end(), 50, 0xee);

    try {
      const auto packet = net::ParseFrame(frame);
      // Parsed despite mutation: summary invariants must still hold.
      EXPECT_EQ(packet.size_bytes, frame.bytes.size());
    } catch (const net::CodecError&) {
      // fine
    }
  }
}

TEST_P(FuzzRobustness, MutatedPcapFilesNeverCrash) {
  std::mt19937_64 rng(GetParam() ^ 0xbeefULL);
  devices::DeviceSimulator simulator(GetParam() + 100);
  const auto episode = simulator.RunSetupEpisode(0);
  const auto blob = capture::EncodePcap(episode.trace.frames());

  std::uniform_int_distribution<std::size_t> pos(0, blob.size() - 1);
  std::uniform_int_distribution<int> byte(0, 255);
  for (int iter = 0; iter < 200; ++iter) {
    auto mutated = blob;
    for (int m = 0; m < 6; ++m)
      mutated[pos(rng)] = static_cast<std::uint8_t>(byte(rng));
    // The decoder never throws; if it decoded, the frames must at least
    // be parseable-or-skipped.
    if (const auto trace = capture::Trace::FromPcap(mutated))
      (void)trace->Parse();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzRobustness,
                         ::testing::Values(1u, 2u, 3u, 4u, 10u, 20u));

}  // namespace
}  // namespace sentinel
