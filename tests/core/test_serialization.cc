// Serialization tests: fingerprint wire codec, tree/forest persistence and
// the identifier model bundle — save/load must preserve observable
// behaviour bit-for-bit, and corrupted inputs must be rejected.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <random>

#include "core/device_identifier.h"
#include "devices/simulator.h"
#include "features/fingerprint_codec.h"

namespace sentinel {
namespace {

TEST(FingerprintCodec, RoundTripExact) {
  devices::DeviceSimulator simulator(5);
  const auto episode = simulator.RunSetupEpisode(3);
  const auto fingerprint =
      devices::DeviceSimulator::ExtractFingerprint(episode);

  const auto bytes = features::SerializeFingerprint(fingerprint);
  const auto restored = features::ParseFingerprint(bytes);
  EXPECT_EQ(restored, fingerprint);
}

TEST(FingerprintCodec, EmptyFingerprint) {
  const features::Fingerprint empty;
  const auto restored =
      features::ParseFingerprint(features::SerializeFingerprint(empty));
  EXPECT_TRUE(restored.empty());
}

TEST(FingerprintCodec, FixedRoundTripExact) {
  devices::DeviceSimulator simulator(6);
  const auto episode = simulator.RunSetupEpisode(7);
  const auto fingerprint =
      devices::DeviceSimulator::ExtractFingerprint(episode);
  const auto fixed = features::FixedFingerprint::FromFingerprint(fingerprint);

  net::ByteWriter w;
  features::EncodeFixedFingerprint(w, fixed);
  net::ByteReader r(w.bytes());
  const auto restored = features::DecodeFixedFingerprint(r);
  EXPECT_EQ(restored, fixed);
  EXPECT_EQ(restored.packet_count(), fixed.packet_count());
}

TEST(FingerprintCodec, RejectsBadMagicAndVersion) {
  devices::DeviceSimulator simulator(7);
  const auto fingerprint = devices::DeviceSimulator::ExtractFingerprint(
      simulator.RunSetupEpisode(0));
  auto bytes = features::SerializeFingerprint(fingerprint);
  auto corrupt = bytes;
  corrupt[0] = 'X';
  EXPECT_THROW(features::ParseFingerprint(corrupt), net::CodecError);
  corrupt = bytes;
  corrupt[3] = 99;  // version
  EXPECT_THROW(features::ParseFingerprint(corrupt), net::CodecError);
  corrupt = bytes;
  corrupt.resize(corrupt.size() / 2);  // truncation
  EXPECT_THROW(features::ParseFingerprint(corrupt), net::CodecError);
}

// ---- Property-based: random fingerprints survive the codec -----------------

class FingerprintCodecProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(FingerprintCodecProperty, RandomRoundTrips) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<std::size_t> len(0, 40);
  std::uniform_int_distribution<std::uint32_t> value(0, 2000);
  for (int iter = 0; iter < 25; ++iter) {
    std::vector<features::PacketFeatureVector> packets(len(rng));
    for (auto& packet : packets)
      for (auto& feature : packet) feature = value(rng);
    const auto fingerprint =
        features::Fingerprint::FromPacketVectors(packets);
    const auto restored = features::ParseFingerprint(
        features::SerializeFingerprint(fingerprint));
    EXPECT_EQ(restored, fingerprint);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FingerprintCodecProperty,
                         ::testing::Values(3u, 14u, 159u, 265u));

TEST(ForestSerialization, PredictionsIdenticalAfterRoundTrip) {
  const auto dataset = devices::GenerateFingerprintDataset(6, 77);
  ml::Dataset data(features::kFPrimeDim);
  for (std::size_t i = 0; i < dataset.size(); ++i)
    data.Add(dataset.fixed[i].ToVector(), dataset.labels[i] % 3);
  ml::RandomForestConfig config;
  config.tree_count = 12;
  ml::RandomForest forest;
  forest.Train(data, config);

  net::ByteWriter w;
  forest.Save(w);
  net::ByteReader r(w.bytes());
  const auto restored = ml::RandomForest::Load(r, features::kFPrimeDim);
  EXPECT_EQ(restored.tree_count(), forest.tree_count());
  EXPECT_EQ(restored.class_count(), forest.class_count());
  for (std::size_t i = 0; i < dataset.size(); i += 7) {
    const auto row = dataset.fixed[i].ToVector();
    EXPECT_EQ(restored.Predict(row), forest.Predict(row));
    EXPECT_EQ(restored.PredictProba(row), forest.PredictProba(row));
  }
}

TEST(ForestSerialization, CorruptedTreeRejected) {
  const auto dataset = devices::GenerateFingerprintDataset(3, 78);
  ml::Dataset data(features::kFPrimeDim);
  for (std::size_t i = 0; i < dataset.size(); ++i)
    data.Add(dataset.fixed[i].ToVector(), dataset.labels[i] == 0 ? 1 : 0);
  ml::RandomForest forest;
  ml::RandomForestConfig config;
  config.tree_count = 3;
  forest.Train(data, config);
  net::ByteWriter w;
  forest.Save(w);
  auto bytes = std::move(w).Take();
  // Corrupt the first node's left-child index (header is 11 bytes of
  // forest framing + 15 bytes of tree framing): a huge positive index must
  // be rejected by the structural validation.
  bytes[26] = 0x7f;
  bytes[27] = 0x7f;
  net::ByteReader r(bytes);
  EXPECT_THROW(ml::RandomForest::Load(r, features::kFPrimeDim),
               net::CodecError);
}

TEST(IdentifierSerialization, LoadedModelIdentifiesIdentically) {
  const auto dataset = devices::GenerateFingerprintDataset(8, 79);
  std::vector<core::LabelledFingerprint> train;
  for (std::size_t i = 0; i < dataset.size(); ++i)
    train.push_back(core::LabelledFingerprint{
        &dataset.fingerprints[i], &dataset.fixed[i], dataset.labels[i]});
  core::DeviceIdentifier identifier;
  identifier.Train(train);

  const auto path =
      (std::filesystem::temp_directory_path() / "sentinel_model.bin").string();
  identifier.SaveToFile(path);
  const auto restored = core::DeviceIdentifier::LoadFromFile(path);
  std::remove(path.c_str());

  EXPECT_EQ(restored.type_count(), identifier.type_count());
  EXPECT_EQ(restored.labels(), identifier.labels());

  devices::DeviceSimulator probe(4242);
  for (int t = 0; t < 27; t += 5) {
    const auto episode = probe.RunSetupEpisode(t);
    const auto full = devices::DeviceSimulator::ExtractFingerprint(episode);
    const auto fixed = features::FixedFingerprint::FromFingerprint(full);
    const auto a = identifier.Identify(full, fixed);
    const auto b = restored.Identify(full, fixed);
    EXPECT_EQ(a.IsKnown(), b.IsKnown());
    if (a.IsKnown()) {
      EXPECT_EQ(*a.type, *b.type);
    }
    EXPECT_EQ(a.matched_types, b.matched_types);
  }
}

// A small saved model bundle, and the byte offsets of the fields the
// crafted-bytes tests below overwrite: identifier framing (36 bytes), the
// type count, the first type's label and forest framing (11), and the
// first tree's framing (15), up to its node count and its root node.
struct SavedBundle {
  static constexpr std::size_t kTypeCount = 36;
  static constexpr std::size_t kFirstLabel = kTypeCount + 4;
  static constexpr std::size_t kNodeCount = 36 + 4 + 4 + 11 + 11;
  static constexpr std::size_t kRootLeft = kNodeCount + 4;
  static constexpr std::size_t kRootRight = kRootLeft + 4;
  static constexpr std::size_t kRootFeature = kRootLeft + 8;

  std::vector<std::uint8_t> bytes;
  features::Fingerprint probe;
  features::FixedFingerprint probe_fixed;

  SavedBundle() {
    const auto dataset = devices::GenerateFingerprintDataset(3, 80);
    std::vector<core::LabelledFingerprint> train;
    for (std::size_t i = 0; i < dataset.size(); ++i)
      train.push_back(core::LabelledFingerprint{
          &dataset.fingerprints[i], &dataset.fixed[i], dataset.labels[i]});
    core::IdentifierConfig config;
    config.forest.tree_count = 3;
    core::DeviceIdentifier identifier(config);
    identifier.Train(train);
    net::ByteWriter w;
    identifier.Save(w);
    bytes = std::move(w).Take();
    probe = dataset.fingerprints[0];
    probe_fixed = dataset.fixed[0];
  }

  void Put(std::size_t offset, std::uint32_t value) {
    for (std::size_t i = 0; i < 4; ++i)
      bytes[offset + i] = static_cast<std::uint8_t>(value >> (24 - 8 * i));
  }
  [[nodiscard]] std::uint32_t Get(std::size_t offset) const {
    std::uint32_t value = 0;
    for (std::size_t i = 0; i < 4; ++i)
      value = (value << 8) | bytes[offset + i];
    return value;
  }
  void ExpectRejected() const {
    net::ByteReader r(bytes);
    EXPECT_THROW((void)core::DeviceIdentifier::Load(r), net::CodecError);
  }
};

TEST(IdentifierSerialization, CraftedOffsetsPointAtTheFirstTree) {
  const SavedBundle bundle;
  net::ByteReader r(bundle.bytes);
  const auto identifier = core::DeviceIdentifier::Load(r);
  EXPECT_EQ(bundle.Get(SavedBundle::kTypeCount), identifier.type_count());
  EXPECT_EQ(bundle.Get(SavedBundle::kNodeCount) % 2, 1u);  // 2 * leaves - 1
  EXPECT_NE(bundle.Get(SavedBundle::kRootLeft), 0xffffffffu);  // internal
  EXPECT_LT(bundle.Get(SavedBundle::kRootFeature), features::kFPrimeDim);
  (void)identifier.Identify(bundle.probe, bundle.probe_fixed);
}

// A root that names itself as its left child loops a walk forever; a
// node whose two children are one node breaks leaf numbering.
TEST(IdentifierSerialization, NodeReachableTwiceRejected) {
  SavedBundle cycle;
  cycle.Put(SavedBundle::kRootLeft, 0);
  cycle.ExpectRejected();
  SavedBundle shared;
  shared.Put(SavedBundle::kRootRight, shared.Get(SavedBundle::kRootLeft));
  shared.ExpectRejected();
}

// Split features index F' rows: column 276 is one past the end.
TEST(IdentifierSerialization, SplitFeatureOutsideFPrimeRejected) {
  for (const std::uint32_t feature :
       {static_cast<std::uint32_t>(features::kFPrimeDim), 100000u}) {
    SavedBundle bundle;
    bundle.Put(SavedBundle::kRootFeature, feature);
    bundle.ExpectRejected();
  }
}

// Counts the remaining bytes cannot hold are rejected before anything is
// sized from them.
TEST(IdentifierSerialization, CountsBeyondTheBytesLeftRejected) {
  for (const std::uint32_t count : {0xffffffffu, 0x10000u}) {
    SavedBundle types;
    types.Put(SavedBundle::kTypeCount, count);
    types.ExpectRejected();
    SavedBundle nodes;
    nodes.Put(SavedBundle::kNodeCount, count);
    nodes.ExpectRejected();
  }
  SavedBundle no_nodes;
  no_nodes.Put(SavedBundle::kNodeCount, 0);
  no_nodes.ExpectRejected();
}

// Labels name types: a bundle listing one label twice would accept a
// probe as that type twice over and toss a coin between the copies.
// Overwriting the first type's label 0 with the second's 1 repeats it.
TEST(IdentifierSerialization, RepeatedTypeLabelRejected) {
  SavedBundle bundle;
  ASSERT_EQ(bundle.Get(SavedBundle::kFirstLabel), 0u);
  {
    net::ByteReader r(bundle.bytes);
    EXPECT_EQ(core::DeviceIdentifier::Load(r).labels().at(1), 1);
  }
  bundle.Put(SavedBundle::kFirstLabel, 1);
  bundle.ExpectRejected();
}

TEST(IdentifierSerialization, MissingFileThrows) {
  EXPECT_THROW(core::DeviceIdentifier::LoadFromFile("/no/such/model.bin"),
               std::runtime_error);
}

}  // namespace
}  // namespace sentinel
