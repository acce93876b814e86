// Golden verdict digests: pins the identification verdicts themselves, not
// only the agreement between the identification kernel and its reference
// oracle. The two share RandomForest, feature extraction and the edit
// distance, so a change to one of those moves both sides at once and no
// differential test can see it; these digests can. A digest that changes
// is a behaviour change: re-pin it only together with a reason for the new
// verdicts.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/device_identifier.h"
#include "core/security_service.h"
#include "devices/catalog.h"
#include "devices/simulator.h"
#include "eval/experiment.h"
#include "gateway_capture.h"

namespace sentinel {
namespace {

/// One step of the digest chain: the splitmix64 finalizer over the running
/// hash xor the next word. Spelled out here, not shared with src/, so that
/// no change under src/ can move the digest and its pin together.
std::uint64_t Chain(std::uint64_t hash, std::uint64_t word) {
  std::uint64_t x = (hash ^ word) + 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Chains one result's verdict-grade fields: the type (-1 for none), the
/// accepted types, every bank probability's bit pattern, the tie-break
/// coin count and the winner's score bits. Losers' scores and
/// edit_distance_count are left out: tie-break pruning legitimately
/// replaces the former with lower bounds and lowers the latter.
std::uint64_t ChainVerdict(std::uint64_t hash,
                           const core::IdentificationResult& result) {
  hash = Chain(hash, static_cast<std::uint64_t>(result.type.value_or(-1)));
  hash = Chain(hash, result.matched_types.size());
  for (const int label : result.matched_types)
    hash = Chain(hash, static_cast<std::uint64_t>(label));
  hash = Chain(hash, result.bank_probabilities.size());
  for (const double probability : result.bank_probabilities)
    hash = Chain(hash, std::bit_cast<std::uint64_t>(probability));
  hash = Chain(hash, result.tie_break_count);
  std::uint64_t winner = ~std::uint64_t{0};
  for (std::size_t c = 0; result.type.has_value() &&
                          c < result.matched_types.size() &&
                          c < result.dissimilarity_scores.size();
       ++c) {
    if (result.matched_types[c] == *result.type)
      winner = std::bit_cast<std::uint64_t>(result.dissimilarity_scores[c]);
  }
  return Chain(hash, winner);
}

/// A bank trained the way the pins were taken: 27 types, 6 fingerprints
/// each, default identifier config.
core::DeviceIdentifier TrainBank(std::uint64_t seed) {
  const auto dataset = devices::GenerateFingerprintDataset(6, seed);
  std::vector<core::LabelledFingerprint> examples;
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    examples.push_back(core::LabelledFingerprint{
        &dataset.fingerprints[i], &dataset.fixed[i], dataset.labels[i]});
  }
  core::DeviceIdentifier identifier;
  identifier.Train(examples);
  return identifier;
}

/// What the stage-2 paths a probe set reaches: multi-matches, verdicts
/// without a type, and tie-break coin flips.
struct Coverage {
  std::size_t multi_matches = 0;
  std::size_t unknown = 0;
  std::size_t tie_breaks = 0;
};

/// The digest of a probe set through per-call Identify, the batch and the
/// reference oracle. All three must agree before the digest is compared
/// with its pin.
std::uint64_t DigestAllPaths(
    const core::DeviceIdentifier& identifier,
    const std::vector<features::Fingerprint>& full,
    const std::vector<features::FixedFingerprint>& fixed,
    Coverage& coverage) {
  std::vector<core::DeviceIdentifier::FingerprintRef> refs;
  for (std::size_t i = 0; i < full.size(); ++i)
    refs.push_back({&full[i], &fixed[i]});
  const auto batch = identifier.IdentifyBatch(refs);
  std::uint64_t per_call = 0;
  std::uint64_t batched = 0;
  std::uint64_t reference = 0;
  for (std::size_t i = 0; i < full.size(); ++i) {
    const auto result = identifier.Identify(full[i], fixed[i]);
    per_call = ChainVerdict(per_call, result);
    batched = ChainVerdict(batched, batch[i]);
    reference = ChainVerdict(reference,
                             identifier.IdentifyReference(full[i], fixed[i]));
    if (result.matched_types.size() > 1) ++coverage.multi_matches;
    if (!result.IsKnown()) ++coverage.unknown;
    coverage.tie_breaks += result.tie_break_count;
  }
  EXPECT_EQ(batched, per_call);
  EXPECT_EQ(reference, per_call);
  return per_call;
}

TEST(GoldenVerdicts, SeededProbes) {
  const auto identifier = TrainBank(2026);
  const auto probes = devices::GenerateFingerprintDataset(3, 777);
  Coverage coverage;
  EXPECT_EQ(DigestAllPaths(identifier, probes.fingerprints, probes.fixed,
                           coverage),
            0x6ccf1e709dc163cbull);
  EXPECT_EQ(probes.size(), 81u);
  EXPECT_EQ(coverage.multi_matches, 42u);
}

// The seeded set above takes no tie-break coin; this bank and probe set
// take one, so the pin covers the coin stream too.
TEST(GoldenVerdicts, TieBreakProbes) {
  const auto identifier = TrainBank(42);
  const auto probes = devices::GenerateFingerprintDataset(3, 777);
  Coverage coverage;
  EXPECT_EQ(DigestAllPaths(identifier, probes.fingerprints, probes.fixed,
                           coverage),
            0x24b5698908f4722bull);
  EXPECT_EQ(coverage.tie_breaks, 1u);
}

// The probes a gateway captures (tests/core/gateway_capture.h), recorded
// against a service trained on another seed, identified by the seeded
// bank: interleaved captures reach the open-set rejections the seeded set
// does not.
TEST(GoldenVerdicts, GatewayCapturedProbes) {
  auto service = core::BuildTrainedSecurityService(/*n_per_type=*/6,
                                                   /*seed=*/2027);
  const auto captured = test_support::CaptureGatewayProbes(*service);
  const auto identifier = TrainBank(2026);
  Coverage coverage;
  EXPECT_EQ(DigestAllPaths(identifier, captured.full, captured.fixed,
                           coverage),
            0xe1befe5ca189e543ull);
  EXPECT_EQ(captured.full.size(), 70u);
  EXPECT_EQ(coverage.multi_matches, 27u);
  EXPECT_EQ(coverage.unknown, 20u);
}

// The evaluate protocol at a small config: stratified 5-fold
// cross-validation, one repetition, over the seeded dataset.
TEST(GoldenVerdicts, CrossValidationConfusion) {
  const auto dataset = devices::GenerateFingerprintDataset(6, 2026);
  eval::CrossValidationConfig config;
  config.folds = 5;
  config.repetitions = 1;
  const auto outcome = eval::RunCrossValidation(dataset, config);
  const std::size_t types = devices::DeviceTypeCount();
  ASSERT_EQ(types, 27u);
  constexpr std::array<std::size_t, 27> kCorrect = {
      6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6,
      6, 6, 6, 4, 0, 4, 4, 2, 4, 4, 2, 3, 5};
  std::uint64_t cells = 0;
  for (std::size_t actual = 0; actual < types; ++actual) {
    EXPECT_EQ(outcome.confusion.At(actual, actual), kCorrect[actual])
        << "type " << actual;
    EXPECT_EQ(outcome.unknown_per_type[actual], 0u) << "type " << actual;
    for (std::size_t predicted = 0; predicted < types; ++predicted)
      cells = Chain(cells, outcome.confusion.At(actual, predicted));
  }
  // Where each misidentified fingerprint went.
  EXPECT_EQ(cells, 0x37cc67d8b4aeb1b9ull);
  EXPECT_EQ(outcome.total_identifications, 162u);
}

}  // namespace
}  // namespace sentinel
