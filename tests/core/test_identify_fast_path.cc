// Differential tests for the identification kernel: the compiled-bank
// scan with pruned tie-break must equal the reference oracle
// (IdentifyReference) bit for bit on every verdict-grade output — on
// simulator datasets and on the fingerprints a gateway captures —
// IdentifyBatch must match per-call Identify on every field but the stage
// timings, with or without a pool and in its verdict counters, concurrent
// callers must answer as a sequential pass does, and compilation must
// never perturb the serialized model bundle.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/device_identifier.h"
#include "core/identify_server.h"
#include "core/security_service.h"
#include "devices/simulator.h"
#include "features/fingerprint_codec.h"
#include "gateway_capture.h"
#include "net/byte_io.h"
#include "obs/metrics.h"
#include "obs/quality.h"
#include "util/thread_pool.h"

namespace sentinel {
namespace {

std::vector<core::LabelledFingerprint> ToExamples(
    const devices::FingerprintDataset& dataset) {
  std::vector<core::LabelledFingerprint> examples;
  examples.reserve(dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    examples.push_back(core::LabelledFingerprint{
        &dataset.fingerprints[i], &dataset.fixed[i], dataset.labels[i]});
  }
  return examples;
}

std::vector<std::uint8_t> SaveBank(const core::DeviceIdentifier& identifier) {
  net::ByteWriter w;
  identifier.Save(w);
  const auto bytes = w.bytes();
  return {bytes.begin(), bytes.end()};
}

core::DeviceIdentifier TrainedIdentifier(
    const devices::FingerprintDataset& dataset) {
  core::DeviceIdentifier identifier;
  identifier.Train(ToExamples(dataset));
  return identifier;
}

// Everything the kernel promises bit-identical to the oracle: the
// verdict, the candidate set, the full bank provenance, the tie-break
// coins and the winner's score. (Dissimilarity scores of provably-losing
// candidates and edit_distance_count may legitimately differ under
// pruning.)
void ExpectVerdictEqual(const core::IdentificationResult& fast,
                        const core::IdentificationResult& reference) {
  EXPECT_EQ(fast.type, reference.type);
  EXPECT_EQ(fast.matched_types, reference.matched_types);
  EXPECT_EQ(fast.bank_labels, reference.bank_labels);
  ASSERT_EQ(fast.bank_probabilities.size(),
            reference.bank_probabilities.size());
  for (std::size_t k = 0; k < fast.bank_probabilities.size(); ++k)
    EXPECT_EQ(fast.bank_probabilities[k], reference.bank_probabilities[k]);
  EXPECT_EQ(fast.acceptance_threshold, reference.acceptance_threshold);
  EXPECT_EQ(fast.tie_break_count, reference.tie_break_count);
  EXPECT_LE(fast.edit_distance_count, reference.edit_distance_count);
  ASSERT_EQ(fast.dissimilarity_scores.size(),
            reference.dissimilarity_scores.size());
  if (fast.type.has_value()) {
    // The winner is never pruned, so its recorded score is exact. Map the
    // winning label back to its candidate slot to compare scores.
    for (std::size_t c = 0; c < fast.matched_types.size(); ++c) {
      if (fast.matched_types[c] == *fast.type) {
        EXPECT_EQ(fast.dissimilarity_scores[c],
                  reference.dissimilarity_scores[c]);
      }
    }
  }
  // Pruned candidates record a certified lower bound, never more than the
  // exact score.
  for (std::size_t c = 0; c < fast.dissimilarity_scores.size(); ++c)
    EXPECT_LE(fast.dissimilarity_scores[c], reference.dissimilarity_scores[c]);
}

TEST(IdentifyFastPath, MatchesReferenceOnEveryProbe) {
  // Fresh probes the bank has not seen verbatim, plus the training set
  // itself (which provokes multi-matches — the pruning danger zone). The
  // bank trained on seed 42 also takes a tie-break coin on these probes.
  const auto probes = devices::GenerateFingerprintDataset(3, 777);
  std::size_t tie_breaks = 0;
  for (const std::uint64_t seed : {2026u, 42u}) {
    const auto dataset = devices::GenerateFingerprintDataset(6, seed);
    const auto identifier = TrainedIdentifier(dataset);
    for (const auto* set : {&probes, &dataset}) {
      for (std::size_t i = 0; i < set->size(); ++i) {
        const auto kernel =
            identifier.Identify(set->fingerprints[i], set->fixed[i]);
        ExpectVerdictEqual(kernel, identifier.IdentifyReference(
                                       set->fingerprints[i], set->fixed[i]));
        tie_breaks += kernel.tie_break_count;
      }
    }
  }
  EXPECT_GT(tie_breaks, 0u);
}

// Every field a result carries except the two wall-clock stage timings.
void ExpectSameResult(const core::IdentificationResult& got,
                      const core::IdentificationResult& want) {
  EXPECT_EQ(got.type, want.type);
  EXPECT_EQ(got.matched_types, want.matched_types);
  EXPECT_EQ(got.bank_labels, want.bank_labels);
  EXPECT_EQ(got.bank_probabilities, want.bank_probabilities);
  EXPECT_EQ(got.acceptance_threshold, want.acceptance_threshold);
  EXPECT_EQ(got.dissimilarity_scores, want.dissimilarity_scores);
  EXPECT_EQ(got.edit_distance_count, want.edit_distance_count);
  EXPECT_EQ(got.tie_break_count, want.tie_break_count);
}

std::vector<core::DeviceIdentifier::FingerprintRef> RefsOf(
    const devices::FingerprintDataset& set) {
  std::vector<core::DeviceIdentifier::FingerprintRef> refs;
  refs.reserve(set.size());
  for (std::size_t i = 0; i < set.size(); ++i)
    refs.push_back({&set.fingerprints[i], &set.fixed[i]});
  return refs;
}

// Stage 2 runs the same pruned code on the same RNG stream whether a probe
// comes alone or in a batch: scores and counts match exactly, not just
// verdicts.
TEST(IdentifyFastPath, BatchMatchesPerCallIdentify) {
  const auto dataset = devices::GenerateFingerprintDataset(6, 2026);
  auto identifier = TrainedIdentifier(dataset);
  // Training fingerprints provoke multi-matches and exact ties; fresh
  // probes cover the accept/reject boundary.
  const auto probes = devices::GenerateFingerprintDataset(3, 777);
  for (const auto* set : {&probes, &dataset}) {
    const auto batch = identifier.IdentifyBatch(RefsOf(*set));
    ASSERT_EQ(batch.size(), set->size());
    for (std::size_t i = 0; i < set->size(); ++i) {
      ExpectSameResult(batch[i], identifier.Identify(set->fingerprints[i],
                                                     set->fixed[i]));
    }
  }
}

// Batches past 16 probes spread over the pool; every result still equals
// the per-call one.
TEST(IdentifyFastPath, BatchMatchesAcrossThreadCounts) {
  const auto dataset = devices::GenerateFingerprintDataset(4, 21);
  auto identifier = TrainedIdentifier(dataset);
  const auto probes = devices::GenerateFingerprintDataset(3, 5);
  ASSERT_GT(probes.size(), 16u);
  const auto refs = RefsOf(probes);

  const auto sequential = identifier.IdentifyBatch(refs);
  util::ThreadPool pool(4);
  identifier.set_thread_pool(&pool);
  const auto pooled = identifier.IdentifyBatch(refs);
  identifier.set_thread_pool(nullptr);

  ASSERT_EQ(sequential.size(), probes.size());
  ASSERT_EQ(pooled.size(), probes.size());
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const auto single =
        identifier.Identify(probes.fingerprints[i], probes.fixed[i]);
    ExpectSameResult(sequential[i], single);
    ExpectSameResult(pooled[i], single);
  }
}

TEST(IdentifyFastPath, SavedBytesUnchangedByCompiledBank) {
  const auto dataset = devices::GenerateFingerprintDataset(4, 41);
  auto identifier = TrainedIdentifier(dataset);
  const auto bytes = SaveBank(identifier);

  // A reloaded identifier (which recompiles its bank) must serialize to
  // the same bytes, answer exactly as the original does and still match
  // the oracle.
  net::ByteReader r(bytes);
  auto reloaded = core::DeviceIdentifier::Load(r);
  EXPECT_EQ(SaveBank(reloaded), bytes);

  const auto probes = devices::GenerateFingerprintDataset(2, 4);
  const auto original = identifier.IdentifyBatch(RefsOf(probes));
  const auto loaded = reloaded.IdentifyBatch(RefsOf(probes));
  ASSERT_EQ(original.size(), probes.size());
  ASSERT_EQ(loaded.size(), probes.size());
  for (std::size_t i = 0; i < probes.size(); ++i) {
    ExpectSameResult(loaded[i], original[i]);
    ExpectVerdictEqual(loaded[i], reloaded.IdentifyReference(
                                      probes.fingerprints[i], probes.fixed[i]));
  }
}

TEST(IdentifyFastPath, PruningCountersFire) {
  const auto dataset = devices::GenerateFingerprintDataset(6, 51);
  obs::MetricsRegistry registry;
  core::DeviceIdentifier identifier;
  identifier.set_metrics(&registry);
  identifier.Train(ToExamples(dataset));
  // Training fingerprints multi-match heavily, exercising stage-2 pruning.
  for (std::size_t i = 0; i < dataset.size(); ++i)
    (void)identifier.Identify(dataset.fingerprints[i], dataset.fixed[i]);
  const auto& pruned =
      registry.GetCounter("sentinel_identifier_editdist_pruned_total", "");
  EXPECT_GT(pruned.Value(), 0u);
}

// Counter totals do not depend on how probes are grouped: counters bump
// once per batch from its results, so one batch of N probes and N per-call
// identifications must leave every counter and histogram count equal.
TEST(IdentifyFastPath, BatchCountsMatchPerCallCounts) {
  // A bank of 18 of the 27 types, probed with all 27: probes of untrained
  // types reach the no-match and open-set verdicts beside the multi-match
  // ones.
  const auto all = devices::GenerateFingerprintDataset(4, 2026);
  std::vector<core::LabelledFingerprint> examples;
  for (const auto& example : ToExamples(all))
    if (example.label < 18) examples.push_back(example);
  core::DeviceIdentifier identifier;
  identifier.Train(examples);
  const auto probes = devices::GenerateFingerprintDataset(2, 31);

  const char* const kCounters[] = {
      "sentinel_identifier_identify_total",
      "sentinel_identifier_accepts_total",
      "sentinel_identifier_multi_match_total",
      "sentinel_identifier_unknown_total",
      "sentinel_identifier_edit_distance_total",
      "sentinel_identifier_tiebreak_total",
      "sentinel_identifier_editdist_pruned_total"};
  const char* const kHistograms[] = {"sentinel_stage_bank_scan_ns",
                                     "sentinel_stage_tie_break_ns"};
  const auto totals = [&](bool batched) {
    obs::MetricsRegistry registry;
    identifier.set_metrics(&registry);
    if (batched) {
      (void)identifier.IdentifyBatch(RefsOf(probes));
    } else {
      for (std::size_t i = 0; i < probes.size(); ++i)
        (void)identifier.Identify(probes.fingerprints[i], probes.fixed[i]);
    }
    identifier.set_metrics(nullptr);
    std::map<std::string, std::uint64_t> out;
    for (const char* name : kCounters)
      out[name] = registry.GetCounter(name).Value();
    for (const char* name : kHistograms)
      out[name] = registry.GetHistogram(name).Count();
    return out;
  };
  auto per_call = totals(false);
  EXPECT_EQ(totals(true), per_call);
  const std::uint64_t reached_stage2 =
      per_call["sentinel_stage_tie_break_ns"];
  EXPECT_EQ(per_call["sentinel_identifier_identify_total"], probes.size());
  EXPECT_GT(per_call["sentinel_identifier_multi_match_total"], 0u);
  // Some probes matched nothing, and the open-set gate rejected some of
  // those that reached stage 2.
  EXPECT_LT(reached_stage2, probes.size());
  EXPECT_GT(per_call["sentinel_identifier_unknown_total"],
            probes.size() - reached_stage2);
}

// The stage timings the gateway journals and the e2e benchmark's per-layer
// split read: classification_time, discrimination_time and one
// discrimination-histogram observation per probe that reached stage 2 —
// per call and on probes served through an IdentifyServer alike. A served
// response carries no stage timings, so the served half reads them from
// the identifier's stage histograms, which observe the same clock reads.
TEST(IdentifyFastPath, StageTimingsSurvive) {
  const auto dataset = devices::GenerateFingerprintDataset(6, 71);
  obs::MetricsRegistry registry;
  core::DeviceIdentifier identifier;
  identifier.set_metrics(&registry);
  identifier.Train(ToExamples(dataset));
  const auto& classification =
      registry.GetHistogram("sentinel_stage_bank_scan_ns", "");
  const auto& discrimination =
      registry.GetHistogram("sentinel_stage_tie_break_ns", "");
  std::uint64_t reached_stage2 = 0;
  std::size_t multi_matches = 0;
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const auto result =
        identifier.Identify(dataset.fingerprints[i], dataset.fixed[i]);
    EXPECT_GT(result.classification_time.count(), 0);
    if (result.matched_types.size() > 1) {
      EXPECT_GT(result.discrimination_time.count(), 0);
    }
    if (!result.matched_types.empty()) ++reached_stage2;
    if (result.matched_types.size() > 1) ++multi_matches;
  }
  EXPECT_GT(multi_matches, 0u);
  EXPECT_EQ(classification.Count(), dataset.size());
  EXPECT_EQ(discrimination.Count(), reached_stage2);
  const auto per_call_scan = classification.Read();
  const auto per_call_tie_break = discrimination.Read();

  // Never started, so the collectors serve the queue in batches of 16.
  core::IdentifyServer server(&identifier, {.queue_depth = dataset.size(),
                                            .batch_target = 16});
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    std::string body(6, '\0');
    body[5] = static_cast<char>(i);
    const auto bytes = features::SerializeFingerprint(dataset.fingerprints[i]);
    body.append(reinterpret_cast<const char*>(bytes.data()), bytes.size());
    ids.push_back(
        server.Submit("/identify", "application/octet-stream", body));
  }
  for (const std::uint64_t id : ids) ASSERT_EQ(server.Collect(id).status, 200);
  EXPECT_EQ(server.stats().probes_served, dataset.size());
  // Every served probe timed its bank scan, and its tie-break when it
  // reached stage 2.
  EXPECT_EQ(classification.Count(), 2 * dataset.size());
  EXPECT_EQ(discrimination.Count(), 2 * reached_stage2);
  EXPECT_GT(classification.Read().sum, per_call_scan.sum);
  EXPECT_GT(discrimination.Read().sum, per_call_tie_break.sum);
}

// The quality monitor reads the bank scan's leaders: every series it keeps
// — margins, top labels, tie-breaks — must come out the same per call and
// batched. (That the leaders equal those recomputed from
// bank_probabilities is tested in tests/ml/test_forest_bank.cc.)
TEST(IdentifyFastPath, QualitySeriesMatchAcrossPaths) {
  const auto dataset = devices::GenerateFingerprintDataset(5, 87);
  auto identifier = TrainedIdentifier(dataset);
  const auto probes = devices::GenerateFingerprintDataset(3, 88);
  const auto series = [&](bool batched) {
    obs::MetricsRegistry registry;
    obs::QualityMonitor monitor(&registry);
    identifier.set_quality_monitor(&monitor);
    if (batched) {
      (void)identifier.IdentifyBatch(RefsOf(probes));
    } else {
      for (std::size_t i = 0; i < probes.size(); ++i)
        (void)identifier.Identify(probes.fingerprints[i], probes.fixed[i]);
    }
    identifier.set_quality_monitor(nullptr);
    return registry.RenderPrometheus();
  };
  const std::string per_call = series(false);
  EXPECT_NE(per_call.find("sentinel_quality_margin_sum{type="),
            std::string::npos);
  EXPECT_EQ(series(true), per_call);
}

// The probes a gateway actually assesses (tests/core/gateway_capture.h).
TEST(IdentifyFastPath, MatchesReferenceOnGatewayCapturedProbes) {
  auto service = core::BuildTrainedSecurityService(/*n_per_type=*/6,
                                                   /*seed=*/2027);
  const auto captured = test_support::CaptureGatewayProbes(*service);

  auto& identifier = service->identifier();
  const auto& full = captured.full;
  const auto& fixed = captured.fixed;
  ASSERT_GE(full.size(), 10u * 5u);
  std::vector<core::IdentificationResult> per_call;
  std::size_t multi_matches = 0;
  std::size_t unknown = 0;
  for (std::size_t i = 0; i < full.size(); ++i) {
    const auto fast = identifier.Identify(full[i], fixed[i]);
    ExpectVerdictEqual(fast, identifier.IdentifyReference(full[i], fixed[i]));
    if (fast.matched_types.size() > 1) ++multi_matches;
    if (!fast.IsKnown()) ++unknown;
    per_call.push_back(fast);
  }
  // The capture must exercise the tie-break and the open-set verdicts.
  EXPECT_GT(multi_matches, 0u);
  EXPECT_GT(unknown, 0u);

  std::vector<core::DeviceIdentifier::FingerprintRef> refs;
  for (std::size_t i = 0; i < full.size(); ++i)
    refs.push_back({&full[i], &fixed[i]});
  const auto batch = identifier.IdentifyBatch(refs);
  ASSERT_EQ(batch.size(), full.size());
  for (std::size_t i = 0; i < full.size(); ++i)
    ExpectSameResult(batch[i], per_call[i]);
}

std::vector<core::IdentificationResult> IdentifyAll(
    const core::DeviceIdentifier& identifier,
    const devices::FingerprintDataset& probes) {
  std::vector<core::IdentificationResult> results;
  for (std::size_t i = 0; i < probes.size(); ++i)
    results.push_back(
        identifier.Identify(probes.fingerprints[i], probes.fixed[i]));
  return results;
}

// Concurrent callers share one const identifier; each thread's stage 2
// runs on its own thread-local scratch.
TEST(IdentifyFastPath, ConcurrentCallersMatchSequentialPass) {
  const auto dataset = devices::GenerateFingerprintDataset(5, 83);
  const core::DeviceIdentifier identifier = TrainedIdentifier(dataset);
  const auto sequential = IdentifyAll(identifier, dataset);

  constexpr std::size_t kThreads = 4;
  std::vector<core::IdentificationResult> concurrent(dataset.size());
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = t; i < dataset.size(); i += kThreads)
        concurrent[i] =
            identifier.Identify(dataset.fingerprints[i], dataset.fixed[i]);
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t i = 0; i < dataset.size(); ++i)
    ExpectSameResult(concurrent[i], sequential[i]);
}

// Two identifiers whose banks differ in size alternate on one thread's
// scratch. The small bank has a third of the types, so its scan fills a
// third of the mask words and its tie-break table is smaller: the mask
// buffer is refilled at a different size on every switch, and the
// tie-break scratch's all-zero invariants (probe histogram, Myers masks)
// must hold across them, so each answers as it does alone.
TEST(IdentifyFastPath, IdentifiersSharingAThreadScratchAnswerAsAlone) {
  const auto large_set = devices::GenerateFingerprintDataset(6, 91);
  devices::FingerprintDataset small_set;
  const auto small_base = devices::GenerateFingerprintDataset(3, 92);
  for (std::size_t i = 0; i < small_base.size(); ++i) {
    if (small_base.labels[i] % 3 != 0) continue;
    small_set.fingerprints.push_back(small_base.fingerprints[i]);
    small_set.fixed.push_back(small_base.fixed[i]);
    small_set.labels.push_back(small_base.labels[i]);
  }
  const auto large = TrainedIdentifier(large_set);
  const auto small = TrainedIdentifier(small_set);
  ASSERT_LT(small.type_count(), large.type_count());
  // Probes both banks multi-match on.
  const auto& probes = large_set;

  // Each "alone" pass runs on a fresh thread, so on a fresh scratch.
  std::vector<core::IdentificationResult> large_alone;
  std::vector<core::IdentificationResult> small_alone;
  std::thread([&] { large_alone = IdentifyAll(large, probes); }).join();
  std::thread([&] { small_alone = IdentifyAll(small, probes); }).join();

  std::vector<core::IdentificationResult> large_mixed(probes.size());
  std::vector<core::IdentificationResult> small_mixed(probes.size());
  std::thread([&] {
    for (std::size_t i = 0; i < probes.size(); ++i) {
      // Alternate which bank goes first so each follows the other.
      const auto* first = i % 2 == 0 ? &small : &large;
      const auto* second = i % 2 == 0 ? &large : &small;
      auto& first_out = i % 2 == 0 ? small_mixed : large_mixed;
      auto& second_out = i % 2 == 0 ? large_mixed : small_mixed;
      first_out[i] = first->Identify(probes.fingerprints[i], probes.fixed[i]);
      second_out[i] =
          second->Identify(probes.fingerprints[i], probes.fixed[i]);
    }
  }).join();

  std::size_t small_stage2 = 0;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    ExpectSameResult(large_mixed[i], large_alone[i]);
    ExpectSameResult(small_mixed[i], small_alone[i]);
    if (!small_alone[i].matched_types.empty()) ++small_stage2;
  }
  EXPECT_GT(small_stage2, 0u);
  // Whole batches back to back on one thread share the scratch too.
  std::thread([&] {
    const auto large_batch = large.IdentifyBatch(RefsOf(probes));
    const auto small_batch = small.IdentifyBatch(RefsOf(probes));
    for (std::size_t i = 0; i < probes.size(); ++i) {
      ExpectSameResult(large_batch[i], large_alone[i]);
      ExpectSameResult(small_batch[i], small_alone[i]);
    }
  }).join();
}

}  // namespace
}  // namespace sentinel
