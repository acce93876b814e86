// Differential tests for the identification fast path: the compiled-bank
// scan with pruned tie-break must be bit-identical to the reference
// implementation on every verdict-relevant output — on simulator datasets
// and on the fingerprints a gateway captures — IdentifyBatch must match
// per-call Identify exactly, concurrent callers must answer as a
// sequential pass does, and compilation must never perturb the serialized
// model bundle.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/device_identifier.h"
#include "core/gateway.h"
#include "core/security_service.h"
#include "devices/simulator.h"
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

// Everything the fast path promises bit-identical: the verdict, the
// candidate set, the full bank provenance and the winner's score.
// (Dissimilarity scores of provably-losing candidates and
// edit_distance_count may legitimately differ under pruning.)
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
  const auto dataset = devices::GenerateFingerprintDataset(6, 2026);
  auto identifier = TrainedIdentifier(dataset);
  // Fresh probes the bank has not seen verbatim, plus the training set
  // itself (which provokes multi-matches and exact ties between
  // same-hardware siblings — the pruning danger zone).
  const auto probes = devices::GenerateFingerprintDataset(3, 777);
  for (const auto* set : {&probes, &dataset}) {
    for (std::size_t i = 0; i < set->size(); ++i) {
      identifier.set_fast_path(true);
      const auto fast =
          identifier.Identify(set->fingerprints[i], set->fixed[i]);
      identifier.set_fast_path(false);
      const auto reference =
          identifier.Identify(set->fingerprints[i], set->fixed[i]);
      ExpectVerdictEqual(fast, reference);
    }
  }
}

TEST(IdentifyFastPath, BatchMatchesPerCallIdentify) {
  const auto dataset = devices::GenerateFingerprintDataset(5, 11);
  auto identifier = TrainedIdentifier(dataset);
  const auto probes = devices::GenerateFingerprintDataset(4, 99);

  std::vector<core::DeviceIdentifier::FingerprintRef> refs;
  refs.reserve(probes.size());
  for (std::size_t i = 0; i < probes.size(); ++i)
    refs.push_back({&probes.fingerprints[i], &probes.fixed[i]});
  const auto batch = identifier.IdentifyBatch(refs);
  ASSERT_EQ(batch.size(), probes.size());

  for (std::size_t i = 0; i < probes.size(); ++i) {
    const auto single =
        identifier.Identify(probes.fingerprints[i], probes.fixed[i]);
    EXPECT_EQ(batch[i].type, single.type);
    EXPECT_EQ(batch[i].matched_types, single.matched_types);
    EXPECT_EQ(batch[i].bank_labels, single.bank_labels);
    ASSERT_EQ(batch[i].bank_probabilities.size(),
              single.bank_probabilities.size());
    for (std::size_t k = 0; k < single.bank_probabilities.size(); ++k)
      EXPECT_EQ(batch[i].bank_probabilities[k], single.bank_probabilities[k]);
    // Stage 2 runs the same pruned code on the same RNG stream in both
    // entry points: scores and counts match exactly, not just verdicts.
    EXPECT_EQ(batch[i].dissimilarity_scores, single.dissimilarity_scores);
    EXPECT_EQ(batch[i].edit_distance_count, single.edit_distance_count);
  }
}

TEST(IdentifyFastPath, BatchMatchesAcrossThreadCounts) {
  const auto dataset = devices::GenerateFingerprintDataset(4, 21);
  auto identifier = TrainedIdentifier(dataset);
  const auto probes = devices::GenerateFingerprintDataset(3, 5);
  std::vector<core::DeviceIdentifier::FingerprintRef> refs;
  for (std::size_t i = 0; i < probes.size(); ++i)
    refs.push_back({&probes.fingerprints[i], &probes.fixed[i]});

  const auto sequential = identifier.IdentifyBatch(refs);
  util::ThreadPool pool(4);
  identifier.set_thread_pool(&pool);
  const auto pooled = identifier.IdentifyBatch(refs);
  identifier.set_thread_pool(nullptr);

  ASSERT_EQ(sequential.size(), pooled.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(sequential[i].type, pooled[i].type);
    EXPECT_EQ(sequential[i].matched_types, pooled[i].matched_types);
    EXPECT_EQ(sequential[i].dissimilarity_scores,
              pooled[i].dissimilarity_scores);
    EXPECT_EQ(sequential[i].edit_distance_count,
              pooled[i].edit_distance_count);
  }
}

TEST(IdentifyFastPath, SavedBytesUnchangedByCompiledBank) {
  const auto dataset = devices::GenerateFingerprintDataset(4, 41);
  auto identifier = TrainedIdentifier(dataset);
  const auto bytes = SaveBank(identifier);

  // A reloaded identifier (which recompiles its bank) must serialize to
  // the same bytes and answer identically through both paths.
  net::ByteReader r(bytes);
  auto reloaded = core::DeviceIdentifier::Load(r);
  EXPECT_EQ(SaveBank(reloaded), bytes);

  const auto probes = devices::GenerateFingerprintDataset(2, 4);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const auto original =
        identifier.Identify(probes.fingerprints[i], probes.fixed[i]);
    const auto loaded =
        reloaded.Identify(probes.fingerprints[i], probes.fixed[i]);
    EXPECT_EQ(original.type, loaded.type);
    EXPECT_EQ(original.matched_types, loaded.matched_types);
    reloaded.set_fast_path(false);
    const auto loaded_reference =
        reloaded.Identify(probes.fingerprints[i], probes.fixed[i]);
    reloaded.set_fast_path(true);
    ExpectVerdictEqual(loaded, loaded_reference);
  }
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

// The serving kernel runs the same bank scan and tie-break as the per-call
// and batch paths, so everything but the stage timings matches them
// exactly — bank_probabilities included, bit for bit.
TEST(IdentifyBatchServe, MatchesBatchAndPerCallVerdicts) {
  const auto dataset = devices::GenerateFingerprintDataset(6, 2026);
  auto identifier = TrainedIdentifier(dataset);
  // Training fingerprints provoke multi-matches and exact ties; fresh
  // probes cover the accept/reject boundary.
  const auto probes = devices::GenerateFingerprintDataset(3, 777);
  for (const auto* set : {&probes, &dataset}) {
    std::vector<core::DeviceIdentifier::FingerprintRef> refs;
    for (std::size_t i = 0; i < set->size(); ++i)
      refs.push_back({&set->fingerprints[i], &set->fixed[i]});
    const auto serve = identifier.IdentifyBatchServe(refs);
    const auto batch = identifier.IdentifyBatch(refs);
    ASSERT_EQ(serve.size(), set->size());
    for (std::size_t i = 0; i < set->size(); ++i) {
      ExpectSameResult(serve[i], batch[i]);
      const auto single =
          identifier.Identify(set->fingerprints[i], set->fixed[i]);
      ExpectSameResult(serve[i], single);
    }
  }
}

TEST(IdentifyBatchServe, FallsBackToReferencePathWhenFastPathDisabled) {
  const auto dataset = devices::GenerateFingerprintDataset(4, 13);
  auto identifier = TrainedIdentifier(dataset);
  const auto probes = devices::GenerateFingerprintDataset(2, 31);
  std::vector<core::DeviceIdentifier::FingerprintRef> refs;
  for (std::size_t i = 0; i < probes.size(); ++i)
    refs.push_back({&probes.fingerprints[i], &probes.fixed[i]});
  identifier.set_fast_path(false);
  const auto serve = identifier.IdentifyBatchServe(refs);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const auto reference =
        identifier.Identify(probes.fingerprints[i], probes.fixed[i]);
    EXPECT_EQ(serve[i].type, reference.type);
    EXPECT_EQ(serve[i].matched_types, reference.matched_types);
    EXPECT_EQ(serve[i].dissimilarity_scores, reference.dissimilarity_scores);
  }
}

TEST(IdentifyBatchServe, SurvivesSaveLoadRoundTrip) {
  const auto dataset = devices::GenerateFingerprintDataset(5, 61);
  auto identifier = TrainedIdentifier(dataset);
  const auto bytes = SaveBank(identifier);
  net::ByteReader r(bytes);
  auto reloaded = core::DeviceIdentifier::Load(r);
  const auto probes = devices::GenerateFingerprintDataset(2, 9);
  std::vector<core::DeviceIdentifier::FingerprintRef> refs;
  for (std::size_t i = 0; i < probes.size(); ++i)
    refs.push_back({&probes.fingerprints[i], &probes.fixed[i]});
  const auto original = identifier.IdentifyBatchServe(refs);
  const auto loaded = reloaded.IdentifyBatchServe(refs);
  ASSERT_EQ(original.size(), loaded.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(original[i].type, loaded[i].type);
    EXPECT_EQ(original[i].matched_types, loaded[i].matched_types);
    EXPECT_EQ(original[i].tie_break_count, loaded[i].tie_break_count);
    EXPECT_EQ(original[i].dissimilarity_scores,
              loaded[i].dissimilarity_scores);
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

// The per-call stage timings the gateway journals and the e2e benchmark's
// per-layer split read: classification_time, discrimination_time and one
// discrimination-histogram observation per probe that reached stage 2.
// The serving kernel takes no per-probe clock reads.
TEST(IdentifyFastPath, StageTimingsSurvive) {
  const auto dataset = devices::GenerateFingerprintDataset(6, 71);
  obs::MetricsRegistry registry;
  core::DeviceIdentifier identifier;
  identifier.set_metrics(&registry);
  identifier.Train(ToExamples(dataset));
  const auto& discrimination =
      registry.GetHistogram("sentinel_identifier_discrimination_ns", "");
  std::uint64_t reached_stage2 = 0;
  std::size_t multi_matches = 0;
  std::vector<core::DeviceIdentifier::FingerprintRef> refs;
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    refs.push_back({&dataset.fingerprints[i], &dataset.fixed[i]});
    const auto result =
        identifier.Identify(dataset.fingerprints[i], dataset.fixed[i]);
    if (!result.matched_types.empty()) ++reached_stage2;
    if (result.matched_types.size() < 2) continue;
    ++multi_matches;
    EXPECT_GT(result.classification_time.count(), 0);
    EXPECT_GT(result.discrimination_time.count(), 0);
  }
  EXPECT_GT(multi_matches, 0u);
  EXPECT_EQ(discrimination.Count(), reached_stage2);

  for (const auto& served : identifier.IdentifyBatchServe(refs)) {
    EXPECT_EQ(served.classification_time.count(), 0);
    EXPECT_EQ(served.discrimination_time.count(), 0);
  }
  EXPECT_EQ(discrimination.Count(), reached_stage2);
}

// The quality monitor reads the bank scan's leaders on the fast paths and
// recomputes them from bank_probabilities on the reference path: every
// series it keeps — margins, top labels, tie-breaks — must come out the
// same through all four entry points.
TEST(IdentifyFastPath, QualitySeriesMatchAcrossPaths) {
  const auto dataset = devices::GenerateFingerprintDataset(5, 87);
  auto identifier = TrainedIdentifier(dataset);
  const auto probes = devices::GenerateFingerprintDataset(3, 88);
  std::vector<core::DeviceIdentifier::FingerprintRef> refs;
  for (std::size_t i = 0; i < probes.size(); ++i)
    refs.push_back({&probes.fingerprints[i], &probes.fixed[i]});
  const auto series = [&](int path) {
    obs::MetricsRegistry registry;
    obs::QualityMonitor monitor(&registry);
    identifier.set_quality_monitor(&monitor);
    identifier.set_fast_path(path != 0);
    if (path == 2) {
      (void)identifier.IdentifyBatch(refs);
    } else if (path == 3) {
      (void)identifier.IdentifyBatchServe(refs);
    } else {
      for (std::size_t i = 0; i < probes.size(); ++i)
        (void)identifier.Identify(probes.fingerprints[i], probes.fixed[i]);
    }
    identifier.set_quality_monitor(nullptr);
    identifier.set_fast_path(true);
    return registry.RenderPrometheus();
  };
  const std::string reference = series(0);
  EXPECT_NE(reference.find("sentinel_quality_margin_sum{type="),
            std::string::npos);
  EXPECT_EQ(series(1), reference);  // per-call fast path
  EXPECT_EQ(series(2), reference);  // batch
  EXPECT_EQ(series(3), reference);  // serve
}

// Forwards to the service and records every fingerprint the gateway asks
// it to assess, in arrival order.
class RecordingClient : public core::SecurityServiceClient {
 public:
  explicit RecordingClient(core::SecurityService& service)
      : service_(service) {}
  core::AssessmentResult Assess(
      const features::Fingerprint& full,
      const features::FixedFingerprint& fixed) override {
    full_.push_back(full);
    fixed_.push_back(fixed);
    return service_.Assess(full, fixed);
  }
  [[nodiscard]] const std::vector<features::Fingerprint>& full() const {
    return full_;
  }
  [[nodiscard]] const std::vector<features::FixedFingerprint>& fixed() const {
    return fixed_;
  }

 private:
  core::SecurityService& service_;
  std::vector<features::Fingerprint> full_;
  std::vector<features::FixedFingerprint> fixed_;
};

// The probes a gateway actually assesses: setup-phase captures cut from
// concurrent joins whose frames interleave with background phones and
// laptops, fingerprinted by the monitor in arrival order — not whole
// training-style episodes sorted by type.
TEST(IdentifyFastPath, MatchesReferenceOnGatewayCapturedProbes) {
  auto service = core::BuildTrainedSecurityService(/*n_per_type=*/6,
                                                   /*seed=*/2027);
  RecordingClient client(*service);
  core::SecurityGateway gateway(client);
  gateway.AttachWan([](const net::Frame&) {});
  constexpr std::size_t kFirstPort = 10;
  constexpr std::size_t kPorts = 8;
  for (std::size_t p = 0; p < kPorts; ++p) {
    gateway.AttachPort(static_cast<sdn::PortId>(kFirstPort + p),
                       [](const net::Frame&) {});
  }

  const std::size_t catalog = devices::DeviceTypeCount();
  std::uint64_t clock_ns = 1'000'000'000;
  for (std::size_t group = 0; group < 10; ++group) {
    devices::DeviceSimulator simulator(9000 + group);
    std::vector<devices::DeviceTypeId> types;
    for (std::size_t k = 0; k < 5; ++k) {
      types.push_back(
          static_cast<devices::DeviceTypeId>((group * 5 + k * 7) % catalog));
    }
    auto joins = simulator.RunConcurrentSetupEpisodes(types);
    std::vector<net::Frame> frames = joins.merged.frames();
    std::vector<devices::SimulatedEpisode> episodes = std::move(joins.episodes);
    // Background devices join at the same instant as the group.
    const std::uint64_t base = frames.front().timestamp_ns;
    for (const auto kind : {devices::BackgroundDeviceKind::kSmartphone,
                            devices::BackgroundDeviceKind::kLaptop}) {
      auto episode = simulator.RunBackgroundEpisode(kind);
      const std::uint64_t shift =
          episode.trace.frames().front().timestamp_ns - base;
      for (net::Frame frame : episode.trace.frames()) {
        frame.timestamp_ns -= shift;
        frames.push_back(std::move(frame));
      }
      episodes.push_back(std::move(episode));
    }
    std::stable_sort(frames.begin(), frames.end(),
                     [](const net::Frame& a, const net::Frame& b) {
                       return a.timestamp_ns < b.timestamp_ns;
                     });
    std::unordered_map<std::uint64_t, sdn::PortId> ports;
    for (std::size_t e = 0; e < episodes.size(); ++e) {
      ports.emplace(episodes[e].device_mac.ToUint64(),
                    static_cast<sdn::PortId>(kFirstPort + e % kPorts));
    }
    // Each group arrives after the previous one has been flushed.
    const std::uint64_t offset = clock_ns - base;
    for (net::Frame frame : frames) {
      frame.timestamp_ns += offset;
      const auto packet = net::ParseFrame(frame);
      const auto it = ports.find(packet.src_mac.ToUint64());
      gateway.Ingress(
          it == ports.end() ? gateway.config().wan_port : it->second, frame);
    }
    clock_ns = frames.back().timestamp_ns + offset + 60'000'000'000ull;
    gateway.sentinel().FlushIdle(clock_ns);
  }

  auto& identifier = service->identifier();
  const auto& full = client.full();
  const auto& fixed = client.fixed();
  ASSERT_GE(full.size(), 10u * 5u);
  std::vector<core::IdentificationResult> per_call;
  std::size_t multi_matches = 0;
  std::size_t unknown = 0;
  for (std::size_t i = 0; i < full.size(); ++i) {
    const auto fast = identifier.Identify(full[i], fixed[i]);
    identifier.set_fast_path(false);
    const auto reference = identifier.Identify(full[i], fixed[i]);
    identifier.set_fast_path(true);
    ExpectVerdictEqual(fast, reference);
    EXPECT_EQ(fast.tie_break_count, reference.tie_break_count);
    EXPECT_LE(fast.edit_distance_count, reference.edit_distance_count);
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
  const auto served = identifier.IdentifyBatchServe(refs);
  ASSERT_EQ(batch.size(), full.size());
  ASSERT_EQ(served.size(), full.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    ExpectSameResult(batch[i], per_call[i]);
    ExpectSameResult(served[i], per_call[i]);
  }
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
  // Served verdicts share the same scan scratch.
  std::vector<core::DeviceIdentifier::FingerprintRef> refs;
  for (std::size_t i = 0; i < probes.size(); ++i)
    refs.push_back({&probes.fingerprints[i], &probes.fixed[i]});
  std::thread([&] {
    const auto large_served = large.IdentifyBatchServe(refs);
    const auto small_served = small.IdentifyBatchServe(refs);
    for (std::size_t i = 0; i < probes.size(); ++i) {
      ExpectSameResult(large_served[i], large_alone[i]);
      ExpectSameResult(small_served[i], small_alone[i]);
    }
  }).join();
}

}  // namespace
}  // namespace sentinel
