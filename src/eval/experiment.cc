#include "eval/experiment.h"

#include <chrono>

#include "features/edit_distance.h"
#include "obs/stage.h"

namespace sentinel::eval {

namespace {
using Clock = std::chrono::steady_clock;

double ToNs(Clock::duration d) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}
}  // namespace

namespace {

// Everything one fold contributes to the aggregate outcome, accumulated
// privately while folds run in parallel and merged in fold order.
struct FoldPartial {
  ml::ConfusionMatrix confusion{0};
  std::vector<std::size_t> unknown_per_type;
  std::vector<std::size_t> candidates_histogram;
  std::size_t total_identifications = 0;
  std::size_t multi_match_count = 0;
  std::size_t edit_distance_total = 0;
  std::vector<double> classification_ns;
  std::vector<double> discrimination_ns;
  std::vector<double> identification_ns;
};

}  // namespace

CrossValidationOutcome RunCrossValidation(
    const devices::FingerprintDataset& dataset,
    const CrossValidationConfig& config, util::ThreadPool* pool,
    obs::MetricsRegistry* metrics) {
  const std::size_t type_count = devices::DeviceTypeCount();
  CrossValidationOutcome outcome;
  outcome.confusion = ml::ConfusionMatrix(type_count);
  outcome.unknown_per_type.assign(type_count, 0);
  outcome.candidates_histogram.assign(type_count + 1, 0);

  for (std::size_t rep = 0; rep < config.repetitions; ++rep) {
    ml::Rng fold_rng(ml::DeriveSeed(config.seed, rep));
    const auto folds =
        ml::StratifiedKFold(dataset.labels, config.folds, fold_rng);

    // Folds are independent experiments (each derives its identifier seed
    // from (seed, rep, fold) and holds its own model), so they evaluate in
    // parallel; nested parallelism inside Train() lets idle workers help
    // whichever fold is still training.
    std::vector<FoldPartial> partials(folds.size());
    ml::ForEachFold(folds, pool, [&](std::size_t f) {
      const auto& fold = folds[f];
      FoldPartial& part = partials[f];
      part.confusion = ml::ConfusionMatrix(type_count);
      part.unknown_per_type.assign(type_count, 0);
      part.candidates_histogram.assign(type_count + 1, 0);

      std::vector<core::LabelledFingerprint> train;
      train.reserve(fold.train_indices.size());
      for (const std::size_t i : fold.train_indices) {
        train.push_back(core::LabelledFingerprint{
            &dataset.fingerprints[i], &dataset.fixed[i], dataset.labels[i]});
      }
      core::IdentifierConfig id_config = config.identifier;
      id_config.seed = ml::DeriveSeed(config.seed, rep * 1000 + f);
      core::DeviceIdentifier identifier(id_config);
      identifier.set_thread_pool(pool);
      identifier.set_metrics(metrics);
      identifier.Train(train);

      // The fold's whole test split goes through one batched bank sweep
      // (verdicts are bit-identical to per-probe Identify); each probe's
      // wall time is reported as its even share of the batch.
      std::vector<core::DeviceIdentifier::FingerprintRef> probes;
      probes.reserve(fold.test_indices.size());
      for (const std::size_t i : fold.test_indices) {
        probes.push_back({&dataset.fingerprints[i], &dataset.fixed[i]});
      }
      const auto t0 = Clock::now();
      const auto fold_results = identifier.IdentifyBatch(probes);
      const auto batch_ns = ToNs(Clock::now() - t0);
      const double share =
          probes.empty() ? 0.0 : batch_ns / static_cast<double>(probes.size());

      for (std::size_t p = 0; p < fold.test_indices.size(); ++p) {
        const std::size_t i = fold.test_indices[p];
        const auto& result = fold_results[p];

        ++part.total_identifications;
        part.classification_ns.push_back(
            static_cast<double>(result.classification_time.count()));
        part.identification_ns.push_back(share);
        if (result.matched_types.size() > 1) {
          ++part.multi_match_count;
          part.discrimination_ns.push_back(
              static_cast<double>(result.discrimination_time.count()));
        }
        part.edit_distance_total += result.edit_distance_count;
        const std::size_t candidates = result.matched_types.size();
        if (candidates < part.candidates_histogram.size())
          ++part.candidates_histogram[candidates];

        const auto actual = static_cast<std::size_t>(dataset.labels[i]);
        if (result.IsKnown()) {
          part.confusion.Add(actual, static_cast<std::size_t>(*result.type));
        } else {
          ++part.unknown_per_type[actual];
        }
      }
    });

    for (const auto& part : partials) {
      outcome.confusion.Merge(part.confusion);
      for (std::size_t a = 0; a < type_count; ++a)
        outcome.unknown_per_type[a] += part.unknown_per_type[a];
      for (std::size_t c = 0; c < part.candidates_histogram.size(); ++c)
        outcome.candidates_histogram[c] += part.candidates_histogram[c];
      outcome.total_identifications += part.total_identifications;
      outcome.multi_match_count += part.multi_match_count;
      outcome.edit_distance_total += part.edit_distance_total;
      outcome.classification_ns.insert(outcome.classification_ns.end(),
                                       part.classification_ns.begin(),
                                       part.classification_ns.end());
      outcome.discrimination_ns.insert(outcome.discrimination_ns.end(),
                                       part.discrimination_ns.begin(),
                                       part.discrimination_ns.end());
      outcome.identification_ns.insert(outcome.identification_ns.end(),
                                       part.identification_ns.begin(),
                                       part.identification_ns.end());
    }
  }
  return outcome;
}

StepTimings MeasureStepTimings(const devices::FingerprintDataset& dataset,
                               const CrossValidationConfig& config,
                               std::size_t probe_count,
                               util::ThreadPool* pool,
                               obs::MetricsRegistry* metrics) {
  StepTimings out;
  obs::Histogram* fingerprint_ns =
      obs::StageHistogram(metrics, obs::Stage::kFingerprint);
  obs::Histogram* identify_ns =
      obs::StageHistogram(metrics, obs::Stage::kIdentify);
  // Train on the full dataset (timing, not accuracy, is measured here).
  std::vector<core::LabelledFingerprint> train;
  train.reserve(dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    train.push_back(core::LabelledFingerprint{
        &dataset.fingerprints[i], &dataset.fixed[i], dataset.labels[i]});
  }
  core::DeviceIdentifier identifier(config.identifier);
  identifier.set_thread_pool(pool);
  identifier.set_metrics(metrics);
  identifier.Train(train);
  // The probe loops below time individual pipeline steps; keep them
  // single-threaded so the measurements match the paper's per-step costs.
  identifier.set_thread_pool(nullptr);

  ml::Rng rng(ml::DeriveSeed(config.seed, 0xabcd));
  std::uniform_int_distribution<std::size_t> pick(0, dataset.size() - 1);

  std::vector<double> single_cls, single_disc, extraction, all_cls, discs, ids;

  // Single classification: time one per-type binary forest directly (the
  // identifier-level call adds the open-set reference check, which belongs
  // to the discrimination column).
  {
    ml::Dataset data(features::kFPrimeDim);
    for (std::size_t i = 0; i < dataset.size(); ++i)
      data.Add(dataset.fixed[i].ToVector(), dataset.labels[i] == 0 ? 1 : 0);
    ml::RandomForest forest;
    ml::RandomForestConfig forest_config = config.identifier.forest;
    forest.Train(data, forest_config, pool, metrics);
    for (std::size_t n = 0; n < probe_count; ++n) {
      const auto row = dataset.fixed[pick(rng)].ToVector();
      const auto t0 = Clock::now();
      (void)forest.PositiveProba(row);
      single_cls.push_back(ToNs(Clock::now() - t0));
    }
  }

  // Single discrimination: one normalized edit distance between two
  // fingerprints of similar types.
  for (std::size_t n = 0; n < probe_count; ++n) {
    const std::size_t a = pick(rng);
    const std::size_t b = pick(rng);
    const auto t0 = Clock::now();
    (void)features::NormalizedEditDistance(dataset.fingerprints[a],
                                           dataset.fingerprints[b]);
    single_disc.push_back(ToNs(Clock::now() - t0));
  }

  // Fingerprint extraction: regenerate an episode and extract.
  {
    devices::DeviceSimulator simulator(ml::DeriveSeed(config.seed, 0x77));
    for (std::size_t n = 0; n < std::min<std::size_t>(probe_count, 54); ++n) {
      const auto episode = simulator.RunSetupEpisode(
          static_cast<devices::DeviceTypeId>(n % devices::DeviceTypeCount()));
      const auto packets = devices::DeviceSimulator::DevicePackets(episode);
      const auto t0 = Clock::now();
      obs::StageScope stage(obs::Stage::kFingerprint, fingerprint_ns, t0);
      const auto fp = features::Fingerprint::FromPackets(packets);
      (void)features::FixedFingerprint::FromFingerprint(fp);
      const auto t1 = Clock::now();
      stage.End(t1);
      extraction.push_back(ToNs(t1 - t0));
    }
  }

  // Full identifications: 27 classifications + discrimination when needed.
  double discrimination_count_sum = 0.0;
  std::size_t discrimination_ids = 0;
  for (std::size_t n = 0; n < probe_count; ++n) {
    const std::size_t i = pick(rng);
    const auto t0 = Clock::now();
    obs::StageScope stage(obs::Stage::kIdentify, identify_ns, t0);
    const auto result =
        identifier.Identify(dataset.fingerprints[i], dataset.fixed[i]);
    const auto t1 = Clock::now();
    stage.End(t1);
    ids.push_back(ToNs(t1 - t0));
    all_cls.push_back(static_cast<double>(result.classification_time.count()));
    if (result.matched_types.size() > 1) {
      discs.push_back(static_cast<double>(result.discrimination_time.count()));
      discrimination_count_sum +=
          static_cast<double>(result.edit_distance_count);
      ++discrimination_ids;
    }
  }

  out.single_classification_ns = ml::ComputeMeanStd(single_cls);
  out.single_discrimination_ns = ml::ComputeMeanStd(single_disc);
  out.fingerprint_extraction_ns = ml::ComputeMeanStd(extraction);
  out.all_classifications_ns = ml::ComputeMeanStd(all_cls);
  out.discriminations_ns = ml::ComputeMeanStd(discs);
  out.identification_ns = ml::ComputeMeanStd(ids);
  out.mean_discriminations_per_id =
      discrimination_ids > 0
          ? discrimination_count_sum / static_cast<double>(discrimination_ids)
          : 0.0;
  return out;
}

}  // namespace sentinel::eval
