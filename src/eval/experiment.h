// Evaluation harness reproducing the paper's protocol (Sect. VI-B):
// stratified 10-fold cross-validation repeated 10 times over a dataset of
// 540 fingerprints (27 types x 20 episodes); per fold, one binary Random
// Forest per type trained with all n positives and 10*n sampled negatives;
// multi-match fingerprints discriminated by edit distance over 5 reference
// fingerprints per candidate.
#pragma once

#include <cstdint>
#include <vector>

#include "core/device_identifier.h"
#include "devices/simulator.h"
#include "ml/cross_validation.h"
#include "ml/metrics.h"

namespace sentinel::eval {

struct CrossValidationConfig {
  std::size_t folds = 10;
  std::size_t repetitions = 10;
  core::IdentifierConfig identifier;
  std::uint64_t seed = 99;
};

/// Aggregated outcome across all repetitions and folds.
struct CrossValidationOutcome {
  ml::ConfusionMatrix confusion{0};
  /// Test fingerprints that were rejected by every classifier ("new
  /// device-type" verdicts), counted per actual type.
  std::vector<std::size_t> unknown_per_type;
  std::size_t total_identifications = 0;
  /// How many identifications needed the discrimination stage.
  std::size_t multi_match_count = 0;
  /// Edit-distance computations across all identifications.
  std::size_t edit_distance_total = 0;
  /// Candidate types per discrimination (paper: "between two and five").
  std::vector<std::size_t> candidates_histogram;  // index = candidate count

  // Per-identification timings (nanoseconds), for Table IV.
  std::vector<double> classification_ns;   // all-classifier pass
  std::vector<double> discrimination_ns;   // only when stage 2 ran
  std::vector<double> identification_ns;   // end-to-end

  [[nodiscard]] double PerTypeAccuracy(std::size_t type) const {
    return confusion.PerClassAccuracy(type);
  }
  [[nodiscard]] double OverallAccuracy() const {
    return confusion.OverallAccuracy();
  }
};

/// Runs the full protocol on a pre-generated dataset. With a non-null
/// `pool`, the folds of each repetition evaluate in parallel (each fold
/// trains and tests its own identifier, which also borrows the pool for
/// forest training); per-fold results are merged in fold order, so the
/// accuracy/confusion outcome is identical to a sequential run. Only the
/// recorded wall-clock timings vary with scheduling, as they always do.
/// With a non-null `metrics`, every fold identifier records its bank-scan
/// and discrimination telemetry into the shared registry (counters are
/// atomic, so concurrent folds aggregate correctly).
CrossValidationOutcome RunCrossValidation(
    const devices::FingerprintDataset& dataset,
    const CrossValidationConfig& config, util::ThreadPool* pool = nullptr,
    obs::MetricsRegistry* metrics = nullptr);

/// Single-step timing measurements for Table IV, measured on a trained
/// identifier over the given dataset.
struct StepTimings {
  ml::MeanStd single_classification_ns;  // one Random Forest
  ml::MeanStd single_discrimination_ns;  // one edit-distance computation
  ml::MeanStd fingerprint_extraction_ns;
  ml::MeanStd all_classifications_ns;    // 27 classifiers
  ml::MeanStd discriminations_ns;        // per identification that needed it
  ml::MeanStd identification_ns;         // end-to-end
  double mean_discriminations_per_id = 0.0;
};

/// `pool` accelerates the one-off training of the measured identifier; the
/// timed probe sections always run sequentially so the per-step numbers
/// stay comparable with the paper's single-core measurements. Each
/// probe's extraction and identification run as the fingerprint and
/// identify stages (obs/stage.h) on the step's own clock reads, so with a
/// non-null `metrics` they land in the same histograms the live gateway
/// records, and the Table IV bench and production telemetry share one
/// exposition path.
StepTimings MeasureStepTimings(const devices::FingerprintDataset& dataset,
                               const CrossValidationConfig& config,
                               std::size_t probe_count = 200,
                               util::ThreadPool* pool = nullptr,
                               obs::MetricsRegistry* metrics = nullptr);

}  // namespace sentinel::eval
