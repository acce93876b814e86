#include "core/device_identifier.h"

#include <algorithm>

#include "features/fingerprint_codec.h"
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <stdexcept>

#include "obs/log.h"
#include "obs/stage.h"

namespace sentinel::core {

namespace {

using Clock = std::chrono::steady_clock;

// Reusable tie-break buffers, one set per thread, so a probe allocates
// nothing once they have grown to the largest bank seen. `counts` and
// `ed.peq` are all-zero between probes (each probe clears exactly the ids
// it set), which keeps them valid across identifiers whose tie-break
// tables differ in size.
struct TieBreakScratch {
  features::EditDistanceScratch ed;
  /// Fisher-Yates index buffer for reference picks.
  std::vector<std::size_t> indices;
  /// Probe packet-id histogram over the tie-break table.
  std::vector<std::uint32_t> counts;
  /// Per-chosen-reference bag lower bounds for the current candidate.
  std::vector<std::size_t> bag_lb;
};

}  // namespace

void DeviceIdentifier::set_metrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  if (registry == nullptr) {
    handles_ = IdentifierMetrics{};
    return;
  }
  handles_.bank_train_ns =
      obs::StageHistogram(registry, obs::Stage::kBankTrain);
  handles_.bank_scan_ns = obs::StageHistogram(registry, obs::Stage::kBankScan);
  handles_.tie_break_ns = obs::StageHistogram(registry, obs::Stage::kTieBreak);
  handles_.identify_total = &registry->GetCounter(
      "sentinel_identifier_identify_total", "fingerprints identified");
  handles_.unknown_total = &registry->GetCounter(
      "sentinel_identifier_unknown_total",
      "fingerprints reported as new/unknown device-types");
  handles_.multi_match_total = &registry->GetCounter(
      "sentinel_identifier_multi_match_total",
      "fingerprints accepted by more than one per-type classifier");
  handles_.accepts_total = &registry->GetCounter(
      "sentinel_identifier_accepts_total",
      "per-type classifier acceptances across all bank scans");
  handles_.edit_distance_total = &registry->GetCounter(
      "sentinel_identifier_edit_distance_total",
      "Damerau-Levenshtein computations in discrimination");
  handles_.tiebreak_total = &registry->GetCounter(
      "sentinel_identifier_tiebreak_total",
      "equal-dissimilarity tie-break coin flips");
  handles_.editdist_pruned = &registry->GetCounter(
      "sentinel_identifier_editdist_pruned_total",
      "edit-distance computations skipped because the candidate provably "
      "could not beat the best tie-break score");
  handles_.types = &registry->GetGauge(
      "sentinel_identifier_types", "device-types in the trained bank");
  handles_.types->Set(static_cast<double>(types_.size()));
}

void DeviceIdentifier::set_quality_monitor(obs::QualityMonitor* monitor) {
  quality_ = monitor;
  if (quality_ != nullptr && !labels_.empty()) quality_->BindTypes(labels_);
}

void DeviceIdentifier::RecordQuality(
    const IdentificationResult& result,
    const ml::ForestBank::Leaders& leaders) const {
  if (quality_ == nullptr) return;
  obs::QualitySample sample;
  // The top label is only read when the verdict has none.
  if (result.type.has_value())
    sample.top_label = *result.type;
  else if (!result.bank_labels.empty())
    sample.top_label = result.bank_labels[leaders.first];
  sample.top1_probability = leaders.first_probability;
  sample.top2_probability = leaders.second_probability;
  sample.unknown = !result.IsKnown();
  sample.multi_match = result.matched_types.size() > 1;
  sample.tie_break_count = result.tie_break_count;
  double best = std::numeric_limits<double>::quiet_NaN();
  for (const double score : result.dissimilarity_scores) {
    if (std::isnan(best) || score < best) best = score;
  }
  sample.best_dissimilarity = best;
  quality_->Record(sample);
}

void DeviceIdentifier::TrainOne(
    PerType& entry, const std::vector<LabelledFingerprint>& positives,
    const std::vector<const std::vector<double>*>& positive_rows,
    const std::vector<const std::vector<double>*>& negative_rows,
    std::uint64_t salt) {
  if (positives.empty())
    throw std::invalid_argument("TrainOne: no positive examples");

  ml::Rng rng(ml::DeriveSeed(config_.seed, salt));
  const std::size_t want_negatives =
      std::min(negative_rows.size(), config_.negative_ratio * positives.size());

  // Sample negatives without replacement (partial Fisher-Yates).
  std::vector<const std::vector<double>*> sampled = negative_rows;
  for (std::size_t i = 0; i < want_negatives; ++i) {
    std::uniform_int_distribution<std::size_t> pick(i, sampled.size() - 1);
    std::swap(sampled[i], sampled[pick(rng)]);
  }

  ml::Dataset data(features::kFPrimeDim);
  for (const auto* row : positive_rows) data.Add(*row, 1);
  for (std::size_t i = 0; i < want_negatives; ++i) data.Add(*sampled[i], 0);

  ml::RandomForestConfig forest_config = config_.forest;
  forest_config.seed = ml::DeriveSeed(config_.seed, salt ^ 0xf0f0f0f0ull);
  entry.classifier.Train(data, forest_config, pool_, metrics_);

  entry.references.clear();
  entry.references.reserve(positives.size());
  for (const auto& example : positives) entry.references.push_back(*example.full);
}

void DeviceIdentifier::Compile() {
  label_index_.clear();
  label_index_.reserve(types_.size());
  std::vector<const ml::RandomForest*> forests;
  forests.reserve(types_.size());
  for (std::size_t k = 0; k < types_.size(); ++k) {
    label_index_.emplace(types_[k].label, k);
    forests.push_back(&types_[k].classifier);
  }
  bank_ = ml::ForestBank::Compile(forests);
  CompileTieBreakIndex();
}

void DeviceIdentifier::CompileTieBreakIndex() {
  tie_break_.table.Clear();
  tie_break_.reference_ids.assign(types_.size(), {});
  tie_break_.reference_bags.assign(types_.size(), {});
  for (std::size_t k = 0; k < types_.size(); ++k) {
    auto& ids = tie_break_.reference_ids[k];
    ids.assign(types_[k].references.size(), {});
    for (std::size_t i = 0; i < types_[k].references.size(); ++i) {
      tie_break_.table.Intern(types_[k].references[i].packets(), ids[i]);
    }
  }
  // Index the frozen table so probe interning is one expected-O(1) probe
  // per packet instead of a linear scan.
  tie_break_.table.Freeze();
  for (std::size_t k = 0; k < types_.size(); ++k) {
    auto& bags = tie_break_.reference_bags[k];
    bags.assign(tie_break_.reference_ids[k].size(), {});
    for (std::size_t i = 0; i < tie_break_.reference_ids[k].size(); ++i) {
      auto sorted = tie_break_.reference_ids[k][i];
      std::sort(sorted.begin(), sorted.end());
      auto& bag = bags[i];
      for (std::size_t j = 0; j < sorted.size();) {
        std::size_t run = j + 1;
        while (run < sorted.size() && sorted[run] == sorted[j]) ++run;
        bag.emplace_back(sorted[j], static_cast<std::uint32_t>(run - j));
        j = run;
      }
    }
  }
}

void DeviceIdentifier::Train(const std::vector<LabelledFingerprint>& examples) {
  obs::StageScope stage(obs::Stage::kBankTrain, handles_.bank_train_ns);
  types_.clear();
  labels_.clear();

  // Flatten each example's F' exactly once. Every per-type classifier sees
  // the same flattening (as a positive for its own type, as a candidate
  // negative for all others), so doing it inside the per-type loop would
  // redo identical work ~(1 + negative_ratio) times per example.
  std::vector<std::vector<double>> rows(examples.size());
  util::ParallelFor(pool_, examples.size(), [&](std::size_t i) {
    rows[i] = examples[i].fixed->ToVector();
  });

  std::map<int, std::vector<std::size_t>> by_label;
  for (std::size_t i = 0; i < examples.size(); ++i)
    by_label[examples[i].label].push_back(i);

  std::vector<int> ordered_labels;
  ordered_labels.reserve(by_label.size());
  for (const auto& group : by_label) ordered_labels.push_back(group.first);

  // One-vs-rest training is a map over independent label entries: each
  // entry derives all its randomness from (seed, label), writes only its
  // own slot, and the slots are laid out in ascending label order up
  // front — so the parallel bank is identical to the sequential one.
  types_.resize(ordered_labels.size());
  const obs::TraceContext trace_parent = obs::CurrentTraceContext();
  util::ParallelFor(pool_, ordered_labels.size(), [&](std::size_t j) {
    obs::ScopedTraceContext trace_carry(trace_parent);
    obs::StageScope type_stage(obs::Stage::kTypeTrain);
    const int label = ordered_labels[j];
    if (type_stage.traced()) type_stage.AddArg("label", std::to_string(label));
    const auto& positive_indices = by_label.at(label);
    std::vector<LabelledFingerprint> positives;
    std::vector<const std::vector<double>*> positive_rows;
    positives.reserve(positive_indices.size());
    positive_rows.reserve(positive_indices.size());
    for (const std::size_t i : positive_indices) {
      positives.push_back(examples[i]);
      positive_rows.push_back(&rows[i]);
    }
    std::vector<const std::vector<double>*> negative_rows;
    negative_rows.reserve(examples.size() - positives.size());
    for (std::size_t i = 0; i < examples.size(); ++i) {
      if (examples[i].label != label) negative_rows.push_back(&rows[i]);
    }
    PerType entry;
    entry.label = label;
    TrainOne(entry, positives, positive_rows, negative_rows,
             static_cast<std::uint64_t>(label) + 1);
    types_[j] = std::move(entry);
  });
  labels_ = std::move(ordered_labels);
  Compile();
  if (handles_.types != nullptr)
    handles_.types->Set(static_cast<double>(types_.size()));
  if (quality_ != nullptr) quality_->BindTypes(labels_);
  SENTINEL_LOG_INFO("identifier", "bank_trained", {"types", types_.size()},
                    {"examples", examples.size()});
}

void DeviceIdentifier::AddType(
    int label, const std::vector<LabelledFingerprint>& examples,
    const std::vector<LabelledFingerprint>& negatives) {
  if (std::find(labels_.begin(), labels_.end(), label) != labels_.end())
    throw std::invalid_argument("AddType: label already trained");
  std::vector<std::vector<double>> positive_storage(examples.size());
  std::vector<std::vector<double>> negative_storage(negatives.size());
  std::vector<const std::vector<double>*> positive_rows(examples.size());
  std::vector<const std::vector<double>*> negative_rows(negatives.size());
  for (std::size_t i = 0; i < examples.size(); ++i) {
    positive_storage[i] = examples[i].fixed->ToVector();
    positive_rows[i] = &positive_storage[i];
  }
  for (std::size_t i = 0; i < negatives.size(); ++i) {
    negative_storage[i] = negatives[i].fixed->ToVector();
    negative_rows[i] = &negative_storage[i];
  }
  PerType entry;
  entry.label = label;
  TrainOne(entry, examples, positive_rows, negative_rows,
           static_cast<std::uint64_t>(label) + 1);
  types_.push_back(std::move(entry));
  labels_.push_back(label);
  Compile();
  if (handles_.types != nullptr)
    handles_.types->Set(static_cast<double>(types_.size()));
  if (quality_ != nullptr) quality_->BindTypes(labels_);
  SENTINEL_LOG_INFO("identifier", "type_added", {"label", label},
                    {"types", types_.size()});
}

std::vector<IdentificationResult> DeviceIdentifier::IdentifyBatch(
    std::span<const FingerprintRef> probes) const {
  std::vector<IdentificationResult> results(probes.size());
  // Probes are independent, so they identify in parallel; chunks of 16
  // amortize dispatch, and smaller batches run on the caller.
  constexpr std::size_t kMinRowsPerTask = 16;
  util::ParallelFor(
      pool_, probes.size(),
      [&](std::size_t r) {
        IdentifyProbe(*probes[r].full, *probes[r].fixed, results[r]);
      },
      kMinRowsPerTask);
  CountVerdicts(results);
  return results;
}

IdentificationResult DeviceIdentifier::Identify(
    const features::Fingerprint& full,
    const features::FixedFingerprint& fixed) const {
  IdentificationResult result;
  IdentifyProbe(full, fixed, result);
  CountVerdicts({&result, 1});
  return result;
}

void DeviceIdentifier::IdentifyProbe(const features::Fingerprint& full,
                                     const features::FixedFingerprint& fixed,
                                     IdentificationResult& result) const {
  // The probe's own clock reads time both stages, so the stage timings it
  // returns and every attached sink share them: two reads per probe, three
  // with a tie-break, whatever is attached.
  const auto scan_start = Clock::now();
  obs::StageScope bank_scan(obs::Stage::kBankScan, handles_.bank_scan_ns,
                            scan_start);
  result.acceptance_threshold = config_.acceptance_threshold;
  // F' is already a contiguous double array — the compiled bank consumes
  // it in place, with no per-probe ToVector() allocation.
  const auto leaders = ScanBank(fixed.values(), result);
  const auto scan_end = Clock::now();
  result.classification_time = scan_end - scan_start;
  if (bank_scan.traced()) {
    bank_scan.AddArg("types", std::to_string(types_.size()));
    bank_scan.AddArg("matches", std::to_string(result.matched_types.size()));
  }
  bank_scan.End(scan_end);

  if (result.matched_types.empty()) {  // unknown device-type
    SENTINEL_LOG_DEBUG("identifier", "identified", {"outcome", "unknown"},
                       {"matches", std::size_t{0}});
  } else {
    obs::StageScope tie_break(obs::Stage::kTieBreak, handles_.tie_break_ns,
                              scan_end);
    const std::size_t pruned_references = Discriminate(full, result);
    const auto tie_break_end = Clock::now();
    result.discrimination_time = tie_break_end - scan_end;
    if (tie_break.traced()) {
      tie_break.AddArg("candidates",
                       std::to_string(result.matched_types.size()));
      tie_break.AddArg("edit_distances",
                       std::to_string(result.edit_distance_count));
      tie_break.AddArg("pruned", std::to_string(pruned_references));
      tie_break.AddArg("best_label", result.type.has_value()
                                         ? std::to_string(*result.type)
                                         : std::string("rejected"));
    }
    tie_break.End(tie_break_end);
  }
  RecordQuality(result, leaders);
}

void DeviceIdentifier::CountVerdicts(
    std::span<const IdentificationResult> results) const {
  if (handles_.identify_total == nullptr) return;
  std::uint64_t accepts = 0;
  std::uint64_t multi = 0;
  std::uint64_t unmatched = 0;
  for (const auto& result : results) {
    accepts += result.matched_types.size();
    if (result.matched_types.size() > 1) ++multi;
    if (result.matched_types.empty()) ++unmatched;
  }
  handles_.identify_total->Increment(results.size());
  handles_.accepts_total->Increment(accepts);
  if (multi > 0) handles_.multi_match_total->Increment(multi);
  if (unmatched > 0) handles_.unknown_total->Increment(unmatched);
}

IdentificationResult DeviceIdentifier::IdentifyReference(
    const features::Fingerprint& full,
    const features::FixedFingerprint& fixed) const {
  IdentificationResult result;
  result.acceptance_threshold = config_.acceptance_threshold;

  // Stage 1: every per-type classifier votes on F'; the raw probabilities
  // are kept as provenance, in bank order.
  const auto row = fixed.ToVector();
  for (const auto& entry : types_) {
    const double probability = entry.classifier.PositiveProba(row);
    result.bank_labels.push_back(entry.label);
    result.bank_probabilities.push_back(probability);
    if (probability >= config_.acceptance_threshold)
      result.matched_types.push_back(entry.label);
  }
  if (result.matched_types.empty()) return result;  // unknown device-type

  // Stage 2: edit-distance discrimination over the candidates. For a
  // single match the paper assigns directly; here the same reference
  // distances are still computed as an open-set check (see
  // rejection_distance), so a fingerprint that one loosely-fitting
  // classifier accepts but that resembles none of that type's actual
  // reference fingerprints is reported as a new device-type. The paper
  // compares against 5 randomly selected reference fingerprints per
  // candidate type; here the selection is seeded from the probe itself, so
  // a given fingerprint is always identified the same way while different
  // probes draw different reference subsets (matching the paper's
  // randomized behaviour in aggregate). The picks and the tie-break coins
  // interleave on that one stream, in candidate order.
  std::uint64_t probe_hash = 0xcbf29ce484222325ull;
  for (const auto& packet : full.packets()) {
    for (const auto value : packet) {
      probe_hash = (probe_hash ^ value) * 0x100000001b3ull;
    }
  }
  ml::SmallRng reference_rng(probe_hash);
  double best_score = std::numeric_limits<double>::infinity();
  int best_label = result.matched_types.front();
  std::size_t best_take = 1;
  for (const int label : result.matched_types) {
    const auto entry_it =
        std::find_if(types_.begin(), types_.end(),
                     [label](const PerType& e) { return e.label == label; });
    const auto& references = entry_it->references;
    const std::size_t take =
        std::min(config_.discrimination_references, references.size());
    // Partial Fisher-Yates over reference indices: `take` distinct picks.
    std::vector<std::size_t> indices(references.size());
    std::iota(indices.begin(), indices.end(), std::size_t{0});
    for (std::size_t i = 0; i < take; ++i) {
      std::uniform_int_distribution<std::size_t> pick(i, indices.size() - 1);
      std::swap(indices[i], indices[pick(reference_rng)]);
    }
    double score = 0.0;
    for (std::size_t i = 0; i < take; ++i) {
      score += features::NormalizedEditDistance(full, references[indices[i]]);
      ++result.edit_distance_count;
    }
    result.dissimilarity_scores.push_back(score);
    // Equal scores are common between types that share hardware/firmware
    // (their fingerprints can be identical); the paper's random reference
    // draw makes such ties land on either type, which the coin flip below
    // reproduces without sacrificing per-probe determinism.
    if (score < best_score) {
      best_score = score;
      best_label = label;
      best_take = std::max<std::size_t>(1, take);
    } else if (score == best_score) {
      ++result.tie_break_count;
      std::uniform_int_distribution<int> coin(0, 1);
      if (coin(reference_rng) == 1) best_label = label;
    }
  }
  // Open-set gate: if even the winner is (on average) nearly maximally
  // distant from its own references, the device is like none of them.
  if (best_score / static_cast<double>(best_take) >
      config_.rejection_distance)
    return result;  // new device-type
  result.type = best_label;
  return result;
}

ml::ForestBank::Leaders DeviceIdentifier::ScanBank(
    std::span<const double> row, IdentificationResult& result) const {
  result.bank_probabilities.resize(types_.size());
  const auto leaders = bank_.PositiveProba(row, result.bank_probabilities);
  result.bank_labels = labels_;
  for (std::size_t k = 0; k < types_.size(); ++k) {
    if (result.bank_probabilities[k] >= config_.acceptance_threshold)
      result.matched_types.push_back(labels_[k]);
  }
  return leaders;
}

std::size_t DeviceIdentifier::Discriminate(const features::Fingerprint& full,
                                           IdentificationResult& result) const {
  thread_local TieBreakScratch scratch;
  std::uint64_t probe_hash = 0xcbf29ce484222325ull;
  for (const auto& packet : full.packets()) {
    for (const auto value : packet) {
      probe_hash = (probe_hash ^ value) * 0x100000001b3ull;
    }
  }
  ml::SmallRng reference_rng(probe_hash);
  // One probe intern against the cross-type table covers every candidate
  // (id equality over the shared table is equivalent to packet equality,
  // so every distance below is unchanged), and one Myers pattern over the
  // probe serves every reference comparison. Both use persistently-zeroed
  // scratch restored before returning.
  tie_break_.table.InternReadOnly(full.packets(), scratch.ed.overflow,
                                  scratch.ed.ids_a);
  const std::span<const std::uint32_t> probe_ids(scratch.ed.ids_a);
  const std::size_t table = tie_break_.table.size();
  // Myers bit-parallel Levenshtein over the probe as pattern: an exact
  // upper bound on each OSA distance (OSA only adds transposition to
  // Levenshtein's operation set), capping the banded program at the true
  // distance's width. Fingerprints are capped well under 64 packets, so
  // the build only declines on adversarial input.
  const bool myers_ok = features::BuildMyersPatternSparse(
      probe_ids, table + scratch.ed.overflow.size(), scratch.ed);
  // Probe id histogram for the bag bounds. Overflow ids (absent from
  // every reference) cannot contribute to any bag intersection, so only
  // table ids are counted.
  if (scratch.counts.size() < table) scratch.counts.resize(table, 0);
  for (const std::uint32_t id : probe_ids) {
    if (id < table) ++scratch.counts[id];
  }
  double best_score = std::numeric_limits<double>::infinity();
  int best_label = result.matched_types.front();
  std::size_t best_take = 1;
  std::size_t pruned_references = 0;
  for (const int label : result.matched_types) {
    const std::size_t slot = label_index_.at(label);
    const auto& references = types_[slot].references;
    const std::size_t take =
        std::min(config_.discrimination_references, references.size());
    // The picks consume the RNG exactly as the reference implementation
    // does, pruned or not — the per-probe determinism contract hinges on
    // this stream never diverging.
    auto& indices = scratch.indices;
    indices.resize(references.size());
    std::iota(indices.begin(), indices.end(), std::size_t{0});
    for (std::size_t i = 0; i < take; ++i) {
      std::uniform_int_distribution<std::size_t> pick(i, indices.size() - 1);
      std::swap(indices[i], indices[pick(reference_rng)]);
    }
    const auto& reference_ids = tie_break_.reference_ids[slot];
    // Per-reference bag lower bounds (every alignment keeps at most
    // |multiset intersection| elements; each unkept element of the
    // longer side costs at least one operation) and whole-candidate
    // pre-prune: the normalized bounds summed with the exact division
    // and left-to-right addition order of the score accumulation below
    // (both monotone under rounding) certify a lower bound on the
    // candidate's final score. Strictly above best means no win and no
    // tie — the candidate is eliminated without running a single DP,
    // with the RNG picks already consumed and no coin owed.
    auto& bag_lb = scratch.bag_lb;
    bag_lb.assign(take, 0);
    double bound_sum = 0.0;
    for (std::size_t i = 0; i < take; ++i) {
      std::size_t overlap = 0;
      for (const auto& [id, count] :
           tie_break_.reference_bags[slot][indices[i]]) {
        overlap += std::min<std::size_t>(count, scratch.counts[id]);
      }
      const std::size_t longest =
          std::max(probe_ids.size(), reference_ids[indices[i]].size());
      bag_lb[i] = longest - overlap;
      if (longest > 0) {
        bound_sum += static_cast<double>(bag_lb[i]) /
                     static_cast<double>(longest);
      }
    }
    if (bound_sum > best_score) {
      pruned_references += take;
      // Bound-grade provenance: the certified lower bound the
      // candidate was eliminated at, like the pruned path below.
      result.dissimilarity_scores.push_back(bound_sum);
      continue;
    }
    // References accumulate sequentially so each one sees the candidate's
    // running score: a reference whose certified distance lower bound
    // already pushes the candidate strictly above the best score ends the
    // candidate (it can neither win nor tie). Non-pruned distances are
    // bit-identical to NormalizedEditDistance and summed in the same
    // order, so a candidate that completes has exactly the reference
    // implementation's score — ties (and their coin flips) are preserved,
    // and the eventual winner is never pruned (pruning certifies a score
    // above the then-current best, which only ever decreases).
    double score = 0.0;
    bool pruned = false;
    for (std::size_t i = 0; i < take; ++i) {
      const std::span<const std::uint32_t> reference_span(
          reference_ids[indices[i]]);
      const std::size_t upper =
          myers_ok ? features::MyersDistance(probe_ids.size(), reference_span,
                                             scratch.ed)
                   : std::numeric_limits<std::size_t>::max();
      const auto outcome = features::PrunedNormalizedEditDistance(
          probe_ids, reference_span, bag_lb[i], upper, score, best_score,
          scratch.ed);
      score += outcome.value;
      if (outcome.pruned) {
        pruned = true;
        pruned_references += take - i;
        break;
      }
      ++result.edit_distance_count;
    }
    // For pruned candidates this records the certified lower bound the
    // candidate was eliminated at, not the exact score.
    result.dissimilarity_scores.push_back(score);
    if (pruned) continue;
    if (score < best_score) {
      best_score = score;
      best_label = label;
      best_take = std::max<std::size_t>(1, take);
    } else if (score == best_score) {
      ++result.tie_break_count;
      if (handles_.tiebreak_total != nullptr)
        handles_.tiebreak_total->Increment();
      std::uniform_int_distribution<int> coin(0, 1);
      if (coin(reference_rng) == 1) best_label = label;
    }
  }
  // Restore the all-zero invariants for the next probe on this scratch.
  for (const std::uint32_t id : probe_ids) {
    if (id < table) scratch.counts[id] = 0;
  }
  if (myers_ok) features::ClearMyersPattern(probe_ids, scratch.ed);
  if (handles_.edit_distance_total != nullptr) {
    handles_.edit_distance_total->Increment(result.edit_distance_count);
    if (pruned_references > 0)
      handles_.editdist_pruned->Increment(pruned_references);
  }
  // Open-set gate (see IdentifyReference).
  if (best_score / static_cast<double>(best_take) >
      config_.rejection_distance) {
    if (handles_.unknown_total != nullptr) handles_.unknown_total->Increment();
    SENTINEL_LOG_DEBUG("identifier", "identified", {"outcome", "rejected"},
                       {"matches", result.matched_types.size()},
                       {"best_score", best_score});
    return pruned_references;  // new device-type
  }
  result.type = best_label;
  SENTINEL_LOG_DEBUG("identifier", "identified", {"outcome", "known"},
                     {"label", best_label},
                     {"matches", result.matched_types.size()});
  return pruned_references;
}

// Model bundle format: 'S''I''D' ver(1) | config | u32 type_count |
// per type: i32 label, RandomForest, u32 reference_count, references.
void DeviceIdentifier::Save(net::ByteWriter& w) const {
  w.WriteU8('S');
  w.WriteU8('I');
  w.WriteU8('D');
  w.WriteU8(1);  // version
  w.WriteU32(static_cast<std::uint32_t>(config_.negative_ratio));
  w.WriteU32(static_cast<std::uint32_t>(config_.discrimination_references));
  w.WriteU64(static_cast<std::uint64_t>(config_.acceptance_threshold * 1e9));
  w.WriteU64(static_cast<std::uint64_t>(config_.rejection_distance * 1e9));
  w.WriteU64(config_.seed);
  w.WriteU32(static_cast<std::uint32_t>(types_.size()));
  for (const auto& entry : types_) {
    w.WriteU32(static_cast<std::uint32_t>(entry.label));
    entry.classifier.Save(w);
    w.WriteU32(static_cast<std::uint32_t>(entry.references.size()));
    for (const auto& reference : entry.references)
      features::EncodeFingerprint(w, reference);
  }
}

DeviceIdentifier DeviceIdentifier::Load(net::ByteReader& r) {
  if (r.ReadU8() != 'S' || r.ReadU8() != 'I' || r.ReadU8() != 'D')
    throw net::CodecError("not a serialized device identifier");
  if (r.ReadU8() != 1)
    throw net::CodecError("unsupported device-identifier version");
  IdentifierConfig config;
  config.negative_ratio = r.ReadU32();
  config.discrimination_references = r.ReadU32();
  config.acceptance_threshold = static_cast<double>(r.ReadU64()) / 1e9;
  config.rejection_distance = static_cast<double>(r.ReadU64()) / 1e9;
  config.seed = r.ReadU64();
  DeviceIdentifier identifier(config);
  // Smallest saved type: label, forest framing, one smallest tree and the
  // reference count; smallest fingerprint: magic, version and its count.
  constexpr std::size_t kMinTypeBytes =
      4 + 11 + ml::DecisionTree::kMinSavedBytes + 4;
  constexpr std::size_t kMinFingerprintBytes = 6;
  const std::uint32_t type_count = r.ReadCount(kMinTypeBytes);
  identifier.types_.reserve(type_count);
  for (std::uint32_t t = 0; t < type_count; ++t) {
    PerType entry;
    entry.label = static_cast<int>(r.ReadU32());
    entry.classifier = ml::RandomForest::Load(r, features::kFPrimeDim);
    const std::uint32_t reference_count = r.ReadCount(kMinFingerprintBytes);
    entry.references.reserve(reference_count);
    for (std::uint32_t i = 0; i < reference_count; ++i)
      entry.references.push_back(features::DecodeFingerprint(r));
    identifier.labels_.push_back(entry.label);
    identifier.types_.push_back(std::move(entry));
  }
  identifier.Compile();
  if (identifier.label_index_.size() != identifier.types_.size())
    throw net::CodecError("model bundle repeats a type label");
  return identifier;
}

void DeviceIdentifier::SaveToFile(const std::string& path) const {
  net::ByteWriter w;
  Save(w);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr)
    throw std::runtime_error("cannot open " + path + " for writing");
  const auto bytes = w.bytes();
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (written != bytes.size())
    throw std::runtime_error("short write to " + path);
}

DeviceIdentifier DeviceIdentifier::LoadFromFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr)
    throw std::runtime_error("cannot open " + path + " for reading");
  std::vector<std::uint8_t> data;
  std::uint8_t buf[65536];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
    data.insert(data.end(), buf, buf + n);
  std::fclose(f);
  net::ByteReader r(data);
  return Load(r);
}

double DeviceIdentifier::MeanOobAccuracy() const {
  double sum = 0.0;
  std::size_t counted = 0;
  for (const auto& entry : types_) {
    const double oob = entry.classifier.oob_accuracy();
    if (std::isnan(oob)) continue;
    sum += oob;
    ++counted;
  }
  return counted == 0 ? std::numeric_limits<double>::quiet_NaN()
                      : sum / static_cast<double>(counted);
}

std::size_t DeviceIdentifier::MemoryBytes() const {
  std::size_t total = sizeof(*this) + labels_.capacity() * sizeof(int);
  for (const auto& entry : types_) {
    total += entry.classifier.MemoryBytes();
    for (const auto& reference : entry.references) {
      total += reference.size() * sizeof(features::PacketFeatureVector);
    }
  }
  total += bank_.MemoryBytes();
  total += tie_break_.table.MemoryBytes();
  for (const auto& per_type : tie_break_.reference_ids)
    for (const auto& ids : per_type)
      total += ids.capacity() * sizeof(std::uint32_t);
  for (const auto& per_type : tie_break_.reference_bags)
    for (const auto& bag : per_type)
      total += bag.capacity() * sizeof(std::pair<std::uint32_t, std::uint32_t>);
  return total;
}

}  // namespace sentinel::core
