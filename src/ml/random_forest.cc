#include "ml/random_forest.h"

#include <algorithm>
#include <stdexcept>

#include "obs/stage.h"
#include "util/check.h"

namespace sentinel::ml {

void RandomForest::Train(const Dataset& data, const RandomForestConfig& config,
                         util::ThreadPool* pool,
                         obs::MetricsRegistry* metrics) {
  if (data.empty())
    throw std::invalid_argument("RandomForest::Train: empty dataset");
  if (config.tree_count == 0)
    throw std::invalid_argument("RandomForest::Train: zero trees");
  obs::Histogram* tree_ns =
      obs::StageHistogram(metrics, obs::Stage::kTreeTrain);
  obs::StageScope forest_stage(
      obs::Stage::kForestTrain,
      obs::StageHistogram(metrics, obs::Stage::kForestTrain));
  if (forest_stage.traced())
    forest_stage.AddArg("trees", std::to_string(config.tree_count));
  trees_.clear();
  trees_.resize(config.tree_count);
  class_count_ = data.class_count();

  const std::size_t sample_size = std::max<std::size_t>(
      1, static_cast<std::size_t>(config.bootstrap_fraction *
                                  static_cast<double>(data.size())));
  // Each tree records its out-of-bag predictions in a private list; the
  // shared votes[i][c] tally is built from those lists in tree order after
  // the (possibly parallel) training loop, keeping the result independent
  // of scheduling.
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> oob_local(
      config.tree_count);

  util::ParallelFor(pool, config.tree_count, [&](std::size_t t) {
    obs::StageScope tree_stage(obs::Stage::kTreeTrain, tree_ns);
    Rng rng(DeriveSeed(config.seed, t));
    std::uniform_int_distribution<std::size_t> pick(0, data.size() - 1);
    std::vector<std::size_t> bootstrap(sample_size);
    std::vector<bool> in_bag(data.size(), false);
    for (auto& i : bootstrap) {
      i = pick(rng);
      in_bag[i] = true;
    }
    trees_[t].Train(data, bootstrap, config.tree, rng);
    for (std::size_t i = 0; i < data.size(); ++i) {
      if (in_bag[i]) continue;
      oob_local[t].emplace_back(
          static_cast<std::uint32_t>(i),
          static_cast<std::uint32_t>(trees_[t].Predict(data.row(i))));
    }
  });

  // Out-of-bag vote tally: votes[i][c] over trees whose bootstrap missed i.
  std::vector<std::vector<std::uint32_t>> oob_votes(
      data.size(),
      std::vector<std::uint32_t>(static_cast<std::size_t>(class_count_), 0));
  for (const auto& local : oob_local)
    for (const auto& [i, c] : local) oob_votes[i][c]++;

  std::size_t scored = 0, correct = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    std::uint32_t best_votes = 0;
    std::size_t best_class = 0;
    std::uint32_t total = 0;
    for (std::size_t c = 0; c < oob_votes[i].size(); ++c) {
      total += oob_votes[i][c];
      if (oob_votes[i][c] > best_votes) {
        best_votes = oob_votes[i][c];
        best_class = c;
      }
    }
    if (total == 0) continue;  // always in-bag
    ++scored;
    if (static_cast<int>(best_class) == data.label(i)) ++correct;
  }
  oob_accuracy_ = scored == 0 ? std::numeric_limits<double>::quiet_NaN()
                              : static_cast<double>(correct) /
                                    static_cast<double>(scored);
  if (metrics != nullptr) {
    metrics
        ->GetCounter("sentinel_ml_trees_trained_total",
                     "decision trees trained across all forests")
        .Increment(config.tree_count);
    if (scored > 0) {
      metrics
          ->GetGauge("sentinel_ml_oob_accuracy",
                     "out-of-bag accuracy of the most recently trained forest")
          .Set(oob_accuracy_);
      metrics
          ->GetCounter("sentinel_ml_oob_scored_total",
                       "training examples with at least one out-of-bag vote")
          .Increment(scored);
    }
  }
}

int RandomForest::Predict(std::span<const double> row) const {
  std::vector<std::size_t> votes(static_cast<std::size_t>(class_count_), 0);
  for (const auto& tree : trees_) {
    const int label = tree.Predict(row);
    SENTINEL_CHECK_BOUNDS(label, votes.size());
    votes[static_cast<std::size_t>(label)]++;
  }
  std::size_t best = 0;
  for (std::size_t c = 1; c < votes.size(); ++c)
    if (votes[c] > votes[best]) best = c;
  return static_cast<int>(best);
}

std::vector<double> RandomForest::PredictProba(
    std::span<const double> row) const {
  std::vector<double> proba(static_cast<std::size_t>(class_count_), 0.0);
  for (const auto& tree : trees_) {
    const auto p = tree.PredictProba(row);
    for (std::size_t c = 0; c < proba.size() && c < p.size(); ++c)
      proba[c] += p[c];
  }
  for (auto& v : proba) v /= static_cast<double>(trees_.size());
  return proba;
}

std::vector<std::vector<double>> RandomForest::PredictProba(
    std::span<const std::vector<double>> rows, util::ThreadPool* pool) const {
  std::vector<std::vector<double>> out(rows.size());
  util::ParallelFor(pool, rows.size(),
                    [&](std::size_t i) { out[i] = PredictProba(rows[i]); });
  return out;
}

double RandomForest::PositiveProba(std::span<const double> row) const {
  if (class_count_ < 2) return class_count_ == 1 ? 0.0 : 0.0;
  return PredictProba(row)[1];
}

std::size_t RandomForest::MemoryBytes() const {
  std::size_t total = sizeof(*this);
  for (const auto& tree : trees_) total += tree.MemoryBytes();
  return total;
}

std::vector<double> RandomForest::FeatureImportances() const {
  std::vector<double> out;
  for (const auto& tree : trees_) {
    const auto& imp = tree.feature_importances();
    if (out.empty()) out.assign(imp.size(), 0.0);
    for (std::size_t f = 0; f < imp.size() && f < out.size(); ++f)
      out[f] += imp[f];
  }
  if (!trees_.empty()) {
    for (double& v : out) v /= static_cast<double>(trees_.size());
  }
  return out;
}

void RandomForest::Save(net::ByteWriter& w) const {
  w.WriteU8('R');
  w.WriteU8('F');
  w.WriteU8(1);  // version
  w.WriteU32(static_cast<std::uint32_t>(class_count_));
  w.WriteU32(static_cast<std::uint32_t>(trees_.size()));
  for (const auto& tree : trees_) tree.Save(w);
}

RandomForest RandomForest::Load(net::ByteReader& r,
                                std::size_t feature_count) {
  if (r.ReadU8() != 'R' || r.ReadU8() != 'F')
    throw net::CodecError("not a serialized random forest");
  if (r.ReadU8() != 1)
    throw net::CodecError("unsupported random-forest version");
  RandomForest forest;
  forest.class_count_ = static_cast<int>(r.ReadU32());
  if (forest.class_count_ < 1)
    throw net::CodecError("random forest: invalid class count " +
                          std::to_string(forest.class_count_));
  const std::uint32_t tree_count = r.ReadCount(DecisionTree::kMinSavedBytes);
  if (tree_count == 0) throw net::CodecError("random forest: no trees");
  forest.trees_.reserve(tree_count);
  for (std::uint32_t i = 0; i < tree_count; ++i) {
    DecisionTree tree = DecisionTree::Load(r, feature_count);
    // Per-tree labels index the forest-wide vote tally, so every tree
    // must agree with the forest on the class space.
    if (tree.class_count() != forest.class_count_)
      throw net::CodecError(
          "random forest: tree class count " +
          std::to_string(tree.class_count()) + " != forest class count " +
          std::to_string(forest.class_count_));
    forest.trees_.push_back(std::move(tree));
  }
  return forest;
}

}  // namespace sentinel::ml
