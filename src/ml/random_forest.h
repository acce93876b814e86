// Random Forest classifier (Breiman 2001): bagged CART trees with per-split
// feature subsampling. The paper trains one *binary* forest per device-type
// (Sect. IV-B1); the implementation is general multiclass.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "ml/decision_tree.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace sentinel::ml {

struct RandomForestConfig {
  std::size_t tree_count = 30;
  DecisionTreeConfig tree;
  /// Bootstrap sample size as a fraction of the training set (1.0 = classic
  /// bagging with replacement at full size).
  double bootstrap_fraction = 1.0;
  std::uint64_t seed = 1;
};

class RandomForest {
 public:
  /// Trains `config.tree_count` trees on bootstrap resamples of `data`.
  /// With a non-null `pool` the trees train in parallel; each tree's RNG is
  /// derived from (config.seed, tree index) and out-of-bag votes are
  /// tallied per tree and merged in tree order after the join, so the
  /// trained forest (and its Save() bytes and oob_accuracy()) is
  /// bit-identical to a sequential run. With a non-null `metrics`, training
  /// records per-tree and whole-forest timing histograms plus the OOB
  /// accuracy gauge; timing never feeds back into the model, so the trained
  /// bytes are identical with metrics on or off.
  void Train(const Dataset& data, const RandomForestConfig& config,
             util::ThreadPool* pool = nullptr,
             obs::MetricsRegistry* metrics = nullptr);

  /// Majority-vote class prediction.
  [[nodiscard]] int Predict(std::span<const double> row) const;

  /// Mean of the trees' leaf class-frequency estimates; index = class.
  [[nodiscard]] std::vector<double> PredictProba(
      std::span<const double> row) const;

  /// Batch variant: one probability vector per input row, in input order.
  /// Rows are scored in parallel on `pool` when provided (each row's
  /// result is independent, so the output is identical either way).
  [[nodiscard]] std::vector<std::vector<double>> PredictProba(
      std::span<const std::vector<double>> rows,
      util::ThreadPool* pool = nullptr) const;

  /// Probability of class 1 — convenience for the binary per-device-type
  /// classifiers.
  [[nodiscard]] double PositiveProba(std::span<const double> row) const;

  [[nodiscard]] std::size_t tree_count() const { return trees_.size(); }
  [[nodiscard]] bool trained() const { return !trees_.empty(); }
  /// Read-only tree access for compilation (see ml/forest_bank.h).
  [[nodiscard]] const std::vector<DecisionTree>& trees() const {
    return trees_;
  }
  [[nodiscard]] int class_count() const { return class_count_; }
  [[nodiscard]] std::size_t MemoryBytes() const;

  /// Mean feature importances across the forest's trees (normalized MDI).
  /// Empty before training or after Load() (importances are a training
  /// artefact and are not serialized).
  [[nodiscard]] std::vector<double> FeatureImportances() const;

  /// Out-of-bag accuracy estimated during Train(): each example is scored
  /// by the trees whose bootstrap sample excluded it. Returns NaN when no
  /// example was out of bag (tiny datasets) or the forest was Load()ed.
  [[nodiscard]] double oob_accuracy() const { return oob_accuracy_; }

  /// Serializes the trained forest; Load() restores it for rows of
  /// `feature_count` values (throwing net::CodecError on malformed input,
  /// see DecisionTree::Load, or on a forest without trees). The IoT
  /// Security Service persists its per-type classifier bank this way.
  void Save(net::ByteWriter& w) const;
  static RandomForest Load(net::ByteReader& r, std::size_t feature_count);

 private:
  std::vector<DecisionTree> trees_;
  int class_count_ = 0;
  double oob_accuracy_ = std::numeric_limits<double>::quiet_NaN();
};

}  // namespace sentinel::ml
