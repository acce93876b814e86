// CART decision-tree classifier (Gini impurity, axis-aligned splits), the
// base learner of the Random Forest (Breiman 2001) used for per-device-type
// classification.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/dataset.h"
#include "ml/rng.h"
#include "net/byte_io.h"

namespace sentinel::ml {

struct DecisionTreeConfig {
  /// 0 = unlimited depth.
  std::size_t max_depth = 0;
  std::size_t min_samples_split = 2;
  std::size_t min_samples_leaf = 1;
  /// Number of features sampled per split; 0 = floor(sqrt(d)) as is
  /// conventional for classification forests.
  std::size_t max_features = 0;
};

class DecisionTree {
 public:
  struct Node {
    // Internal node: feature/threshold valid, children indices set.
    // Leaf: left == -1; proba_offset points into leaf_probas_.
    std::int32_t left = -1;
    std::int32_t right = -1;
    std::int32_t feature = -1;
    double threshold = 0.0;
    std::int32_t proba_offset = -1;
    std::int32_t majority = 0;
  };

  /// Trains on the examples of `data` selected by `indices` (with
  /// repetitions allowed, as bootstrap sampling produces).
  void Train(const Dataset& data, std::span<const std::size_t> indices,
             const DecisionTreeConfig& config, Rng& rng);

  /// Trains on the entire dataset.
  void Train(const Dataset& data, const DecisionTreeConfig& config, Rng& rng);

  /// Predicted class label for a feature row.
  [[nodiscard]] int Predict(std::span<const double> row) const;

  /// Per-class probability estimate (training-class frequencies at the
  /// reached leaf). Size = class count seen at training time.
  [[nodiscard]] std::span<const double> PredictProba(
      std::span<const double> row) const;

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t depth() const { return depth_; }
  /// Class-space width seen at training (or load) time.
  [[nodiscard]] int class_count() const { return class_count_; }
  [[nodiscard]] bool trained() const { return !nodes_.empty(); }
  /// Approximate heap footprint in bytes (used by memory-accounting
  /// benchmarks).
  [[nodiscard]] std::size_t MemoryBytes() const;

  /// Mean-decrease-in-impurity importance per feature: for every split,
  /// (node samples / total samples) * Gini gain is credited to the split
  /// feature; the vector sums to 1 (all zeros for a stump). Width = the
  /// training dataset's feature count.
  [[nodiscard]] const std::vector<double>& feature_importances() const {
    return importances_;
  }

  /// Serializes the trained tree (versioned binary; see decision_tree.cc).
  void Save(net::ByteWriter& w) const;
  /// Bytes of the smallest tree Save() writes (one leaf, one class), the
  /// bound loaders check untrusted tree counts against.
  static constexpr std::size_t kMinSavedBytes = 55;
  /// Restores a tree saved with Save() for rows of `feature_count` values.
  /// Throws net::CodecError on malformed input: out-of-range indices,
  /// split features or counts, and node graphs that are not trees (a node
  /// reachable twice from the root, through a cycle or a shared child).
  static DecisionTree Load(net::ByteReader& r, std::size_t feature_count);

  /// Read-only structural access for compilation (ForestBank turns the
  /// node table and leaf probabilities into leaf masks and threshold
  /// lists).
  [[nodiscard]] std::span<const Node> nodes() const { return nodes_; }
  [[nodiscard]] std::span<const double> leaf_probas() const {
    return leaf_probas_;
  }

 private:
  /// Per-Train() scratch reused across every Build() recursion: the
  /// (value, label) sort buffer, the split class tallies and the candidate
  /// feature permutation would otherwise be heap-allocated once per node.
  struct BuildScratch {
    std::vector<std::pair<double, int>> values;  // (feature value, label)
    std::vector<std::size_t> left_counts;
    std::vector<std::size_t> total_counts;
    std::vector<std::size_t> features;
    std::vector<std::size_t> leaf_counts;
  };

  std::int32_t Build(const Dataset& data, std::vector<std::size_t>& indices,
                     std::size_t begin, std::size_t end,
                     const DecisionTreeConfig& config, std::size_t depth,
                     Rng& rng, BuildScratch& scratch);
  std::int32_t MakeLeaf(const Dataset& data, std::span<const std::size_t> idx,
                        BuildScratch& scratch);

  std::vector<Node> nodes_;
  std::vector<double> leaf_probas_;
  std::vector<double> importances_;
  std::size_t total_training_samples_ = 0;
  int class_count_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace sentinel::ml
