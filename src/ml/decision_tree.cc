#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "util/check.h"

namespace sentinel::ml {

namespace {

double GiniFromCounts(std::span<const std::size_t> counts, std::size_t total) {
  if (total == 0) return 0.0;
  double sum_sq = 0.0;
  for (std::size_t c : counts) {
    const double p = static_cast<double>(c) / static_cast<double>(total);
    sum_sq += p * p;
  }
  return 1.0 - sum_sq;
}

}  // namespace

void DecisionTree::Train(const Dataset& data,
                         std::span<const std::size_t> indices,
                         const DecisionTreeConfig& config, Rng& rng) {
  nodes_.clear();
  leaf_probas_.clear();
  depth_ = 0;
  class_count_ = data.class_count();
  if (class_count_ < 1 || indices.empty())
    throw std::invalid_argument("DecisionTree::Train: empty training set");
  importances_.assign(data.feature_count(), 0.0);
  total_training_samples_ = indices.size();
  std::vector<std::size_t> idx(indices.begin(), indices.end());
  BuildScratch scratch;
  scratch.values.reserve(idx.size());
  scratch.left_counts.resize(static_cast<std::size_t>(class_count_));
  scratch.total_counts.resize(static_cast<std::size_t>(class_count_));
  scratch.leaf_counts.resize(static_cast<std::size_t>(class_count_));
  scratch.features.resize(data.feature_count());
  Build(data, idx, 0, idx.size(), config, 0, rng, scratch);
  double sum = 0.0;
  for (const double v : importances_) sum += v;
  if (sum > 0.0) {
    for (double& v : importances_) v /= sum;
  }
}

void DecisionTree::Train(const Dataset& data, const DecisionTreeConfig& config,
                         Rng& rng) {
  std::vector<std::size_t> idx(data.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  Train(data, idx, config, rng);
}

std::int32_t DecisionTree::MakeLeaf(const Dataset& data,
                                    std::span<const std::size_t> idx,
                                    BuildScratch& scratch) {
  Node leaf;
  leaf.proba_offset = static_cast<std::int32_t>(leaf_probas_.size());
  auto& counts = scratch.leaf_counts;
  std::fill(counts.begin(), counts.end(), std::size_t{0});
  for (std::size_t i : idx) counts[static_cast<std::size_t>(data.label(i))]++;
  std::size_t best = 0;
  for (std::size_t c = 0; c < counts.size(); ++c) {
    leaf_probas_.push_back(static_cast<double>(counts[c]) /
                           static_cast<double>(idx.size()));
    if (counts[c] > counts[best]) best = c;
  }
  leaf.majority = static_cast<std::int32_t>(best);
  nodes_.push_back(leaf);
  return static_cast<std::int32_t>(nodes_.size() - 1);
}

std::int32_t DecisionTree::Build(const Dataset& data,
                                 std::vector<std::size_t>& indices,
                                 std::size_t begin, std::size_t end,
                                 const DecisionTreeConfig& config,
                                 std::size_t depth, Rng& rng,
                                 BuildScratch& scratch) {
  depth_ = std::max(depth_, depth);
  const std::size_t n = end - begin;
  auto idx = std::span<const std::size_t>(indices).subspan(begin, n);

  // Stopping conditions: purity, depth, sample minimums.
  bool pure = true;
  for (std::size_t i = 1; i < n; ++i) {
    if (data.label(idx[i]) != data.label(idx[0])) {
      pure = false;
      break;
    }
  }
  if (pure || n < config.min_samples_split ||
      (config.max_depth != 0 && depth >= config.max_depth)) {
    return MakeLeaf(data, idx, scratch);
  }

  const std::size_t d = data.feature_count();
  std::size_t mtry = config.max_features;
  if (mtry == 0)
    mtry = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::sqrt(static_cast<double>(d))));
  mtry = std::min(mtry, d);

  // Sample mtry distinct candidate features (partial Fisher-Yates).
  auto& features = scratch.features;
  std::iota(features.begin(), features.end(), std::size_t{0});
  for (std::size_t i = 0; i < mtry; ++i) {
    std::uniform_int_distribution<std::size_t> pick(i, d - 1);
    std::swap(features[i], features[pick(rng)]);
  }

  struct BestSplit {
    double gain = -1.0;
    std::size_t feature = 0;
    double threshold = 0.0;
  } best;

  const std::size_t k = static_cast<std::size_t>(class_count_);
  auto& total_counts = scratch.total_counts;
  std::fill(total_counts.begin(), total_counts.end(), std::size_t{0});
  for (std::size_t i : idx) total_counts[static_cast<std::size_t>(data.label(i))]++;
  const double parent_gini = GiniFromCounts(total_counts, n);

  auto& values = scratch.values;  // (feature value, label)
  values.resize(n);
  auto& left_counts = scratch.left_counts;

  for (std::size_t fi = 0; fi < mtry; ++fi) {
    const std::size_t f = features[fi];
    for (std::size_t i = 0; i < n; ++i)
      values[i] = {data.row(idx[i])[f], data.label(idx[i])};
    std::sort(values.begin(), values.end());
    if (values.front().first == values.back().first) continue;  // constant

    std::fill(left_counts.begin(), left_counts.end(), std::size_t{0});
    std::size_t n_left = 0;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      left_counts[static_cast<std::size_t>(values[i].second)]++;
      ++n_left;
      if (values[i].first == values[i + 1].first) continue;
      if (n_left < config.min_samples_leaf ||
          n - n_left < config.min_samples_leaf)
        continue;
      // Gini of the right side from totals minus left.
      double right_sum_sq = 0.0, left_sum_sq = 0.0;
      const std::size_t n_right = n - n_left;
      for (std::size_t c = 0; c < k; ++c) {
        const double pl =
            static_cast<double>(left_counts[c]) / static_cast<double>(n_left);
        const double pr =
            static_cast<double>(total_counts[c] - left_counts[c]) /
            static_cast<double>(n_right);
        left_sum_sq += pl * pl;
        right_sum_sq += pr * pr;
      }
      const double gini_left = 1.0 - left_sum_sq;
      const double gini_right = 1.0 - right_sum_sq;
      const double weighted =
          (static_cast<double>(n_left) * gini_left +
           static_cast<double>(n_right) * gini_right) /
          static_cast<double>(n);
      const double gain = parent_gini - weighted;
      if (gain > best.gain) {
        best.gain = gain;
        best.feature = f;
        best.threshold = (values[i].first + values[i + 1].first) / 2.0;
      }
    }
  }

  // Accept zero-gain splits (gain == 0 with a valid threshold): XOR-like
  // interactions yield no first-split gain yet become separable deeper
  // down. Nodes whose candidate features are all constant never reach
  // here (best.gain stays -1), so recursion always shrinks the node.
  if (best.gain < 0.0) return MakeLeaf(data, idx, scratch);

  // Partition indices in place around the chosen split.
  auto mid_it = std::partition(
      indices.begin() + static_cast<std::ptrdiff_t>(begin),
      indices.begin() + static_cast<std::ptrdiff_t>(end),
      [&](std::size_t i) { return data.row(i)[best.feature] <= best.threshold; });
  const std::size_t mid =
      static_cast<std::size_t>(mid_it - indices.begin());
  if (mid == begin || mid == end) return MakeLeaf(data, idx, scratch);

  // Mean-decrease-in-impurity credit for the chosen split.
  importances_[best.feature] +=
      best.gain * static_cast<double>(n) /
      static_cast<double>(total_training_samples_);

  const std::int32_t node_id = static_cast<std::int32_t>(nodes_.size());
  nodes_.emplace_back();
  nodes_[static_cast<std::size_t>(node_id)].feature =
      static_cast<std::int32_t>(best.feature);
  nodes_[static_cast<std::size_t>(node_id)].threshold = best.threshold;
  const std::int32_t left =
      Build(data, indices, begin, mid, config, depth + 1, rng, scratch);
  const std::int32_t right =
      Build(data, indices, mid, end, config, depth + 1, rng, scratch);
  nodes_[static_cast<std::size_t>(node_id)].left = left;
  nodes_[static_cast<std::size_t>(node_id)].right = right;
  return node_id;
}

int DecisionTree::Predict(std::span<const double> row) const {
  SENTINEL_CHECK(!nodes_.empty()) << "Predict on an untrained tree";
  std::size_t node = 0;
  while (nodes_[node].left != -1) {
    SENTINEL_DCHECK_BOUNDS(nodes_[node].feature, row.size());
    node = row[static_cast<std::size_t>(nodes_[node].feature)] <=
                   nodes_[node].threshold
               ? static_cast<std::size_t>(nodes_[node].left)
               : static_cast<std::size_t>(nodes_[node].right);
    SENTINEL_DCHECK_BOUNDS(node, nodes_.size());
  }
  return nodes_[node].majority;
}

std::span<const double> DecisionTree::PredictProba(
    std::span<const double> row) const {
  SENTINEL_CHECK(!nodes_.empty()) << "PredictProba on an untrained tree";
  std::size_t node = 0;
  while (nodes_[node].left != -1) {
    SENTINEL_DCHECK_BOUNDS(nodes_[node].feature, row.size());
    node = row[static_cast<std::size_t>(nodes_[node].feature)] <=
                   nodes_[node].threshold
               ? static_cast<std::size_t>(nodes_[node].left)
               : static_cast<std::size_t>(nodes_[node].right);
    SENTINEL_DCHECK_BOUNDS(node, nodes_.size());
  }
  // The leaf's probability block must lie inside leaf_probas_ (Load()
  // re-validates this for deserialized trees; Build() guarantees it for
  // freshly trained ones).
  SENTINEL_CHECK(nodes_[node].proba_offset >= 0 &&
                 static_cast<std::size_t>(nodes_[node].proba_offset) +
                         static_cast<std::size_t>(class_count_) <=
                     leaf_probas_.size())
      << "leaf probability block [" << nodes_[node].proba_offset << ", +"
      << class_count_ << ") outside " << leaf_probas_.size() << " entries";
  return std::span<const double>(leaf_probas_)
      .subspan(static_cast<std::size_t>(nodes_[node].proba_offset),
               static_cast<std::size_t>(class_count_));
}

std::size_t DecisionTree::MemoryBytes() const {
  return nodes_.capacity() * sizeof(Node) +
         leaf_probas_.capacity() * sizeof(double) +
         importances_.capacity() * sizeof(double) + sizeof(*this);
}

// Serialization format (big-endian):
//   'D''T' ver(1) | i32 class_count | u32 depth | u32 node_count |
//   nodes: i32 left, i32 right, i32 feature, f64 threshold,
//          i32 proba_offset, i32 majority |
//   u32 proba_count | proba_count x f64
namespace {
constexpr std::uint8_t kTreeVersion = 1;

void WriteDouble(net::ByteWriter& w, double value) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  w.WriteU64(bits);
}

double ReadDouble(net::ByteReader& r) {
  const std::uint64_t bits = r.ReadU64();
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}
}  // namespace

void DecisionTree::Save(net::ByteWriter& w) const {
  w.WriteU8('D');
  w.WriteU8('T');
  w.WriteU8(kTreeVersion);
  w.WriteU32(static_cast<std::uint32_t>(class_count_));
  w.WriteU32(static_cast<std::uint32_t>(depth_));
  w.WriteU32(static_cast<std::uint32_t>(nodes_.size()));
  for (const Node& node : nodes_) {
    w.WriteU32(static_cast<std::uint32_t>(node.left));
    w.WriteU32(static_cast<std::uint32_t>(node.right));
    w.WriteU32(static_cast<std::uint32_t>(node.feature));
    WriteDouble(w, node.threshold);
    w.WriteU32(static_cast<std::uint32_t>(node.proba_offset));
    w.WriteU32(static_cast<std::uint32_t>(node.majority));
  }
  w.WriteU32(static_cast<std::uint32_t>(leaf_probas_.size()));
  for (const double p : leaf_probas_) WriteDouble(w, p);
}

DecisionTree DecisionTree::Load(net::ByteReader& r,
                                std::size_t feature_count) {
  if (r.ReadU8() != 'D' || r.ReadU8() != 'T')
    throw net::CodecError("not a serialized decision tree");
  if (r.ReadU8() != kTreeVersion)
    throw net::CodecError("unsupported decision-tree version");
  DecisionTree tree;
  tree.class_count_ = static_cast<int>(r.ReadU32());
  if (tree.class_count_ < 1)
    throw net::CodecError("decision tree: invalid class count " +
                          std::to_string(tree.class_count_));
  tree.depth_ = r.ReadU32();
  constexpr std::size_t kNodeBytes = 28;
  const std::uint32_t node_count = r.ReadCount(kNodeBytes);
  if (node_count == 0) throw net::CodecError("decision tree: no nodes");
  tree.nodes_.resize(node_count);
  for (Node& node : tree.nodes_) {
    node.left = static_cast<std::int32_t>(r.ReadU32());
    node.right = static_cast<std::int32_t>(r.ReadU32());
    node.feature = static_cast<std::int32_t>(r.ReadU32());
    node.threshold = ReadDouble(r);
    node.proba_offset = static_cast<std::int32_t>(r.ReadU32());
    node.majority = static_cast<std::int32_t>(r.ReadU32());
  }
  const std::uint32_t proba_count = r.ReadCount(sizeof(double));
  tree.leaf_probas_.resize(proba_count);
  for (double& p : tree.leaf_probas_) p = ReadDouble(r);

  // Structural validation: child/probability indices must be in range so
  // a corrupted file cannot cause out-of-bounds traversal.
  for (const Node& node : tree.nodes_) {
    const bool is_leaf = node.left == -1;
    if (is_leaf) {
      if (node.proba_offset < 0 ||
          static_cast<std::size_t>(node.proba_offset) +
                  static_cast<std::size_t>(tree.class_count_) >
              tree.leaf_probas_.size())
        throw net::CodecError("decision tree: leaf probabilities out of range");
      // The majority label feeds vote-tally indexing in RandomForest.
      if (node.majority < 0 || node.majority >= tree.class_count_)
        throw net::CodecError("decision tree: majority label out of range");
    } else {
      if (node.left < 0 || node.right < 0 ||
          static_cast<std::uint32_t>(node.left) >= node_count ||
          static_cast<std::uint32_t>(node.right) >= node_count)
        throw net::CodecError("decision tree: child index out of range");
      // A split feature outside the row would index past it in Predict.
      if (node.feature < 0 ||
          static_cast<std::size_t>(node.feature) >= feature_count)
        throw net::CodecError("decision tree: split feature " +
                              std::to_string(node.feature) +
                              " outside rows of " +
                              std::to_string(feature_count));
    }
  }
  // Every node is reached at most once from the root: a cycle would make
  // traversal loop forever, and a shared child breaks the left-to-right
  // leaf numbering the compiled bank relies on.
  std::vector<bool> reached(node_count, false);
  std::vector<std::int32_t> stack{0};
  reached[0] = true;
  while (!stack.empty()) {
    const Node& node = tree.nodes_[static_cast<std::size_t>(stack.back())];
    stack.pop_back();
    if (node.left == -1) continue;
    for (const std::int32_t child : {node.left, node.right}) {
      if (reached[static_cast<std::size_t>(child)])
        throw net::CodecError("decision tree: node " + std::to_string(child) +
                              " reachable twice");
      reached[static_cast<std::size_t>(child)] = true;
      stack.push_back(child);
    }
  }
  return tree;
}

}  // namespace sentinel::ml
