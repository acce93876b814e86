#include "ml/forest_bank.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <tuple>

#include "util/check.h"

namespace sentinel::ml {

namespace {

constexpr std::uint32_t kWordBits = 64;
constexpr std::uint32_t kUnvisited = std::numeric_limits<std::uint32_t>::max();

/// Bits [lo, hi) of a 64-bit word, 0 <= lo < hi <= 64.
std::uint64_t BitRange(std::uint32_t lo, std::uint32_t hi) {
  const std::uint64_t upto_hi =
      hi == kWordBits ? ~std::uint64_t{0} : (std::uint64_t{1} << hi) - 1;
  return upto_hi & ~((std::uint64_t{1} << lo) - 1);
}

}  // namespace

ForestBank ForestBank::Compile(std::span<const RandomForest* const> forests) {
  ForestBank bank;
  struct Entry {
    std::int32_t feature = 0;
    double threshold = 0.0;
    Clear clear;
  };
  std::vector<Entry> entries;
  std::vector<std::uint32_t> first_leaf;  // per node: leaves left of it
  std::vector<std::int32_t> internal;     // reached internal nodes
  std::vector<std::int32_t> stack;
  for (const RandomForest* forest : forests) {
    SENTINEL_CHECK(forest != nullptr && forest->trained())
        << "Compile on an untrained forest";
    Forest compiled;
    compiled.tree_begin = static_cast<std::uint32_t>(bank.trees_.size());
    compiled.tree_end = compiled.tree_begin;
    if (forest->class_count() < 2) {  // PositiveProba is 0.0 for any row
      bank.forests_.push_back(compiled);
      continue;
    }
    for (const DecisionTree& tree : forest->trees()) {
      const auto nodes = tree.nodes();
      const auto probas = tree.leaf_probas();
      const auto word_base =
          static_cast<std::uint32_t>(bank.initial_masks_.size());
      bank.trees_.push_back(
          {word_base, static_cast<std::uint32_t>(bank.leaf_values_.size())});

      // Number the reachable leaves left to right: a depth-first walk that
      // finishes each left subtree before popping its sibling, recording
      // how many leaves precede every node's subtree.
      first_leaf.assign(nodes.size(), kUnvisited);
      internal.clear();
      stack.assign(1, 0);
      std::uint32_t leaves = 0;
      while (!stack.empty()) {
        const auto n = static_cast<std::size_t>(stack.back());
        stack.pop_back();
        SENTINEL_CHECK(first_leaf[n] == kUnvisited)
            << "tree node " << n
            << " reachable twice (a cycle or a shared child)";
        first_leaf[n] = leaves;
        const DecisionTree::Node& node = nodes[n];
        if (node.left == -1) {
          bank.leaf_values_.push_back(
              probas[static_cast<std::size_t>(node.proba_offset) + 1]);
          ++leaves;
        } else {
          internal.push_back(static_cast<std::int32_t>(n));
          stack.push_back(node.right);
          stack.push_back(node.left);
        }
      }
      for (std::uint32_t w = 0; w * kWordBits < leaves; ++w) {
        bank.initial_masks_.push_back(
            BitRange(0, std::min(kWordBits, leaves - w * kWordBits)));
      }

      // One entry per word the node's left subtree [a, b) touches.
      for (const std::int32_t n : internal) {
        const DecisionTree::Node& node = nodes[static_cast<std::size_t>(n)];
        const std::uint32_t a = first_leaf[static_cast<std::size_t>(node.left)];
        const std::uint32_t b =
            first_leaf[static_cast<std::size_t>(node.right)];
        for (std::uint32_t w = a / kWordBits; w <= (b - 1) / kWordBits; ++w) {
          const std::uint32_t lo = std::max(a, w * kWordBits) - w * kWordBits;
          const std::uint32_t hi =
              std::min(b, (w + 1) * kWordBits) - w * kWordBits;
          const Clear clear{word_base + w, ~BitRange(lo, hi)};
          // A NaN threshold sends every row right, so its leaves are gone
          // before the scan starts; sorting never sees it.
          if (std::isnan(node.threshold)) {
            bank.initial_masks_[clear.word] &= clear.mask;
          } else {
            entries.push_back({node.feature, node.threshold, clear});
          }
        }
      }
    }
    compiled.tree_end = static_cast<std::uint32_t>(bank.trees_.size());
    bank.forests_.push_back(compiled);
  }
  SENTINEL_CHECK(entries.size() < std::numeric_limits<std::uint32_t>::max())
      << "bank too large: " << entries.size() << " entries";

  std::sort(entries.begin(), entries.end(),
            [](const Entry& x, const Entry& y) {
              return std::tie(x.feature, x.threshold, x.clear.word,
                              x.clear.mask) < std::tie(y.feature, y.threshold,
                                                       y.clear.word,
                                                       y.clear.mask);
            });
  bank.thresholds_.reserve(entries.size());
  bank.clears_.reserve(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto feature = static_cast<std::uint32_t>(entries[i].feature);
    if (bank.columns_.empty() || bank.columns_.back().feature != feature) {
      const auto begin = static_cast<std::uint32_t>(i);
      bank.columns_.push_back({feature, begin, begin});
      bank.row_width_ = std::size_t{feature} + 1;
    }
    ++bank.columns_.back().end;
    bank.thresholds_.push_back(entries[i].threshold);
    bank.clears_.push_back(entries[i].clear);
  }
  return bank;
}

ForestBank::Leaders ForestBank::LeadersOf(
    std::span<const double> probabilities) {
  Leaders leaders;
  for (std::size_t k = 0; k < probabilities.size(); ++k) {
    const double p = probabilities[k];
    if (k == 0 || p > leaders.first_probability) {
      leaders.second_probability = leaders.first_probability;
      leaders.first_probability = p;
      leaders.first = k;
    } else if (p > leaders.second_probability) {
      leaders.second_probability = p;
    }
  }
  return leaders;
}

ForestBank::Leaders ForestBank::PositiveProba(std::span<const double> row,
                                              std::span<double> out) const {
  SENTINEL_CHECK(row.size() >= row_width_)
      << "row of " << row.size() << " values, bank splits on column "
      << row_width_ - 1;
  SENTINEL_CHECK(out.size() == forests_.size())
      << "out size " << out.size() << " != forest count " << forests_.size();
  thread_local std::vector<std::uint64_t> scratch;
  scratch.assign(initial_masks_.begin(), initial_masks_.end());
  std::uint64_t* const masks = scratch.data();
  for (const Column& column : columns_) {
    const double x = row[column.feature];
    for (std::uint32_t i = column.begin;
         i < column.end && !(x <= thresholds_[i]); ++i) {
      masks[clears_[i].word] &= clears_[i].mask;
    }
  }
  // LeadersOf(out) without its branches: a select per forest, starting
  // from a first place every probability beats.
  double first = -std::numeric_limits<double>::infinity();
  double second = 0.0;
  std::size_t first_index = 0;
  const auto lead = [&](std::size_t k, double p) {
    const bool above = p > first;
    second = std::max(second, above ? first : p);
    first = above ? p : first;
    first_index = above ? k : first_index;
  };
  for (std::size_t k = 0; k < forests_.size(); ++k) {
    const Forest& forest = forests_[k];
    if (forest.tree_begin == forest.tree_end) {
      out[k] = 0.0;
      lead(k, 0.0);
      continue;
    }
    double sum = 0.0;
    for (std::uint32_t t = forest.tree_begin; t < forest.tree_end; ++t) {
      // The exit leaf is never cleared, so some word of the tree is set.
      std::uint32_t word = trees_[t].word;
      while (masks[word] == 0) ++word;
      SENTINEL_DCHECK_BOUNDS(word, initial_masks_.size());
      const std::uint32_t leaf =
          (word - trees_[t].word) * kWordBits +
          static_cast<std::uint32_t>(std::countr_zero(masks[word]));
      sum += leaf_values_[trees_[t].leaf_base + leaf];
    }
    out[k] = sum / static_cast<double>(forest.tree_end - forest.tree_begin);
    lead(k, out[k]);
  }
  if (forests_.empty()) return {};
  return {first_index, first, second};
}

std::size_t ForestBank::MemoryBytes() const {
  return columns_.capacity() * sizeof(Column) +
         thresholds_.capacity() * sizeof(double) +
         clears_.capacity() * sizeof(Clear) +
         initial_masks_.capacity() * sizeof(std::uint64_t) +
         trees_.capacity() * sizeof(Tree) +
         leaf_values_.capacity() * sizeof(double) +
         forests_.capacity() * sizeof(Forest) + sizeof(*this);
}

}  // namespace sentinel::ml
