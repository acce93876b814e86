// One compiled scorer for a whole bank of Random Forests — the
// identification stage-1 kernel. Compile() turns every tree of every
// forest into leaf bitmasks and threshold lists in the style of
// QuickScorer (Lucchese et al., SIGIR 2015):
//
//   - each tree's leaves are numbered left to right, one bit per leaf in
//     the tree's 64-bit mask words (a tree with more than 64 leaves spans
//     consecutive words);
//   - each internal node becomes an entry (threshold, word, AND-mask) whose
//     mask clears the leaves of the node's left subtree, one entry per
//     word the subtree touches;
//   - the entries of the whole bank are sorted into one ascending list per
//     split column.
//
// Scoring a row copies the initial masks (every leaf set), walks each used
// column's list while the row's value goes right (!(x <= t)), ANDing each
// entry's mask into its word, and stops at the first threshold that sends
// the row left. The leaves still set are exactly those no node on the way
// ruled out, so a tree's exit leaf is its lowest set bit. The scan
// mispredicts about once per used column instead of about once per tree.
//
// Determinism contract: each forest's class-1 leaf values are summed in
// tree order and divided by its tree count, the same doubles and the same
// operations as RandomForest::PositiveProba, so every probability is
// bit-identical to the reference (differentially tested in
// tests/ml/test_forest_bank.cc). A NaN feature goes right at every node,
// as the walk's `x <= t ? left : right` sends it; a node with a NaN
// threshold sends every row right, so its mask is folded into the initial
// masks instead of entering a sorted list.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/random_forest.h"

namespace sentinel::ml {

class ForestBank {
 public:
  ForestBank() = default;

  /// Compiles `forests` (each trained) in bank order. The forests are not
  /// retained; recompile after any of them changes.
  static ForestBank Compile(std::span<const RandomForest* const> forests);

  [[nodiscard]] std::size_t forest_count() const { return forests_.size(); }
  /// Mask words one scan fills: one per tree of up to 64 leaves.
  [[nodiscard]] std::size_t word_count() const {
    return initial_masks_.size();
  }
  /// Sorted (threshold, mask) entries across all used columns.
  [[nodiscard]] std::size_t entry_count() const { return thresholds_.size(); }
  /// Columns at least one tree splits on.
  [[nodiscard]] std::size_t used_column_count() const {
    return columns_.size();
  }
  [[nodiscard]] std::size_t MemoryBytes() const;

  /// The highest probability of a bank (the first forest on ties) and the
  /// highest of the others, at least 0.0 — the accept margin a quality
  /// monitor reads. All zero for an empty bank.
  struct Leaders {
    std::size_t first = 0;
    double first_probability = 0.0;
    double second_probability = 0.0;
  };
  /// Leaders of `probabilities`, one branchy pass.
  static Leaders LeadersOf(std::span<const double> probabilities);

  /// out[k] = forests[k].PositiveProba(row), bit for bit, for every forest
  /// of the bank (0.0 for a forest with fewer than two classes). `row` must
  /// cover every split column. Returns LeadersOf(out) (for probabilities
  /// that are not NaN, which only a hand-made model file can produce),
  /// tracked alongside the sums, where its dependency chain hides under
  /// theirs. Uses one
  /// thread-local mask buffer, refilled on every call, so it is safe to
  /// call concurrently and banks of different sizes can share a thread.
  Leaders PositiveProba(std::span<const double> row,
                        std::span<double> out) const;

 private:
  /// One used column: its entries are [begin, end), ascending thresholds.
  struct Column {
    std::uint32_t feature = 0;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };
  /// What an entry does when the row goes right: masks[word] &= mask.
  struct Clear {
    std::uint32_t word = 0;
    std::uint64_t mask = 0;
  };
  /// One compiled tree: its first mask word and its first leaf value.
  struct Tree {
    std::uint32_t word = 0;
    std::uint32_t leaf_base = 0;
  };
  /// One forest's trees, [tree_begin, tree_end) of trees_; empty for a
  /// forest with fewer than two classes (its probability is 0.0).
  struct Forest {
    std::uint32_t tree_begin = 0;
    std::uint32_t tree_end = 0;
  };

  std::vector<Column> columns_;
  std::vector<double> thresholds_;
  std::vector<Clear> clears_;
  std::vector<std::uint64_t> initial_masks_;
  std::vector<Tree> trees_;
  /// Class-1 leaf value per compiled leaf, each tree's leaves left to right.
  std::vector<double> leaf_values_;
  std::vector<Forest> forests_;
  /// One past the highest split column: the shortest row a scan accepts.
  std::size_t row_width_ = 0;
};

}  // namespace sentinel::ml
