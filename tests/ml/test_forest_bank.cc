// Differential tests for the bank-wide stage-1 scorer: every probability
// ForestBank returns must be bit-identical to its source forest's
// RandomForest::PositiveProba (the identification fast path's correctness
// rests on this), on edge-case rows and on every tree shape the compile
// handles — single leaves, multi-word trees, shared thresholds and NaN
// thresholds.
#include "ml/forest_bank.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <thread>

#include "ml/dataset.h"
#include "ml/random_forest.h"
#include "net/byte_io.h"

namespace sentinel::ml {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Overlapping two-class blobs: probabilities land strictly between 0 and 1.
Dataset OverlappingBlobs(std::size_t per_class, std::uint64_t seed) {
  Rng rng(seed);
  std::normal_distribution<double> noise(0.0, 1.5);
  Dataset data(2);
  for (std::size_t i = 0; i < per_class; ++i) {
    data.Add({0.0 + noise(rng), 0.0 + noise(rng)}, 0);
    data.Add({2.0 + noise(rng), 2.0 + noise(rng)}, 1);
  }
  return data;
}

Dataset ThreeClassBlobs(std::size_t per_class, std::uint64_t seed) {
  Rng rng(seed);
  std::normal_distribution<double> noise(0.0, 1.2);
  Dataset data(2);
  for (std::size_t i = 0; i < per_class; ++i) {
    data.Add({0.0 + noise(rng), 0.0 + noise(rng)}, 0);
    data.Add({3.0 + noise(rng), 0.0 + noise(rng)}, 1);
    data.Add({0.0 + noise(rng), 3.0 + noise(rng)}, 2);
  }
  return data;
}

std::vector<std::vector<double>> RandomRows(std::size_t count,
                                            std::uint64_t seed) {
  Rng rng(seed);
  std::uniform_real_distribution<double> u(-2.0, 5.0);
  std::vector<std::vector<double>> rows(count);
  for (auto& row : rows) row = {u(rng), u(rng)};
  return rows;
}

RandomForest TrainForest(const Dataset& data, std::uint64_t seed,
                         std::size_t trees = 20,
                         DecisionTreeConfig tree_config = {}) {
  RandomForestConfig config;
  config.tree_count = trees;
  config.tree = tree_config;
  config.seed = seed;
  RandomForest forest;
  forest.Train(data, config);
  return forest;
}

ForestBank CompileBank(const std::vector<const RandomForest*>& forests) {
  return ForestBank::Compile(forests);
}

// The kernel's whole contract: one scan gives every forest's reference
// probability, bit for bit, and the leaders of those probabilities.
void ExpectBankMatches(const std::vector<const RandomForest*>& forests,
                       const ForestBank& bank,
                       const std::vector<std::vector<double>>& rows) {
  ASSERT_EQ(bank.forest_count(), forests.size());
  std::vector<double> out(forests.size(), -1.0);
  for (const auto& row : rows) {
    const auto leaders = bank.PositiveProba(row, out);
    const auto want = ForestBank::LeadersOf(out);
    EXPECT_EQ(leaders.first, want.first);
    EXPECT_EQ(leaders.first_probability, want.first_probability);
    EXPECT_EQ(leaders.second_probability, want.second_probability);
    for (std::size_t k = 0; k < forests.size(); ++k) {
      const double reference = forests[k]->PositiveProba(row);
      EXPECT_EQ(std::memcmp(&out[k], &reference, sizeof(double)), 0)
          << "forest " << k << ": bank " << out[k] << " vs reference "
          << reference << " on row (" << row[0] << ", " << row[1] << ")";
    }
  }
}

TEST(ForestBank, PositiveProbaBitIdenticalToReference) {
  const auto forest = TrainForest(OverlappingBlobs(60, 7), 3);
  const std::vector<const RandomForest*> forests{&forest};
  const auto bank = CompileBank(forests);
  EXPECT_EQ(bank.forest_count(), 1u);
  EXPECT_EQ(bank.word_count(), forest.tree_count());
  EXPECT_GT(bank.entry_count(), 0u);
  EXPECT_LE(bank.used_column_count(), 2u);
  ExpectBankMatches(forests, bank, RandomRows(300, 99));
}

// NaN and infinite features, negatives, and values exactly on a split
// threshold (which go left) or one ulp either side of it.
TEST(ForestBank, EdgeRowsMatchTheWalk) {
  const auto forest = TrainForest(OverlappingBlobs(60, 17), 21);
  const std::vector<const RandomForest*> forests{&forest};
  const auto bank = CompileBank(forests);
  std::vector<std::vector<double>> rows;
  for (const double a : {kNaN, kInf, -kInf, -1e300, -3.5, 0.0, -0.0, 1.0}) {
    for (const double b : {kNaN, kInf, -kInf, -0.25, 2.0}) {
      rows.push_back({a, b});
      rows.push_back({b, a});
    }
  }
  std::size_t on_threshold = 0;
  for (const auto& tree : forest.trees()) {
    for (const auto& node : tree.nodes()) {
      if (node.left == -1) continue;
      const double t = node.threshold;
      for (const double x : {t, std::nextafter(t, -kInf),
                             std::nextafter(t, kInf)}) {
        std::vector<double> row{1.0, 1.0};
        row[static_cast<std::size_t>(node.feature)] = x;
        rows.push_back(row);
        row[1 - static_cast<std::size_t>(node.feature)] = kNaN;
        rows.push_back(row);
      }
      ++on_threshold;
    }
  }
  EXPECT_GT(on_threshold, 0u);
  ExpectBankMatches(forests, bank, rows);
}

// Binary, 3-class and 1-class forests side by side, with different tree
// counts: each keeps its own class-1 column and its own divisor.
TEST(ForestBank, MixedForestsMatchReference) {
  const auto binary = TrainForest(OverlappingBlobs(50, 13), 9, 7);
  const auto three_class = TrainForest(ThreeClassBlobs(40, 11), 5, 20);
  Dataset one_class_data(2);
  for (const auto& row : RandomRows(30, 5)) one_class_data.Add(row, 0);
  const auto one_class = TrainForest(one_class_data, 2, 4);
  ASSERT_EQ(one_class.class_count(), 1);
  const auto single_tree = TrainForest(OverlappingBlobs(30, 19), 23, 1);
  const std::vector<const RandomForest*> forests{
      &binary, &three_class, &one_class, &single_tree, &binary};
  const auto bank = CompileBank(forests);
  std::vector<double> out(forests.size());
  bank.PositiveProba(std::vector<double>{1.0, 1.0}, out);
  EXPECT_EQ(out[2], 0.0);
  ExpectBankMatches(forests, bank, RandomRows(300, 123));
}

// Trees whose root is a leaf have no entries: the initial mask alone
// names the exit leaf.
TEST(ForestBank, SingleLeafTreesMatchReference) {
  DecisionTreeConfig stumps;
  stumps.min_samples_split = 1'000'000;
  const auto leaves_only = TrainForest(OverlappingBlobs(40, 29), 31, 6, stumps);
  for (const auto& tree : leaves_only.trees()) ASSERT_EQ(tree.node_count(), 1u);
  const auto split = TrainForest(OverlappingBlobs(40, 37), 41, 5);
  const std::vector<const RandomForest*> forests{&leaves_only, &split};
  const auto bank = CompileBank(forests);
  ExpectBankMatches(forests, bank, RandomRows(100, 555));
}

// Fully grown trees on noisy labels have far more than 64 leaves, so
// their masks span several words and left subtrees cross word
// boundaries.
TEST(ForestBank, TreesWiderThanOneWordMatchReference) {
  Rng rng(43);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::bernoulli_distribution coin(0.5);
  Dataset noisy(2);
  for (std::size_t i = 0; i < 400; ++i)
    noisy.Add({u(rng), u(rng)}, coin(rng) ? 1 : 0);
  DecisionTreeConfig grown;
  grown.min_samples_leaf = 1;
  const auto wide = TrainForest(noisy, 47, 4, grown);
  std::size_t max_leaves = 0;
  for (const auto& tree : wide.trees())
    max_leaves = std::max(max_leaves, (tree.node_count() + 1) / 2);
  ASSERT_GT(max_leaves, 64u);
  const auto narrow = TrainForest(OverlappingBlobs(30, 53), 59, 3);
  const std::vector<const RandomForest*> forests{&narrow, &wide, &narrow};
  const auto bank = CompileBank(forests);
  EXPECT_GT(bank.word_count(), wide.tree_count() + 2 * narrow.tree_count());
  std::vector<std::vector<double>> rows;
  for (std::size_t i = 0; i < 600; ++i) rows.push_back({u(rng), u(rng)});
  for (std::size_t i = 0; i < noisy.size(); ++i)
    rows.emplace_back(noisy.row(i).begin(), noisy.row(i).end());
  ExpectBankMatches(forests, bank, rows);
}

// Integer-valued features make every forest split at the same few
// half-integers, so equal thresholds from many trees share one list.
TEST(ForestBank, SharedThresholdsMatchReference) {
  Rng rng(61);
  std::uniform_int_distribution<int> cell(0, 4);
  Dataset grid(2);
  for (std::size_t i = 0; i < 200; ++i) {
    const double a = cell(rng);
    const double b = cell(rng);
    grid.Add({a, b}, a + b >= 4.0 ? 1 : 0);
  }
  const auto first = TrainForest(grid, 67, 15);
  const auto second = TrainForest(grid, 71, 9);
  const std::vector<const RandomForest*> forests{&first, &second};
  const auto bank = CompileBank(forests);
  // At most 4 distinct thresholds per column, many entries each.
  EXPECT_GT(bank.entry_count(), 2u * 4u);
  std::vector<std::vector<double>> rows;
  for (double a = -1.0; a <= 5.0; a += 0.5)
    for (double b = -1.0; b <= 5.0; b += 0.5) rows.push_back({a, b});
  ExpectBankMatches(forests, bank, rows);
}

// A saved forest whose root threshold is NaN (no trainer emits one, but a
// model file can): the walk sends every row right there, and so must the
// scan.
TEST(ForestBank, NanThresholdSendsEveryRowRight) {
  const auto forest = TrainForest(OverlappingBlobs(40, 73), 79, 3);
  ASSERT_NE(forest.trees()[0].nodes()[0].left, -1);
  net::ByteWriter w;
  forest.Save(w);
  auto bytes = std::move(w).Take();
  // Forest framing (11 bytes) + tree framing (15) + the root's left,
  // right and feature (12) lead to its threshold.
  const std::uint64_t nan_bits = 0x7ff8000000000000ull;
  for (std::size_t i = 0; i < 8; ++i)
    bytes[38 + i] = static_cast<std::uint8_t>(nan_bits >> (56 - 8 * i));
  net::ByteReader r(bytes);
  const auto loaded = RandomForest::Load(r, 2);
  ASSERT_TRUE(std::isnan(loaded.trees()[0].nodes()[0].threshold));
  const std::vector<const RandomForest*> forests{&loaded, &forest};
  const auto bank = CompileBank(forests);
  auto rows = RandomRows(200, 83);
  rows.push_back({kNaN, kNaN});
  ExpectBankMatches(forests, bank, rows);
}

// Banks with different word counts alternate on one thread's scratch
// buffer and each answers as it does alone.
TEST(ForestBank, BanksOfDifferentSizesShareAThread) {
  const auto small_forest = TrainForest(OverlappingBlobs(30, 89), 97, 3);
  const auto large_forest = TrainForest(OverlappingBlobs(60, 101), 103, 25);
  const std::vector<const RandomForest*> small{&small_forest};
  const std::vector<const RandomForest*> large{&large_forest, &small_forest};
  const auto small_bank = CompileBank(small);
  const auto large_bank = CompileBank(large);
  ASSERT_LT(small_bank.word_count(), large_bank.word_count());
  std::thread([&] {
    for (const auto& row : RandomRows(100, 107)) {
      ExpectBankMatches(large, large_bank, {row});
      ExpectBankMatches(small, small_bank, {row});
    }
  }).join();
}

// The quality monitor's margin inputs: the first maximum wins ties, the
// runner-up counts a tied maximum again, and both are at least 0.0.
TEST(ForestBank, LeadersOfPicksFirstMaximumAndRunnerUp) {
  using Leaders = ForestBank::Leaders;
  const auto expect = [](std::vector<double> p, Leaders want) {
    const Leaders got = ForestBank::LeadersOf(p);
    EXPECT_EQ(got.first, want.first);
    EXPECT_EQ(got.first_probability, want.first_probability);
    EXPECT_EQ(got.second_probability, want.second_probability);
  };
  expect({}, {0, 0.0, 0.0});
  expect({0.4}, {0, 0.4, 0.0});
  expect({0.1, 0.7, 0.3, 0.7}, {1, 0.7, 0.7});
  expect({0.2, 0.0, 0.5, 0.45}, {2, 0.5, 0.45});
  expect({0.0, 0.0, 0.0}, {0, 0.0, 0.0});
}

TEST(ForestBank, CompileDoesNotChangeSavedBytes) {
  const auto forest = TrainForest(OverlappingBlobs(40, 23), 31);
  net::ByteWriter before;
  forest.Save(before);
  const auto bank = CompileBank({&forest});
  (void)bank;
  net::ByteWriter after;
  forest.Save(after);
  ASSERT_EQ(before.bytes().size(), after.bytes().size());
  EXPECT_TRUE(std::equal(before.bytes().begin(), before.bytes().end(),
                         after.bytes().begin()));
}

TEST(ForestBank, LoadedForestCompilesToSameAnswers) {
  const auto forest = TrainForest(OverlappingBlobs(40, 29), 37);
  net::ByteWriter w;
  forest.Save(w);
  net::ByteReader r(w.bytes());
  const auto loaded = RandomForest::Load(r, 2);
  const auto bank = CompileBank({&loaded});
  ExpectBankMatches({&forest}, bank, RandomRows(100, 555));
}

TEST(ForestBank, MemoryBytesCoversArena) {
  const auto forest = TrainForest(OverlappingBlobs(40, 41), 43);
  const auto bank = CompileBank({&forest});
  // At minimum every entry's threshold and mask, and every mask word.
  const std::size_t floor =
      bank.entry_count() * (sizeof(double) + sizeof(std::uint64_t)) +
      bank.word_count() * sizeof(std::uint64_t);
  EXPECT_GT(bank.MemoryBytes(), floor);
}

TEST(ForestBankDeathTest, CompileRejectsUntrainedForest) {
  const RandomForest untrained;
  EXPECT_DEATH((void)CompileBank({&untrained}),
               "Compile on an untrained forest");
}

}  // namespace
}  // namespace sentinel::ml
