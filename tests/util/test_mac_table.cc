// util::MacTable, the one table behind the gateway's MAC-keyed state: the
// per-shard cap arithmetic and eviction count, Erase and ForEach, recency
// (Upsert refreshes it, Read does not) and the preferred-victim scan.
#include "util/mac_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

namespace sentinel::util {
namespace {

using Table = MacTable<int>;

/// Inserts `key` -> `value`, or overwrites the value; returns evictions.
std::size_t Put(Table& table, std::uint64_t key, int value) {
  return table.Upsert(
      key, [value] { return value; },
      [value](int& stored, bool /*inserted*/) { stored = value; });
}

bool Contains(const Table& table, std::uint64_t key) {
  return table.Read(key, [](const int* value) { return value != nullptr; });
}

TEST(MacTable, PerShardCapBoundsEachShard) {
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kCap = 8;
  constexpr std::uint64_t kKeys = 500;
  Table table("test.mac_table", kShards, kCap);
  std::size_t evicted = 0;
  for (std::uint64_t key = 0; key < kKeys; ++key)
    evicted += Put(table, key, static_cast<int>(key));

  // Each shard keeps min(keys routed to it, cap) and evicts the rest.
  std::vector<std::size_t> routed(kShards, 0);
  for (std::uint64_t key = 0; key < kKeys; ++key)
    ++routed[ShardIndexFor(key, kShards)];
  std::size_t expected_size = 0;
  for (const std::size_t n : routed) expected_size += std::min(n, kCap);

  EXPECT_EQ(table.shard_count(), kShards);
  EXPECT_EQ(table.size(), expected_size);
  EXPECT_EQ(table.evicted_total(), kKeys - expected_size);
  EXPECT_EQ(evicted, kKeys - expected_size);
  // The most recent key of every shard survives.
  EXPECT_TRUE(Contains(table, kKeys - 1));
}

TEST(MacTable, ShardCountRoundsUpToPowerOfTwo) {
  EXPECT_EQ(Table("test.mac_table", 0).shard_count(), 1u);
  EXPECT_EQ(Table("test.mac_table", 5).shard_count(), 8u);
}

TEST(MacTable, UncappedTableNeverEvicts) {
  Table table("test.mac_table", 8);
  for (std::uint64_t key = 0; key < 300; ++key)
    EXPECT_EQ(Put(table, key, 1), 0u);
  EXPECT_EQ(table.size(), 300u);
  EXPECT_EQ(table.evicted_total(), 0u);
}

TEST(MacTable, UpsertReportsInsertAndKeepsExistingValue) {
  Table table("test.mac_table", 1);
  std::vector<bool> inserted;
  const auto add_one = [&](std::uint64_t key) {
    table.Upsert(
        key, [] { return 10; },
        [&](int& value, bool is_new) {
          inserted.push_back(is_new);
          ++value;
        });
  };
  add_one(7);
  add_one(7);
  EXPECT_EQ(inserted, (std::vector<bool>{true, false}));
  EXPECT_EQ(table.Read(7, [](const int* value) { return *value; }), 12);
  EXPECT_EQ(table.size(), 1u);
}

TEST(MacTable, UpsertRefreshesRecencyButReadDoesNot) {
  Table table("test.mac_table", 1, /*max_per_shard=*/3);
  Put(table, 1, 1);
  Put(table, 2, 2);
  Put(table, 3, 3);
  // Reading the coldest key leaves it coldest: the next insert evicts it.
  EXPECT_TRUE(Contains(table, 1));
  EXPECT_EQ(Put(table, 4, 4), 1u);
  EXPECT_FALSE(Contains(table, 1));
  // Upserting the coldest key makes it most recent: 3 goes instead.
  Put(table, 2, 20);
  EXPECT_EQ(Put(table, 5, 5), 1u);
  EXPECT_TRUE(Contains(table, 2));
  EXPECT_FALSE(Contains(table, 3));
  EXPECT_EQ(table.Read(2, [](const int* value) { return *value; }), 20);
  EXPECT_EQ(table.evicted_total(), 2u);
}

TEST(MacTable, EraseRemovesWithoutCountingAnEviction) {
  Table table("test.mac_table", 4);
  for (std::uint64_t key = 0; key < 10; ++key) Put(table, key, 1);
  EXPECT_TRUE(table.Erase(3));
  EXPECT_FALSE(table.Erase(3));
  EXPECT_FALSE(table.Erase(99));
  EXPECT_FALSE(Contains(table, 3));
  EXPECT_EQ(table.size(), 9u);
  EXPECT_EQ(table.evicted_total(), 0u);
}

TEST(MacTable, EraseFreesCapSlotAndKeepsRecencyConsistent) {
  Table table("test.mac_table", 1, /*max_per_shard=*/2);
  Put(table, 1, 1);
  Put(table, 2, 2);
  table.Erase(1);
  EXPECT_EQ(Put(table, 3, 3), 0u);  // room again
  EXPECT_EQ(Put(table, 4, 4), 1u);  // evicts 2, the coldest left
  EXPECT_FALSE(Contains(table, 2));
  EXPECT_TRUE(Contains(table, 3));
}

TEST(MacTable, ForEachVisitsEveryEntryOnce) {
  Table table("test.mac_table", 8);
  std::map<std::uint64_t, int> expected;
  for (std::uint64_t key = 0; key < 100; ++key) {
    Put(table, key * 977, static_cast<int>(key));
    expected[key * 977] = static_cast<int>(key);
  }
  table.Erase(977);
  expected.erase(977);

  std::map<std::uint64_t, int> seen;
  const Table& read_only = table;
  read_only.ForEach([&](std::uint64_t key, const int& value) {
    EXPECT_TRUE(seen.emplace(key, value).second) << key;
  });
  EXPECT_EQ(seen, expected);

  // The mutable ForEach edits in place and leaves the entry set alone.
  table.ForEach([](std::uint64_t /*key*/, int& value) { value *= 2; });
  EXPECT_EQ(table.Read(2 * 977, [](const int* value) { return *value; }), 4);
  EXPECT_EQ(table.size(), expected.size());
}

bool IsNegative(const int& value) { return value < 0; }

TEST(MacTable, PreferredVictimAmongColdestGoesFirst) {
  MacTable<int> table("test.mac_table", 1, /*max_per_shard=*/10, IsNegative);
  Put(table, 1, 1);   // coldest, not preferred
  Put(table, 2, -1);  // second coldest, preferred
  for (std::uint64_t key = 10; key < 18; ++key) Put(table, key, 1);
  EXPECT_EQ(Put(table, 100, 1), 1u);
  EXPECT_FALSE(Contains(table, 2));
  EXPECT_TRUE(Contains(table, 1));
}

TEST(MacTable, PreferredVictimBeyondScanDepthIsNotPreferred) {
  static_assert(MacTable<int>::kVictimScanDepth == 8);
  MacTable<int> table("test.mac_table", 1, /*max_per_shard=*/9, IsNegative);
  for (std::uint64_t key = 10; key < 18; ++key) Put(table, key, 1);
  Put(table, 2, -1);  // ninth from the cold end
  EXPECT_EQ(Put(table, 100, 1), 1u);
  EXPECT_FALSE(Contains(table, 10));
  EXPECT_TRUE(Contains(table, 2));
}

TEST(MacTable, PreferredVictimIsNeverTheEntryJustInserted) {
  MacTable<int> table("test.mac_table", 1, /*max_per_shard=*/1, IsNegative);
  Put(table, 1, 1);
  EXPECT_EQ(Put(table, 2, -1), 1u);
  EXPECT_TRUE(Contains(table, 2));
  EXPECT_FALSE(Contains(table, 1));
}

TEST(MacTable, MemoryBytesCountsEntriesAndValues) {
  Table table("test.mac_table", 2);
  const auto value_bytes = [](const int&) { return std::size_t{100}; };
  const std::size_t empty = table.MemoryBytes(value_bytes);
  for (std::uint64_t key = 0; key < 10; ++key) Put(table, key, 1);
  EXPECT_GE(table.MemoryBytes(value_bytes), empty + 10 * 100);
}

}  // namespace
}  // namespace sentinel::util
