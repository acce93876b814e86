// One MAC-keyed table for the gateway's per-device state (paper Sect. V
// keeps that state in hash tables "to minimize the lookup time as the
// enforcement rule cache grows"). The controller's learned stations, the
// enforcement-rule cache and the device monitor's sessions each hold one;
// this file alone decides how that state is sharded (util/shard.h, one
// named SharedMutex per shard), ordered by recency and evicted past a
// per-shard cap.
//
// Keys are MacAddress::ToUint64(). std::hash<MacAddress> hashes that same
// value, so a shard iterates in the order a MacAddress-keyed map did, and
// callers that emit results while iterating (DeviceMonitor::FlushIdle)
// stay deterministic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <list>
#include <memory>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/shard.h"
#include "util/thread_annotations.h"

namespace sentinel::util {

template <typename Value>
class MacTable {
 public:
  /// True for an entry the cap should evict ahead of strict LRU order.
  using PreferVictim = bool (*)(const Value&);
  /// How many of the coldest entries eviction scans for a preferred victim
  /// before it falls back to the least-recently-used one.
  static constexpr std::size_t kVictimScanDepth = 8;

  /// `site` names the lock-telemetry site of every shard (a string
  /// literal). `shard_count` is rounded up to a power of two;
  /// `max_per_shard` 0 leaves the table unbounded.
  MacTable(const char* site, std::size_t shard_count,
           std::size_t max_per_shard = 0, PreferVictim prefer_victim = nullptr)
      : max_per_shard_(max_per_shard), prefer_victim_(prefer_victim) {
    const std::size_t count = NormalizeShardCount(shard_count);
    shards_.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
      shards_.push_back(std::make_unique<Shard>(site));
  }

  /// Finds `key`'s entry, or inserts `make()` and evicts past the cap; then
  /// runs `fn(value, inserted)` under the shard's writer lock and marks the
  /// entry most recent. Eviction runs before `fn` and never takes the entry
  /// just inserted. Returns the number of entries evicted.
  template <typename Make, typename Fn>
  std::size_t Upsert(std::uint64_t key, Make&& make, Fn&& fn) {
    Shard& shard = ShardFor(key);
    WriterLock lock(shard.mutex);
    auto it = shard.entries.find(key);
    const bool inserted = it == shard.entries.end();
    std::size_t evicted = 0;
    if (inserted) {
      shard.lru.push_front(key);
      it = shard.entries
               .emplace(std::piecewise_construct, std::forward_as_tuple(key),
                        std::forward_as_tuple(make, shard.lru.begin()))
               .first;
      evicted = EvictOverCap(shard);
    } else {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
    }
    fn(it->second.value, inserted);
    return evicted;
  }

  /// Runs `fn(const Value*)`, nullptr when `key` is absent, under the
  /// shard's reader lock and returns its result. Recency is untouched.
  template <typename Fn>
  auto Read(std::uint64_t key, Fn&& fn) const {
    const Shard& shard = ShardFor(key);
    ReaderLock lock(shard.mutex);
    const auto it = shard.entries.find(key);
    return fn(it == shard.entries.end() ? nullptr : &it->second.value);
  }

  /// Removes `key`'s entry; true if one existed. Not counted as eviction.
  bool Erase(std::uint64_t key) {
    Shard& shard = ShardFor(key);
    WriterLock lock(shard.mutex);
    const auto it = shard.entries.find(key);
    if (it == shard.entries.end()) return false;
    shard.lru.erase(it->second.lru_pos);
    shard.entries.erase(it);
    return true;
  }

  /// Calls `fn(key, value)` for every entry, shard by shard, each under
  /// its shard's writer lock. Recency is untouched.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (const auto& shard : shards_) {
      WriterLock lock(shard->mutex);
      for (auto& [key, entry] : shard->entries) fn(key, entry.value);
    }
  }
  /// Read-only ForEach, under each shard's reader lock.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& shard : shards_) {
      ReaderLock lock(shard->mutex);
      for (const auto& [key, entry] : shard->entries) fn(key, entry.value);
    }
  }

  /// Estimated heap bytes: shards, map buckets, map nodes (key, value,
  /// recency iterator, next pointer) and recency-list nodes. The owner adds
  /// its own sizeof. `value_bytes(value)` sizes one value.
  template <typename ValueBytes>
  [[nodiscard]] std::size_t MemoryBytes(ValueBytes&& value_bytes) const {
    std::size_t total = 0;
    for (const auto& shard : shards_) {
      ReaderLock lock(shard->mutex);
      total += sizeof(Shard) + shard->entries.bucket_count() * sizeof(void*);
      for (const auto& [key, entry] : shard->entries) {
        total += sizeof(key) + value_bytes(entry.value) + 2 * sizeof(void*);
        total += sizeof(key) + 2 * sizeof(void*);
      }
    }
    return total;
  }

  /// Entries held, summed over the shards' reader locks.
  [[nodiscard]] std::size_t size() const {
    std::size_t total = 0;
    for (const auto& shard : shards_) {
      ReaderLock lock(shard->mutex);
      total += shard->entries.size();
    }
    return total;
  }
  /// Entries evicted by the per-shard cap so far.
  [[nodiscard]] std::uint64_t evicted_total() const {
    std::uint64_t total = 0;
    for (const auto& shard : shards_) {
      ReaderLock lock(shard->mutex);
      total += shard->evicted;
    }
    return total;
  }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

 private:
  using LruList = std::list<std::uint64_t>;

  /// One value plus its position in the shard's recency list.
  struct Entry {
    template <typename Make>
    Entry(Make& make, LruList::iterator pos) : value(make()), lru_pos(pos) {}
    Value value;
    LruList::iterator lru_pos;
  };

  struct Shard {
    explicit Shard(const char* site) : mutex(site) {}
    mutable SharedMutex mutex;
    std::unordered_map<std::uint64_t, Entry> entries SENTINEL_GUARDED_BY(mutex);
    /// Recency order, front = most recently upserted.
    LruList lru SENTINEL_GUARDED_BY(mutex);
    std::uint64_t evicted SENTINEL_GUARDED_BY(mutex) = 0;
  };

  [[nodiscard]] Shard& ShardFor(std::uint64_t key) const {
    return *shards_[ShardIndexFor(key, shards_.size())];
  }

  /// Evicts until the shard is back at its cap: each victim is the first
  /// preferred entry among the kVictimScanDepth coldest, else the coldest.
  /// The most recent entry is never scanned.
  std::size_t EvictOverCap(Shard& shard) SENTINEL_REQUIRES(shard.mutex) {
    if (max_per_shard_ == 0) return 0;
    std::size_t evicted = 0;
    while (shard.entries.size() > max_per_shard_) {
      auto victim = std::prev(shard.lru.end());
      if (prefer_victim_ != nullptr) {
        auto it = victim;
        for (std::size_t scanned = 0;
             scanned < kVictimScanDepth && it != shard.lru.begin();
             ++scanned, --it) {
          if (prefer_victim_(shard.entries.find(*it)->second.value)) {
            victim = it;
            break;
          }
        }
      }
      shard.entries.erase(*victim);
      shard.lru.erase(victim);
      ++evicted;
    }
    shard.evicted += evicted;
    return evicted;
  }

  std::size_t max_per_shard_;
  PreferVictim prefer_victim_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace sentinel::util
