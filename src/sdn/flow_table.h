// Sharded priority flow table with an open-addressing match cache.
//
// The paper stores enforcement rules "in a hash table structure to minimize
// the lookup time as the enforcement rule cache grows" (Sect. V). Like the
// Open vSwitch classifier (one hashed lookup per match shape instead of a
// linear scan; Pfaff et al., NSDI 2015), the table hashes the one shape
// every gateway rule shares — a source MAC — and pushes it to fleet scale
// (ROADMAP: 1M+ tracked MACs under churn):
//
//   * Every rule that matches on eth_src lives in its source MAC's shard
//     (top bits of the mixed 48-bit value, util/shard.h). Each shard owns
//     its rules, its FlowMatchCache (flat robin-hood index,
//     flow_match_cache.h) and a shared_mutex, so the per-packet match path
//     takes one reader lock on one shard. Exact rules (eth_src + eth_dst)
//     are keyed by their (src, dst) pair; rules without eth_dst, such as
//     the gateway's WAN-allow rules (eth_src + ip_dst), by (src, any), a
//     reserved key no 48-bit MAC can equal. Shard count 1 reproduces the
//     seed behavior bit-for-bit.
//   * Rules without eth_src (policy-level; the gateway datapath installs
//     none) live in one priority-sorted list behind their own
//     reader/writer lock, skipped, lock and all, while it is empty.
//   * A lookup probes (src, dst), then (src, any) while the shard holds
//     such a rule, then that list. The highest priority wins; on equal
//     priority an exact rule beats every other, and among the others the
//     first installed (lowest id) wins.
//   * An optional bounded-memory tier caps the rules per shard: adds past
//     the cap evict the least-recently-hit cache key, chosen by a
//     deterministic clock-sampled sweep over the cache's contiguous slot
//     array (Redis-style approximate LRU, no hot-path bookkeeping beyond
//     the last-hit stamp the datapath already writes).
//
// Concurrency: Lookup()/Match() take shared locks; Add/Remove*/Expire take
// exclusive locks. Match() copies the winning rule's verdict and actions
// out under the lock and bumps its hit counters atomically, so concurrent
// ingress never holds a rule pointer across a mutation. Lookup() returns a
// raw pointer for single-writer callers (tests, benches); the pointer is
// valid only until the next mutating call.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/metrics.h"
#include "sdn/flow.h"
#include "sdn/flow_match_cache.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace sentinel::sdn {

struct FlowTableOptions {
  /// Number of shards; rounded up to a power of two. 1 (the default)
  /// keeps the seed's single-shard behavior.
  std::size_t shard_count = 1;
  /// Bounded-memory tier: maximum rules held per shard, counting every
  /// rule that matches on eth_src — exact (src, dst) rules and (src, any)
  /// rules such as the gateway's WAN-allow rules alike. Adds beyond the cap
  /// evict the least-recently-hit cache key (all its rules) first.
  /// Eviction is fail-closed: the next frame an evicted rule would have
  /// forwarded misses and goes back to the controller for authorization.
  /// Rules without eth_src are never evicted. 0 (the default) disables
  /// eviction.
  std::size_t max_exact_rules_per_shard = 0;
};

class FlowTable {
 public:
  FlowTable() : FlowTable(FlowTableOptions{}) {}
  explicit FlowTable(FlowTableOptions options);

  /// Installs a rule. Rules with identical match and priority are replaced
  /// (OpenFlow FlowMod semantics). Returns the rule id. `now_ns` stamps
  /// the installation time for timeout handling.
  std::uint64_t Add(FlowRule rule, std::uint64_t now_ns = 0);

  /// Removes every rule whose idle/hard timeout has elapsed as of
  /// `now_ns`; returns the number removed. The gateway runs this as
  /// periodic housekeeping ("removing unused enforcement rules ... from
  /// the cache", paper Sect. V).
  std::size_t ExpireRules(std::uint64_t now_ns);

  /// Removes all rules whose cookie equals `cookie`. Returns removed count.
  std::size_t RemoveByCookie(std::uint64_t cookie);
  /// Removes all rules matching on the given eth_src or eth_dst MAC.
  std::size_t RemoveByMac(const net::MacAddress& mac);
  void Clear();

  /// Winning rule for the packet (see the header comment for the tie
  /// rule), or nullptr. Single-writer API: the returned pointer is valid
  /// only until the next mutating call.
  [[nodiscard]] const FlowRule* Lookup(const net::ParsedPacket& packet,
                                       PortId in_port) const;

  /// Copy-out match result for concurrent ingress: verdict, priority and
  /// the winning rule's actions, captured under the shard's reader lock.
  struct MatchResult {
    bool matched = false;
    bool drop = false;
    std::uint16_t priority = 0;
    std::uint64_t rule_id = 0;
    std::size_t action_count = 0;
    /// First actions inline (rules almost never carry more than two);
    /// overflow spills to `extra_actions`.
    std::array<FlowAction, 4> actions{};
    std::vector<FlowAction> extra_actions;

    [[nodiscard]] const FlowAction& action(std::size_t i) const {
      return i < actions.size() ? actions[i] : extra_actions[i - actions.size()];
    }
  };

  /// Matches `packet` and, on a hit, bumps the winning rule's hit counters
  /// (packet count, bytes, last-hit stamp) before copying its actions out.
  /// Safe to call from many threads concurrently with Add/Expire/Remove.
  MatchResult Match(const net::ParsedPacket& packet, PortId in_port,
                    std::uint64_t now_ns, std::size_t frame_bytes) const;

  [[nodiscard]] std::size_t size() const {
    return rule_count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool empty() const { return size() == 0; }
  /// All rules in installation order (ascending rule id). Single-writer
  /// API: pointers are valid only until the next mutating call.
  [[nodiscard]] std::vector<const FlowRule*> Rules() const;

  /// Real memory footprint of the table and its index — the quantity
  /// Fig. 6c tracks as the rule cache grows.
  [[nodiscard]] std::size_t MemoryBytes() const;

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  /// Rules evicted by the bounded-memory tier so far.
  [[nodiscard]] std::uint64_t evicted_total() const {
    return evicted_.load(std::memory_order_relaxed);
  }

  // Lookup statistics (cache effectiveness, Table IV-adjacent reporting).
  // Each lookup counts once, under the tier that won it: an exact
  // (src, dst) rule (hash_hits), any other rule (linear_hits), or none.
  struct Stats {
    std::uint64_t lookups = 0;
    std::uint64_t hash_hits = 0;
    std::uint64_t linear_hits = 0;
    std::uint64_t misses = 0;
  };
  [[nodiscard]] Stats stats() const;

  /// Mirrors the Stats counters (lookups, hash/linear hits, misses) plus
  /// installed/expired/evicted totals and a table-size gauge into
  /// `registry`. nullptr detaches. Registry counters accumulate across
  /// tables sharing one registry; the local Stats stay per-table.
  void set_metrics(obs::MetricsRegistry* registry);

 private:
  struct TableMetrics {
    obs::Counter* lookups_total = nullptr;
    obs::Counter* hash_hits_total = nullptr;
    obs::Counter* linear_hits_total = nullptr;
    obs::Counter* misses_total = nullptr;
    obs::Counter* installed_total = nullptr;
    obs::Counter* expired_total = nullptr;
    obs::Counter* evicted_total = nullptr;
    obs::Gauge* rules = nullptr;
  };

  /// Lookup counters, one padded block per shard so concurrent ingress
  /// threads never contend on a shared stats cache line.
  struct alignas(64) ShardStats {
    // ordering: relaxed (all four) — per-shard statistics; stats() sums a
    // racy-but-monotonic snapshot, no other memory hangs off them.
    std::atomic<std::uint64_t> lookups{0};
    std::atomic<std::uint64_t> hash_hits{0};
    std::atomic<std::uint64_t> linear_hits{0};
    std::atomic<std::uint64_t> misses{0};
  };

  /// One shard: rule storage slab (stable addresses, O(1) swap-remove via
  /// FlowRule::table_index), the flat probe cache, and the eviction sweep
  /// cursor.
  struct Shard {
    mutable SharedMutex mutex{"flow_table.shard"};
    std::vector<std::unique_ptr<FlowRule>> rules SENTINEL_GUARDED_BY(mutex);
    FlowMatchCache cache SENTINEL_GUARDED_BY(mutex);
    /// Rules keyed (src, any): lookups skip that probe while it is zero,
    /// so shards holding only exact rules pay nothing for it.
    std::size_t any_dst_rules SENTINEL_GUARDED_BY(mutex) = 0;
    std::uint64_t sweep_state SENTINEL_GUARDED_BY(mutex) = 0;
    mutable ShardStats stats;  // lock-free, see ShardStats
  };

  [[nodiscard]] Shard& ShardFor(std::uint64_t src_mac) const;
  /// Removes `rule` from `shard` (cache + slab). Exclusive lock held.
  void Erase(Shard& shard, FlowRule* rule) SENTINEL_REQUIRES(shard.mutex);
  /// Evicts the least-recently-hit sampled cache key. Exclusive lock held.
  /// Returns rules evicted.
  std::size_t EvictOneKey(Shard& shard) SENTINEL_REQUIRES(shard.mutex);
  /// Removes every rule `doomed` selects; returns the number removed.
  template <typename Pred>
  std::size_t RemoveIf(Pred doomed);
  /// The winner search Lookup() and Match() share. Calls
  /// `on_winner(rule or nullptr)` while the locks covering the rule are
  /// still held, and counts the lookup under the tier that won it.
  template <typename OnWinner>
  auto Resolve(const net::ParsedPacket& packet, PortId in_port,
               OnWinner&& on_winner) const;
  void SetRulesGauge() const;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t max_exact_rules_per_shard_ = 0;

  // Rules without eth_src, sorted by descending priority (installation
  // order within a priority).
  mutable SharedMutex wildcard_mutex_{"flow_table.wildcard"};
  std::vector<std::unique_ptr<FlowRule>> wildcard_rules_
      SENTINEL_GUARDED_BY(wildcard_mutex_);

  // ordering: relaxed — a unique-id ticket; ids must be distinct, never
  // ordered against other memory.
  std::atomic<std::uint64_t> next_id_{1};
  // ordering: relaxed — size()/gauge reporting; mutations happen under the
  // shard/wildcard locks, the atomic only serves lock-free readers.
  std::atomic<std::size_t> rule_count_{0};
  // ordering: relaxed — statistics counter (evicted_total()).
  std::atomic<std::uint64_t> evicted_{0};
  /// Count of rules without eth_src, readable without the wildcard lock:
  /// the match path skips that list entirely (lock and all) while it is
  /// empty, which it always is on the gateway datapath.
  // ordering: relaxed — an emptiness hint; a stale non-zero read just
  // takes the lock, a transition to non-zero is published by the
  // wildcard_mutex_ release the writer pairs with.
  std::atomic<std::size_t> wildcard_count_{0};

  TableMetrics handles_;
};

}  // namespace sentinel::sdn
