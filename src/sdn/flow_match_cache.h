// Open-addressing exact-match index for the flow table.
//
// The paper keeps enforcement rules "in a hash table structure to minimize
// the lookup time as the enforcement rule cache grows" (Sect. V). The seed
// implementation used std::unordered_map<MacPair, std::vector<FlowRule*>>,
// whose per-lookup cost is a bucket-node pointer chase plus a heap-allocated
// vector indirection. At fleet scale (ROADMAP: 1M+ tracked MACs) that walk
// dominates the per-packet budget, so this cache keeps all probe state in
// one flat slot array and a lookup is one robin-hood linear probe sequence
// over contiguous memory.
//
// Slot layout (32 bytes, two per cache line): the MAC-pair key (48-bit MACs
// as u64; FlowTable keys rules without eth_dst under a dst above every MAC),
// the highest-priority rule for the pair (the common case — one
// rule per pair — resolves without any indirection), an overflow bucket
// index for pairs holding >1 rule (priority-sorted, descending; kNone
// otherwise), and the robin-hood probe distance + 1 (0 marks an empty
// slot). Everything a probe step reads sits on one line — with a sparse
// working set over a large table this halves the TLB/cache touches of a
// struct-of-arrays split, and sequential robin-hood steps stay on-line.
//
// Deletion is tombstone-free: backward-shift compaction keeps probe chains
// dense, so long-lived churny tables never degrade the way tombstone
// schemes do. Not thread-safe; the owning FlowTable shard serializes access.
#pragma once

#include <cstdint>
#include <vector>

#include "sdn/flow.h"

namespace sentinel::sdn {

class FlowMatchCache {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  FlowMatchCache() = default;

  /// Number of MAC pairs currently indexed.
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Slot index holding (src, dst), or kNone. The returned index stays
  /// valid until the next Insert/Remove/Clear.
  [[nodiscard]] std::uint32_t Find(std::uint64_t src, std::uint64_t dst) const;

  /// Highest-priority rule stored at `slot`.
  [[nodiscard]] FlowRule* head(std::uint32_t slot) const {
    return slots_[slot].head;
  }
  /// True when the head rule's match is exactly {eth_src, eth_dst} — i.e.
  /// the key equality the probe already established IS the match, so the
  /// caller can skip reading rule->match entirely (the OVS microflow-cache
  /// trick: an exact-cache hit bypasses re-classification). Precomputed on
  /// every head change; the hot path pays zero extra derefs for it.
  [[nodiscard]] bool head_trivial(std::uint32_t slot) const {
    return (slots_[slot].flags & kHeadTrivial) != 0;
  }
  /// Lower-priority rules for the pair at `slot` (descending priority), or
  /// nullptr when the pair holds a single rule.
  [[nodiscard]] const std::vector<FlowRule*>* overflow(
      std::uint32_t slot) const {
    return slots_[slot].more == kNone ? nullptr : &buckets_[slots_[slot].more];
  }
  [[nodiscard]] std::uint64_t slot_src(std::uint32_t slot) const {
    return slots_[slot].src;
  }
  [[nodiscard]] std::uint64_t slot_dst(std::uint32_t slot) const {
    return slots_[slot].dst;
  }

  /// Inserts `rule` for the pair, keeping the pair's rules sorted by
  /// descending priority (stable: equal priorities keep insertion order).
  void Insert(std::uint64_t src, std::uint64_t dst, FlowRule* rule);

  /// Removes `rule` from its pair; erases the slot (backward-shift) when
  /// the pair's last rule goes. Unknown rules are ignored.
  void Remove(std::uint64_t src, std::uint64_t dst, const FlowRule* rule);

  /// Invokes fn(slot) for every occupied slot, in slot order.
  template <typename Fn>
  void ForEachSlot(Fn&& fn) const {
    for (std::uint32_t i = 0; i < slots_.size(); ++i)
      if (slots_[i].dist != 0) fn(i);
  }

  /// Occupied slot at or after `start` (wrapping), or kNone when empty.
  /// The sampling cursor the eviction tier's clock sweep uses.
  [[nodiscard]] std::uint32_t NextOccupied(std::uint32_t start) const;

  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  void Clear();

  [[nodiscard]] std::size_t MemoryBytes() const;

 private:
  /// Slot::flags bit: head's match is exactly {eth_src, eth_dst}.
  static constexpr std::uint16_t kHeadTrivial = 1;

  /// One probe slot; `dist` is probe distance + 1 and 0 means empty.
  struct Slot {
    std::uint64_t src = 0;
    std::uint64_t dst = 0;
    FlowRule* head = nullptr;
    std::uint32_t more = kNone;
    std::uint16_t dist = 0;
    std::uint16_t flags = 0;
  };
  static_assert(sizeof(Slot) == 32);

  void Grow();
  void InsertSlot(Slot entry);

  std::vector<Slot> slots_;
  /// Overflow buckets for multi-rule pairs; freed indices are recycled.
  std::vector<std::vector<FlowRule*>> buckets_;
  std::vector<std::uint32_t> free_buckets_;
  std::size_t size_ = 0;
  std::uint64_t mask_ = 0;  // capacity - 1 (capacity is a power of two)
};

}  // namespace sentinel::sdn
