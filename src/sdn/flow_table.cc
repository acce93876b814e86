#include "sdn/flow_table.h"

#include <algorithm>

#include "util/mutex.h"

#include "obs/stage.h"
#include "util/check.h"
#include "util/shard.h"

namespace sentinel::sdn {

namespace {

/// Destination half of the cache key of rules without eth_dst: above every
/// 48-bit MAC, so no packet's (src, dst) probe can land on it.
constexpr std::uint64_t kAnyDst = std::uint64_t{1} << 48;

/// Cache key of a rule that matches on eth_src: (src, dst), or
/// (src, kAnyDst) when the rule does not match on eth_dst.
std::pair<std::uint64_t, std::uint64_t> ShardKey(const FlowMatch& match) {
  SENTINEL_CHECK(match.eth_src.has_value())
      << "rule without eth_src keyed into a shard: " << match.ToString();
  return {match.eth_src->ToUint64(),
          match.eth_dst ? match.eth_dst->ToUint64() : kAnyDst};
}

/// Recency of a rule for the approximate-LRU tier: its last hit, falling
/// back to its installation stamp.
std::uint64_t Recency(const FlowRule& rule) {
  return std::max(rule.last_hit_ns.Load(), rule.installed_at_ns);
}

constexpr std::size_t kEvictionSamples = 8;

std::uint64_t Lcg(std::uint64_t x) {
  return x * 6364136223846793005ull + 1442695040888963407ull;
}

bool SameMatchAndPriority(const FlowRule& a, const FlowRule& b) {
  return a.match == b.match && a.priority == b.priority;
}

/// The rule stored under `slot` that `incoming` replaces (same match and
/// priority), or nullptr.
FlowRule* ReplaceTarget(const FlowMatchCache& cache, std::uint32_t slot,
                        const FlowRule& incoming) {
  if (SameMatchAndPriority(*cache.head(slot), incoming))
    return cache.head(slot);
  if (const auto* overflow = cache.overflow(slot)) {
    for (FlowRule* rule : *overflow)
      if (SameMatchAndPriority(*rule, incoming)) return rule;
  }
  return nullptr;
}

/// In-place FlowMod replacement (identical match + priority).
void ReplaceRule(FlowRule& existing, FlowRule&& incoming,
                 std::uint64_t now_ns) {
  existing.actions = std::move(incoming.actions);
  existing.cookie = incoming.cookie;
  existing.idle_timeout_ns = incoming.idle_timeout_ns;
  existing.hard_timeout_ns = incoming.hard_timeout_ns;
  existing.installed_at_ns = now_ns;
}

/// Copy-out half of Match(): bumps the winner's hit counters and fills
/// `result`. The caller still holds the lock covering `best`.
void FillMatchResult(const FlowRule& best, std::uint64_t now_ns,
                     std::size_t frame_bytes, FlowTable::MatchResult& result) {
  best.packet_count.Add(1);
  best.byte_count.Add(frame_bytes);
  best.last_hit_ns.Store(now_ns);
  result.matched = true;
  result.drop = best.IsDrop();
  result.priority = best.priority;
  result.rule_id = best.id;
  result.action_count = best.actions.size();
  const std::size_t inline_count =
      std::min(best.actions.size(), result.actions.size());
  for (std::size_t i = 0; i < inline_count; ++i)
    result.actions[i] = best.actions[i];
  for (std::size_t i = inline_count; i < best.actions.size(); ++i)
    result.extra_actions.push_back(best.actions[i]);
}

/// The winner search's best rule so far.
struct Winner {
  const FlowRule* rule = nullptr;
  bool exact = false;  // won by an exact (src, dst) rule
};

/// Offers `candidate`, one rule of a tier whose rules come in descending
/// priority and installation order. Returns false once the tier's scan can
/// stop: the candidate won, or it cannot outrank the winner and so no later
/// rule of the tier can either.
bool Offer(const FlowRule& candidate, bool exact,
           const net::ParsedPacket& packet, PortId in_port, Winner& winner) {
  // Higher priority wins; on equal priority an exact winner stays, and
  // among non-exact rules the first installed (lowest id) wins.
  if (const FlowRule* best = winner.rule;
      best != nullptr &&
      (candidate.priority < best->priority ||
       (candidate.priority == best->priority &&
        (winner.exact || candidate.id > best->id))))
    return false;
  if (!candidate.match.Matches(packet, in_port)) return true;
  winner = {&candidate, exact};
  return false;
}

/// Offers the rules stored under one cache key; returns the new winner.
Winner OfferSlot(const FlowMatchCache& cache, std::uint32_t slot, bool exact,
                 const net::ParsedPacket& packet, PortId in_port,
                 Winner winner) {
  if (!Offer(*cache.head(slot), exact, packet, in_port, winner)) return winner;
  if (const auto* overflow = cache.overflow(slot)) {
    for (const FlowRule* candidate : *overflow)
      if (!Offer(*candidate, exact, packet, in_port, winner)) break;
  }
  return winner;
}

}  // namespace

FlowTable::FlowTable(FlowTableOptions options)
    : max_exact_rules_per_shard_(options.max_exact_rules_per_shard) {
  const std::size_t shard_count =
      util::NormalizeShardCount(options.shard_count);
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    auto shard = std::make_unique<Shard>();
    // Deterministic per-shard sampling stream for the eviction sweep.
    shard->sweep_state = util::Mix64(0x51f0u ^ i);
    shards_.push_back(std::move(shard));
  }
}

FlowTable::Shard& FlowTable::ShardFor(std::uint64_t src_mac) const {
  return *shards_[util::ShardIndexFor(src_mac, shards_.size())];
}

void FlowTable::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    handles_ = TableMetrics{};
    return;
  }
  handles_.lookups_total = &registry->GetCounter(
      "sentinel_flowtable_lookups_total", "flow-table lookups");
  handles_.hash_hits_total = &registry->GetCounter(
      "sentinel_flowtable_hash_hits_total",
      "lookups won by an exact (src MAC, dst MAC) rule");
  handles_.linear_hits_total = &registry->GetCounter(
      "sentinel_flowtable_linear_hits_total",
      "lookups won by a rule without both MACs (source-MAC keyed or "
      "global)");
  handles_.misses_total = &registry->GetCounter(
      "sentinel_flowtable_misses_total",
      "lookups matching no rule (punted to the controller)");
  handles_.installed_total = &registry->GetCounter(
      "sentinel_flowtable_installed_total",
      "flow rules installed (including FlowMod replacements)");
  handles_.expired_total = &registry->GetCounter(
      "sentinel_flowtable_expired_total",
      "flow rules removed by idle/hard timeout");
  handles_.evicted_total = &registry->GetCounter(
      "sentinel_flowtable_evicted_total",
      "rules evicted by the bounded-memory LRU tier");
  handles_.rules = &registry->GetGauge(
      "sentinel_flowtable_rules", "flow rules currently in the table");
  handles_.rules->Set(static_cast<double>(size()));
}

void FlowTable::SetRulesGauge() const {
  if (handles_.rules != nullptr)
    handles_.rules->Set(static_cast<double>(size()));
}

void FlowTable::Erase(Shard& shard, FlowRule* rule) {
  const auto [src, dst] = ShardKey(rule->match);
  shard.cache.Remove(src, dst, rule);
  if (dst == kAnyDst) --shard.any_dst_rules;
  const std::uint32_t i = rule->table_index;
  const std::uint32_t last =
      static_cast<std::uint32_t>(shard.rules.size() - 1);
  if (i != last) {
    std::swap(shard.rules[i], shard.rules[last]);
    shard.rules[i]->table_index = i;
  }
  shard.rules.pop_back();
  rule_count_.fetch_sub(1, std::memory_order_relaxed);
}

std::size_t FlowTable::EvictOneKey(Shard& shard) {
  if (shard.cache.empty()) return 0;
  std::uint32_t victim = FlowMatchCache::kNone;
  std::uint64_t victim_recency = ~std::uint64_t{0};
  for (std::size_t k = 0; k < kEvictionSamples; ++k) {
    shard.sweep_state = Lcg(shard.sweep_state);
    const std::uint32_t slot = shard.cache.NextOccupied(
        static_cast<std::uint32_t>(shard.sweep_state >> 32));
    if (slot == FlowMatchCache::kNone) break;
    // A key is as recent as its most recently touched rule.
    std::uint64_t recency = Recency(*shard.cache.head(slot));
    if (const auto* overflow = shard.cache.overflow(slot)) {
      for (const FlowRule* rule : *overflow)
        recency = std::max(recency, Recency(*rule));
    }
    if (recency < victim_recency) {
      victim_recency = recency;
      victim = slot;
    }
  }
  if (victim == FlowMatchCache::kNone) return 0;

  std::vector<FlowRule*> doomed;
  doomed.push_back(shard.cache.head(victim));
  if (const auto* overflow = shard.cache.overflow(victim))
    doomed.insert(doomed.end(), overflow->begin(), overflow->end());
  for (FlowRule* rule : doomed) Erase(shard, rule);
  evicted_.fetch_add(doomed.size(), std::memory_order_relaxed);
  if (handles_.evicted_total != nullptr)
    handles_.evicted_total->Increment(doomed.size());
  return doomed.size();
}

std::uint64_t FlowTable::Add(FlowRule rule, std::uint64_t now_ns) {
  obs::StageScope stage(obs::Stage::kFlowAdd);
  rule.installed_at_ns = now_ns;
  if (handles_.installed_total != nullptr)
    handles_.installed_total->Increment();

  if (!rule.match.eth_src.has_value()) {
    WriterLock lock(wildcard_mutex_);
    for (const auto& existing : wildcard_rules_) {
      if (SameMatchAndPriority(*existing, rule)) {
        ReplaceRule(*existing, std::move(rule), now_ns);
        return next_id_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
    auto owned = std::make_unique<FlowRule>(std::move(rule));
    owned->id = id;
    // After every rule of equal or higher priority: installation order.
    const auto pos = std::upper_bound(
        wildcard_rules_.begin(), wildcard_rules_.end(), owned->priority,
        [](std::uint16_t priority, const std::unique_ptr<FlowRule>& r) {
          return priority > r->priority;
        });
    wildcard_rules_.insert(pos, std::move(owned));
    rule_count_.fetch_add(1, std::memory_order_relaxed);
    wildcard_count_.fetch_add(1, std::memory_order_relaxed);
    SetRulesGauge();
    return id;
  }

  const auto [src, dst] = ShardKey(rule.match);
  Shard& shard = ShardFor(src);
  WriterLock lock(shard.mutex);
  // FlowMod replace semantics: an identical (match, priority) rule can
  // only live in this key's bucket.
  const std::uint32_t slot = shard.cache.Find(src, dst);
  if (FlowRule* existing = slot == FlowMatchCache::kNone
                               ? nullptr
                               : ReplaceTarget(shard.cache, slot, rule)) {
    ReplaceRule(*existing, std::move(rule), now_ns);
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  if (max_exact_rules_per_shard_ > 0) {
    while (shard.rules.size() >= max_exact_rules_per_shard_ &&
           EvictOneKey(shard) > 0) {
    }
  }
  const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  auto owned = std::make_unique<FlowRule>(std::move(rule));
  owned->id = id;
  owned->table_index = static_cast<std::uint32_t>(shard.rules.size());
  shard.cache.Insert(src, dst, owned.get());
  if (dst == kAnyDst) ++shard.any_dst_rules;
  shard.rules.push_back(std::move(owned));
  rule_count_.fetch_add(1, std::memory_order_relaxed);
  SetRulesGauge();
  return id;
}

template <typename Pred>
std::size_t FlowTable::RemoveIf(Pred doomed) {
  std::size_t removed = 0;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    WriterLock lock(shard.mutex);
    for (std::size_t i = 0; i < shard.rules.size();) {
      if (doomed(*shard.rules[i])) {
        Erase(shard, shard.rules[i].get());
        ++removed;  // swap-remove: revisit index i
      } else {
        ++i;
      }
    }
  }
  {
    WriterLock lock(wildcard_mutex_);
    const std::size_t global = std::erase_if(
        wildcard_rules_,
        [&](const std::unique_ptr<FlowRule>& rule) { return doomed(*rule); });
    rule_count_.fetch_sub(global, std::memory_order_relaxed);
    wildcard_count_.fetch_sub(global, std::memory_order_relaxed);
    removed += global;
  }
  if (removed > 0) SetRulesGauge();
  return removed;
}

std::size_t FlowTable::RemoveByCookie(std::uint64_t cookie) {
  return RemoveIf([cookie](const FlowRule& rule) {
    return rule.cookie == cookie;
  });
}

std::size_t FlowTable::RemoveByMac(const net::MacAddress& mac) {
  return RemoveIf([&mac](const FlowRule& rule) {
    const FlowMatch& match = rule.match;
    return (match.eth_src && *match.eth_src == mac) ||
           (match.eth_dst && *match.eth_dst == mac);
  });
}

std::size_t FlowTable::ExpireRules(std::uint64_t now_ns) {
  const std::size_t removed = RemoveIf(
      [now_ns](const FlowRule& rule) { return rule.IsExpired(now_ns); });
  if (removed > 0 && handles_.expired_total != nullptr)
    handles_.expired_total->Increment(removed);
  return removed;
}

void FlowTable::Clear() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    WriterLock lock(shard.mutex);
    shard.rules.clear();
    shard.cache.Clear();
    shard.any_dst_rules = 0;
  }
  {
    WriterLock lock(wildcard_mutex_);
    wildcard_rules_.clear();
  }
  rule_count_.store(0, std::memory_order_relaxed);
  wildcard_count_.store(0, std::memory_order_relaxed);
  if (handles_.rules != nullptr) handles_.rules->Set(0.0);
}

template <typename OnWinner>
auto FlowTable::Resolve(const net::ParsedPacket& packet, PortId in_port,
                        OnWinner&& on_winner) const {
  if (handles_.lookups_total != nullptr) handles_.lookups_total->Increment();
  const std::uint64_t src = packet.src_mac.ToUint64();
  const std::uint64_t dst = packet.dst_mac.ToUint64();
  const Shard& shard = ShardFor(src);
  shard.stats.lookups.fetch_add(1, std::memory_order_relaxed);
  const auto finish = [&](const Winner& winner) {
    if (winner.rule == nullptr) {
      shard.stats.misses.fetch_add(1, std::memory_order_relaxed);
      if (handles_.misses_total != nullptr) handles_.misses_total->Increment();
    } else if (winner.exact) {
      shard.stats.hash_hits.fetch_add(1, std::memory_order_relaxed);
      if (handles_.hash_hits_total != nullptr)
        handles_.hash_hits_total->Increment();
    } else {
      shard.stats.linear_hits.fetch_add(1, std::memory_order_relaxed);
      if (handles_.linear_hits_total != nullptr)
        handles_.linear_hits_total->Increment();
    }
    return on_winner(winner.rule);
  };

  // The locks covering the winner stay held through `on_winner`: a
  // concurrent Remove/Expire cannot free the rule while Match() copies its
  // actions out.
  ReaderLock shard_lock(shard.mutex);
  Winner winner;
  const std::uint32_t slot = shard.cache.Find(src, dst);
  if (slot != FlowMatchCache::kNone) {
    // head_trivial: the pair-key equality Find() established already is
    // the whole match — skip the rule->match read (one fewer dependent
    // cache miss on the per-packet path).
    winner = shard.cache.head_trivial(slot)
                 ? Winner{shard.cache.head(slot), /*exact=*/true}
                 : OfferSlot(shard.cache, slot, /*exact=*/true, packet,
                             in_port, winner);
  }
  // (src, any) rules; the probe is skipped while the shard holds none.
  if (shard.any_dst_rules > 0) {
    const std::uint32_t any = shard.cache.Find(src, kAnyDst);
    if (any != FlowMatchCache::kNone)
      winner = OfferSlot(shard.cache, any, /*exact=*/false, packet, in_port,
                         winner);
  }
  // Rules without eth_src, skipped (lock and all) while there are none.
  if (wildcard_count_.load(std::memory_order_relaxed) > 0) {
    ReaderLock wildcard_lock(wildcard_mutex_);
    for (const auto& rule : wildcard_rules_)
      if (!Offer(*rule, /*exact=*/false, packet, in_port, winner)) break;
    return finish(winner);
  }
  return finish(winner);
}

const FlowRule* FlowTable::Lookup(const net::ParsedPacket& packet,
                                  PortId in_port) const {
  return Resolve(packet, in_port, [](const FlowRule* best) { return best; });
}

FlowTable::MatchResult FlowTable::Match(const net::ParsedPacket& packet,
                                        PortId in_port, std::uint64_t now_ns,
                                        std::size_t frame_bytes) const {
  obs::StageScope stage(obs::Stage::kFlowMatch);
  return Resolve(packet, in_port, [&](const FlowRule* best) {
    MatchResult result;
    if (best != nullptr) FillMatchResult(*best, now_ns, frame_bytes, result);
    return result;
  });
}

std::vector<const FlowRule*> FlowTable::Rules() const {
  std::vector<const FlowRule*> out;
  out.reserve(size());
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    ReaderLock lock(shard.mutex);
    for (const auto& rule : shard.rules) out.push_back(rule.get());
  }
  {
    ReaderLock lock(wildcard_mutex_);
    for (const auto& rule : wildcard_rules_) out.push_back(rule.get());
  }
  std::sort(out.begin(), out.end(),
            [](const FlowRule* a, const FlowRule* b) { return a->id < b->id; });
  return out;
}

FlowTable::Stats FlowTable::stats() const {
  Stats s;
  for (const auto& shard_ptr : shards_) {
    const ShardStats& stats = shard_ptr->stats;
    s.lookups += stats.lookups.load(std::memory_order_relaxed);
    s.hash_hits += stats.hash_hits.load(std::memory_order_relaxed);
    s.linear_hits += stats.linear_hits.load(std::memory_order_relaxed);
    s.misses += stats.misses.load(std::memory_order_relaxed);
  }
  return s;
}

std::size_t FlowTable::MemoryBytes() const {
  std::size_t total = sizeof(*this);
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    ReaderLock lock(shard.mutex);
    total += sizeof(Shard);
    total += shard.rules.capacity() * sizeof(std::unique_ptr<FlowRule>);
    for (const auto& rule : shard.rules) total += rule->MemoryBytes();
    total += shard.cache.MemoryBytes();
  }
  {
    ReaderLock lock(wildcard_mutex_);
    total += wildcard_rules_.capacity() * sizeof(std::unique_ptr<FlowRule>);
    for (const auto& rule : wildcard_rules_) total += rule->MemoryBytes();
  }
  return total;
}

}  // namespace sentinel::sdn
