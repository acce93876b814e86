// Fleet-scale gateway soak: flow-match latency and memory as the tracked
// population grows 10k -> 1M MACs, the sharded open-addressing table vs the
// seed's unordered_map index, eviction-bounded memory, and a device-churn
// scenario with a sharded-vs-unsharded determinism differential.
//
//   soak_gateway [--quick] [--json <path>]
//
// --quick is the CI smoke mode (~30s: 50k-MAC churn, two scale points);
// --json writes the machine-readable baseline (scripts/soak_baseline.sh
// commits it as BENCH_gateway.json).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "netsim/churn.h"
#include "sdn/flow_table.h"
#include "util/check.h"
#include "util/shard.h"

namespace {

using Clock = std::chrono::steady_clock;
using sentinel::net::MacAddress;
using sentinel::net::ParsedPacket;
using sentinel::sdn::FlowRule;
using sentinel::sdn::FlowTable;
using sentinel::sdn::FlowTableOptions;
using sentinel::util::Mix64;

constexpr std::size_t kShards = 16;
constexpr std::uint32_t kProbePort = 2;

/// Resident set size of this process, from /proc/self/statm (0 when the
/// proc filesystem is unavailable, e.g. non-Linux).
std::size_t ReadRssBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long total = 0;
  unsigned long resident = 0;
  const int got = std::fscanf(f, "%lu %lu", &total, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<std::size_t>(resident) * 4096u;
}

MacAddress DeviceMac(std::uint64_t i) {
  return MacAddress({0x02, 0xab, static_cast<std::uint8_t>(i >> 24),
                     static_cast<std::uint8_t>(i >> 16),
                     static_cast<std::uint8_t>(i >> 8),
                     static_cast<std::uint8_t>(i)});
}

const MacAddress kGatewayMac({0x02, 0x00, 0x5e, 0x00, 0x00, 0x01});

FlowRule ExactRule(std::uint64_t i) {
  FlowRule rule;
  rule.priority = 10;
  rule.match.eth_src = DeviceMac(i);
  rule.match.eth_dst = kGatewayMac;
  rule.actions = {sentinel::sdn::ActionOutput{1}};
  rule.cookie = i;
  return rule;
}

ParsedPacket ProbeFor(std::uint64_t i) {
  ParsedPacket p;
  p.src_mac = DeviceMac(i);
  p.dst_mac = kGatewayMac;
  p.size_bytes = 128;
  return p;
}

/// Pre-shuffled probe targets, drawn from an active set of `hot` rules
/// spread evenly across the table (hot == rules probes uniformly). A fleet
/// gateway tracks far more MACs than are active at any instant, so the
/// latency question is: does a bounded working set stay fast as the
/// *tracked* population grows underneath it?
std::vector<std::uint64_t> ProbeOrder(std::size_t rules, std::size_t hot,
                                      std::size_t probes,
                                      std::uint64_t seed) {
  hot = std::min(hot, rules);
  const std::size_t stride = rules / hot;
  std::vector<std::uint64_t> order(probes);
  std::uint64_t s = seed;
  for (std::size_t i = 0; i < probes; ++i) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    order[i] = (Mix64(s) % hot) * stride;
  }
  return order;
}

constexpr std::size_t kHotSet = 4'096;

struct LatencyNumbers {
  double p50_ns = 0;
  double p99_ns = 0;
  double lookups_per_sec = 0;
};

/// Times Match() in batches of kBatch probes (per-probe latency =
/// batch / kBatch, keeping clock overhead off the measurement) across
/// `threads` concurrent probers sharing the table.
LatencyNumbers MeasureMatch(const FlowTable& table, std::size_t rules,
                            std::size_t samples_per_thread,
                            std::size_t threads) {
  constexpr std::size_t kBatch = 32;
  std::vector<std::vector<double>> per_thread(threads);
  std::vector<std::uint64_t> hits(threads, 0);
  auto worker = [&](std::size_t t) {
    const auto order = ProbeOrder(rules, kHotSet, samples_per_thread * kBatch,
                                  0x50a1u + t * 0x9e3779b9ull);
    std::vector<ParsedPacket> probes;
    probes.reserve(order.size());
    for (const std::uint64_t r : order) probes.push_back(ProbeFor(r));
    auto& samples = per_thread[t];
    samples.reserve(samples_per_thread);
    std::size_t cursor = 0;
    for (std::size_t s = 0; s < samples_per_thread; ++s) {
      const auto begin = Clock::now();
      for (std::size_t b = 0; b < kBatch; ++b) {
        const auto match =
            table.Match(probes[cursor++], kProbePort, 1, 128);
        hits[t] += match.matched ? 1 : 0;
      }
      const auto end = Clock::now();
      samples.push_back(
          static_cast<double>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
                  .count()) /
          static_cast<double>(kBatch));
    }
  };

  const auto wall_begin = Clock::now();
  if (threads <= 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t)
      pool.emplace_back(worker, t);
    for (auto& th : pool) th.join();
  }
  const auto wall_end = Clock::now();

  std::vector<double> all;
  std::uint64_t total_hits = 0;
  for (std::size_t t = 0; t < threads; ++t) {
    all.insert(all.end(), per_thread[t].begin(), per_thread[t].end());
    total_hits += hits[t];
  }
  const std::size_t total_probes = threads * samples_per_thread * kBatch;
  SENTINEL_CHECK(total_hits == total_probes)
      << "probe miss: " << total_hits << " hits of " << total_probes;

  LatencyNumbers out;
  const auto nth = [&](double q) {
    const auto k = static_cast<std::size_t>(q * static_cast<double>(all.size() - 1));
    std::nth_element(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(k),
                     all.end());
    return all[k];
  };
  out.p50_ns = nth(0.50);
  out.p99_ns = nth(0.99);
  const double wall_s =
      std::chrono::duration<double>(wall_end - wall_begin).count();
  out.lookups_per_sec = static_cast<double>(total_probes) / wall_s;
  return out;
}

// ---- Seed-index replica ---------------------------------------------------
// The pre-sharding exact-match index: unordered_map keyed by the MAC pair,
// value = rules for that pair. Same hash as the SoA cache, so the
// comparison isolates the container layout, not the hash function.

struct MapKey {
  std::uint64_t src = 0;
  std::uint64_t dst = 0;
  friend bool operator==(const MapKey&, const MapKey&) = default;
};
struct MapKeyHash {
  std::size_t operator()(const MapKey& k) const {
    return static_cast<std::size_t>(
        Mix64(k.src * 0x9e3779b97f4a7c15ull ^ k.dst));
  }
};

struct MapIndex {
  std::vector<std::unique_ptr<FlowRule>> storage;
  std::unordered_map<MapKey, std::vector<const FlowRule*>, MapKeyHash> index;

  void Fill(std::size_t rules) {
    storage.reserve(rules);
    for (std::size_t i = 0; i < rules; ++i) {
      storage.push_back(std::make_unique<FlowRule>(ExactRule(i)));
      const FlowRule& rule = *storage.back();
      index[MapKey{rule.match.eth_src->ToUint64(),
                   rule.match.eth_dst->ToUint64()}]
          .push_back(&rule);
    }
  }

  const FlowRule* Lookup(const ParsedPacket& packet) const {
    const auto it = index.find(
        MapKey{packet.src_mac.ToUint64(), packet.dst_mac.ToUint64()});
    if (it == index.end()) return nullptr;
    const FlowRule* best = nullptr;
    for (const FlowRule* rule : it->second) {
      if ((best == nullptr || rule->priority > best->priority) &&
          rule->match.Matches(packet, kProbePort))
        best = rule;
    }
    return best;
  }
};

/// Uniform-probe lookup throughput over the whole rule set, timed through
/// `lookup` — the structural index comparison (same probes, same Matches()
/// walk; only the container differs).
template <typename LookupFn>
double MeasureLookups(std::size_t rules, std::size_t probes,
                      const LookupFn& lookup) {
  const auto order = ProbeOrder(rules, rules, probes, 0x9a9);
  std::vector<ParsedPacket> packets;
  packets.reserve(order.size());
  for (const std::uint64_t r : order) packets.push_back(ProbeFor(r));
  std::uint64_t hits = 0;
  const auto begin = Clock::now();
  for (const ParsedPacket& packet : packets)
    hits += lookup(packet) != nullptr ? 1 : 0;
  const auto end = Clock::now();
  SENTINEL_CHECK(hits == probes) << "uniform probe miss";
  return static_cast<double>(probes) /
         std::chrono::duration<double>(end - begin).count();
}

/// Best-of-N wrapper: the container's run-to-run variance on memory-bound
/// probes is ±30%+ (same binary, same inputs), so single-pass numbers are
/// lottery tickets. Keeping the rep with the best p50 (and its p99)
/// reports the machine, not the noise — same policy as the identify bench.
constexpr std::size_t kReps = 3;

LatencyNumbers BestMatch(const FlowTable& table, std::size_t rules,
                         std::size_t samples_per_thread, std::size_t threads) {
  LatencyNumbers best;
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    const LatencyNumbers run =
        MeasureMatch(table, rules, samples_per_thread, threads);
    if (rep == 0 || run.p50_ns < best.p50_ns) best = run;
  }
  return best;
}

template <typename LookupFn>
double BestLookups(std::size_t rules, std::size_t probes,
                   const LookupFn& lookup) {
  double best = 0;
  for (std::size_t rep = 0; rep < kReps; ++rep)
    best = std::max(best, MeasureLookups(rules, probes, lookup));
  return best;
}

struct ScaleRow {
  std::size_t rules = 0;
  LatencyNumbers one_thread;
  LatencyNumbers eight_threads;
  std::size_t table_memory_bytes = 0;
  std::size_t rss_bytes = 0;
  double map_lookups_per_sec = 0;
  double table_lookups_per_sec = 0;
  double speedup_vs_map = 0;
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[i + 1];
  }

  sentinel::bench::MetricsSession session(argc, argv);

  sentinel::bench::Header(
      "Gateway state at fleet scale: sharded flow table + churn soak",
      "Sect. V keeps enforcement rules in a hash table 'to minimize the "
      "lookup time as the enforcement rule cache grows'; this pushes the "
      "claim to 1M tracked MACs under continuous churn");

  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{10'000, 50'000}
            : std::vector<std::size_t>{10'000, 100'000, 1'000'000};
  const std::size_t samples = quick ? 4'000 : 12'000;  // x32 probes each

  // ---- Scale sweep: latency + memory vs tracked-MAC count ----------------
  std::printf("\n-- flow-match scaling (shards=%zu) --\n", kShards);
  std::printf("%9s %11s %11s %11s %11s %13s %11s %9s\n", "rules",
              "p50 1t ns", "p99 1t ns", "p50 8t ns", "p99 8t ns",
              "table MiB", "RSS MiB", "vs map");
  std::vector<ScaleRow> rows;
  for (const std::size_t rules : sizes) {
    ScaleRow row;
    row.rules = rules;
    FlowTable table(FlowTableOptions{.shard_count = kShards});
    for (std::size_t i = 0; i < rules; ++i) table.Add(ExactRule(i), 1);
    SENTINEL_CHECK(table.size() == rules);

    row.one_thread = BestMatch(table, rules, samples, 1);
    row.eight_threads = BestMatch(table, rules, samples, 8);
    row.table_memory_bytes = table.MemoryBytes();
    row.rss_bytes = ReadRssBytes();

    const std::size_t uniform_probes = samples * 32;
    row.table_lookups_per_sec =
        BestLookups(rules, uniform_probes, [&](const ParsedPacket& p) {
          return table.Lookup(p, kProbePort);
        });
    MapIndex map;
    map.Fill(rules);
    row.map_lookups_per_sec =
        BestLookups(rules, uniform_probes,
                    [&](const ParsedPacket& p) { return map.Lookup(p); });
    row.speedup_vs_map = row.table_lookups_per_sec / row.map_lookups_per_sec;

    std::printf("%9zu %11.1f %11.1f %11.1f %11.1f %13.1f %11.1f %8.2fx\n",
                rules, row.one_thread.p50_ns, row.one_thread.p99_ns,
                row.eight_threads.p50_ns, row.eight_threads.p99_ns,
                static_cast<double>(row.table_memory_bytes) / (1024.0 * 1024.0),
                static_cast<double>(row.rss_bytes) / (1024.0 * 1024.0),
                row.speedup_vs_map);
    rows.push_back(row);
  }

  // ---- Eviction bounds memory --------------------------------------------
  const std::size_t evict_inserts = quick ? 100'000 : 1'000'000;
  const std::size_t cap_per_shard = 4'096;
  std::size_t capped_memory = 0;
  std::size_t capped_rules = 0;
  std::uint64_t evicted = 0;
  {
    FlowTable capped(FlowTableOptions{
        .shard_count = kShards, .max_exact_rules_per_shard = cap_per_shard});
    for (std::size_t i = 0; i < evict_inserts; ++i) capped.Add(ExactRule(i), 1);
    capped_memory = capped.MemoryBytes();
    capped_rules = capped.size();
    evicted = capped.evicted_total();
    SENTINEL_CHECK(capped_rules <= cap_per_shard * kShards);
    SENTINEL_CHECK(evicted > 0);
  }
  std::printf("\n-- bounded-memory tier --\n");
  std::printf(
      "%zu inserts, cap %zu/shard: %zu resident rules, %llu evicted, "
      "%.1f MiB (uncapped at same count: %.1f MiB)\n",
      evict_inserts, cap_per_shard, capped_rules,
      static_cast<unsigned long long>(evicted),
      static_cast<double>(capped_memory) / (1024.0 * 1024.0),
      static_cast<double>(rows.back().table_memory_bytes) /
          (1024.0 * 1024.0));

  // ---- Churn soak ---------------------------------------------------------
  using sentinel::netsim::ChurnConfig;
  using sentinel::netsim::ChurnReport;
  using sentinel::netsim::RunChurnScenario;
  using sentinel::netsim::ScriptedAssessor;

  // Determinism differential first: shard 1 (seed behavior) vs shard 8,
  // eviction off — hashes must be bit-identical.
  ChurnConfig diff;
  diff.session_count = quick ? 1'500 : 4'000;
  diff.device_count = 256;
  ChurnReport diff_base;
  ChurnReport diff_sharded;
  {
    ScriptedAssessor assessor(11);
    diff_base = RunChurnScenario(diff, assessor);
  }
  {
    ChurnConfig sharded = diff;
    sharded.gateway.shard_count = 8;
    ScriptedAssessor assessor(11);
    diff_sharded = RunChurnScenario(sharded, assessor);
  }
  const bool identical =
      diff_base.verdict_hash == diff_sharded.verdict_hash &&
      diff_base.rule_hash == diff_sharded.rule_hash;
  SENTINEL_CHECK(identical)
      << "sharded churn diverged: verdict " << diff_base.verdict_hash
      << " vs " << diff_sharded.verdict_hash << ", rules "
      << diff_base.rule_hash << " vs " << diff_sharded.rule_hash;

  // Capped soak: sharded everything, small per-shard caps, long churn.
  ChurnConfig soak;
  soak.session_count = quick ? 50'000 : 120'000;
  soak.device_count = quick ? 2'048 : 4'096;
  soak.chatter_packets = 2;
  soak.gateway.shard_count = kShards;
  soak.gateway.max_flow_rules_per_shard = 256;
  soak.gateway.max_learned_macs_per_shard = 64;
  soak.gateway.max_enforcement_rules_per_shard = 256;
  soak.gateway.max_sessions_per_shard = 256;
  ScriptedAssessor soak_assessor(11);
  const auto soak_begin = Clock::now();
  const ChurnReport report = RunChurnScenario(soak, soak_assessor);
  const double soak_s =
      std::chrono::duration<double>(Clock::now() - soak_begin).count();
  SENTINEL_CHECK(report.total_evictions() > 0) << "caps never engaged";

  std::printf("\n-- churn soak --\n");
  std::printf(
      "%llu sessions, %llu frames in %.1fs wall (%.1f sim-hours); "
      "%llu identifications, %llu incidents\n",
      static_cast<unsigned long long>(report.sessions_started),
      static_cast<unsigned long long>(report.frames_injected), soak_s,
      static_cast<double>(report.sim_duration_ns) / 3.6e12,
      static_cast<unsigned long long>(report.identifications),
      static_cast<unsigned long long>(report.incidents));
  std::printf(
      "final state: %zu sessions, %zu enforcement rules, %zu flow rules, "
      "%zu learned MACs, %.1f MiB gateway state\n",
      report.tracked_devices, report.enforcement_rules, report.flow_rules,
      report.learned_macs,
      static_cast<double>(report.gateway_memory_bytes) / (1024.0 * 1024.0));
  std::printf(
      "evictions: %llu flow, %llu monitor, %llu controller, %llu "
      "enforcement\n",
      static_cast<unsigned long long>(report.flow_evictions),
      static_cast<unsigned long long>(report.monitor_evictions),
      static_cast<unsigned long long>(report.controller_evictions),
      static_cast<unsigned long long>(report.enforcement_evictions));
  std::printf("shard 1 vs 8 differential: %s\n",
              identical ? "identical" : "DIVERGED");

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    SENTINEL_CHECK(f != nullptr) << "cannot write " << json_path;
    std::fprintf(f, "{\n  \"bench\": \"soak_gateway\",\n");
    std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
    std::fprintf(f, "  \"shards\": %zu,\n", kShards);
    std::fprintf(f, "  \"scale\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const ScaleRow& r = rows[i];
      std::fprintf(
          f,
          "    {\"rules\": %zu, \"p50_ns_1t\": %.1f, \"p99_ns_1t\": %.1f, "
          "\"p50_ns_8t\": %.1f, \"p99_ns_8t\": %.1f, "
          "\"table_memory_bytes\": %zu, \"rss_bytes\": %zu, "
          "\"table_lookups_per_sec\": %.0f, \"map_lookups_per_sec\": %.0f, "
          "\"speedup_vs_map\": %.2f}%s\n",
          r.rules, r.one_thread.p50_ns, r.one_thread.p99_ns,
          r.eight_threads.p50_ns, r.eight_threads.p99_ns,
          r.table_memory_bytes, r.rss_bytes, r.table_lookups_per_sec,
          r.map_lookups_per_sec, r.speedup_vs_map,
          i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(
        f,
        "  \"eviction\": {\"inserts\": %zu, \"cap_per_shard\": %zu, "
        "\"resident_rules\": %zu, \"evicted\": %llu, "
        "\"memory_bytes_capped\": %zu},\n",
        evict_inserts, cap_per_shard, capped_rules,
        static_cast<unsigned long long>(evicted), capped_memory);
    std::fprintf(
        f,
        "  \"churn\": {\"sessions\": %llu, \"frames\": %llu, "
        "\"identifications\": %llu, \"tracked_sessions\": %zu, "
        "\"flow_rules\": %zu, \"learned_macs\": %zu, "
        "\"gateway_memory_bytes\": %zu, \"evictions_total\": %llu, "
        "\"soak_seconds\": %.1f, \"sharded_differential\": \"%s\"}\n",
        static_cast<unsigned long long>(report.sessions_started),
        static_cast<unsigned long long>(report.frames_injected),
        static_cast<unsigned long long>(report.identifications),
        report.tracked_devices, report.flow_rules, report.learned_macs,
        report.gateway_memory_bytes,
        static_cast<unsigned long long>(report.total_evictions()), soak_s,
        identical ? "identical" : "DIVERGED");
    std::fprintf(f, ",\n  \"observability\": %s\n",
                 session.ObservabilityJson().c_str());
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }

  sentinel::bench::Footer();
  return 0;
}
