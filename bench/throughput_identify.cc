// Identification throughput: the reference oracle (IdentifyReference: a
// sequential per-forest walk and unpruned tie-break, without telemetry) vs
// the compiled kernel, single- and multi-threaded, per-call and batched,
// across bank sizes from 8 to 128 device-types. Every kernel verdict is
// asserted equal to the oracle's before anything is timed, so the numbers
// can only come from an equivalent implementation.
//
//   throughput_identify [--quick] [--json <path>]
//
// --quick shrinks bank sizes and repetitions for the CI smoke job; --json
// writes the machine-readable baseline (scripts/bench_baseline.sh commits
// it as BENCH_identify.json).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/device_identifier.h"
#include "devices/simulator.h"
#include "features/fingerprint.h"
#include "obs/metrics.h"
#include "obs/quality.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace {

using Clock = std::chrono::steady_clock;
using sentinel::core::DeviceIdentifier;
using sentinel::core::IdentificationResult;
using sentinel::core::LabelledFingerprint;

/// Widens the 27-type catalog dataset to `type_count` synthetic types:
/// each extra type clones a catalog type's episodes with every packet size
/// shifted by a per-type constant — distinct, equally shaped types, so
/// bank-size scaling is measured on realistic fingerprints.
sentinel::devices::FingerprintDataset Widen(
    const sentinel::devices::FingerprintDataset& base,
    std::size_t type_count) {
  int catalog = 0;
  for (const int label : base.labels) catalog = std::max(catalog, label + 1);
  sentinel::devices::FingerprintDataset out;
  for (std::size_t i = 0; i < base.size(); ++i) {
    if (static_cast<std::size_t>(base.labels[i]) >= type_count) continue;
    out.fingerprints.push_back(base.fingerprints[i]);
    out.fixed.push_back(base.fixed[i]);
    out.labels.push_back(base.labels[i]);
  }
  for (std::size_t s = static_cast<std::size_t>(catalog); s < type_count;
       ++s) {
    const int src = static_cast<int>(s) % catalog;
    const auto offset =
        911u * static_cast<std::uint32_t>(s - static_cast<std::size_t>(catalog) + 1);
    for (std::size_t i = 0; i < base.size(); ++i) {
      if (base.labels[i] != src) continue;
      auto packets = base.fingerprints[i].packets();
      for (auto& packet : packets)
        packet[sentinel::features::kFeatPacketSize] += offset;
      auto fp = sentinel::features::Fingerprint::FromPacketVectors(packets);
      out.fixed.push_back(
          sentinel::features::FixedFingerprint::FromFingerprint(fp));
      out.fingerprints.push_back(std::move(fp));
      out.labels.push_back(static_cast<int>(s));
    }
  }
  return out;
}

/// `set` in a seeded shuffled order. A gateway meets device types in
/// arrival order; probes timed in type order let the branch predictor
/// learn each classifier's trees and understate the per-call cost.
sentinel::devices::FingerprintDataset Shuffled(
    const sentinel::devices::FingerprintDataset& set, std::uint64_t seed) {
  std::vector<std::size_t> order(set.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::mt19937_64 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);
  sentinel::devices::FingerprintDataset out;
  for (const std::size_t i : order) {
    out.fingerprints.push_back(set.fingerprints[i]);
    out.fixed.push_back(set.fixed[i]);
    out.labels.push_back(set.labels[i]);
  }
  return out;
}

std::vector<LabelledFingerprint> ToExamples(
    const sentinel::devices::FingerprintDataset& dataset) {
  std::vector<LabelledFingerprint> examples;
  examples.reserve(dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    examples.push_back(LabelledFingerprint{
        &dataset.fingerprints[i], &dataset.fixed[i], dataset.labels[i]});
  }
  return examples;
}

void CheckEquivalent(const IdentificationResult& got,
                     const IdentificationResult& want, const char* mode) {
  SENTINEL_CHECK(got.type == want.type)
      << mode << ": verdict diverged from reference";
  SENTINEL_CHECK(got.matched_types == want.matched_types)
      << mode << ": candidate set diverged from reference";
}

template <typename Run>
double MeasureIps(std::size_t reps, std::size_t probes, Run&& run) {
  run();  // warmup (also populates caches the way a serving gateway would)
  // Best-of-reps: each repetition is timed alone and the fastest wins, so
  // an unrelated system hiccup during one rep cannot drag a mode's number
  // (and the cross-mode ratios built from it) down.
  double best_secs = std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    run();
    const double secs =
        std::chrono::duration<double>(Clock::now() - t0).count();
    best_secs = std::min(best_secs, secs);
  }
  return static_cast<double>(probes) / best_secs;
}

struct BankNumbers {
  std::size_t types = 0;
  std::size_t probes = 0;
  double reference_1t = 0.0;
  double fast_1t = 0.0;
  double fast_8t = 0.0;
  double batch_1t = 0.0;
  double batch_8t = 0.0;
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
      "Identification throughput: reference oracle vs compiled kernel",
      "Sect. VII reports identification cost dominated by the classifier "
      "bank scan; the kernel scores the whole bank in one column scan");

  const std::vector<std::size_t> bank_sizes =
      quick ? std::vector<std::size_t>{8, 31}
            : std::vector<std::size_t>{8, 16, 31, 64, 128};
  const std::size_t train_episodes = quick ? 4 : 6;
  const std::size_t probe_episodes = 2;
  const std::size_t reps = quick ? 2 : 5;

  const auto train_base =
      sentinel::devices::GenerateFingerprintDataset(train_episodes, 42);
  const auto probe_base =
      sentinel::devices::GenerateFingerprintDataset(probe_episodes, 4242);
  constexpr std::uint64_t kProbeOrderSeed = 4243;

  sentinel::util::ThreadPool pool(8);
  std::vector<BankNumbers> rows;

  std::printf("%6s %7s %14s %14s %14s %14s %14s %9s\n", "types", "probes",
              "ref 1t id/s", "fast 1t id/s", "fast 8t id/s", "batch 1t id/s",
              "batch 8t id/s", "speedup");
  for (const std::size_t types : bank_sizes) {
    const auto train = Widen(train_base, types);
    const auto probes = Shuffled(Widen(probe_base, types), kProbeOrderSeed);
    std::vector<DeviceIdentifier::FingerprintRef> refs;
    refs.reserve(probes.size());
    for (std::size_t i = 0; i < probes.size(); ++i)
      refs.push_back({&probes.fingerprints[i], &probes.fixed[i]});

    DeviceIdentifier identifier;
    identifier.set_thread_pool(&pool);
    identifier.Train(ToExamples(train));
    identifier.set_thread_pool(nullptr);

    // Reference verdicts once, then assert every mode against them before
    // any timing.
    std::vector<IdentificationResult> expected;
    expected.reserve(probes.size());
    for (std::size_t i = 0; i < probes.size(); ++i)
      expected.push_back(identifier.IdentifyReference(probes.fingerprints[i],
                                                      probes.fixed[i]));
    for (std::size_t i = 0; i < probes.size(); ++i) {
      CheckEquivalent(
          identifier.Identify(probes.fingerprints[i], probes.fixed[i]),
          expected[i], "fast");
    }
    {
      const auto batch = identifier.IdentifyBatch(refs);
      for (std::size_t i = 0; i < probes.size(); ++i)
        CheckEquivalent(batch[i], expected[i], "batch");
    }

    BankNumbers row;
    row.types = types;
    row.probes = probes.size();
    const auto run_per_call = [&] {
      for (std::size_t i = 0; i < probes.size(); ++i)
        (void)identifier.Identify(probes.fingerprints[i], probes.fixed[i]);
    };
    const auto run_batch = [&] { (void)identifier.IdentifyBatch(refs); };
    const auto run_reference = [&] {
      for (std::size_t i = 0; i < probes.size(); ++i)
        (void)identifier.IdentifyReference(probes.fingerprints[i],
                                           probes.fixed[i]);
    };

    row.reference_1t = MeasureIps(reps, probes.size(), run_reference);
    row.fast_1t = MeasureIps(reps, probes.size(), run_per_call);
    row.batch_1t = MeasureIps(reps, probes.size(), run_batch);
    identifier.set_thread_pool(&pool);
    row.fast_8t = MeasureIps(reps, probes.size(), run_per_call);
    row.batch_8t = MeasureIps(reps, probes.size(), run_batch);
    identifier.set_thread_pool(nullptr);

    std::printf("%6zu %7zu %14.0f %14.0f %14.0f %14.0f %14.0f %8.2fx\n",
                row.types, row.probes, row.reference_1t, row.fast_1t,
                row.fast_8t, row.batch_1t, row.batch_8t,
                row.fast_1t / row.reference_1t);
    rows.push_back(row);
  }

  // Quality-monitor overhead guard: attaching the quality monitor must not
  // meaningfully tax the single-probe path — Record() is a handful of
  // relaxed atomic bumps per finished verdict, and detached it is a single
  // null-pointer branch. Measured on the 31-type catalog bank; attached
  // throughput must stay within 2% of detached.
  double quality_off_ips = 0.0;
  double quality_on_ips = 0.0;
  {
    const auto train = Widen(train_base, 31);
    const auto probes = Shuffled(Widen(probe_base, 31), kProbeOrderSeed);
    DeviceIdentifier identifier;
    identifier.set_thread_pool(&pool);
    identifier.Train(ToExamples(train));
    identifier.set_thread_pool(nullptr);
    const std::size_t loops = 4;
    const auto run_looped = [&] {
      for (std::size_t l = 0; l < loops; ++l)
        for (std::size_t i = 0; i < probes.size(); ++i)
          (void)identifier.Identify(probes.fingerprints[i], probes.fixed[i]);
    };
    sentinel::obs::MetricsRegistry registry;
    sentinel::obs::QualityMonitor monitor(&registry);
    // Paired-slice median: timing a detached block and then an attached
    // block lets CPU frequency drift masquerade as overhead, and even
    // interleaved best-of is thrown by sustained throttling episodes.
    // Instead each pair times the two modes back to back (near-identical
    // conditions), and the *median* of the per-pair on/off ratios discards
    // pairs a preemption spike landed in.
    std::vector<double> ratios;
    std::vector<double> off_secs;
    const auto timed = [&](sentinel::obs::QualityMonitor* attached) {
      identifier.set_quality_monitor(attached);
      const auto t0 = Clock::now();
      run_looped();
      return std::chrono::duration<double>(Clock::now() - t0).count();
    };
    run_looped();  // warmup
    for (std::size_t pair = 0; pair < 65; ++pair) {
      // Alternating order inside the pair cancels any systematic cost of
      // running first vs second (cache state, frequency ramp).
      double off = 0.0;
      double on = 0.0;
      if (pair % 2 == 0) {
        off = timed(nullptr);
        on = timed(&monitor);
      } else {
        on = timed(&monitor);
        off = timed(nullptr);
      }
      ratios.push_back(on / off);
      off_secs.push_back(off);
    }
    identifier.set_quality_monitor(nullptr);
    std::nth_element(ratios.begin(), ratios.begin() + ratios.size() / 2,
                     ratios.end());
    const double median_ratio = ratios[ratios.size() / 2];
    const auto looped_probes = static_cast<double>(probes.size() * loops);
    quality_off_ips =
        looped_probes / *std::min_element(off_secs.begin(), off_secs.end());
    quality_on_ips = quality_off_ips / median_ratio;
    const double overhead_pct =
        100.0 * (1.0 - quality_on_ips / quality_off_ips);
    std::printf(
        "quality monitor (31 types, 1t): detached %.0f id/s, attached %.0f "
        "id/s, overhead %.2f%%\n",
        quality_off_ips, quality_on_ips, overhead_pct);
    SENTINEL_CHECK(overhead_pct <= 2.0)
        << "quality monitor costs " << overhead_pct
        << "% single-probe throughput (budget: 2%)";
  }

  // Enabled-profiler overhead guard: the hot identification path opens
  // its bank-scan (and tie-break) stage frames on every call, so an
  // installed profiler must cost at most the same 2% budget as the
  // quality monitor. Same paired-slice-median protocol: each pair times
  // attached and detached back to back in alternating order, and the
  // median per-pair ratio discards pairs hit by preemption or frequency
  // drift.
  double profiler_off_ips = 0.0;
  double profiler_on_ips = 0.0;
  {
    const auto train = Widen(train_base, 31);
    const auto probes = Shuffled(Widen(probe_base, 31), kProbeOrderSeed);
    DeviceIdentifier identifier;
    identifier.set_thread_pool(&pool);
    identifier.Train(ToExamples(train));
    identifier.set_thread_pool(nullptr);
    const std::size_t loops = 4;
    const auto run_looped = [&] {
      for (std::size_t l = 0; l < loops; ++l)
        for (std::size_t i = 0; i < probes.size(); ++i)
          (void)identifier.Identify(probes.fingerprints[i], probes.fixed[i]);
    };
    sentinel::obs::Profiler gate_profiler;
    std::vector<double> ratios;
    std::vector<double> off_secs;
    const auto timed = [&](sentinel::obs::Profiler* attached) {
      sentinel::obs::Profiler::SetCurrent(attached);
      const auto t0 = Clock::now();
      run_looped();
      return std::chrono::duration<double>(Clock::now() - t0).count();
    };
    run_looped();  // warmup
    for (std::size_t pair = 0; pair < 65; ++pair) {
      double off = 0.0;
      double on = 0.0;
      if (pair % 2 == 0) {
        off = timed(nullptr);
        on = timed(&gate_profiler);
      } else {
        on = timed(&gate_profiler);
        off = timed(nullptr);
      }
      ratios.push_back(on / off);
      off_secs.push_back(off);
    }
    // Put the session profiler back so the rest of the run (and the
    // observability summary below) keeps accumulating.
    sentinel::obs::Profiler::SetCurrent(session.profiler());
    std::nth_element(ratios.begin(), ratios.begin() + ratios.size() / 2,
                     ratios.end());
    const double median_ratio = ratios[ratios.size() / 2];
    const auto looped_probes = static_cast<double>(probes.size() * loops);
    profiler_off_ips =
        looped_probes / *std::min_element(off_secs.begin(), off_secs.end());
    profiler_on_ips = profiler_off_ips / median_ratio;
    const double overhead_pct =
        100.0 * (1.0 - profiler_on_ips / profiler_off_ips);
    std::printf(
        "profiler (31 types, 1t): detached %.0f id/s, attached %.0f id/s, "
        "overhead %.2f%%\n",
        profiler_off_ips, profiler_on_ips, overhead_pct);
    SENTINEL_CHECK(overhead_pct <= 2.0)
        << "enabled profiler costs " << overhead_pct
        << "% single-probe throughput (budget: 2%)";
  }

  // Multithreaded-dispatch guard: per-call Identify keeps its scan and
  // tie-break on the calling thread whether or not a pool is attached (one
  // probe is too little work to split), so fast_8t ~= fast_1t is expected
  // on any core count; parallel throughput comes from IdentifyBatch
  // (batch_8t) or from concurrent callers. What must hold is that
  // attaching the pool costs the per-call path little. Same
  // paired-slice-median protocol as the overhead gates above: each pair
  // times pooled and unpooled back to back in alternating order, and the
  // median per-pair ratio discards pairs hit by preemption or frequency
  // drift.
  double mt_1t_ips = 0.0;
  double mt_8t_ips = 0.0;
  {
    const auto train = Widen(train_base, 31);
    const auto probes = Shuffled(Widen(probe_base, 31), kProbeOrderSeed);
    DeviceIdentifier identifier;
    identifier.set_thread_pool(&pool);
    identifier.Train(ToExamples(train));
    identifier.set_thread_pool(nullptr);
    const std::size_t loops = 4;
    const auto run_looped = [&] {
      for (std::size_t l = 0; l < loops; ++l)
        for (std::size_t i = 0; i < probes.size(); ++i)
          (void)identifier.Identify(probes.fingerprints[i], probes.fixed[i]);
    };
    std::vector<double> ratios;  // pooled time / unpooled time
    std::vector<double> unpooled_secs;
    const auto timed = [&](sentinel::util::ThreadPool* attached) {
      identifier.set_thread_pool(attached);
      const auto t0 = Clock::now();
      run_looped();
      return std::chrono::duration<double>(Clock::now() - t0).count();
    };
    run_looped();  // warmup
    for (std::size_t pair = 0; pair < 65; ++pair) {
      double unpooled = 0.0;
      double pooled = 0.0;
      if (pair % 2 == 0) {
        unpooled = timed(nullptr);
        pooled = timed(&pool);
      } else {
        pooled = timed(&pool);
        unpooled = timed(nullptr);
      }
      ratios.push_back(pooled / unpooled);
      unpooled_secs.push_back(unpooled);
    }
    identifier.set_thread_pool(nullptr);
    std::nth_element(ratios.begin(), ratios.begin() + ratios.size() / 2,
                     ratios.end());
    const double median_ratio = ratios[ratios.size() / 2];
    const auto looped_probes = static_cast<double>(probes.size() * loops);
    mt_1t_ips = looped_probes / *std::min_element(unpooled_secs.begin(),
                                                  unpooled_secs.end());
    mt_8t_ips = mt_1t_ips / median_ratio;
    std::printf(
        "mt dispatch (31 types): 1t %.0f id/s, 8t %.0f id/s, 8t/1t %.2fx "
        "(per-call stays on the caller: ~1.0x expected)\n",
        mt_1t_ips, mt_8t_ips, mt_8t_ips / mt_1t_ips);
    // One-sided floor only: if an attached pool costs more than ~60% of
    // per-call throughput, per-call work has started fanning out (oversized
    // tasks, lock churn, lost wakeups).
    SENTINEL_CHECK(mt_8t_ips >= 0.4 * mt_1t_ips)
        << "pooled per-call dispatch at " << mt_8t_ips / mt_1t_ips
        << "x single-threaded (floor: 0.4x)";
  }

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    SENTINEL_CHECK(f != nullptr) << "cannot write " << json_path;
    std::fprintf(f, "{\n  \"bench\": \"throughput_identify\",\n");
    std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
    std::fprintf(f, "  \"unit\": \"identifications_per_second\",\n");
    std::fprintf(f, "  \"banks\": [\n");
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const auto& row = rows[r];
      std::fprintf(
          f,
          "    {\"types\": %zu, \"probes\": %zu, \"reference_1t\": %.1f, "
          "\"fast_1t\": %.1f, \"fast_8t\": %.1f, \"batch_1t\": %.1f, "
          "\"batch_8t\": %.1f, \"speedup_fast_1t\": %.2f}%s\n",
          row.types, row.probes, row.reference_1t, row.fast_1t, row.fast_8t,
          row.batch_1t, row.batch_8t, row.fast_1t / row.reference_1t,
          r + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(
        f,
        "  \"quality_monitor\": {\"types\": 31, \"detached_1t\": %.1f, "
        "\"attached_1t\": %.1f, \"overhead_pct\": %.2f},\n",
        quality_off_ips, quality_on_ips,
        100.0 * (1.0 - quality_on_ips / quality_off_ips));
    std::fprintf(
        f,
        "  \"profiler\": {\"types\": 31, \"detached_1t\": %.1f, "
        "\"attached_1t\": %.1f, \"overhead_pct\": %.2f},\n",
        profiler_off_ips, profiler_on_ips,
        100.0 * (1.0 - profiler_on_ips / profiler_off_ips));
    std::fprintf(
        f,
        "  \"mt_dispatch\": {\"types\": 31, \"fast_1t\": %.1f, "
        "\"fast_8t\": %.1f, \"ratio_8t_over_1t\": %.2f, \"floor\": 0.4, "
        "\"note\": \"per-call Identify stays on the calling thread with a "
        "pool attached, so 8t ~= 1t on any core count; the floor bounds "
        "what attaching the pool costs; batch_8t is the parallel path\"},\n",
        mt_1t_ips, mt_8t_ips, mt_8t_ips / mt_1t_ips);
    std::fprintf(f, "  \"observability\": %s\n",
                 session.ObservabilityJson().c_str());
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  sentinel::bench::Footer();
  return 0;
}
