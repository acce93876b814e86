// Shared formatting helpers for the table/figure reproduction benchmarks.
// Every bench prints the paper's reported numbers next to the measured
// ones so the shape comparison is immediate.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "util/lock_telemetry.h"

namespace sentinel::bench {

inline void Header(const std::string& experiment, const std::string& claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("Paper: %s\n", claim.c_str());
  std::printf("==============================================================\n");
}

inline void Footer() { std::printf("\n"); }

/// Parses argv[1] as a positive integer (e.g. repetition count); returns
/// `fallback` when absent or malformed.
inline std::size_t ArgCount(int argc, char** argv, std::size_t fallback) {
  if (argc < 2) return fallback;
  const long value = std::strtol(argv[1], nullptr, 10);
  return value > 0 ? static_cast<std::size_t>(value) : fallback;
}

/// RAII metrics session for benches. The metrics half is activated by
/// `--metrics-out <file>` on the command line or the SENTINEL_METRICS_OUT
/// environment variable: installs a registry as the process default
/// (thread pools and the instrumented pipeline then report into it) and
/// writes the Prometheus exposition on destruction; without either the
/// registry stays null and bench output is byte-identical. The profiler
/// half is always on — every bench run captures the frame tree of the
/// stage scopes (overhead gated at <=2% by throughput_identify)
/// so the machine-readable baselines can carry an observability summary.
class MetricsSession {
 public:
  MetricsSession(int argc, char** argv) : scoped_profiler_(&profiler_) {
    if (const char* env = std::getenv("SENTINEL_METRICS_OUT")) path_ = env;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc)
        path_ = argv[i + 1];
    }
    if (!path_.empty()) obs::SetDefaultRegistry(&registry_);
  }
  ~MetricsSession() {
    if (path_.empty()) return;
    obs::SetDefaultRegistry(nullptr);
    registry_.WriteFile(path_);
    std::printf("wrote metrics to %s\n", path_.c_str());
  }
  MetricsSession(const MetricsSession&) = delete;
  MetricsSession& operator=(const MetricsSession&) = delete;

  /// The session registry, or nullptr when the session is inactive.
  obs::MetricsRegistry* registry() {
    return path_.empty() ? nullptr : &registry_;
  }

  /// The session profiler (always attached for the session's lifetime).
  obs::Profiler* profiler() { return &profiler_; }

  /// Compact observability summary for the BENCH_*.json baselines: the
  /// top self-time profiler frames (merged across threads and call
  /// paths) plus every lock site that saw contention during the run.
  [[nodiscard]] std::string ObservabilityJson() const {
    std::vector<std::pair<std::string, std::pair<std::uint64_t,
                                                 std::uint64_t>>> frames;
    AccumulateSelf(profiler_.Snapshot(), /*depth=*/0, frames);
    std::sort(frames.begin(), frames.end(), [](const auto& a, const auto& b) {
      return a.second.second > b.second.second;
    });
    if (frames.size() > 8) frames.resize(8);

    std::string out = "{\"profiler\": {\"threads\": " +
                      std::to_string(profiler_.thread_count()) +
                      ", \"dropped_paths\": " +
                      std::to_string(profiler_.dropped_paths()) +
                      ", \"top_self\": [";
    for (std::size_t i = 0; i < frames.size(); ++i) {
      out += i == 0 ? "" : ", ";
      out += "{\"name\": " + obs::JsonQuote(frames[i].first) +
             ", \"count\": " + std::to_string(frames[i].second.first) +
             ", \"self_ns\": " + std::to_string(frames[i].second.second) +
             "}";
    }
    out += "]}, \"locks\": {\"enabled\": ";
    out += LockTelemetryEnabled() ? "true" : "false";
    out += ", \"contended_sites\": [";
    bool first = true;
    for (std::size_t i = 0; i < LockSiteCount(); ++i) {
      const LockSiteStats& site = LockSiteAt(i);
      // ordering: relaxed — monotonic scrape-style counter reads.
      const std::uint64_t contended =
          site.contended.load(std::memory_order_relaxed);
      if (contended == 0) continue;
      out += first ? "" : ", ";
      first = false;
      out += "{\"name\": " + obs::JsonQuote(site.Name()) +
             ", \"acquisitions\": " +
             std::to_string(
                 site.acquisitions.load(std::memory_order_relaxed)) +
             ", \"contended\": " + std::to_string(contended) +
             ", \"wait_ns_total\": " +
             std::to_string(
                 site.wait_ns_total.load(std::memory_order_relaxed)) +
             "}";
    }
    out += "]}}";
    return out;
  }

 private:
  /// Merges `node`'s subtree into `frames` keyed by frame name, summing
  /// count and self time across threads and distinct call paths.
  static void AccumulateSelf(
      const obs::Profiler::Node& node, std::size_t depth,
      std::vector<std::pair<std::string,
                            std::pair<std::uint64_t, std::uint64_t>>>&
          frames) {
    if (depth > 0 && node.self_ns > 0) {
      auto it = std::find_if(frames.begin(), frames.end(), [&](const auto& f) {
        return f.first == node.name;
      });
      if (it == frames.end()) {
        frames.push_back({node.name, {node.count, node.self_ns}});
      } else {
        it->second.first += node.count;
        it->second.second += node.self_ns;
      }
    }
    for (const auto& child : node.children)
      AccumulateSelf(child, depth + 1, frames);
  }

  obs::Profiler profiler_;
  obs::ScopedProfiler scoped_profiler_;  // installs profiler_ while alive
  obs::MetricsRegistry registry_;
  std::string path_;
};

}  // namespace sentinel::bench
