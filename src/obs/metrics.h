// Dependency-free observability substrate: a thread-safe registry of named
// counters, gauges and fixed-bucket latency histograms, exposable as
// Prometheus-style text or JSON.
//
// Design constraints (ROADMAP: "fast as the hardware allows"):
// - Every instrument is lock-free on the hot path (relaxed atomics; the
//   registry mutex guards registration only, and handles returned by
//   Get*() stay valid for the registry's lifetime).
// - Instrumented components hold plain pointers that default to nullptr;
//   with no registry attached the instrumentation reduces to one branch —
//   no clock reads, no allocation — so uninstrumented runs stay
//   bit-identical to pre-instrumentation builds.
// - Exposition renders in deterministic (lexicographic) name order so
//   metric dumps diff cleanly across runs.
//
// Naming scheme (see DESIGN.md "Observability"): `sentinel_<subsystem>_
// <name>` with `_total` for counters and `_ns` for nanosecond histograms.
// Pipeline stages are named once, in the stage table (obs/stage.h): a
// stage's histogram is `<stage name>_ns`, and its StageScope feeds it
// together with the stage's span and profiler frame.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace sentinel::obs {

/// Bucket of `value` under sorted inclusive upper `bounds`: the number of
/// bounds below it, so bounds.size() is the +Inf bucket — the index
/// Histogram::Observe's std::lower_bound finds. A branch-free count, for
/// callers that write cells directly and see unpredictable values (a
/// binary search there mispredicts); latency streams, which cluster in a
/// few buckets, keep the binary search.
inline std::size_t BucketIndex(std::span<const double> bounds, double value) {
  std::size_t index = 0;
  for (const double bound : bounds) index += bound < value ? 1 : 0;
  return index;
}

/// `target += delta` as a relaxed CAS loop, for double-valued cells.
inline void AtomicAdd(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

/// Monotonically increasing event count.
class Counter {
 public:
  Counter() = default;
  /// A read-only view whose value `read` computes on every read, for a
  /// count kept elsewhere (per-thread cells summed on read). Never
  /// Increment() one.
  explicit Counter(std::function<std::uint64_t()> read)
      : read_(std::move(read)) {}

  void Increment(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t Value() const {
    return read_ ? read_() : value_.load(std::memory_order_relaxed);
  }

 private:
  // ordering: relaxed — a monotonic event count; readers want an eventual
  // total, never an ordering edge with other memory.
  std::atomic<std::uint64_t> value_{0};
  std::function<std::uint64_t()> read_;
};

/// Last-value instrument (worker counts, cache sizes, accuracies).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) { AtomicAdd(value_, delta); }
  [[nodiscard]] double Value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  // ordering: relaxed — last-writer-wins sample; no cross-field invariant
  // hangs off it, so no ordering edge is needed.
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram with Prometheus semantics: `bounds` are inclusive
/// upper bounds, plus an implicit +Inf bucket; sum and sum-of-squares are
/// tracked so mean/stdev (the ml::MeanStd the benches print) derive
/// directly from the exposition data. The count is the bucket total, so an
/// observation is three relaxed read-modify-writes.
class Histogram {
 public:
  /// Adds a histogram's state into `buckets` (bounds.size() + 1 per-bucket
  /// counts, the last +Inf, not cumulative), `sum` and `sum_squares`.
  using Reader = std::function<void(std::span<std::uint64_t> buckets,
                                    double& sum, double& sum_squares)>;

  explicit Histogram(std::vector<double> bounds);
  /// A read-only view whose state `read` computes on every read, with
  /// `bounds` as given (no default grid). A hot path that feeds several
  /// instruments per event keeps their cells in its own layout (for
  /// example per thread), updates them directly (BucketIndex) and
  /// registers views like this one for the readers
  /// (MetricsRegistry::AdoptHistogram). Never Observe() one.
  Histogram(std::vector<double> bounds, Reader read);

  void Observe(double value);

  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0.0;
    double sum_squares = 0.0;
    /// (upper bound, cumulative count); the final entry is +Inf.
    std::vector<std::pair<double, std::uint64_t>> buckets;

    [[nodiscard]] double Mean() const;
    [[nodiscard]] double Stdev() const;
  };
  [[nodiscard]] Snapshot Read() const;

  [[nodiscard]] std::uint64_t Count() const;

  /// Default bounds for nanosecond latencies: 1 µs .. 10 s, roughly
  /// logarithmic (1-2-5 per decade).
  static const std::vector<double>& DefaultLatencyBoundsNs();

 private:
  std::vector<double> bounds_;
  // ordering: relaxed (all three) — each bucket/aggregate is independently
  // monotonic; Read() tolerates a torn-across-fields snapshot by design
  // (Prometheus scrape semantics), so no acquire/release pairing exists.
  // Unused by a view.
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds + Inf
  std::atomic<double> sum_{0.0};
  std::atomic<double> sum_squares_{0.0};
  Reader read_;
};

/// Thread-safe name -> instrument registry. Get*() registers on first use
/// and returns the same instance on every subsequent call; references stay
/// valid for the registry's lifetime, so components resolve their handles
/// once and touch only atomics afterwards.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& GetCounter(const std::string& name, const std::string& help = "");
  Gauge& GetGauge(const std::string& name, const std::string& help = "");
  Histogram& GetHistogram(const std::string& name,
                          const std::string& help = "",
                          std::vector<double> bounds = {});

  /// Registers an instrument the caller allocated, so that a hot path can
  /// keep several instruments' cells in a few cache lines: the pointer
  /// typically aliases one larger block, which the registry then keeps
  /// alive. `name` must not be registered yet.
  Counter& AdoptCounter(const std::string& name, const std::string& help,
                        std::shared_ptr<Counter> counter);
  Histogram& AdoptHistogram(const std::string& name, const std::string& help,
                            std::shared_ptr<Histogram> histogram);

  /// Enumerates every registered instrument (in lexicographic name order)
  /// under the registry mutex. The references handed to the callbacks stay
  /// valid for the registry's lifetime, so consumers that snapshot
  /// instruments periodically (the time-series store) can cache them and
  /// touch only atomics on later visits. Any callback may be null.
  void VisitInstruments(
      const std::function<void(const std::string&, const Counter&)>& counter_fn,
      const std::function<void(const std::string&, const Gauge&)>& gauge_fn,
      const std::function<void(const std::string&, const Histogram&)>&
          histogram_fn) const;

  /// Prometheus text exposition format, metrics in lexicographic order.
  /// Names may carry an inline label block (`name{key="value"}`); the HELP
  /// and TYPE header lines then use the base name, emitted once per base
  /// even when several labelled series share it.
  [[nodiscard]] std::string RenderPrometheus() const;
  /// JSON object {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  [[nodiscard]] std::string RenderJson() const;
  /// Writes one of the above to `path`; throws std::runtime_error on I/O
  /// failure.
  void WriteFile(const std::string& path, bool json = false) const;

 private:
  template <typename T>
  struct Named {
    std::string help;
    std::shared_ptr<T> value;
  };

  mutable Mutex mutex_{"metrics.registry"};
  std::map<std::string, Named<Counter>> counters_ SENTINEL_GUARDED_BY(mutex_);
  std::map<std::string, Named<Gauge>> gauges_ SENTINEL_GUARDED_BY(mutex_);
  std::map<std::string, Named<Histogram>> histograms_
      SENTINEL_GUARDED_BY(mutex_);
};

/// Process-wide default registry: nullptr (observability off) unless a
/// front end installs one. Components that cannot be handed a registry
/// explicitly (e.g. a ThreadPool constructed inside a bench) consult this
/// at construction time.
MetricsRegistry* DefaultRegistry();
void SetDefaultRegistry(MetricsRegistry* registry);

/// RAII swap of the process-wide default registry: installs `registry` for
/// the scope and restores whatever was installed before, even on early
/// return or exception. The standard way for tests and benches to attach a
/// registry without leaking it into later code.
class ScopedDefaultRegistry {
 public:
  explicit ScopedDefaultRegistry(MetricsRegistry* registry)
      : previous_(DefaultRegistry()) {
    SetDefaultRegistry(registry);
  }
  ~ScopedDefaultRegistry() { SetDefaultRegistry(previous_); }
  ScopedDefaultRegistry(const ScopedDefaultRegistry&) = delete;
  ScopedDefaultRegistry& operator=(const ScopedDefaultRegistry&) = delete;

 private:
  MetricsRegistry* previous_;
};

}  // namespace sentinel::obs
