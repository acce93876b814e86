// Model-quality monitor: turns each identification verdict into per-type
// quality signals (accept-score margin top-1 vs top-2, tie-break frequency,
// unknown/reject rate, edit-distance tie-break score distributions) and
// runs a deterministic drift detector over them.
//
// Drift detection is the population-stability index between a *pinned
// baseline* and the live window of each type's quality distributions:
//
//   PSI = sum_i (p_i - q_i) * ln(p_i / q_i)
//
// where q is the bucket distribution observed up to the moment
// PinBaseline() was called and p is the distribution of everything observed
// since (both epsilon-floored before normalizing). Each type's reported
// PSI is the max over its two channels — the accept-margin histogram and
// the tie-break dissimilarity histogram. Both matter: a traffic-shape
// change (new firmware) often leaves the random-forest feature votes
// intact while blowing up the edit distance, so the margin channel alone
// is blind to it; a classifier-confusion regression moves margins while
// distances stay put. The inputs are plain bucket counts of deterministic
// verdict quantities, so for a fixed probe stream the PSI trajectory is
// bit-reproducible across runs and thread counts. Conventional reading:
// < 0.1 stable, 0.1-0.25 moderate shift, > 0.25 drifted.
//
// The monitor is pure read-side instrumentation: it only consumes finished
// IdentificationResults and never feeds anything back into the identifier,
// so verdicts and serialized model bytes are bit-identical with a monitor
// attached or not.
//
// Record() runs once per verdict on the identification hot path, so it
// writes per-thread cells: each recording thread owns one shard holding
// the bank-wide cells and, allocated on its first sample of each bound
// type, that type's cells. Only the owner writes a shard, with plain
// relaxed load/store pairs instead of read-modify-writes, so a verdict
// costs a few uncontended stores; readers sum every shard. Counts are
// therefore exact once the recording threads are done, and a single
// recording thread yields the same sums, bit for bit, as one shared
// accumulator would.
//
// All instruments register in the provided MetricsRegistry under
// `sentinel_quality_*` as read-computed views over the shards (through
// MetricsRegistry::Adopt*, so one registry hosts at most one monitor; the
// views keep the shards alive after the monitor is gone); per-type series
// carry an inline Prometheus label (`sentinel_quality_psi{type="3"}`),
// which also makes them samplable by the TimeSeriesStore and alertable by
// the AlertEngine for free.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace sentinel::obs {

struct QualityMonitorConfig {
  /// Bucket bounds for the accept-margin histograms (margins live in
  /// [-1, 1]; negative only when the bank is empty). Empty = default grid
  /// of 0.05-wide buckets over [0, 1]. At most 31 bounds.
  std::vector<double> margin_bounds;
  /// Bucket bounds for the tie-break dissimilarity histograms (scores live
  /// in [0, 5]). Empty = default grid of 0.25-wide buckets. At most 31
  /// bounds.
  std::vector<double> dissimilarity_bounds;
  /// Additive floor applied to each bucket probability before the PSI log
  /// ratio, so empty buckets cannot produce infinities.
  double psi_epsilon = 1e-4;
  /// A channel's live window must hold at least this many observations
  /// before UpdateDrift() computes a PSI for it (it reports 0 until then).
  /// PSI is very noisy on thin live windows — a ~10%-mass bucket has a
  /// ~20% chance of being entirely absent from 16 samples, which alone
  /// reads as PSI ~0.6 — so this floor is what keeps a handful of early
  /// probes from faking a drift signal.
  std::uint64_t min_window_observations = 32;
};

/// One identification verdict, reduced to the quality plane's inputs.
struct QualitySample {
  /// Label the probe keyed to: the verdict type when known, else the
  /// bank's top-probability label (-1 when the bank is empty).
  int top_label = -1;
  double top1_probability = 0.0;
  double top2_probability = 0.0;
  bool unknown = false;
  bool multi_match = false;
  std::uint64_t tie_break_count = 0;
  /// Winning (lowest) dissimilarity score; NaN when discrimination did not
  /// run.
  double best_dissimilarity = 0.0;
};

class QualityMonitor {
 public:
  /// Labels at or above this bound are never bound to a per-type slot
  /// (the catalog's type ids are 0..26).
  static constexpr int kMaxLabel = 1024;

  /// `registry` must outlive the monitor; all quality series register
  /// there.
  explicit QualityMonitor(MetricsRegistry* registry,
                          QualityMonitorConfig config = {});

  /// Publishes the per-type slot index for `labels` (the identifier's
  /// trained label list). Called by DeviceIdentifier on attach and after
  /// every Train()/AddType(); idempotent, and previously bound labels keep
  /// their accumulated state. Samples for labels not (yet) bound count
  /// only toward the global totals, and so do labels outside
  /// [0, kMaxLabel), which are never bound.
  void BindTypes(const std::vector<int>& labels);

  /// Records one verdict into the calling thread's shard. Lock-free (the
  /// thread's first sample links its shard with one compare-exchange);
  /// safe from concurrent identification threads.
  void Record(const QualitySample& sample);

  /// Records a gateway-level assessment outcome (SentinelModule verdicts,
  /// post enforcement mapping).
  void RecordAssessmentOutcome(bool known);

  /// Pins the current per-type margin and dissimilarity histograms as the
  /// PSI baseline. Everything observed afterwards forms the live window.
  void PinBaseline();
  [[nodiscard]] bool baseline_pinned() const;

  /// Recomputes each bound type's PSI (max over the margin and
  /// dissimilarity channels) from its pinned baseline and updates the
  /// `sentinel_quality_psi{type=...}` gauges. No-op before PinBaseline().
  void UpdateDrift();

  /// Last computed PSI for `label`; 0 before UpdateDrift() or for unbound
  /// labels.
  [[nodiscard]] double Psi(int label) const;

  /// {"totals": {...}, "baseline_pinned": b, "types": {"3": {...}, ...}}.
  [[nodiscard]] std::string RenderJson() const;

 private:
  /// Capacity of a histogram channel: bounds + the +Inf bucket.
  static constexpr std::size_t kMaxBuckets = 32;
  /// Reader scope of the bank-wide cells (type scopes are labels).
  static constexpr int kTotals = -1;

  /// One scope's cells in one thread's shard: the bank-wide series, or one
  /// bound type's (where `unknown` counts rejected probes, and multi_match
  /// and the dissimilarity cells stay zero in the totals). The counts and
  /// sums a verdict writes share the first cache line.
  struct alignas(64) Cells {
    // ordering: relaxed (every cell) — written only by the shard's thread,
    // read by scrapers summing the shards; each cell is an independent
    // monotonic accumulator.
    std::atomic<std::uint64_t> identifications{0};
    std::atomic<std::uint64_t> unknown{0};
    std::atomic<std::uint64_t> multi_match{0};
    std::atomic<std::uint64_t> tiebreaks{0};
    std::atomic<double> margin_sum{0.0};
    std::atomic<double> margin_sum_squares{0.0};
    std::atomic<double> dissimilarity_sum{0.0};
    std::atomic<double> dissimilarity_sum_squares{0.0};
    std::atomic<std::uint64_t> margin_buckets[kMaxBuckets] = {};
    std::atomic<std::uint64_t> dissimilarity_buckets[kMaxBuckets] = {};
  };

  /// One of Cells' counts, picked out for a reader.
  using CountField = std::atomic<std::uint64_t> Cells::*;
  /// Which histogram of Cells a reader sums.
  enum class Channel { kMargin, kDissimilarity };

  /// One recording thread's cells; only that thread writes them.
  struct Shard {
    explicit Shard(std::uint64_t owner_token) : owner(owner_token) {}
    ~Shard();
    Shard(const Shard&) = delete;
    Shard& operator=(const Shard&) = delete;

    /// The cells of scope `label` (kTotals or a bound label); null for a
    /// type this shard's thread never recorded.
    const Cells* Scope(int label) const {
      return label == kTotals ? &totals
                              : types[label].load(std::memory_order_acquire);
    }

    const std::uint64_t owner;  // the recording thread's token
    Shard* next = nullptr;      // set before the shard is published
    Cells totals;
    // ordering: release when the owner allocates a type's cells / acquire
    // in readers — the cells are zeroed before their pointer is seen.
    std::atomic<Cells*> types[kMaxLabel] = {};
  };

  /// Every shard of one monitor. The registry's views share it, so a scrape
  /// after the monitor is gone still reads every series it recorded.
  struct Store {
    Store();
    ~Store();
    Store(const Store&) = delete;
    Store& operator=(const Store&) = delete;

    /// The calling thread's shard, published on its first sample.
    Shard& Local();
    /// `field` of scope `label` (kTotals or a bound label), summed over
    /// every shard.
    [[nodiscard]] std::uint64_t Sum(CountField field, int label) const;
    /// Histogram `channel` of scope `label`, added into a histogram view's
    /// accumulators (Histogram::Reader).
    void AddChannel(Channel channel, int label,
                    std::span<std::uint64_t> buckets, double& sum,
                    double& sum_squares) const;

    /// Distinct for every store ever made, so a thread's cached shard
    /// never outlives its store's identity.
    const std::uint64_t id;
    // ordering: release on publish (a shard is built and linked before it
    // is seen) / acquire on traversal.
    std::atomic<Shard*> head{nullptr};
  };

  /// One bound type: its histogram views and the drift state. Record()
  /// only checks that the slot exists.
  struct TypeSlot {
    int label = 0;
    Histogram* margin_view = nullptr;
    Histogram* dissimilarity_view = nullptr;
    Gauge* psi_gauge = nullptr;
    /// Cumulative bucket counts of each channel at PinBaseline() time.
    Histogram::Snapshot baseline_margin;
    Histogram::Snapshot baseline_dissimilarity;
    bool has_baseline = false;
    // ordering: relaxed — last-computed PSI sample read by scrapers; the
    // mutex serializes the writers (UpdateDrift), readers take any recent
    // value.
    std::atomic<double> psi{0.0};
  };

  TypeSlot* FindSlot(int label) const {
    if (label < 0 || label >= kMaxLabel) return nullptr;
    return slots_by_label_[label].load(std::memory_order_acquire);
  }

  /// Registers a read-computed counter / histogram view over the store.
  void AdoptCount(const std::string& name, const char* help, CountField field,
                  int label);
  Histogram* AdoptChannel(const std::string& name, const char* help,
                          const std::vector<double>& bounds, Channel channel,
                          int label);

  MetricsRegistry* const registry_;
  const QualityMonitorConfig config_;
  // Sorted bucket bounds of the two channels (the config's, or the
  // default grids).
  const std::vector<double> margin_bounds_;
  const std::vector<double> dissimilarity_bounds_;

  const std::shared_ptr<Store> store_;
  Counter* assessments_total_;
  Counter* assessments_unknown_total_;

  // guards slots_/bind+pin, not Record
  mutable Mutex mutex_{"obs.quality"};
  std::vector<std::unique_ptr<TypeSlot>> slots_ SENTINEL_GUARDED_BY(mutex_);
  // ordering: release in BindTypes (a slot is fully built before its
  // pointer is stored) / acquire in FindSlot — Record() reads a bound
  // slot without taking mutex_. Indexed by label, inline in the monitor so
  // the per-verdict lookup is one load at a fixed offset; entries are only
  // ever set, never cleared.
  std::atomic<TypeSlot*> slots_by_label_[kMaxLabel] = {};
  // ordering: relaxed — an idempotent latch flag; writers run under
  // mutex_, readers only branch on it for reporting.
  std::atomic<bool> baseline_pinned_{false};
};

}  // namespace sentinel::obs
