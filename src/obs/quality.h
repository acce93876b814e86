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
// attached or not. Record() touches only atomics after an acquire-load of
// the type's slot pointer, making it safe from concurrent IdentifyBatch
// workers.
//
// Record() runs once per verdict on the identification hot path, so the
// cells it writes are packed: the bank-wide series share one block, and
// each type's counters and histogram cells sit in consecutive cache lines
// of its slot, found by one load from a label-indexed table inside the
// monitor. A verdict therefore touches a header line and the bucket lines
// its values land in.
//
// All instruments register in the provided MetricsRegistry under
// `sentinel_quality_*` (the packed cells through MetricsRegistry::Adopt*,
// so one registry hosts at most one monitor); per-type series carry an
// inline Prometheus label (`sentinel_quality_psi{type="3"}`), which also
// makes them samplable by the TimeSeriesStore and alertable by the
// AlertEngine for free.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
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

  /// Records one verdict. Lock-free (atomics only); safe from concurrent
  /// identification threads.
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
  /// Capacity of a packed histogram channel: bounds + the +Inf bucket.
  static constexpr std::size_t kMaxBuckets = 32;

  /// One histogram's cells, inline. Record() computes the bucket once per
  /// value and updates them directly; a Histogram view over cells() is what
  /// the registry reads.
  struct Channel {
    // ordering: relaxed (sums and buckets) — independent monotonic
    // accumulators, read like any histogram's cells (Histogram::Read).
    std::atomic<double> sum{0.0};
    std::atomic<double> sum_squares{0.0};
    std::atomic<std::uint64_t> buckets[kMaxBuckets] = {};

    void Observe(std::size_t bucket, double value) {
      buckets[bucket].fetch_add(1, std::memory_order_relaxed);
      AtomicAdd(sum, value);
      AtomicAdd(sum_squares, value * value);
    }
    Histogram::Cells cells() { return {buckets, &sum, &sum_squares}; }
  };

  /// The bank-wide series: Record() writes the counters and the margin
  /// cells of every verdict in this one block.
  struct alignas(64) Totals {
    explicit Totals(const std::vector<double>& margin_bounds)
        : margin_view(margin_bounds, margin.cells()) {}

    Counter identifications;
    Counter unknown;
    Counter multi_match;
    Counter tiebreaks;
    Channel margin;
    Histogram margin_view;
  };

  /// One bound type. Record() writes only the leading counters and
  /// channels; the rest is read-side state.
  struct alignas(64) TypeSlot {
    TypeSlot(int slot_label, const std::vector<double>& margin_bounds,
             const std::vector<double>& dissimilarity_bounds)
        : label(slot_label),
          margin_view(margin_bounds, margin.cells()),
          dissimilarity_view(dissimilarity_bounds, dissimilarity.cells()) {}

    Counter identifications;  // probes keyed to this type
    Counter rejected;         // ... that were still rejected
    Counter tiebreaks;
    Channel margin;
    Channel dissimilarity;

    int label = 0;
    Histogram margin_view;
    Histogram dissimilarity_view;
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

  MetricsRegistry* const registry_;
  const QualityMonitorConfig config_;
  // Sorted bucket bounds of the two channels (the config's, or the
  // default grids).
  const std::vector<double> margin_bounds_;
  const std::vector<double> dissimilarity_bounds_;

  // Shared with the registry, which holds the adopted instruments in it.
  const std::shared_ptr<Totals> totals_;
  Counter* assessments_total_;
  Counter* assessments_unknown_total_;

  // guards slots_/bind+pin, not Record
  mutable Mutex mutex_{"obs.quality"};
  // Shared with the registry, like totals_.
  std::vector<std::shared_ptr<TypeSlot>> slots_ SENTINEL_GUARDED_BY(mutex_);
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
