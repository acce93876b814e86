#include "obs/quality.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/json.h"
#include "util/check.h"

namespace sentinel::obs {

namespace {

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::vector<double> DefaultMarginBounds() {
  std::vector<double> bounds;
  for (int i = 1; i <= 20; ++i) bounds.push_back(0.05 * i);
  return bounds;
}

std::vector<double> DefaultDissimilarityBounds() {
  std::vector<double> bounds;
  for (int i = 1; i <= 20; ++i) bounds.push_back(0.25 * i);
  return bounds;
}

/// `bounds` sorted, or `fallback()` when empty.
std::vector<double> SortedBounds(std::vector<double> bounds,
                                 std::vector<double> (*fallback)()) {
  if (bounds.empty()) return fallback();
  std::sort(bounds.begin(), bounds.end());
  return bounds;
}

/// Population stability index between two cumulative bucket vectors with
/// identical bounds: `live` = `current` - `baseline` per bucket.
double ComputePsi(const Histogram::Snapshot& baseline,
                  const Histogram::Snapshot& current, double epsilon) {
  SENTINEL_CHECK(baseline.buckets.size() == current.buckets.size())
      << "PSI inputs disagree on bucket count";
  const std::size_t n = baseline.buckets.size();
  const double base_total = static_cast<double>(baseline.count);
  const double live_total =
      static_cast<double>(current.count - baseline.count);
  if (base_total <= 0.0 || live_total <= 0.0) return 0.0;
  double psi = 0.0;
  std::uint64_t base_prev = 0;
  std::uint64_t cur_prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t base_cum = baseline.buckets[i].second;
    const std::uint64_t cur_cum = current.buckets[i].second;
    const double base_in = static_cast<double>(base_cum - base_prev);
    const double live_in =
        static_cast<double>((cur_cum - cur_prev) - (base_cum - base_prev));
    base_prev = base_cum;
    cur_prev = cur_cum;
    const double q = base_in / base_total + epsilon;
    const double p = live_in / live_total + epsilon;
    psi += (p - q) * std::log(p / q);
  }
  return psi;
}

}  // namespace

QualityMonitor::QualityMonitor(MetricsRegistry* registry,
                               QualityMonitorConfig config)
    : registry_(registry),
      config_(std::move(config)),
      margin_bounds_(SortedBounds(config_.margin_bounds, DefaultMarginBounds)),
      dissimilarity_bounds_(SortedBounds(config_.dissimilarity_bounds,
                                         DefaultDissimilarityBounds)),
      totals_(std::make_shared<Totals>(margin_bounds_)) {
  SENTINEL_CHECK(registry_ != nullptr) << "quality monitor needs a registry";
  SENTINEL_CHECK(margin_bounds_.size() < kMaxBuckets &&
                 dissimilarity_bounds_.size() < kMaxBuckets)
      << "quality histograms take at most " << kMaxBuckets - 1 << " bounds";
  const auto adopt = [&](const char* name, const char* help,
                         Counter* counter) {
    registry_->AdoptCounter(name, help,
                            std::shared_ptr<Counter>(totals_, counter));
  };
  adopt("sentinel_quality_identifications_total",
        "verdicts observed by the quality monitor",
        &totals_->identifications);
  adopt("sentinel_quality_unknown_total",
        "verdicts reported as new/unknown device-types", &totals_->unknown);
  adopt("sentinel_quality_multi_match_total",
        "verdicts with more than one accepting classifier",
        &totals_->multi_match);
  adopt("sentinel_quality_tiebreak_total",
        "equal-dissimilarity tie-break coin flips observed",
        &totals_->tiebreaks);
  registry_->AdoptHistogram(
      "sentinel_quality_margin", "top-1 vs top-2 accept-probability margin",
      std::shared_ptr<Histogram>(totals_, &totals_->margin_view));
  assessments_total_ = &registry_->GetCounter(
      "sentinel_quality_assessments_total",
      "gateway assessment outcomes observed");
  assessments_unknown_total_ = &registry_->GetCounter(
      "sentinel_quality_assessments_unknown_total",
      "gateway assessments that isolated an unknown device");
}

void QualityMonitor::BindTypes(const std::vector<int>& labels) {
  MutexLock lock(mutex_);
  for (const int label : labels) {
    if (label < 0 || label >= kMaxLabel) continue;  // totals only
    if (FindSlot(label) != nullptr) continue;        // already bound
    auto slot = std::shared_ptr<TypeSlot>(
        new TypeSlot(label, margin_bounds_, dissimilarity_bounds_));
    const std::string tag = "{type=\"" + std::to_string(label) + "\"}";
    registry_->AdoptCounter(
        "sentinel_quality_identifications_total" + tag,
        "verdicts observed by the quality monitor",
        std::shared_ptr<Counter>(slot, &slot->identifications));
    registry_->AdoptCounter(
        "sentinel_quality_rejected_total" + tag,
        "probes keyed to a type but still rejected as unknown",
        std::shared_ptr<Counter>(slot, &slot->rejected));
    registry_->AdoptCounter(
        "sentinel_quality_tiebreak_total" + tag,
        "equal-dissimilarity tie-break coin flips observed",
        std::shared_ptr<Counter>(slot, &slot->tiebreaks));
    registry_->AdoptHistogram(
        "sentinel_quality_margin" + tag,
        "top-1 vs top-2 accept-probability margin",
        std::shared_ptr<Histogram>(slot, &slot->margin_view));
    registry_->AdoptHistogram(
        "sentinel_quality_dissimilarity" + tag,
        "winning tie-break dissimilarity score",
        std::shared_ptr<Histogram>(slot, &slot->dissimilarity_view));
    slot->psi_gauge = &registry_->GetGauge(
        "sentinel_quality_psi" + tag,
        "population stability index (max over the margin and dissimilarity "
        "channels) vs the pinned baseline");
    // A baseline pinned before this type existed: pin the new slot at its
    // (empty) current state so UpdateDrift treats everything it ever
    // observes as live window.
    if (baseline_pinned_.load(std::memory_order_relaxed)) {
      slot->baseline_margin = slot->margin_view.Read();
      slot->baseline_dissimilarity = slot->dissimilarity_view.Read();
      slot->has_baseline = true;
    }
    slots_by_label_[label].store(slot.get(), std::memory_order_release);
    slots_.push_back(std::move(slot));
  }
}

void QualityMonitor::Record(const QualitySample& sample) {
  const double margin = sample.top1_probability - sample.top2_probability;
  // Both margin channels share the bounds, so one bucket lookup serves
  // the bank-wide and the per-type histogram.
  const std::size_t margin_bucket = BucketIndex(margin_bounds_, margin);
  Totals& totals = *totals_;
  totals.identifications.Increment();
  if (sample.unknown) totals.unknown.Increment();
  if (sample.multi_match) totals.multi_match.Increment();
  if (sample.tie_break_count > 0)
    totals.tiebreaks.Increment(sample.tie_break_count);
  totals.margin.Observe(margin_bucket, margin);
  TypeSlot* slot = FindSlot(sample.top_label);
  if (slot == nullptr) return;
  slot->identifications.Increment();
  if (sample.unknown) slot->rejected.Increment();
  if (sample.tie_break_count > 0)
    slot->tiebreaks.Increment(sample.tie_break_count);
  slot->margin.Observe(margin_bucket, margin);
  if (!std::isnan(sample.best_dissimilarity)) {
    slot->dissimilarity.Observe(
        BucketIndex(dissimilarity_bounds_, sample.best_dissimilarity),
        sample.best_dissimilarity);
  }
}

void QualityMonitor::RecordAssessmentOutcome(bool known) {
  assessments_total_->Increment();
  if (!known) assessments_unknown_total_->Increment();
}

void QualityMonitor::PinBaseline() {
  MutexLock lock(mutex_);
  for (const auto& slot : slots_) {
    slot->baseline_margin = slot->margin_view.Read();
    slot->baseline_dissimilarity = slot->dissimilarity_view.Read();
    slot->has_baseline = true;
    slot->psi.store(0.0, std::memory_order_relaxed);
    slot->psi_gauge->Set(0.0);
  }
  baseline_pinned_.store(true, std::memory_order_release);
}

bool QualityMonitor::baseline_pinned() const {
  return baseline_pinned_.load(std::memory_order_acquire);
}

void QualityMonitor::UpdateDrift() {
  MutexLock lock(mutex_);
  for (const auto& slot : slots_) {
    if (!slot->has_baseline) continue;
    const auto channel_psi = [&](const Histogram& live,
                                 const Histogram::Snapshot& baseline) {
      const Histogram::Snapshot current = live.Read();
      const std::uint64_t observed = current.count - baseline.count;
      return observed < config_.min_window_observations
                 ? 0.0
                 : ComputePsi(baseline, current, config_.psi_epsilon);
    };
    const double psi =
        std::max(channel_psi(slot->margin_view, slot->baseline_margin),
                 channel_psi(slot->dissimilarity_view,
                             slot->baseline_dissimilarity));
    slot->psi.store(psi, std::memory_order_relaxed);
    slot->psi_gauge->Set(psi);
  }
}

double QualityMonitor::Psi(int label) const {
  const TypeSlot* slot = FindSlot(label);
  return slot == nullptr ? 0.0 : slot->psi.load(std::memory_order_relaxed);
}

std::string QualityMonitor::RenderJson() const {
  MutexLock lock(mutex_);
  std::string out = "{\n  \"totals\": {";
  const Totals& totals = *totals_;
  out += "\n    \"identifications\": " +
         std::to_string(totals.identifications.Value());
  out += ",\n    \"unknown\": " + std::to_string(totals.unknown.Value());
  out += ",\n    \"multi_match\": " +
         std::to_string(totals.multi_match.Value());
  out += ",\n    \"tiebreaks\": " + std::to_string(totals.tiebreaks.Value());
  out +=
      ",\n    \"assessments\": " + std::to_string(assessments_total_->Value());
  out += ",\n    \"assessments_unknown\": " +
         std::to_string(assessments_unknown_total_->Value());
  const std::uint64_t total = totals.identifications.Value();
  const double unknown_ratio =
      total == 0 ? 0.0
                 : static_cast<double>(totals.unknown.Value()) /
                       static_cast<double>(total);
  out += ",\n    \"unknown_ratio\": " + FormatDouble(unknown_ratio);
  out += "\n  },\n  \"baseline_pinned\": ";
  out += baseline_pinned_.load(std::memory_order_relaxed) ? "true" : "false";
  out += ",\n  \"types\": {";
  bool first = true;
  for (const auto& slot : slots_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonEscaped(out, std::to_string(slot->label));
    const Histogram::Snapshot margin = slot->margin_view.Read();
    const Histogram::Snapshot dissimilarity = slot->dissimilarity_view.Read();
    out += ": {\"identifications\": " +
           std::to_string(slot->identifications.Value()) +
           ", \"rejected\": " + std::to_string(slot->rejected.Value()) +
           ", \"tiebreaks\": " + std::to_string(slot->tiebreaks.Value()) +
           ", \"margin_mean\": " + FormatDouble(margin.Mean()) +
           ", \"margin_count\": " + std::to_string(margin.count) +
           ", \"dissimilarity_mean\": " + FormatDouble(dissimilarity.Mean()) +
           ", \"baseline_count\": " +
           std::to_string(slot->has_baseline ? slot->baseline_margin.count
                                             : 0) +
           ", \"psi\": " +
           FormatDouble(slot->psi.load(std::memory_order_relaxed)) + "}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

}  // namespace sentinel::obs
