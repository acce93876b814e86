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

/// A single-writer add: a relaxed load and store, no read-modify-write.
template <typename T>
void Add(std::atomic<T>& cell, T delta) {
  cell.store(cell.load(std::memory_order_relaxed) + delta,
             std::memory_order_relaxed);
}

// ordering: relaxed — a unique-id dispenser; ids carry no data.
std::atomic<std::uint64_t> next_id{1};

std::uint64_t NextId() {
  return next_id.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

QualityMonitor::Shard::~Shard() {
  for (auto& cells : types) delete cells.load(std::memory_order_relaxed);
}

QualityMonitor::Store::Store() : id(NextId()) {}

QualityMonitor::Store::~Store() {
  for (Shard* shard = head.load(std::memory_order_acquire); shard != nullptr;) {
    Shard* next = shard->next;
    delete shard;
    shard = next;
  }
}

QualityMonitor::Shard& QualityMonitor::Store::Local() {
  // Tokens, like store ids, are never reused, so a cached shard is this
  // thread's and this store's.
  thread_local const std::uint64_t token = NextId();
  thread_local std::uint64_t cached_store = 0;
  thread_local Shard* cached_shard = nullptr;
  if (cached_store == id) return *cached_shard;
  Shard* shard = head.load(std::memory_order_acquire);
  while (shard != nullptr && shard->owner != token) shard = shard->next;
  if (shard == nullptr) {
    shard = new Shard(token);
    shard->next = head.load(std::memory_order_relaxed);
    while (!head.compare_exchange_weak(shard->next, shard,
                                       std::memory_order_release,
                                       std::memory_order_relaxed)) {
    }
  }
  cached_store = id;
  cached_shard = shard;
  return *shard;
}

std::uint64_t QualityMonitor::Store::Sum(CountField field, int label) const {
  std::uint64_t total = 0;
  for (const Shard* shard = head.load(std::memory_order_acquire);
       shard != nullptr; shard = shard->next) {
    const Cells* cells = shard->Scope(label);
    if (cells != nullptr)
      total += (cells->*field).load(std::memory_order_relaxed);
  }
  return total;
}

void QualityMonitor::Store::AddChannel(Channel channel, int label,
                                       std::span<std::uint64_t> buckets,
                                       double& sum, double& sum_squares) const {
  const bool margin = channel == Channel::kMargin;
  for (const Shard* shard = head.load(std::memory_order_acquire);
       shard != nullptr; shard = shard->next) {
    const Cells* cells = shard->Scope(label);
    if (cells == nullptr) continue;
    const auto* cell_buckets =
        margin ? cells->margin_buckets : cells->dissimilarity_buckets;
    for (std::size_t i = 0; i < buckets.size(); ++i)
      buckets[i] += cell_buckets[i].load(std::memory_order_relaxed);
    sum += (margin ? cells->margin_sum : cells->dissimilarity_sum)
               .load(std::memory_order_relaxed);
    sum_squares +=
        (margin ? cells->margin_sum_squares : cells->dissimilarity_sum_squares)
            .load(std::memory_order_relaxed);
  }
}

QualityMonitor::QualityMonitor(MetricsRegistry* registry,
                               QualityMonitorConfig config)
    : registry_(registry),
      config_(std::move(config)),
      margin_bounds_(SortedBounds(config_.margin_bounds, DefaultMarginBounds)),
      dissimilarity_bounds_(SortedBounds(config_.dissimilarity_bounds,
                                         DefaultDissimilarityBounds)),
      store_(std::make_shared<Store>()) {
  SENTINEL_CHECK(registry_ != nullptr) << "quality monitor needs a registry";
  SENTINEL_CHECK(margin_bounds_.size() < kMaxBuckets &&
                 dissimilarity_bounds_.size() < kMaxBuckets)
      << "quality histograms take at most " << kMaxBuckets - 1 << " bounds";
  AdoptCount("sentinel_quality_identifications_total",
             "verdicts observed by the quality monitor",
             &Cells::identifications, kTotals);
  AdoptCount("sentinel_quality_unknown_total",
             "verdicts reported as new/unknown device-types", &Cells::unknown,
             kTotals);
  AdoptCount("sentinel_quality_multi_match_total",
             "verdicts with more than one accepting classifier",
             &Cells::multi_match, kTotals);
  AdoptCount("sentinel_quality_tiebreak_total",
             "equal-dissimilarity tie-break coin flips observed",
             &Cells::tiebreaks, kTotals);
  AdoptChannel("sentinel_quality_margin",
               "top-1 vs top-2 accept-probability margin", margin_bounds_,
               Channel::kMargin, kTotals);
  assessments_total_ = &registry_->GetCounter(
      "sentinel_quality_assessments_total",
      "gateway assessment outcomes observed");
  assessments_unknown_total_ = &registry_->GetCounter(
      "sentinel_quality_assessments_unknown_total",
      "gateway assessments that isolated an unknown device");
}

void QualityMonitor::AdoptCount(const std::string& name, const char* help,
                                CountField field, int label) {
  registry_->AdoptCounter(
      name, help,
      std::make_shared<Counter>(
          [store = std::shared_ptr<const Store>(store_), field, label] {
            return store->Sum(field, label);
          }));
}

Histogram* QualityMonitor::AdoptChannel(const std::string& name,
                                        const char* help,
                                        const std::vector<double>& bounds,
                                        Channel channel, int label) {
  return &registry_->AdoptHistogram(
      name, help,
      std::make_shared<Histogram>(
          bounds, [store = std::shared_ptr<const Store>(store_), channel,
                   label](std::span<std::uint64_t> buckets, double& sum,
                          double& sum_squares) {
            store->AddChannel(channel, label, buckets, sum, sum_squares);
          }));
}

void QualityMonitor::BindTypes(const std::vector<int>& labels) {
  MutexLock lock(mutex_);
  for (const int label : labels) {
    if (label < 0 || label >= kMaxLabel) continue;  // totals only
    if (FindSlot(label) != nullptr) continue;        // already bound
    auto slot = std::make_unique<TypeSlot>();
    slot->label = label;
    const std::string tag = "{type=\"" + std::to_string(label) + "\"}";
    AdoptCount("sentinel_quality_identifications_total" + tag,
               "verdicts observed by the quality monitor",
               &Cells::identifications, label);
    AdoptCount("sentinel_quality_rejected_total" + tag,
               "probes keyed to a type but still rejected as unknown",
               &Cells::unknown, label);
    AdoptCount("sentinel_quality_tiebreak_total" + tag,
               "equal-dissimilarity tie-break coin flips observed",
               &Cells::tiebreaks, label);
    slot->margin_view = AdoptChannel(
        "sentinel_quality_margin" + tag,
        "top-1 vs top-2 accept-probability margin", margin_bounds_,
        Channel::kMargin, label);
    slot->dissimilarity_view = AdoptChannel(
        "sentinel_quality_dissimilarity" + tag,
        "winning tie-break dissimilarity score", dissimilarity_bounds_,
        Channel::kDissimilarity, label);
    slot->psi_gauge = &registry_->GetGauge(
        "sentinel_quality_psi" + tag,
        "population stability index (max over the margin and dissimilarity "
        "channels) vs the pinned baseline");
    // A baseline pinned before this type existed: pin the new slot at its
    // (empty) current state so UpdateDrift treats everything it ever
    // observes as live window.
    if (baseline_pinned_.load(std::memory_order_relaxed)) {
      slot->baseline_margin = slot->margin_view->Read();
      slot->baseline_dissimilarity = slot->dissimilarity_view->Read();
      slot->has_baseline = true;
    }
    slots_by_label_[label].store(slot.get(), std::memory_order_release);
    slots_.push_back(std::move(slot));
  }
}

void QualityMonitor::Record(const QualitySample& sample) {
  const double margin = sample.top1_probability - sample.top2_probability;
  // Both margin histograms share the bounds, so one bucket lookup serves
  // the bank-wide and the per-type one. The flags are added as 0 or 1:
  // with one writer per cell an unconditional store is cheaper than a
  // mispredicted branch.
  const std::size_t margin_bucket = BucketIndex(margin_bounds_, margin);
  const auto record = [&](Cells& cells) {
    Add(cells.identifications, std::uint64_t{1});
    Add(cells.unknown, std::uint64_t{sample.unknown});
    Add(cells.tiebreaks, sample.tie_break_count);
    Add(cells.margin_buckets[margin_bucket], std::uint64_t{1});
    Add(cells.margin_sum, margin);
    Add(cells.margin_sum_squares, margin * margin);
  };
  Shard& shard = store_->Local();
  record(shard.totals);
  Add(shard.totals.multi_match, std::uint64_t{sample.multi_match});
  const int label = sample.top_label;
  if (label < 0 || label >= kMaxLabel) return;
  // The owner is the only writer of its pointers, so its own relaxed load
  // sees its last store.
  Cells* cells = shard.types[label].load(std::memory_order_relaxed);
  if (cells == nullptr) {
    if (FindSlot(label) == nullptr) return;  // unbound: totals only
    cells = new Cells();
    shard.types[label].store(cells, std::memory_order_release);
  }
  record(*cells);
  const double dissimilarity = sample.best_dissimilarity;
  if (!std::isnan(dissimilarity)) {
    Add(cells->dissimilarity_buckets[BucketIndex(dissimilarity_bounds_,
                                                 dissimilarity)],
        std::uint64_t{1});
    Add(cells->dissimilarity_sum, dissimilarity);
    Add(cells->dissimilarity_sum_squares, dissimilarity * dissimilarity);
  }
}

void QualityMonitor::RecordAssessmentOutcome(bool known) {
  assessments_total_->Increment();
  if (!known) assessments_unknown_total_->Increment();
}

void QualityMonitor::PinBaseline() {
  MutexLock lock(mutex_);
  for (const auto& slot : slots_) {
    slot->baseline_margin = slot->margin_view->Read();
    slot->baseline_dissimilarity = slot->dissimilarity_view->Read();
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
        std::max(channel_psi(*slot->margin_view, slot->baseline_margin),
                 channel_psi(*slot->dissimilarity_view,
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
  const std::uint64_t total = store_->Sum(&Cells::identifications, kTotals);
  const std::uint64_t unknown = store_->Sum(&Cells::unknown, kTotals);
  out += "\n    \"identifications\": " + std::to_string(total);
  out += ",\n    \"unknown\": " + std::to_string(unknown);
  out += ",\n    \"multi_match\": " +
         std::to_string(store_->Sum(&Cells::multi_match, kTotals));
  out += ",\n    \"tiebreaks\": " +
         std::to_string(store_->Sum(&Cells::tiebreaks, kTotals));
  out +=
      ",\n    \"assessments\": " + std::to_string(assessments_total_->Value());
  out += ",\n    \"assessments_unknown\": " +
         std::to_string(assessments_unknown_total_->Value());
  const double unknown_ratio =
      total == 0 ? 0.0
                 : static_cast<double>(unknown) / static_cast<double>(total);
  out += ",\n    \"unknown_ratio\": " + FormatDouble(unknown_ratio);
  out += "\n  },\n  \"baseline_pinned\": ";
  out += baseline_pinned_.load(std::memory_order_relaxed) ? "true" : "false";
  out += ",\n  \"types\": {";
  bool first = true;
  for (const auto& slot : slots_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonEscaped(out, std::to_string(slot->label));
    const Histogram::Snapshot margin = slot->margin_view->Read();
    const Histogram::Snapshot dissimilarity = slot->dissimilarity_view->Read();
    out += ": {\"identifications\": " +
           std::to_string(store_->Sum(&Cells::identifications, slot->label)) +
           ", \"rejected\": " +
           std::to_string(store_->Sum(&Cells::unknown, slot->label)) +
           ", \"tiebreaks\": " +
           std::to_string(store_->Sum(&Cells::tiebreaks, slot->label)) +
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
