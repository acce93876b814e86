#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "obs/json.h"
#include "util/check.h"

namespace sentinel::obs {

namespace {

// Values render at full round-trip precision; bucket bounds use compact %g
// ("1e+06") since the chosen bounds are exact in either form.
std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string FormatBound(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

// `name` may encode Prometheus labels inline (`name{key="value"}`); HELP
// and TYPE lines must carry only the base name.
std::string_view BaseName(const std::string& name) {
  const std::size_t brace = name.find('{');
  return std::string_view(name).substr(
      0, brace == std::string::npos ? name.size() : brace);
}

// Splices a histogram sample suffix before any inline label block and merges
// an optional extra label, so labelled histograms render valid sample names:
// m{type="3"} + "_bucket" + le="x"  ->  m_bucket{type="3",le="x"}.
std::string SpliceSuffix(const std::string& name, const char* suffix,
                         const std::string& extra_label = "") {
  const std::size_t brace = name.find('{');
  std::string out;
  if (brace == std::string::npos) {
    out = name + suffix;
    if (!extra_label.empty()) out += "{" + extra_label + "}";
    return out;
  }
  out = name.substr(0, brace) + suffix + name.substr(brace);
  if (!extra_label.empty()) {
    out.back() = ',';
    out += extra_label + "}";
  }
  return out;
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) bounds_ = DefaultLatencyBoundsNs();
  std::sort(bounds_.begin(), bounds_.end());
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i)
    // ordering: relaxed — pre-publication zeroing in the constructor.
    buckets_[i].store(0, std::memory_order_relaxed);
}

Histogram::Histogram(std::vector<double> bounds, Reader read)
    : bounds_(std::move(bounds)), read_(std::move(read)) {
  std::sort(bounds_.begin(), bounds_.end());
}

void Histogram::Observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  buckets_[it - bounds_.begin()].fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(sum_, value);
  AtomicAdd(sum_squares_, value * value);
}

Histogram::Snapshot Histogram::Read() const {
  Snapshot snap;
  const bool view = static_cast<bool>(read_);
  std::vector<std::uint64_t> viewed;  // a view's per-bucket counts
  if (view) {
    viewed.assign(bounds_.size() + 1, 0);
    read_(viewed, snap.sum, snap.sum_squares);
  } else {
    snap.sum = sum_.load(std::memory_order_relaxed);
    snap.sum_squares = sum_squares_.load(std::memory_order_relaxed);
  }
  snap.buckets.reserve(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    snap.count +=
        view ? viewed[i] : buckets_[i].load(std::memory_order_relaxed);
    snap.buckets.emplace_back(i < bounds_.size()
                                  ? bounds_[i]
                                  : std::numeric_limits<double>::infinity(),
                              snap.count);
  }
  return snap;
}

std::uint64_t Histogram::Count() const {
  if (read_) return Read().count;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i)
    total += buckets_[i].load(std::memory_order_relaxed);
  return total;
}

double Histogram::Snapshot::Mean() const {
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

double Histogram::Snapshot::Stdev() const {
  if (count == 0) return 0.0;
  const double mean = Mean();
  const double variance =
      std::max(0.0, sum_squares / static_cast<double>(count) - mean * mean);
  return std::sqrt(variance);
}

const std::vector<double>& Histogram::DefaultLatencyBoundsNs() {
  static const std::vector<double> kBounds = [] {
    std::vector<double> b;
    // 1 µs .. 10 s in 1-2-5 steps; sub-microsecond observations land in
    // the first bucket, pathological stalls in +Inf.
    for (double decade = 1e3; decade <= 1e10; decade *= 10.0) {
      b.push_back(decade);
      if (decade < 1e10) {
        b.push_back(decade * 2.0);
        b.push_back(decade * 5.0);
      }
    }
    return b;
  }();
  return kBounds;
}

Counter& MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  sentinel::MutexLock lock(mutex_);
  auto& slot = counters_[name];
  if (!slot.value) {
    slot.help = help;
    slot.value = std::make_shared<Counter>();
  }
  return *slot.value;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help) {
  sentinel::MutexLock lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot.value) {
    slot.help = help;
    slot.value = std::make_shared<Gauge>();
  }
  return *slot.value;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help,
                                         std::vector<double> bounds) {
  sentinel::MutexLock lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot.value) {
    slot.help = help;
    slot.value = std::make_shared<Histogram>(std::move(bounds));
  }
  return *slot.value;
}

Counter& MetricsRegistry::AdoptCounter(const std::string& name,
                                       const std::string& help,
                                       std::shared_ptr<Counter> counter) {
  sentinel::MutexLock lock(mutex_);
  auto& slot = counters_[name];
  SENTINEL_CHECK(!slot.value) << "metric " << name << " already registered";
  slot.help = help;
  slot.value = std::move(counter);
  return *slot.value;
}

Histogram& MetricsRegistry::AdoptHistogram(
    const std::string& name, const std::string& help,
    std::shared_ptr<Histogram> histogram) {
  sentinel::MutexLock lock(mutex_);
  auto& slot = histograms_[name];
  SENTINEL_CHECK(!slot.value) << "metric " << name << " already registered";
  slot.help = help;
  slot.value = std::move(histogram);
  return *slot.value;
}

void MetricsRegistry::VisitInstruments(
    const std::function<void(const std::string&, const Counter&)>& counter_fn,
    const std::function<void(const std::string&, const Gauge&)>& gauge_fn,
    const std::function<void(const std::string&, const Histogram&)>&
        histogram_fn) const {
  sentinel::MutexLock lock(mutex_);
  if (counter_fn) {
    for (const auto& [name, counter] : counters_) counter_fn(name, *counter.value);
  }
  if (gauge_fn) {
    for (const auto& [name, gauge] : gauges_) gauge_fn(name, *gauge.value);
  }
  if (histogram_fn) {
    for (const auto& [name, histogram] : histograms_)
      histogram_fn(name, *histogram.value);
  }
}

std::string MetricsRegistry::RenderPrometheus() const {
  sentinel::MutexLock lock(mutex_);
  std::string out;
  // Labelled series (`name{...}`) sharing a base name sit adjacent in the
  // lexicographic map; their HELP/TYPE header renders once per base.
  std::string_view previous_base;
  const auto header = [&](const std::string& name, const std::string& help,
                          const char* type) {
    const std::string_view base = BaseName(name);
    if (base == previous_base) return;
    previous_base = base;
    if (!help.empty())
      out += "# HELP " + std::string(base) + " " + help + "\n";
    out += "# TYPE " + std::string(base) + " " + type + "\n";
  };
  for (const auto& [name, counter] : counters_) {
    header(name, counter.help, "counter");
    out += name + " " + std::to_string(counter.value->Value()) + "\n";
  }
  previous_base = {};
  for (const auto& [name, gauge] : gauges_) {
    header(name, gauge.help, "gauge");
    out += name + " " + FormatDouble(gauge.value->Value()) + "\n";
  }
  previous_base = {};
  for (const auto& [name, histogram] : histograms_) {
    header(name, histogram.help, "histogram");
    const auto snap = histogram.value->Read();
    for (const auto& [bound, cumulative] : snap.buckets) {
      const std::string le =
          std::isinf(bound) ? "+Inf" : FormatBound(bound);
      out += SpliceSuffix(name, "_bucket", "le=\"" + le + "\"") + " " +
             std::to_string(cumulative) + "\n";
    }
    out += SpliceSuffix(name, "_sum") + " " + FormatDouble(snap.sum) + "\n";
    out += SpliceSuffix(name, "_count") + " " + std::to_string(snap.count) +
           "\n";
  }
  return out;
}

std::string MetricsRegistry::RenderJson() const {
  sentinel::MutexLock lock(mutex_);
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonEscaped(out, name);
    out += ": " + std::to_string(counter.value->Value());
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonEscaped(out, name);
    out += ": " + FormatDouble(gauge.value->Value());
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    const auto snap = histogram.value->Read();
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonEscaped(out, name);
    out += ": {\"count\": " + std::to_string(snap.count) +
           ", \"sum\": " + FormatDouble(snap.sum) +
           ", \"mean\": " + FormatDouble(snap.Mean()) +
           ", \"stdev\": " + FormatDouble(snap.Stdev()) + ", \"buckets\": [";
    for (std::size_t i = 0; i < snap.buckets.size(); ++i) {
      if (i > 0) out += ", ";
      const auto& [bound, cumulative] = snap.buckets[i];
      out += "{\"le\": ";
      if (std::isinf(bound)) {
        out += "\"+Inf\"";
      } else {
        out += FormatBound(bound);
      }
      out += ", \"count\": " + std::to_string(cumulative) + "}";
    }
    out += "]}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

void MetricsRegistry::WriteFile(const std::string& path, bool json) const {
  const std::string body = json ? RenderJson() : RenderPrometheus();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr)
    throw std::runtime_error("cannot open " + path + " for writing");
  const std::size_t written = std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  if (written != body.size())
    throw std::runtime_error("short write to " + path);
}

namespace {
// ordering: release on install / acquire on read — a front end builds the
// registry, then publishes the pointer; consumers that observe it must see
// the fully constructed object.
std::atomic<MetricsRegistry*> g_default_registry{nullptr};
}  // namespace

MetricsRegistry* DefaultRegistry() {
  return g_default_registry.load(std::memory_order_acquire);
}

void SetDefaultRegistry(MetricsRegistry* registry) {
  g_default_registry.store(registry, std::memory_order_release);
}

}  // namespace sentinel::obs
