// Shared pieces of the end-to-end benchmark: the clock, order statistics,
// the latency sample of a timed phase, span recording for traced runs, the
// outcome every workload hands back to main(), and the trained service
// every workload identifies with.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/security_service.h"
#include "obs/trace.h"

namespace e2ebench {

using Clock = std::chrono::steady_clock;

/// Monotonic nanoseconds (steady_clock), the one time base of every
/// sample and span.
inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Nearest-rank quantile of `values` (q in [0, 1]); 0 for an empty
/// sample. Takes a copy so callers can ask for several quantiles.
double Quantile(std::vector<double> values, double q);

/// Peak resident set of this process in MiB (getrusage ru_maxrss).
double PeakRssMb();

/// Fixed-capacity uniform sample of a stream of values (reservoir
/// sampling), so the memory a run holds does not grow with the speed of
/// the code under test. count() and mean() cover every value added.
class Reservoir {
 public:
  explicit Reservoir(std::size_t capacity = 100'000) : capacity_(capacity) {}

  void Add(double value) {
    ++count_;
    sum_ += value;
    if (sample_.size() < capacity_) {
      sample_.push_back(value);
      return;
    }
    state_ ^= state_ << 13;  // xorshift64: cheap, fixed-seed replacement
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    const std::uint64_t slot = state_ % count_;
    if (slot < capacity_) sample_[slot] = value;
  }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  [[nodiscard]] double Quantile(double q) const {
    return e2ebench::Quantile(sample_, q);
  }
  /// Folds `other` in: its sampled values join this sample, and count()
  /// and mean() then cover both streams.
  void Merge(const Reservoir& other) {
    double sampled_sum = 0.0;
    for (const double value : other.sample_) {
      sampled_sum += value;
      Add(value);
    }
    count_ += other.count_ - other.sample_.size();
    sum_ += other.sum_ - sampled_sum;
  }

 private:
  std::size_t capacity_;
  std::vector<double> sample_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  std::uint64_t state_ = 0x2545f4914f6cdd1dull;
};

/// Records a finished span with explicit times on `tracer` under trace
/// `trace` (one trace per device or request) and returns its span id, the
/// parent of spans nested in it (`parent` 0: a root span).
sentinel::obs::SpanId RecordSpan(sentinel::obs::Tracer& tracer,
                                 const char* name, std::uint64_t start_ns,
                                 std::uint64_t end_ns,
                                 sentinel::obs::TraceId trace,
                                 sentinel::obs::SpanId parent);

/// What one timed phase of a workload measured.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False when an output check failed or the run itself is invalid.
  bool valid = true;
  /// Wall time of the timed phase, and a uniform sample of the latency in
  /// microseconds of every operation it completed (count() is all of them).
  double seconds = 0.0;
  Reservoir latency_us;
  /// Completed operations per second of timed wall time.
  [[nodiscard]] double OpsPerSecond() const {
    return seconds > 0.0 ? static_cast<double>(latency_us.count()) / seconds
                         : 0.0;
  }
  /// Per-layer metrics (traced phase only), by name.
  std::map<std::string, double> layers;
  /// Human-readable result lines: the workload's own metric names, the
  /// check details, and anything a reader needs to interpret the run.
  std::vector<std::string> notes;
};

/// A set-up workload: everything untimed is done, Measure() runs the timed
/// part. Measure may be called more than once (the traced mode runs an
/// untraced and a traced phase on the same set-up).
class Workload {
 public:
  virtual ~Workload() = default;
  /// Runs the timed part for `seconds`. With `tracer` non-null the phase
  /// is traced: per-layer metrics are filled and spans recorded on it.
  virtual Outcome Measure(double seconds, sentinel::obs::Tracer* tracer) = 0;
  /// The workload's own names for ops_per_s / latency p50 / latency p99,
  /// as later issues refer to them (e.g. "onboard_devices_per_s").
  [[nodiscard]] virtual std::vector<std::string> MetricNames() const = 0;
  /// True when the timed traffic crosses the loopback interface.
  [[nodiscard]] virtual bool Loopback() const = 0;
};

/// Formats like printf into a std::string.
std::string Format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Seed the workload inputs are simulated from: derived from the
/// benchmark's --seed and never equal to the training seed.
std::uint64_t InputSeed(std::uint64_t seed, std::uint64_t salt);

/// The service every workload identifies with, trained on the paper's
/// training set: 20 simulated setup episodes per catalog type, seed 42.
std::unique_ptr<sentinel::core::SecurityService> TrainService();

/// num / den, or 0 when den is 0 (a layer that did no work).
inline double Ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

}  // namespace e2ebench
