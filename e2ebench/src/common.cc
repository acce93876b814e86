#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <utility>

#include "util/shard.h"

namespace e2ebench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(rank),
                   values.end());
  return values[rank];
}

double PeakRssMb() {
  rusage usage{};
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

sentinel::obs::SpanId RecordSpan(sentinel::obs::Tracer& tracer,
                                 const char* name, std::uint64_t start_ns,
                                 std::uint64_t end_ns,
                                 sentinel::obs::TraceId trace,
                                 sentinel::obs::SpanId parent) {
  sentinel::obs::SpanRecord record;
  record.trace_id = trace;
  record.span_id = tracer.NewSpanId();
  record.parent_id = parent;
  record.name = name;
  record.start_ns = start_ns;
  record.end_ns = end_ns;
  const sentinel::obs::SpanId id = record.span_id;
  tracer.Record(std::move(record));
  return id;
}

std::string Format(const char* fmt, ...) {
  char buffer[1024];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  va_end(args);
  if (n < 0) return {};
  return std::string(buffer, std::min<std::size_t>(static_cast<std::size_t>(n),
                                                   sizeof(buffer) - 1));
}

namespace {
constexpr std::size_t kTrainEpisodesPerType = 20;
constexpr std::uint64_t kTrainSeed = 42;
}  // namespace

std::uint64_t InputSeed(std::uint64_t seed, std::uint64_t salt) {
  const std::uint64_t mixed = sentinel::util::Mix64(
      seed * 0x9e3779b97f4a7c15ull + salt + 0x5eedull);
  return mixed == kTrainSeed ? mixed + 1 : mixed;
}

std::unique_ptr<sentinel::core::SecurityService> TrainService() {
  return sentinel::core::BuildTrainedSecurityService(kTrainEpisodesPerType,
                                                     kTrainSeed);
}

}  // namespace e2ebench
