#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "obs/json.h"
#include "obs/profiler.h"

namespace sentinel::obs {

using detail::t_current_context;

namespace {

/// Small dense thread ids for trace exports (std::thread::id renders as an
/// opaque hash; Chrome tracks want small stable integers).
std::uint32_t CurrentThreadNumber() {
  // ordering: relaxed — a pure id ticket; ids only need to be distinct,
  // nothing is published through them.
  static std::atomic<std::uint32_t> next{1};
  thread_local std::uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

std::string FormatMicros(std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%03u",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned>(ns % 1000));
  return buf;
}

}  // namespace

Tracer::Tracer(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      slots_(std::make_unique<Slot[]>(capacity == 0 ? 1 : capacity)) {}

void Tracer::Record(SpanRecord record) {
  const std::uint64_t seq = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[seq % capacity_];
  // Claim the slot: writers colliding here are a full ring-lap apart, so
  // the exchange is uncontended in practice; spin for the pathological
  // overlap rather than tearing the record.
  std::uint32_t previous = slot.state.exchange(1, std::memory_order_acquire);
  while (previous == 1) {
    previous = slot.state.exchange(1, std::memory_order_acquire);
  }
  slot.record = std::move(record);
  slot.state.store(2, std::memory_order_release);
  recorded_.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::LabelTrace(TraceId trace_id, std::string label) {
  MutexLock lock(label_mutex_);
  trace_labels_[trace_id] = std::move(label);
}

std::string Tracer::TraceLabel(TraceId trace_id) const {
  MutexLock lock(label_mutex_);
  const auto it = trace_labels_.find(trace_id);
  return it == trace_labels_.end() ? std::string() : it->second;
}

std::uint64_t Tracer::dropped() const {
  const std::uint64_t total = recorded_.load(std::memory_order_relaxed);
  return total > capacity_ ? total - capacity_ : 0;
}

std::vector<SpanRecord> Tracer::Snapshot() const {
  std::vector<SpanRecord> out;
  out.reserve(capacity_);
  // Walk the ring starting at the oldest retained slot so the snapshot
  // comes out in publication order.
  const std::uint64_t head = next_.load(std::memory_order_acquire);
  const std::uint64_t start = head > capacity_ ? head - capacity_ : 0;
  for (std::uint64_t seq = start; seq < start + capacity_; ++seq) {
    const Slot& slot = slots_[seq % capacity_];
    // Claim published slots with the writers' protocol so a lapping
    // writer can never tear the copy; anything not currently published
    // (empty, or mid-write) is skipped.
    const std::uint32_t previous =
        slot.state.exchange(1, std::memory_order_acquire);
    if (previous != 2) {
      if (previous == 0) slot.state.store(0, std::memory_order_release);
      continue;
    }
    out.push_back(slot.record);
    slot.state.store(2, std::memory_order_release);
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.span_id < b.span_id;
            });
  return out;
}

std::string Tracer::RenderChromeJson() const {
  const auto spans = Snapshot();
  std::string out = "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
  bool first = true;
  // One metadata event per trace id names its pid track (Perfetto groups
  // events by pid, so every device reads as its own process lane).
  {
    MutexLock lock(label_mutex_);
    for (const auto& [trace_id, label] : trace_labels_) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "  {\"ph\": \"M\", \"name\": \"process_name\", \"pid\": " +
             std::to_string(trace_id) + ", \"args\": {\"name\": " +
             JsonQuote(label) + "}}";
    }
  }
  for (const auto& span : spans) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "  {\"ph\": \"X\", \"cat\": \"sentinel\", \"name\": " +
           JsonQuote(span.name) +
           ", \"pid\": " + std::to_string(span.trace_id) +
           ", \"tid\": " + std::to_string(span.thread) +
           ", \"ts\": " + FormatMicros(span.start_ns) +
           ", \"dur\": " + FormatMicros(span.end_ns - span.start_ns) +
           ", \"args\": {\"trace_id\": " + std::to_string(span.trace_id) +
           ", \"span_id\": " + std::to_string(span.span_id) +
           ", \"parent_id\": " + std::to_string(span.parent_id);
    for (const auto& arg : span.args) {
      out += ", " + JsonQuote(arg.key) + ": " + JsonQuote(arg.value);
    }
    out += "}}";
  }
  out += first ? "]}\n" : "\n]}\n";
  return out;
}

void Tracer::WriteChromeJson(const std::string& path) const {
  const std::string body = RenderChromeJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr)
    throw std::runtime_error("cannot open " + path + " for writing");
  const std::size_t written = std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  if (written != body.size())
    throw std::runtime_error("short write to " + path);
}

ScopedTraceContext::ScopedTraceContext(const TraceContext& context)
    : saved_(t_current_context) {
  t_current_context = context;
}

ScopedTraceContext::~ScopedTraceContext() { t_current_context = saved_; }

void ScopedSpan::Begin(Tracer* tracer, const char* name, TraceId trace_id,
                       SpanId parent_id, std::uint64_t start_ns) {
  tracer_ = tracer;
  record_.trace_id = trace_id;
  record_.parent_id = parent_id;
  record_.span_id = tracer->NewSpanId();
  record_.name = name;
  record_.thread = CurrentThreadNumber();
  record_.start_ns = start_ns;
  saved_ = t_current_context;
  t_current_context =
      TraceContext{tracer, record_.trace_id, record_.span_id};
}

ScopedSpan::ScopedSpan(const char* name) {
  const TraceContext& current = t_current_context;
  if (!current.active()) return;  // the single detached-mode branch
  Begin(current.tracer, name, current.trace_id, current.span_id, NowNs());
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name) {
  const TraceContext& current = t_current_context;
  if (current.active()) {
    Begin(current.tracer, name, current.trace_id, current.span_id, NowNs());
    return;
  }
  if (tracer == nullptr) return;
  Begin(tracer, name, tracer->NewTraceId(), 0, NowNs());
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, TraceId trace_id) {
  if (tracer == nullptr) return;
  Begin(tracer, name, trace_id, 0, NowNs());
}

void ScopedSpan::AddArg(std::string key, std::string value) {
  if (tracer_ == nullptr) return;
  record_.args.push_back(SpanArg{std::move(key), std::move(value)});
}

std::uint64_t ScopedSpan::End() {
  return tracer_ == nullptr ? 0 : End(NowNs());
}

std::uint64_t ScopedSpan::End(std::uint64_t end_ns) {
  if (tracer_ == nullptr) return 0;
  record_.end_ns = end_ns;
  const std::uint64_t elapsed = record_.end_ns - record_.start_ns;
  t_current_context = saved_;
  Tracer* tracer = tracer_;
  tracer_ = nullptr;
  tracer->Record(std::move(record_));
  return elapsed;
}

}  // namespace sentinel::obs
