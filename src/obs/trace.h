// Decision-provenance span tracing. A Tracer collects completed spans —
// (trace id, span id, parent id, name, start/end, args) — into a bounded
// ring, exportable as Chrome-trace-event JSON that loads directly in
// Perfetto / chrome://tracing. One trace id follows a device from its
// first packet to its installed enforcement rule.
//
// Cost contract (mirrors the metrics registry, DESIGN.md "Tracing &
// decision provenance"):
// - Detached (a span resolving to no tracer) every span site is a
//   single branch: no clock read, no allocation, no atomic traffic.
// - Attached, recording is lock-free on the hot path: a relaxed
//   fetch_add claims a ring slot and an uncontended atomic exchange
//   publishes it; the only mutex guards trace labels and exports, which
//   never run per-packet. The ring overwrites oldest spans when full, so
//   memory stays bounded no matter how long the gateway runs.
// - Tracing is observational: span data never feeds the RNG or the
//   models, so traced runs are bit-identical to untraced runs.
//
// Context propagation: each thread carries an implicit current-span
// context. A span nests under it automatically and installs itself for
// its lifetime; `ScopedTraceContext` carries a context across explicit
// boundaries (e.g. into ThreadPool workers). Components that only ever
// produce child spans (RandomForest, FlowTable) therefore need no tracer
// wiring at all — their stages open context-only spans that are no-ops
// unless a caller up-stack established a trace.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace sentinel::obs {

using TraceId = std::uint64_t;
using SpanId = std::uint64_t;

struct SpanArg {
  std::string key;
  std::string value;
};

/// One completed span. `parent_id == 0` marks a trace root.
struct SpanRecord {
  TraceId trace_id = 0;
  SpanId span_id = 0;
  SpanId parent_id = 0;
  const char* name = "";  // call sites pass string literals
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t thread = 0;
  std::vector<SpanArg> args;
};

class Tracer {
 public:
  /// `capacity` bounds retained spans; the ring overwrites oldest first.
  explicit Tracer(std::size_t capacity = 65536);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] TraceId NewTraceId() {
    return next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] SpanId NewSpanId() {
    return next_span_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Stores a completed span into the ring (called by ~ScopedSpan).
  void Record(SpanRecord record);

  /// Labels a trace for exports (e.g. "device aa:bb:cc:dd:ee:ff").
  /// Control-path only: takes the export mutex.
  void LabelTrace(TraceId trace_id, std::string label);
  [[nodiscard]] std::string TraceLabel(TraceId trace_id) const;

  /// Retained spans, oldest first. Spans mid-publication are skipped.
  [[nodiscard]] std::vector<SpanRecord> Snapshot() const;

  /// Spans ever recorded / overwritten by ring wrap-around.
  [[nodiscard]] std::uint64_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t dropped() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Chrome-trace-event JSON ("traceEvents" complete events). Each trace
  /// id renders as its own pid track (labelled via LabelTrace) so every
  /// device's spans group together in Perfetto.
  [[nodiscard]] std::string RenderChromeJson() const;
  /// Writes RenderChromeJson() to `path`; throws std::runtime_error on
  /// I/O failure.
  void WriteChromeJson(const std::string& path) const;

 private:
  struct Slot {
    /// 0 = empty, 1 = claimed (writer or snapshot), 2 = published.
    /// Mutable so the claim protocol also serves const snapshots.
    // ordering: acquire on the claiming exchange / release on publish —
    // state is the per-slot lock that orders `record` between a writer
    // and a concurrent snapshot; see Record()/Snapshot().
    mutable std::atomic<std::uint32_t> state{0};
    SpanRecord record;  // protected by the state claim protocol above
  };

  std::size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  // ordering: relaxed fetch_add to claim a sequence (slot contents are
  // ordered by Slot::state, not by the ticket) / acquire in Snapshot so
  // the ring walk starts at a head no older than the published slots.
  std::atomic<std::uint64_t> next_{0};
  // ordering: relaxed — statistics counter only.
  std::atomic<std::uint64_t> recorded_{0};
  // ordering: relaxed — id generators; uniqueness needs atomicity only.
  std::atomic<std::uint64_t> next_trace_id_{1};
  // ordering: relaxed — id generator, as above.
  std::atomic<std::uint64_t> next_span_id_{1};
  mutable Mutex label_mutex_{"obs.trace_labels"};
  std::map<TraceId, std::string> trace_labels_
      SENTINEL_GUARDED_BY(label_mutex_);
};

/// The calling thread's innermost active span: tracer + (trace, span) ids.
/// Inactive (null tracer) on threads that are not inside any span.
struct TraceContext {
  Tracer* tracer = nullptr;
  TraceId trace_id = 0;
  SpanId span_id = 0;

  [[nodiscard]] bool active() const { return tracer != nullptr; }
};

namespace detail {
/// The calling thread's current context; constant-initialized, so every
/// translation unit reads it without a call.
inline thread_local TraceContext t_current_context;
}  // namespace detail

[[nodiscard]] inline const TraceContext& CurrentTraceContext() {
  return detail::t_current_context;
}

/// Installs `context` as the calling thread's current context for this
/// object's lifetime (restores the previous context on destruction).
/// Carries a trace into ThreadPool workers: capture CurrentTraceContext()
/// before the parallel section and install it inside the worker lambda.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& context);
  ~ScopedTraceContext();
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext saved_;
};

/// RAII span. Three flavours:
/// - `ScopedSpan(name)` — child of the current thread context; disabled
///   (one branch, nothing else) when no context is active.
/// - `ScopedSpan(tracer, name)` — child of the current context when one
///   is active, else a root span with a fresh trace id on `tracer`;
///   disabled when both are null (command-level root spans).
/// - `ScopedSpan(tracer, name, trace_id)` — root span of an existing
///   trace; disabled when `tracer` is null.
/// Pipeline stages open theirs through a StageScope (obs/stage.h), with
/// the sink constructor. While enabled, the span is the calling thread's
/// current context, so spans opened below it nest automatically.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ScopedSpan(Tracer* tracer, const char* name);
  ScopedSpan(Tracer* tracer, const char* name, TraceId trace_id);
  /// Sink form: a span of `trace_id` under `parent_id` (0: a root) on
  /// `tracer` (not null), started at the caller's clock read.
  ScopedSpan(Tracer* tracer, const char* name, TraceId trace_id,
             SpanId parent_id, std::uint64_t start_ns) {
    Begin(tracer, name, trace_id, parent_id, start_ns);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { End(); }

  [[nodiscard]] bool enabled() const { return tracer_ != nullptr; }
  [[nodiscard]] TraceId trace_id() const { return record_.trace_id; }
  [[nodiscard]] SpanId span_id() const { return record_.span_id; }

  /// Attaches a key/value argument; no-op when disabled, so callers can
  /// annotate unconditionally without paying for string construction —
  /// wrap expensive formatting in `if (span.enabled())`.
  void AddArg(std::string key, std::string value);

  /// Ends the span early (now, or at the caller's clock read), records it
  /// and restores the previous thread context; idempotent. Returns
  /// elapsed ns (0 when disabled).
  std::uint64_t End();
  std::uint64_t End(std::uint64_t end_ns);

 private:
  void Begin(Tracer* tracer, const char* name, TraceId trace_id,
             SpanId parent_id, std::uint64_t start_ns);

  Tracer* tracer_ = nullptr;
  SpanRecord record_;
  TraceContext saved_;
};

}  // namespace sentinel::obs
