// One instrument per pipeline stage. The stage table names every timed
// stage once: the name is the stage's span name and its profiler-frame
// name, and a row with help text also has the histogram `<name>_ns`. A
// StageScope times one pass through a stage and hands the same start and
// end times to whichever sinks are attached: the component's histogram,
// the installed profiler and the trace. Detached from all three it reads
// no clock; attached, at most two reads, and none when the caller hands
// in its own (DESIGN.md "Performance observability").
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace sentinel::obs {

// In table order: the datapath (per frame), onboarding (per device),
// training.
enum class Stage : std::uint8_t {
  kIngress, kFlowMatch, kPacketIn, kCapture, kFingerprint, kIdentifyEnforce,
  kIdentify, kBankScan, kTieBreak, kEnforce, kFlowInstall, kFlowAdd,
  kBankTrain, kTypeTrain, kForestTrain, kTreeTrain, kParallelChunk
};

struct StageRow {
  Stage stage;
  const char* name;
  const char* help;  // histogram help; nullptr: the stage has no histogram
};

inline constexpr StageRow kStageTable[] = {
    {Stage::kIngress, "sentinel_stage_ingress",
     "end-to-end datapath time per injected frame (lookup + actions, "
     "including any controller packet-in handling)"},
    {Stage::kFlowMatch, "sentinel_stage_flow_match", nullptr},
    {Stage::kPacketIn, "sentinel_stage_packet_in", nullptr},
    {Stage::kCapture, "sentinel_stage_capture",
     "per-packet setup-phase capture time (tracking + feature extraction)"},
    {Stage::kFingerprint, "sentinel_stage_fingerprint",
     "fingerprint assembly time when a setup phase completes"},
    {Stage::kIdentifyEnforce, "sentinel_stage_identify_enforce", nullptr},
    {Stage::kIdentify, "sentinel_stage_identify",
     "device-type identification time (Security Service assessment)"},
    {Stage::kBankScan, "sentinel_stage_bank_scan",
     "stage-1 classifier-bank scan time per fingerprint"},
    {Stage::kTieBreak, "sentinel_stage_tie_break",
     "stage-2 edit-distance discrimination time per fingerprint"},
    {Stage::kEnforce, "sentinel_stage_enforce",
     "enforcement-rule installation time per identified device"},
    {Stage::kFlowInstall, "sentinel_stage_flow_install", nullptr},
    {Stage::kFlowAdd, "sentinel_stage_flow_add", nullptr},
    {Stage::kBankTrain, "sentinel_stage_bank_train",
     "wall time to train the full per-type classifier bank"},
    {Stage::kTypeTrain, "sentinel_stage_type_train", nullptr},
    {Stage::kForestTrain, "sentinel_stage_forest_train",
     "whole-forest training time"},
    {Stage::kTreeTrain, "sentinel_stage_tree_train",
     "single-tree bagging + CART training time"},
    {Stage::kParallelChunk, "sentinel_stage_parallel_chunk", nullptr},
};

static_assert(
    [] {
      for (std::size_t i = 0; i < std::size(kStageTable); ++i)
        if (static_cast<std::size_t>(kStageTable[i].stage) != i) return false;
      return true;
    }(),
    "kStageTable rows must follow the Stage enum order");

/// The histogram of `stage` in `registry`, registered on first use as
/// `<name>_ns` with the row's help; nullptr for a null registry or a stage
/// without a histogram.
[[nodiscard]] inline Histogram* StageHistogram(MetricsRegistry* registry,
                                               Stage stage) {
  const StageRow& row = kStageTable[static_cast<std::size_t>(stage)];
  if (registry == nullptr || row.help == nullptr) return nullptr;
  return &registry->GetHistogram(std::string(row.name) + "_ns", row.help);
}

/// Times a stage from construction to End() or destruction, feeding
/// `histogram` (may be null) and the attached profiler. Its span is:
/// - for `(stage[, histogram[, start]])`, a child of the calling thread's
///   trace context, if any; `start` is the caller's own clock read, and
///   `End(end)` then takes the closing one;
/// - for `(stage, histogram, tracer)`, a root span of the device trace
///   named by `JoinTrace(id)`; none when `tracer` is null.
class StageScope {
 public:
  explicit StageScope(Stage stage, Histogram* histogram = nullptr)
      : StageScope(stage, histogram, std::uint64_t{0}) {}
  StageScope(Stage stage, Histogram* histogram, StageClock::time_point start)
      : StageScope(stage, histogram, ToNs(start)) {}
  StageScope(Stage stage, Histogram* histogram, Tracer* tracer)
      : stage_(stage), histogram_(histogram), tracer_(tracer) {
    Profiler* profiler = Profiler::Current();
    if (histogram_ != nullptr || profiler != nullptr || tracer_ != nullptr)
      Open(profiler, nullptr, 0);
  }
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;
  ~StageScope() { End(); }

  /// Opens the span as a root of `trace_id` on the tracer given at
  /// construction (none: a no-op). At most once per scope.
  void JoinTrace(TraceId trace_id) {
    if (tracer_ != nullptr) OpenSpan(tracer_, trace_id, 0);
  }

  /// True when the stage records a span; guards AddArg formatting.
  [[nodiscard]] bool traced() const { return span_.has_value(); }
  void AddArg(std::string key, std::string value) {
    if (span_) span_->AddArg(std::move(key), std::move(value));
  }

  /// Ends the stage now, or at the caller's clock read; idempotent.
  void End() {
    if (open_) Finish(NowNs());
  }
  void End(StageClock::time_point end) {
    if (open_) Finish(ToNs(end));
  }

 private:
  StageScope(Stage stage, Histogram* histogram, std::uint64_t start_ns)
      : stage_(stage), histogram_(histogram) {
    const TraceContext& context = CurrentTraceContext();
    Profiler* profiler = Profiler::Current();
    if (histogram_ != nullptr || profiler != nullptr || context.active())
      Open(profiler, context.active() ? &context : nullptr, start_ns);
  }

  // The attached path, out of line (stage.cc) so that a detached scope
  // inlines to its three checks.
  /// Starts at `start_ns` (0: reads the clock), opens the profiler frame
  /// and, under `parent`, a child span.
  void Open(Profiler* profiler, const TraceContext* parent,
            std::uint64_t start_ns);
  void OpenSpan(Tracer* tracer, TraceId trace_id, SpanId parent_id);
  void Finish(std::uint64_t end_ns);

  Stage stage_;
  bool open_ = false;
  Histogram* histogram_ = nullptr;
  Tracer* tracer_ = nullptr;
  std::uint64_t start_ns_ = 0;
  ProfileScope frame_;
  std::optional<ScopedSpan> span_;
};

}  // namespace sentinel::obs
