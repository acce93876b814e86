#include "obs/stage.h"

namespace sentinel::obs {

void StageScope::Open(Profiler* profiler, const TraceContext* parent,
                      std::uint64_t start_ns) {
  open_ = true;
  start_ns_ = start_ns != 0 ? start_ns : NowNs();
  const char* name = kStageTable[static_cast<std::size_t>(stage_)].name;
  if (profiler != nullptr) frame_.Open(*profiler, name, start_ns_);
  if (parent != nullptr)
    OpenSpan(parent->tracer, parent->trace_id, parent->span_id);
}

void StageScope::OpenSpan(Tracer* tracer, TraceId trace_id,
                          SpanId parent_id) {
  span_.emplace(tracer, kStageTable[static_cast<std::size_t>(stage_)].name,
                trace_id, parent_id, start_ns_);
}

void StageScope::Finish(std::uint64_t end_ns) {
  open_ = false;
  if (histogram_ != nullptr)
    histogram_->Observe(static_cast<double>(end_ns - start_ns_));
  frame_.Close(end_ns);
  if (span_) span_->End(end_ns);
}

}  // namespace sentinel::obs
