#include "core/serve_batching.h"

#include <algorithm>

namespace sentinel::core {

AdmissionQueue::Admission AdmissionQueue::Push(QueuedProbe&& probe) {
  if (queue_.size() < capacity_) {
    queue_.push_back(std::move(probe));
    return {.action = AdmitAction::kAdmitted};
  }
  // Full: shed the OLDEST queued probe of the same device, if any — the
  // newer observation supersedes it (same MAC, fresher traffic).
  const auto victim = std::find_if(
      queue_.begin(), queue_.end(),
      [&probe](const QueuedProbe& queued) { return queued.mac == probe.mac; });
  if (victim == queue_.end()) return {.action = AdmitAction::kRejected};
  const std::uint64_t shed_ticket = victim->ticket;
  queue_.erase(victim);
  queue_.push_back(std::move(probe));
  return {.action = AdmitAction::kAdmittedAfterShed,
          .shed_ticket = shed_ticket};
}

std::vector<QueuedProbe> AdmissionQueue::PopBatch(std::size_t max_probes) {
  const std::size_t take = std::min(max_probes, queue_.size());
  std::vector<QueuedProbe> batch;
  batch.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  return batch;
}

}  // namespace sentinel::core
