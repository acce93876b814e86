// Admission building block of the always-on identification service
// (DESIGN.md "Serving path"): a bounded MAC-keyed admission queue. It owns
// no lock and reads no clock — IdentifyServer holds the one mutex, stamps
// arrival times and decides when to pop — so its overload rules are
// unit-testable deterministically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "features/fingerprint.h"
#include "net/address.h"

namespace sentinel::core {

/// One admitted probe: both fingerprint forms (owned — the HTTP buffer
/// they were parsed from is gone by service time), the device MAC it keys
/// under, and the ticket its waiting client holds.
struct QueuedProbe {
  net::MacAddress mac;
  features::Fingerprint full;
  features::FixedFingerprint fixed;
  std::uint64_t enqueue_ns = 0;
  std::uint64_t ticket = 0;
};

/// Bounded FIFO admission queue keyed by device MAC. Admission past the
/// capacity has explicit overload semantics:
///   - if an older probe for the SAME device is still queued, that probe
///     is shed (removed, its ticket reported so the waiter gets told) and
///     the newer one admitted — under sustained overload the newest
///     fingerprint per device wins, and one chatty device cannot occupy
///     more than its latest observation;
///   - otherwise the new probe is rejected (the HTTP layer turns this
///     into 429 + Retry-After).
/// Single-threaded by design; IdentifyServer serializes access.
class AdmissionQueue {
 public:
  explicit AdmissionQueue(std::size_t capacity) : capacity_(capacity) {}

  enum class AdmitAction { kAdmitted, kAdmittedAfterShed, kRejected };
  struct Admission {
    AdmitAction action = AdmitAction::kRejected;
    /// Ticket of the same-MAC probe that was shed to make room
    /// (action == kAdmittedAfterShed only).
    std::uint64_t shed_ticket = 0;
  };

  /// Admits, sheds-and-admits, or rejects `probe` (moved from only when
  /// admitted).
  Admission Push(QueuedProbe&& probe);

  /// Removes and returns up to `max_probes` probes, oldest first.
  [[nodiscard]] std::vector<QueuedProbe> PopBatch(std::size_t max_probes);

  [[nodiscard]] std::size_t depth() const { return queue_.size(); }
  [[nodiscard]] bool empty() const { return queue_.empty(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  std::size_t capacity_;
  std::deque<QueuedProbe> queue_;
};

}  // namespace sentinel::core
