// Lock-contention telemetry substrate for the sentinel::Mutex wrappers
// (DESIGN.md "Performance observability").
//
// A *lock site* is a name shared by every mutex that protects the same
// logical resource — all 64 shards of the flow table register the single
// site "flow_table.shard". Each site carries relaxed-atomic counters: how
// often an acquire found the lock held (contended), the total nanoseconds
// spent waiting, and a log4-bucketed wait-time histogram. The wrappers in
// util/mutex.h feed these on their contended slow path only; an
// uncontended acquire through a named site costs one extra try_lock
// branch, and an *unnamed* mutex costs one pointer test.
//
// The layer is always built in; SetLockTelemetryEnabled(false) stops the
// recording at run time, leaving each named acquire one relaxed load.
//
// This header must stay dependency-light and header-only: it is included
// by util/mutex.h, which sits underneath both the metrics registry and
// the thread pool (so no library layer exists below it to host a .cc).
// The JSON exposition therefore lives with the profiler (obs/profiler.h,
// RenderLockContentionJson).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace sentinel {

/// Wait-time histogram resolution: bucket b holds waits in
/// [4^b, 4^(b+1)) * 256 ns, i.e. ~0.25 µs, 1 µs, 4 µs, ... ~4.4 s; the
/// last bucket absorbs everything longer.
inline constexpr std::size_t kLockWaitBuckets = 12;

/// Sites the registry can hold; registration beyond this returns the
/// shared overflow site so hot paths never check for nullptr.
inline constexpr std::size_t kMaxLockSites = 256;

/// One named lock site's live counters. Everything is monotonic and read
/// racily by exporters (scrape semantics — a torn multi-field read still
/// shows real per-field values).
struct LockSiteStats {
  // ordering: release-CAS publish on registration / acquire on read — the
  // non-null name is the slot's publication flag; all other fields are
  // zero-initialized statics, so the name edge alone is enough.
  std::atomic<const char*> name{nullptr};
  // ordering: relaxed (all counters) — independently monotonic statistics;
  // exporters want eventual totals, no cross-field invariant exists.
  std::atomic<std::uint64_t> acquisitions{0};
  std::atomic<std::uint64_t> contended{0};
  std::atomic<std::uint64_t> wait_ns_total{0};
  std::atomic<std::uint64_t> wait_buckets[kLockWaitBuckets]{};

  /// The registered name, nullptr while unregistered.
  [[nodiscard]] const char* Name() const {
    // ordering: acquire — pairs with the registration release CAS.
    return name.load(std::memory_order_acquire);
  }
};

/// Steady-clock nanoseconds. Local to this layer so util/mutex.h does not
/// grow an obs dependency (obs::NowNs reads the same clock).
inline std::uint64_t LockNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace lock_internal {

struct SiteTable {
  LockSiteStats sites[kMaxLockSites];
  LockSiteStats overflow;  // shared sink once the table is full

  SiteTable() {
    // ordering: relaxed — single-threaded static construction; the first
    // cross-thread handoff of the table reference publishes it.
    overflow.name.store("(overflow)", std::memory_order_relaxed);
  }
};

/// The process-wide site table (function-local static in an inline
/// function: one instance across all translation units).
inline SiteTable& Table() {
  static SiteTable table;
  return table;
}

// ordering: relaxed — a master on/off switch polled per named acquire; no
// other memory hangs off the edge, stale reads only delay the toggle.
inline std::atomic<bool> g_lock_telemetry_enabled{true};

}  // namespace lock_internal

/// Finds or creates the site registered under `name` (pointer-or-strcmp
/// match, so string literals dedup across translation units). `name` must
/// outlive the process (string literals). Never returns nullptr: when the
/// table is full the shared "(overflow)" site absorbs the counters.
/// Registration is lock-free; a racing duplicate claim is resolved by
/// re-reading the winner's name.
inline LockSiteStats* RegisterLockSite(const char* name) {
  lock_internal::SiteTable& table = lock_internal::Table();
  if (name == nullptr) return &table.overflow;
  for (std::size_t i = 0; i < kMaxLockSites; ++i) {
    LockSiteStats& slot = table.sites[i];
    const char* current = slot.Name();
    if (current == nullptr) {
      // Claim the empty slot. A losing racer falls through to re-examine
      // the winner's name (same name -> share the slot; different -> keep
      // scanning).
      const char* expected = nullptr;
      // ordering: acq_rel — release publishes the slot on success, acquire
      // reads the winner's name on failure (both via the same edge).
      if (slot.name.compare_exchange_strong(expected, name,
                                            std::memory_order_acq_rel)) {
        return &slot;
      }
      current = expected;
    }
    if (current == name || std::strcmp(current, name) == 0) return &slot;
  }
  return &table.overflow;
}

/// Runtime master switch consulted on the named-site acquire path.
/// Defaults to on.
[[nodiscard]] inline bool LockTelemetryEnabled() {
  // ordering: relaxed — see g_lock_telemetry_enabled.
  return lock_internal::g_lock_telemetry_enabled.load(
      std::memory_order_relaxed);
}

inline void SetLockTelemetryEnabled(bool enabled) {
  // ordering: relaxed — see g_lock_telemetry_enabled.
  lock_internal::g_lock_telemetry_enabled.store(enabled,
                                                std::memory_order_relaxed);
}

/// Read-side enumeration for exporters: sites [0, LockSiteCount()). The
/// returned reference stays valid for the process lifetime.
[[nodiscard]] inline std::size_t LockSiteCount() {
  lock_internal::SiteTable& table = lock_internal::Table();
  std::size_t count = 0;
  while (count < kMaxLockSites && table.sites[count].Name() != nullptr)
    ++count;
  return count;
}

[[nodiscard]] inline const LockSiteStats& LockSiteAt(std::size_t index) {
  return lock_internal::Table().sites[index];
}

/// The shared sink that absorbs registrations past kMaxLockSites.
[[nodiscard]] inline const LockSiteStats& LockOverflowSite() {
  return lock_internal::Table().overflow;
}

/// Zeroes every site's counters (names and registrations persist). Test
/// and bench isolation only — concurrent recorders may re-increment
/// immediately.
inline void ResetLockTelemetry() {
  lock_internal::SiteTable& table = lock_internal::Table();
  const auto zero = [](LockSiteStats& site) {
    // ordering: relaxed — statistics reset; see LockSiteStats.
    site.acquisitions.store(0, std::memory_order_relaxed);
    site.contended.store(0, std::memory_order_relaxed);
    site.wait_ns_total.store(0, std::memory_order_relaxed);
    for (auto& bucket : site.wait_buckets)
      bucket.store(0, std::memory_order_relaxed);
  };
  for (std::size_t i = 0; i < kMaxLockSites; ++i) zero(table.sites[i]);
  zero(table.overflow);
}

/// Histogram bucket for a wait of `wait_ns` (see kLockWaitBuckets).
[[nodiscard]] inline std::size_t LockWaitBucket(std::uint64_t wait_ns) {
  std::uint64_t scaled = wait_ns >> 8;  // 256 ns base resolution
  std::size_t bucket = 0;
  while (scaled != 0 && bucket + 1 < kLockWaitBuckets) {
    scaled >>= 2;  // log4 spacing
    ++bucket;
  }
  return bucket;
}

/// Lower bound (inclusive) of bucket `b` in nanoseconds, for exporters.
[[nodiscard]] inline std::uint64_t LockWaitBucketFloorNs(std::size_t b) {
  return b == 0 ? 0 : (std::uint64_t{256} << (2 * (b - 1)));
}

/// Records one contended acquire that waited `wait_ns`. Called by the
/// mutex wrappers' slow path only.
inline void RecordLockWait(LockSiteStats* site, std::uint64_t wait_ns) {
  // ordering: relaxed — see LockSiteStats (independent monotonic counters).
  site->contended.fetch_add(1, std::memory_order_relaxed);
  site->wait_ns_total.fetch_add(wait_ns, std::memory_order_relaxed);
  site->wait_buckets[LockWaitBucket(wait_ns)].fetch_add(
      1, std::memory_order_relaxed);
}

}  // namespace sentinel
