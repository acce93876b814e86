// Unit tests for the lock-contention telemetry substrate
// (util/lock_telemetry.h) and its hookup in the sentinel::Mutex
// wrappers: site registration/dedup, wait-histogram bucket math, the
// runtime switch, and contended acquires actually being counted.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "util/lock_telemetry.h"
#include "util/mutex.h"

namespace sentinel {
namespace {

const LockSiteStats* FindSite(const char* name) {
  for (std::size_t i = 0; i < LockSiteCount(); ++i) {
    const LockSiteStats& site = LockSiteAt(i);
    if (std::strcmp(site.Name(), name) == 0) return &site;
  }
  return nullptr;
}

TEST(LockTelemetryTest, RegisterDedupsByNameContent) {
  LockSiteStats* by_literal = RegisterLockSite("test.dedup_site");
  ASSERT_NE(by_literal, nullptr);
  EXPECT_EQ(RegisterLockSite("test.dedup_site"), by_literal);
  // Same characters at a different address still dedup (strcmp path).
  const std::string copy = "test.dedup_site";
  EXPECT_EQ(RegisterLockSite(copy.c_str()), by_literal);
  EXPECT_STREQ(by_literal->Name(), "test.dedup_site");
}

TEST(LockTelemetryTest, NullNameGoesToOverflowSite) {
  EXPECT_EQ(RegisterLockSite(nullptr), &LockOverflowSite());
  EXPECT_STREQ(LockOverflowSite().Name(), "(overflow)");
}

TEST(LockTelemetryTest, SiteEnumerationCoversRegisteredSites) {
  (void)RegisterLockSite("test.enumerated_site");
  EXPECT_NE(FindSite("test.enumerated_site"), nullptr);
  EXPECT_LE(LockSiteCount(), kMaxLockSites);
}

TEST(LockTelemetryTest, WaitBucketMath) {
  // Bucket b holds [256 * 4^(b-1), 256 * 4^b) with bucket 0 starting at
  // zero and the last bucket absorbing everything longer.
  EXPECT_EQ(LockWaitBucket(0), 0u);
  EXPECT_EQ(LockWaitBucket(255), 0u);
  EXPECT_EQ(LockWaitBucket(256), 1u);
  EXPECT_EQ(LockWaitBucket(1023), 1u);
  EXPECT_EQ(LockWaitBucket(1024), 2u);
  EXPECT_EQ(LockWaitBucket(~std::uint64_t{0}), kLockWaitBuckets - 1);
  EXPECT_EQ(LockWaitBucketFloorNs(0), 0u);
  EXPECT_EQ(LockWaitBucketFloorNs(1), 256u);
  EXPECT_EQ(LockWaitBucketFloorNs(2), 1024u);
  for (std::size_t b = 0; b + 1 < kLockWaitBuckets; ++b) {
    // Floors are consistent with bucket assignment at the boundary.
    EXPECT_LT(LockWaitBucketFloorNs(b), LockWaitBucketFloorNs(b + 1));
    EXPECT_EQ(LockWaitBucket(LockWaitBucketFloorNs(b + 1)), b + 1);
    EXPECT_EQ(LockWaitBucket(LockWaitBucketFloorNs(b + 1) - 1), b);
  }
}

TEST(LockTelemetryTest, RecordLockWaitFillsHistogram) {
  LockSiteStats* site = RegisterLockSite("test.record_site");
  RecordLockWait(site, 100);      // bucket 0
  RecordLockWait(site, 500);      // bucket 1
  RecordLockWait(site, 500'000);  // deep bucket
  // ordering: relaxed — scrape-style reads of monotonic counters.
  EXPECT_EQ(site->contended.load(std::memory_order_relaxed), 3u);
  EXPECT_EQ(site->wait_ns_total.load(std::memory_order_relaxed), 500'600u);
  EXPECT_EQ(site->wait_buckets[0].load(std::memory_order_relaxed), 1u);
  EXPECT_EQ(site->wait_buckets[1].load(std::memory_order_relaxed), 1u);
  EXPECT_EQ(site->wait_buckets[LockWaitBucket(500'000)].load(
                std::memory_order_relaxed),
            1u);
}

TEST(LockTelemetryTest, NamedMutexCountsAcquisitions) {
  Mutex mutex("test.acquire_site");
  const LockSiteStats* site = FindSite("test.acquire_site");
  ASSERT_NE(site, nullptr);
  // ordering: relaxed — scrape-style counter reads.
  const std::uint64_t before =
      site->acquisitions.load(std::memory_order_relaxed);
  for (int i = 0; i < 5; ++i) {
    MutexLock lock(mutex);
  }
  EXPECT_EQ(site->acquisitions.load(std::memory_order_relaxed), before + 5);
}

TEST(LockTelemetryTest, ContendedAcquiresAreCountedWithWaitTime) {
  Mutex mutex("test.contended_site");
  const LockSiteStats* site = FindSite("test.contended_site");
  ASSERT_NE(site, nullptr);
  // Two threads ping-pong over one mutex with work inside the critical
  // section until the slow path has demonstrably fired.
  std::atomic<bool> stop{false};
  const auto worker = [&] {
    // ordering: relaxed — plain stop flag.
    while (!stop.load(std::memory_order_relaxed)) {
      MutexLock lock(mutex);
      volatile int spin = 0;
      for (int i = 0; i < 2000; ++i) spin = spin + 1;
    }
  };
  std::thread a(worker);
  std::thread b(worker);
  // ordering: relaxed — scrape read in the wait loop below.
  while (site->contended.load(std::memory_order_relaxed) < 10)
    std::this_thread::yield();
  stop.store(true, std::memory_order_relaxed);
  a.join();
  b.join();
  EXPECT_GE(site->contended.load(std::memory_order_relaxed), 10u);
  EXPECT_GT(site->wait_ns_total.load(std::memory_order_relaxed), 0u);
  EXPECT_LE(site->contended.load(std::memory_order_relaxed),
            site->acquisitions.load(std::memory_order_relaxed));
  std::uint64_t histogram_total = 0;
  for (const auto& bucket : site->wait_buckets)
    histogram_total += bucket.load(std::memory_order_relaxed);
  EXPECT_EQ(histogram_total,
            site->contended.load(std::memory_order_relaxed));
}

TEST(LockTelemetryTest, DisabledSwitchStopsCountingNamedSites) {
  Mutex mutex("test.switch_site");
  const LockSiteStats* site = FindSite("test.switch_site");
  ASSERT_NE(site, nullptr);
  SetLockTelemetryEnabled(false);
  // ordering: relaxed — scrape-style counter reads.
  const std::uint64_t before =
      site->acquisitions.load(std::memory_order_relaxed);
  {
    MutexLock lock(mutex);
  }
  SetLockTelemetryEnabled(true);
  EXPECT_EQ(site->acquisitions.load(std::memory_order_relaxed), before);
  {
    MutexLock lock(mutex);
  }
  EXPECT_EQ(site->acquisitions.load(std::memory_order_relaxed), before + 1);
}

TEST(LockTelemetryTest, SharedMutexFeedsItsSite) {
  SharedMutex mutex("test.shared_site");
  const LockSiteStats* site = FindSite("test.shared_site");
  ASSERT_NE(site, nullptr);
  // ordering: relaxed — scrape-style counter reads.
  const std::uint64_t before =
      site->acquisitions.load(std::memory_order_relaxed);
  {
    WriterLock lock(mutex);
  }
  {
    ReaderLock lock(mutex);
  }
  EXPECT_GT(site->acquisitions.load(std::memory_order_relaxed), before);
}

}  // namespace
}  // namespace sentinel
