// Pure unit tests for the serving path's admission queue
// (core/serve_batching.h): FIFO order, bounded pops, and the
// shed-oldest-per-MAC / reject overload semantics.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "core/serve_batching.h"

namespace sentinel::core {
namespace {

net::MacAddress Mac(std::uint8_t last) {
  return net::MacAddress(std::array<std::uint8_t, 6>{0, 1, 2, 3, 4, last});
}

QueuedProbe Probe(std::uint8_t mac_last, std::uint64_t enqueue_ns,
                  std::uint64_t ticket) {
  return QueuedProbe{.mac = Mac(mac_last),
                     .enqueue_ns = enqueue_ns,
                     .ticket = ticket};
}

TEST(AdmissionQueue, FifoOrderAndBoundedPop) {
  AdmissionQueue queue(/*capacity=*/8);
  for (std::uint64_t t = 1; t <= 5; ++t) {
    const auto admission = queue.Push(Probe(static_cast<std::uint8_t>(t),
                                            /*enqueue_ns=*/t * 100, t));
    EXPECT_EQ(admission.action, AdmissionQueue::AdmitAction::kAdmitted);
  }
  EXPECT_EQ(queue.depth(), 5u);
  auto batch = queue.PopBatch(3);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].ticket, 1u);
  EXPECT_EQ(batch[0].enqueue_ns, 100u);
  EXPECT_EQ(batch[2].ticket, 3u);
  EXPECT_EQ(queue.depth(), 2u);
  batch = queue.PopBatch(99);  // capped at what is queued
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].enqueue_ns, 400u);
  EXPECT_EQ(batch[1].ticket, 5u);
  EXPECT_TRUE(queue.empty());
}

TEST(AdmissionQueue, FullQueueShedsOldestProbeOfSameDevice) {
  AdmissionQueue queue(3);
  // Two probes of device 1 (tickets 1 and 3) and one of device 2.
  EXPECT_EQ(queue.Push(Probe(1, 100, 1)).action,
            AdmissionQueue::AdmitAction::kAdmitted);
  EXPECT_EQ(queue.Push(Probe(2, 200, 2)).action,
            AdmissionQueue::AdmitAction::kAdmitted);
  EXPECT_EQ(queue.Push(Probe(1, 300, 3)).action,
            AdmissionQueue::AdmitAction::kAdmitted);
  // Full. A fresh probe of device 1 sheds the OLDEST device-1 probe
  // (ticket 1), not the newer one.
  const auto shed = queue.Push(Probe(1, 400, 4));
  EXPECT_EQ(shed.action, AdmissionQueue::AdmitAction::kAdmittedAfterShed);
  EXPECT_EQ(shed.shed_ticket, 1u);
  EXPECT_EQ(queue.depth(), 3u);
  // Survivors keep FIFO order; the newcomer queues at the back.
  const auto batch = queue.PopBatch(3);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].ticket, 2u);
  EXPECT_EQ(batch[1].ticket, 3u);
  EXPECT_EQ(batch[2].ticket, 4u);
}

TEST(AdmissionQueue, FullQueueRejectsWhenNoSameDeviceVictimExists) {
  AdmissionQueue queue(2);
  EXPECT_EQ(queue.Push(Probe(1, 100, 1)).action,
            AdmissionQueue::AdmitAction::kAdmitted);
  EXPECT_EQ(queue.Push(Probe(2, 200, 2)).action,
            AdmissionQueue::AdmitAction::kAdmitted);
  const auto rejected = queue.Push(Probe(3, 300, 3));
  EXPECT_EQ(rejected.action, AdmissionQueue::AdmitAction::kRejected);
  EXPECT_EQ(queue.depth(), 2u);  // rejected probe left no trace
}

}  // namespace
}  // namespace sentinel::core
