// Tests for the model-quality monitor: counter/histogram bookkeeping per
// verdict, baseline pinning, the two-channel PSI drift detector and the
// lock-free Record() contract under the thread sanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/quality.h"

namespace sentinel::obs {
namespace {

QualitySample Sample(int label, double top1, double top2,
                     double dissimilarity = 0.5) {
  QualitySample sample;
  sample.top_label = label;
  sample.top1_probability = top1;
  sample.top2_probability = top2;
  sample.best_dissimilarity = dissimilarity;
  return sample;
}

TEST(QualityMonitorTest, RecordsGlobalAndPerTypeCounters) {
  MetricsRegistry registry;
  QualityMonitor monitor(&registry);
  monitor.BindTypes({1, 2});

  monitor.Record(Sample(1, 0.9, 0.1));
  QualitySample rejected = Sample(1, 0.6, 0.2);
  rejected.unknown = true;
  rejected.tie_break_count = 2;
  monitor.Record(rejected);
  monitor.Record(Sample(7, 0.8, 0.1));  // unbound label: global only

  EXPECT_EQ(registry
                .GetCounter("sentinel_quality_identifications_total", "")
                .Value(),
            3u);
  EXPECT_EQ(registry.GetCounter("sentinel_quality_unknown_total", "").Value(),
            1u);
  EXPECT_EQ(registry.GetCounter("sentinel_quality_tiebreak_total", "").Value(),
            2u);
  EXPECT_EQ(
      registry
          .GetCounter("sentinel_quality_identifications_total{type=\"1\"}", "")
          .Value(),
      2u);
  EXPECT_EQ(
      registry.GetCounter("sentinel_quality_rejected_total{type=\"1\"}", "")
          .Value(),
      1u);
  EXPECT_EQ(
      registry
          .GetCounter("sentinel_quality_identifications_total{type=\"2\"}", "")
          .Value(),
      0u);
}

// Labels the per-type table cannot hold still count toward the totals.
TEST(QualityMonitorTest, LabelsOutsideTheSlotTableCountOnlyInTotals) {
  MetricsRegistry registry;
  QualityMonitor monitor(&registry);
  monitor.BindTypes({-3, 0, QualityMonitor::kMaxLabel});
  monitor.Record(Sample(-3, 0.9, 0.1));
  monitor.Record(Sample(QualityMonitor::kMaxLabel, 0.9, 0.1));
  monitor.Record(Sample(0, 0.9, 0.1));
  EXPECT_EQ(registry
                .GetCounter("sentinel_quality_identifications_total", "")
                .Value(),
            3u);
  EXPECT_EQ(registry.GetHistogram("sentinel_quality_margin", "", {})
                .Read()
                .count,
            3u);
  EXPECT_EQ(
      registry
          .GetCounter("sentinel_quality_identifications_total{type=\"0\"}", "")
          .Value(),
      1u);
  const std::string text = registry.RenderPrometheus();
  EXPECT_EQ(text.find("type=\"-3\""), std::string::npos);
  EXPECT_EQ(text.find("type=\"" + std::to_string(QualityMonitor::kMaxLabel)),
            std::string::npos);
}

// The registry keeps the monitor's packed cells alive: a scrape after the
// monitor is gone still reads every series it recorded.
TEST(QualityMonitorTest, RegistryOutlivesTheMonitor) {
  MetricsRegistry registry;
  {
    QualityMonitor monitor(&registry);
    monitor.BindTypes({1});
    monitor.Record(Sample(1, 0.9, 0.1, /*dissimilarity=*/0.7));
  }
  EXPECT_EQ(
      registry
          .GetCounter("sentinel_quality_identifications_total{type=\"1\"}", "")
          .Value(),
      1u);
  const auto dissimilarity =
      registry.GetHistogram("sentinel_quality_dissimilarity{type=\"1\"}", "", {})
          .Read();
  EXPECT_EQ(dissimilarity.count, 1u);
  EXPECT_DOUBLE_EQ(dissimilarity.sum, 0.7);
  EXPECT_NE(registry.RenderPrometheus().find("sentinel_quality_margin_count"),
            std::string::npos);
}

TEST(QualityMonitorTest, AssessmentOutcomes) {
  MetricsRegistry registry;
  QualityMonitor monitor(&registry);
  monitor.RecordAssessmentOutcome(true);
  monitor.RecordAssessmentOutcome(false);
  monitor.RecordAssessmentOutcome(false);
  EXPECT_EQ(
      registry.GetCounter("sentinel_quality_assessments_total", "").Value(),
      3u);
  EXPECT_EQ(registry
                .GetCounter("sentinel_quality_assessments_unknown_total", "")
                .Value(),
            2u);
}

TEST(QualityMonitorTest, BindTypesIsIdempotentAndKeepsState) {
  MetricsRegistry registry;
  QualityMonitor monitor(&registry);
  monitor.BindTypes({1});
  monitor.Record(Sample(1, 0.9, 0.1));
  monitor.BindTypes({1, 2});  // re-bind with a superset
  monitor.Record(Sample(1, 0.9, 0.1));
  EXPECT_EQ(
      registry
          .GetCounter("sentinel_quality_identifications_total{type=\"1\"}", "")
          .Value(),
      2u);
}

TEST(QualityMonitorTest, PsiZeroBeforeBaselineAndBelowMinObservations) {
  MetricsRegistry registry;
  QualityMonitorConfig config;
  config.min_window_observations = 8;
  QualityMonitor monitor(&registry, config);
  monitor.BindTypes({1});

  for (int i = 0; i < 50; ++i) monitor.Record(Sample(1, 0.9, 0.1));
  monitor.UpdateDrift();  // no baseline yet
  EXPECT_DOUBLE_EQ(monitor.Psi(1), 0.0);
  EXPECT_FALSE(monitor.baseline_pinned());

  monitor.PinBaseline();
  EXPECT_TRUE(monitor.baseline_pinned());
  // A wildly different margin, but fewer than min_window_observations.
  for (int i = 0; i < 7; ++i) monitor.Record(Sample(1, 0.3, 0.25));
  monitor.UpdateDrift();
  EXPECT_DOUBLE_EQ(monitor.Psi(1), 0.0);
}

TEST(QualityMonitorTest, StableDistributionStaysBelowDriftThreshold) {
  MetricsRegistry registry;
  QualityMonitor monitor(&registry);
  monitor.BindTypes({1});
  for (int i = 0; i < 200; ++i)
    monitor.Record(Sample(1, 0.9, 0.1, /*dissimilarity=*/0.6));
  monitor.PinBaseline();
  for (int i = 0; i < 200; ++i)
    monitor.Record(Sample(1, 0.9, 0.1, /*dissimilarity=*/0.6));
  monitor.UpdateDrift();
  EXPECT_LT(monitor.Psi(1), 0.1);  // conventional "stable" reading
}

TEST(QualityMonitorTest, MarginShiftRaisesPsi) {
  MetricsRegistry registry;
  QualityMonitor monitor(&registry);
  monitor.BindTypes({1, 2});
  for (int i = 0; i < 100; ++i) {
    monitor.Record(Sample(1, 0.95, 0.05));
    monitor.Record(Sample(2, 0.95, 0.05));
  }
  monitor.PinBaseline();
  for (int i = 0; i < 100; ++i) {
    monitor.Record(Sample(1, 0.55, 0.35));  // margin collapsed for type 1
    monitor.Record(Sample(2, 0.95, 0.05));  // type 2 unchanged
  }
  monitor.UpdateDrift();
  EXPECT_GT(monitor.Psi(1), 0.25);  // conventional "drifted" reading
  EXPECT_LT(monitor.Psi(2), 0.1);
}

TEST(QualityMonitorTest, DissimilarityShiftAloneRaisesPsi) {
  // The firmware-drift signature: random-forest votes (and so margins)
  // unchanged, but the edit-distance tie-break scores blow up. The reported
  // PSI is the max over both channels, so this must trip the detector too.
  MetricsRegistry registry;
  QualityMonitor monitor(&registry);
  monitor.BindTypes({1});
  for (int i = 0; i < 100; ++i)
    monitor.Record(Sample(1, 0.9, 0.1, /*dissimilarity=*/0.6));
  monitor.PinBaseline();
  for (int i = 0; i < 100; ++i)
    monitor.Record(Sample(1, 0.9, 0.1, /*dissimilarity=*/3.1));
  monitor.UpdateDrift();
  EXPECT_GT(monitor.Psi(1), 0.25);
}

TEST(QualityMonitorTest, NanDissimilarityIsNotObserved) {
  MetricsRegistry registry;
  QualityMonitor monitor(&registry);
  monitor.BindTypes({1});
  monitor.Record(Sample(1, 0.9, 0.1, std::nan("")));
  const auto snapshot =
      registry.GetHistogram("sentinel_quality_dissimilarity{type=\"1\"}", "", {})
          .Read();
  EXPECT_EQ(snapshot.count, 0u);
}

TEST(QualityMonitorTest, TypesBoundAfterPinGetEmptyBaseline) {
  MetricsRegistry registry;
  QualityMonitor monitor(&registry);
  monitor.BindTypes({1});
  for (int i = 0; i < 20; ++i) monitor.Record(Sample(1, 0.9, 0.1));
  monitor.PinBaseline();
  monitor.BindTypes({1, 3});  // AddType while live
  for (int i = 0; i < 20; ++i) monitor.Record(Sample(3, 0.9, 0.1));
  monitor.UpdateDrift();
  // Everything type 3 ever saw is live window against an empty baseline;
  // PSI must stay finite and computable, not explode or crash.
  EXPECT_TRUE(std::isfinite(monitor.Psi(3)));
}

TEST(QualityMonitorTest, RenderJsonCarriesTotalsAndTypes) {
  MetricsRegistry registry;
  QualityMonitor monitor(&registry);
  monitor.BindTypes({1});
  QualitySample unknown = Sample(1, 0.5, 0.4);
  unknown.unknown = true;
  monitor.Record(Sample(1, 0.9, 0.1));
  monitor.Record(unknown);
  monitor.PinBaseline();
  const std::string json = monitor.RenderJson();
  EXPECT_NE(json.find("\"identifications\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"unknown\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"unknown_ratio\": 0.5"), std::string::npos);
  EXPECT_NE(json.find("\"baseline_pinned\": true"), std::string::npos);
  EXPECT_NE(json.find("\"1\": {"), std::string::npos);
  EXPECT_NE(json.find("\"psi\""), std::string::npos);
}

// Lock-free Record() from many identification workers racing BindTypes /
// PinBaseline / UpdateDrift / RenderJson on a control thread — the shape
// the thread-sanitizer CI job exercises.
TEST(QualityMonitorTest, ConcurrentRecordHammer) {
  MetricsRegistry registry;
  QualityMonitor monitor(&registry);
  monitor.BindTypes({0, 1, 2});

  std::atomic<bool> stop{false};
  std::vector<std::thread> recorders;
  for (int t = 0; t < 4; ++t) {
    recorders.emplace_back([&, t] {
      for (int i = 0; i < 3000; ++i) {
        QualitySample sample = Sample(i % 4, 0.9, 0.1, (i % 8) * 0.5);
        sample.unknown = (i % 7) == 0;
        sample.tie_break_count = static_cast<std::uint64_t>(t % 2);
        monitor.Record(sample);
      }
    });
  }
  std::thread control([&] {
    int round = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      monitor.BindTypes({0, 1, 2, 3 + (round++ % 2)});
      if (round == 3) monitor.PinBaseline();
      monitor.UpdateDrift();
      (void)monitor.RenderJson();
      (void)monitor.Psi(1);
    }
  });
  for (auto& recorder : recorders) recorder.join();
  stop.store(true, std::memory_order_relaxed);
  control.join();

  const std::uint64_t total =
      registry.GetCounter("sentinel_quality_identifications_total", "")
          .Value();
  EXPECT_EQ(total, 4u * 3000u);
}

}  // namespace
}  // namespace sentinel::obs
