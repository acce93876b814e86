// Tests for the windowed time-series store: window math over counters,
// gauges and histograms, ring wrap-around, late series discovery, and the
// single-sampler / many-scrapers concurrency contract (the hammer below is
// what the CI thread-sanitizer job runs).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/timeseries.h"

namespace sentinel::obs {
namespace {

constexpr std::int64_t kSecond = 1'000'000'000;

TEST(TimeSeriesTest, CounterWindowDeltaAndRate) {
  MetricsRegistry registry;
  auto& counter = registry.GetCounter("requests_total", "requests");
  TimeSeriesStore store(&registry);

  counter.Increment(10);
  store.Sample(1 * kSecond);
  counter.Increment(5);
  store.Sample(2 * kSecond);
  counter.Increment(15);
  store.Sample(3 * kSecond);

  const auto stats = store.Window("requests_total", 3);
  EXPECT_EQ(stats.samples, 3u);
  EXPECT_DOUBLE_EQ(stats.first, 10.0);
  EXPECT_DOUBLE_EQ(stats.last, 30.0);
  EXPECT_DOUBLE_EQ(stats.delta, 20.0);
  EXPECT_DOUBLE_EQ(stats.rate_per_s, 10.0);  // 20 over 2 s
  EXPECT_EQ(stats.first_t_ns, 1 * kSecond);
  EXPECT_EQ(stats.last_t_ns, 3 * kSecond);
}

TEST(TimeSeriesTest, GaugeWindowMinMaxMean) {
  MetricsRegistry registry;
  auto& gauge = registry.GetGauge("depth", "queue depth");
  TimeSeriesStore store(&registry);

  for (const double v : {4.0, 8.0, 6.0}) {
    gauge.Set(v);
    store.Sample(static_cast<std::int64_t>(v) * kSecond);
  }

  const auto stats = store.Window("depth", 10);  // window > samples is fine
  EXPECT_EQ(stats.samples, 3u);
  EXPECT_DOUBLE_EQ(stats.min, 4.0);
  EXPECT_DOUBLE_EQ(stats.max, 8.0);
  EXPECT_DOUBLE_EQ(stats.mean, 6.0);
  EXPECT_DOUBLE_EQ(stats.last, 6.0);
}

TEST(TimeSeriesTest, WindowNarrowerThanHistory) {
  MetricsRegistry registry;
  auto& gauge = registry.GetGauge("g", "gauge");
  TimeSeriesStore store(&registry);
  for (int i = 1; i <= 10; ++i) {
    gauge.Set(i);
    store.Sample(i * kSecond);
  }
  const auto stats = store.Window("g", 4);
  EXPECT_EQ(stats.samples, 4u);
  EXPECT_DOUBLE_EQ(stats.first, 7.0);
  EXPECT_DOUBLE_EQ(stats.last, 10.0);
}

TEST(TimeSeriesTest, RingWrapsAtCapacity) {
  MetricsRegistry registry;
  auto& counter = registry.GetCounter("c", "counter");
  TimeSeriesStore store(&registry, {.capacity = 8});
  for (int i = 1; i <= 100; ++i) {
    counter.Increment();
    store.Sample(i * kSecond);
  }
  EXPECT_EQ(store.samples_taken(), 100u);
  // Asking for more than capacity yields exactly the retained samples.
  const auto stats = store.Window("c", 1000);
  EXPECT_EQ(stats.samples, 8u);
  EXPECT_DOUBLE_EQ(stats.first, 93.0);
  EXPECT_DOUBLE_EQ(stats.last, 100.0);
  const auto points = store.Recent("c", 1000);
  ASSERT_EQ(points.size(), 8u);
  EXPECT_EQ(points.front().t_ns, 93 * kSecond);
  EXPECT_EQ(points.back().t_ns, 100 * kSecond);
}

TEST(TimeSeriesTest, LateRegisteredSeriesReportsShortWindow) {
  MetricsRegistry registry;
  registry.GetCounter("early", "first");
  TimeSeriesStore store(&registry);
  store.Sample(1 * kSecond);
  store.Sample(2 * kSecond);
  auto& late = registry.GetGauge("late", "appeared later");
  late.Set(7.0);
  store.Sample(3 * kSecond);

  EXPECT_EQ(store.Window("early", 10).samples, 3u);
  const auto stats = store.Window("late", 10);
  EXPECT_EQ(stats.samples, 1u);
  EXPECT_DOUBLE_EQ(stats.last, 7.0);
}

TEST(TimeSeriesTest, UnknownSeriesIsEmpty) {
  MetricsRegistry registry;
  TimeSeriesStore store(&registry);
  store.Sample(kSecond);
  EXPECT_EQ(store.Window("nope", 5).samples, 0u);
  EXPECT_TRUE(store.Recent("nope", 5).empty());
  EXPECT_EQ(store.HistogramStats("nope", 5).samples, 0u);
}

TEST(TimeSeriesTest, HistogramWindowMergesAndInterpolatesQuantiles) {
  MetricsRegistry registry;
  auto& histogram =
      registry.GetHistogram("latency", "latency", {1.0, 2.0, 4.0});
  TimeSeriesStore store(&registry);

  store.Sample(1 * kSecond);  // empty baseline sample
  // 100 observations uniformly inside (1, 2].
  for (int i = 0; i < 100; ++i) histogram.Observe(1.5);
  store.Sample(2 * kSecond);

  const auto stats = store.HistogramStats("latency", 2);
  EXPECT_EQ(stats.samples, 2u);
  EXPECT_EQ(stats.count, 100u);
  EXPECT_DOUBLE_EQ(stats.sum, 150.0);
  EXPECT_DOUBLE_EQ(stats.mean, 1.5);
  // All mass sits in the (1, 2] bucket: quantiles interpolate inside it.
  EXPECT_DOUBLE_EQ(stats.p50, 1.5);
  EXPECT_GT(stats.p95, 1.9);
  EXPECT_LE(stats.p95, 2.0);
}

TEST(TimeSeriesTest, HistogramWindowExcludesPreWindowObservations) {
  MetricsRegistry registry;
  auto& histogram = registry.GetHistogram("h", "h", {1.0, 2.0, 4.0});
  TimeSeriesStore store(&registry);

  for (int i = 0; i < 50; ++i) histogram.Observe(0.5);
  store.Sample(1 * kSecond);
  for (int i = 0; i < 10; ++i) histogram.Observe(3.0);
  store.Sample(2 * kSecond);

  // The window [sample1, sample2] only contains the ten 3.0 observations.
  const auto stats = store.HistogramStats("h", 2);
  EXPECT_EQ(stats.count, 10u);
  EXPECT_DOUBLE_EQ(stats.sum, 30.0);
  EXPECT_GT(stats.p50, 2.0);
  EXPECT_LE(stats.p50, 4.0);
}

TEST(TimeSeriesTest, OverflowObservationsClampToLastFiniteBound) {
  MetricsRegistry registry;
  auto& histogram = registry.GetHistogram("h", "h", {1.0, 2.0});
  TimeSeriesStore store(&registry);
  store.Sample(1 * kSecond);
  for (int i = 0; i < 10; ++i) histogram.Observe(100.0);  // all +Inf bucket
  store.Sample(2 * kSecond);
  const auto stats = store.HistogramStats("h", 2);
  EXPECT_EQ(stats.count, 10u);
  EXPECT_DOUBLE_EQ(stats.p50, 2.0);
  EXPECT_DOUBLE_EQ(stats.p99, 2.0);
}

TEST(TimeSeriesTest, SeriesNamesSortedAndRenderJsonWellFormed) {
  MetricsRegistry registry;
  registry.GetCounter("b_total", "b").Increment();
  registry.GetGauge("a_gauge", "a").Set(1.0);
  registry.GetHistogram("c_hist", "c", {1.0}).Observe(0.5);
  TimeSeriesStore store(&registry);
  store.Sample(1 * kSecond);

  const auto names = store.SeriesNames();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "a_gauge");
  EXPECT_EQ(names[1], "b_total");
  EXPECT_EQ(names[2], "c_hist");

  const std::string json = store.RenderJson(10);
  EXPECT_NE(json.find("\"a_gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"rate_per_s\""), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
}

TEST(TimeSeriesTest, LabelledSeriesAreIndependent) {
  MetricsRegistry registry;
  auto& a = registry.GetGauge("psi{type=\"1\"}", "psi");
  auto& b = registry.GetGauge("psi{type=\"2\"}", "psi");
  TimeSeriesStore store(&registry);
  a.Set(0.1);
  b.Set(0.9);
  store.Sample(1 * kSecond);
  EXPECT_DOUBLE_EQ(store.Window("psi{type=\"1\"}", 1).last, 0.1);
  EXPECT_DOUBLE_EQ(store.Window("psi{type=\"2\"}", 1).last, 0.9);
}

// The concurrency contract under the thread sanitizer: exactly one sampler
// thread racing several scrapers (Window / HistogramStats / RenderJson /
// Recent) while instruments keep moving underneath. Beyond data-race
// freedom, no window may be torn: readers drop every sample the sampler
// lapped mid-copy, so a monotone counter's window never starts above its
// end.
TEST(TimeSeriesTest, SamplerVersusScrapersHammer) {
  MetricsRegistry registry;
  auto& counter = registry.GetCounter("hammer_total", "hammer");
  auto& gauge = registry.GetGauge("hammer_gauge", "hammer");
  auto& histogram =
      registry.GetHistogram("hammer_hist", "hammer", {1.0, 2.0, 4.0});
  TimeSeriesStore store(&registry, {.capacity = 16});

  std::atomic<bool> stop{false};
  std::thread sampler([&] {
    std::int64_t now = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      counter.Increment();
      gauge.Set(static_cast<double>(now));
      histogram.Observe(static_cast<double>(now % 5));
      store.Sample(now += kSecond);
    }
  });
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 3; ++t) {
    scrapers.emplace_back([&] {
      // Race the sampler, not an empty store: without this a scraper can
      // finish before the sampler thread has taken its first sample.
      while (store.samples_taken() == 0) std::this_thread::yield();
      for (int i = 0; i < 400; ++i) {
        const auto stats = store.Window("hammer_total", 8);
        if (stats.samples > 0) {
          EXPECT_LE(stats.first, stats.last);  // counters never go down
          EXPECT_LE(stats.samples, 8u);
        }
        (void)store.HistogramStats("hammer_hist", 8);
        (void)store.Recent("hammer_gauge", 8);
        const std::string json = store.RenderJson(8);
        EXPECT_EQ(json.find("nan"), std::string::npos);
      }
    });
  }
  for (auto& scraper : scrapers) scraper.join();
  stop.store(true, std::memory_order_relaxed);
  sampler.join();
  EXPECT_GT(store.samples_taken(), 0u);
}

}  // namespace
}  // namespace sentinel::obs
