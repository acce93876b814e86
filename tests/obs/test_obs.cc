// Unit tests for the observability substrate: instrument semantics,
// exposition formats, stage scopes, structured logging, and a
// ThreadPool::ParallelFor hammer that TSan uses to vet the lock-free
// hot path (this test binary is part of the CI sanitizer job).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/stage.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace sentinel::obs {
namespace {

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.Value(), 0.0);
  g.Set(3.5);
  EXPECT_DOUBLE_EQ(g.Value(), 3.5);
  g.Add(-1.5);
  EXPECT_DOUBLE_EQ(g.Value(), 2.0);
}

TEST(HistogramTest, PlacesObservationsInBuckets) {
  Histogram h({10.0, 100.0, 1000.0});
  h.Observe(5.0);     // <= 10
  h.Observe(10.0);    // <= 10 (bounds are inclusive)
  h.Observe(50.0);    // <= 100
  h.Observe(5000.0);  // +Inf only

  const auto snap = h.Read();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_DOUBLE_EQ(snap.sum, 5065.0);
  ASSERT_EQ(snap.buckets.size(), 4u);  // 3 bounds + Inf
  // Cumulative (Prometheus) counts.
  EXPECT_EQ(snap.buckets[0].second, 2u);
  EXPECT_EQ(snap.buckets[1].second, 3u);
  EXPECT_EQ(snap.buckets[2].second, 3u);
  EXPECT_EQ(snap.buckets[3].second, 4u);
}

TEST(HistogramTest, MeanAndStdevDeriveFromSnapshot) {
  Histogram h(Histogram::DefaultLatencyBoundsNs());
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) h.Observe(v);
  const auto snap = h.Read();
  EXPECT_DOUBLE_EQ(snap.Mean(), 5.0);
  EXPECT_NEAR(snap.Stdev(), 2.0, 1e-9);  // population stdev
}

TEST(HistogramTest, BucketIndexMatchesLowerBound) {
  const std::vector<double> bounds = {0.5, 1.0, 1.0, 2.5, 10.0};
  for (const double v : {-1.0, 0.0, 0.5, 0.75, 1.0, 1.5, 2.5, 9.0, 10.0, 11.0,
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    const auto expected = static_cast<std::size_t>(
        std::lower_bound(bounds.begin(), bounds.end(), v) - bounds.begin());
    EXPECT_EQ(BucketIndex(bounds, v), expected) << "value " << v;
  }
}

// A view over caller-owned cells reads back exactly what an owning
// histogram fed the same values reports.
TEST(HistogramTest, ViewOverCallerCellsMatchesOwningHistogram) {
  const std::vector<double> bounds = {1.0, 2.0, 4.0};
  // ordering: relaxed — single-threaded test cells.
  std::atomic<std::uint64_t> buckets[4] = {};
  std::atomic<double> sum{0.0};
  std::atomic<double> sum_squares{0.0};
  const Histogram view(bounds, [&](std::span<std::uint64_t> out,
                                   double& out_sum, double& out_squares) {
    for (std::size_t i = 0; i < out.size(); ++i)
      out[i] += buckets[i].load(std::memory_order_relaxed);
    out_sum += sum.load(std::memory_order_relaxed);
    out_squares += sum_squares.load(std::memory_order_relaxed);
  });
  Histogram owning(bounds);
  for (const double v : {0.5, 1.0, 3.0, 3.5, 8.0}) {
    owning.Observe(v);
    buckets[BucketIndex(bounds, v)].fetch_add(1, std::memory_order_relaxed);
    AtomicAdd(sum, v);
    AtomicAdd(sum_squares, v * v);
  }
  const auto want = owning.Read();
  const auto got = view.Read();
  EXPECT_EQ(got.count, 5u);
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(view.Count(), owning.Count());
  EXPECT_EQ(got.sum, want.sum);
  EXPECT_EQ(got.sum_squares, want.sum_squares);
  EXPECT_EQ(got.buckets, want.buckets);
}

// Adopted instruments stay readable through the registry after the
// caller drops its reference, and a taken name cannot be adopted.
TEST(RegistryTest, AdoptedInstrumentsLiveAsLongAsTheRegistry) {
  struct Block {
    Counter events;
    // ordering: relaxed — single-threaded test cells.
    std::atomic<std::uint64_t> buckets[3] = {};
    std::atomic<double> sum{0.0};
    std::atomic<double> sum_squares{0.0};
    Histogram view{{1.0, 2.0},
                   [this](std::span<std::uint64_t> out, double& out_sum,
                          double& out_squares) {
                     for (std::size_t i = 0; i < out.size(); ++i)
                       out[i] += buckets[i].load(std::memory_order_relaxed);
                     out_sum += sum.load(std::memory_order_relaxed);
                     out_squares += sum_squares.load(std::memory_order_relaxed);
                   }};
  };
  MetricsRegistry registry;
  {
    auto block = std::make_shared<Block>();
    Counter& events = registry.AdoptCounter(
        "adopted_total", "events", std::shared_ptr<Counter>(block, &block->events));
    registry.AdoptHistogram("adopted", "values",
                            std::shared_ptr<Histogram>(block, &block->view));
    EXPECT_EQ(&events, &block->events);
    EXPECT_EQ(&registry.GetCounter("adopted_total"), &block->events);
    block->events.Increment(3);
    block->buckets[BucketIndex(std::vector<double>{1.0, 2.0}, 1.5)].fetch_add(
        1, std::memory_order_relaxed);
    AtomicAdd(block->sum, 1.5);
    AtomicAdd(block->sum_squares, 1.5 * 1.5);
  }
  EXPECT_EQ(registry.GetCounter("adopted_total").Value(), 3u);
  EXPECT_EQ(registry.GetHistogram("adopted").Read().count, 1u);
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("adopted_total 3"), std::string::npos);
  EXPECT_DEATH(registry.AdoptCounter("adopted_total", "",
                                     std::make_shared<Counter>()),
               "already registered");
}

TEST(RegistryTest, GetReturnsSameInstanceForSameName) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("sentinel_test_total", "help");
  Counter& b = registry.GetCounter("sentinel_test_total");
  EXPECT_EQ(&a, &b);
  a.Increment();
  EXPECT_EQ(b.Value(), 1u);

  Histogram& h1 = registry.GetHistogram("sentinel_test_ns");
  Histogram& h2 = registry.GetHistogram("sentinel_test_ns");
  EXPECT_EQ(&h1, &h2);
}

TEST(RegistryTest, PrometheusExpositionFormat) {
  MetricsRegistry registry;
  registry.GetCounter("sentinel_events_total", "events seen").Increment(3);
  registry.GetGauge("sentinel_workers", "worker count").Set(8);
  auto& h = registry.GetHistogram("sentinel_latency_ns", "latency",
                                  {100.0, 1000.0});
  h.Observe(50.0);
  h.Observe(500.0);

  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# HELP sentinel_events_total events seen"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE sentinel_events_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("sentinel_events_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE sentinel_workers gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE sentinel_latency_ns histogram"),
            std::string::npos);
  EXPECT_NE(text.find("sentinel_latency_ns_bucket{le=\"100\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("sentinel_latency_ns_bucket{le=\"1000\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("sentinel_latency_ns_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("sentinel_latency_ns_sum 550"), std::string::npos);
  EXPECT_NE(text.find("sentinel_latency_ns_count 2"), std::string::npos);
}

TEST(RegistryTest, RendersDeterministicOrderAcrossCalls) {
  MetricsRegistry registry;
  registry.GetCounter("sentinel_b_total").Increment();
  registry.GetCounter("sentinel_a_total").Increment();
  const std::string first = registry.RenderPrometheus();
  const std::string second = registry.RenderPrometheus();
  EXPECT_EQ(first, second);
  EXPECT_LT(first.find("sentinel_a_total"), first.find("sentinel_b_total"));
}

TEST(RegistryTest, JsonRendersAllInstrumentKinds) {
  MetricsRegistry registry;
  registry.GetCounter("sentinel_c_total").Increment(7);
  registry.GetGauge("sentinel_g").Set(1.5);
  registry.GetHistogram("sentinel_h_ns").Observe(42.0);
  const std::string json = registry.RenderJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"sentinel_c_total\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"count\""), std::string::npos);
}

TEST(StageScopeTest, DetachedScopeRecordsNothing) {
  // No histogram, no profiler, no trace context: nothing to feed.
  StageScope stage(Stage::kFlowMatch);
  EXPECT_FALSE(stage.traced());
  stage.JoinTrace(7);  // no tracer given: a no-op
  EXPECT_FALSE(stage.traced());
  stage.End();
  StageScope device(Stage::kCapture, nullptr, nullptr);
  device.JoinTrace(7);
  EXPECT_FALSE(device.traced());
}

TEST(StageScopeTest, NullRegistryAttachesNoHistogram) {
  for (const StageRow& row : kStageTable)
    EXPECT_EQ(StageHistogram(nullptr, row.stage), nullptr) << row.name;
}

TEST(StageScopeTest, ObservesExactlyOnce) {
  MetricsRegistry registry;
  Histogram* histogram = StageHistogram(&registry, Stage::kEnforce);
  {
    StageScope stage(Stage::kEnforce, histogram);
    stage.End();
    stage.End();  // idempotent
  }               // destructor must not double-observe
  EXPECT_EQ(histogram->Count(), 1u);
}

TEST(StageScopeTest, DestructorObservesWhenNotEnded) {
  MetricsRegistry registry;
  Histogram* histogram = StageHistogram(&registry, Stage::kEnforce);
  { StageScope stage(Stage::kEnforce, histogram); }
  EXPECT_EQ(histogram->Count(), 1u);
}

TEST(StageScopeTest, HistogramsFollowTheTable) {
  MetricsRegistry registry;
  // A row with help text gets `<name>_ns`; a row without has none.
  Histogram* ingress = StageHistogram(&registry, Stage::kIngress);
  ASSERT_NE(ingress, nullptr);
  EXPECT_EQ(&registry.GetHistogram("sentinel_stage_ingress_ns"), ingress);
  EXPECT_EQ(StageHistogram(&registry, Stage::kFlowMatch), nullptr);
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# HELP sentinel_stage_ingress_ns end-to-end datapath"),
            std::string::npos);
  EXPECT_EQ(text.find("flow_match"), std::string::npos);
}

TEST(StageScopeTest, EverySinkGetsTheCallersTimes) {
  MetricsRegistry registry;
  Histogram* histogram = StageHistogram(&registry, Stage::kBankScan);
  Profiler profiler;
  ScopedProfiler scoped_profiler(&profiler);
  Tracer tracer;
  const auto start = StageClock::now();
  const auto end = start + std::chrono::microseconds(250);
  {
    ScopedSpan root(&tracer, "sentinel_test_root");
    StageScope stage(Stage::kBankScan, histogram, start);
    EXPECT_TRUE(stage.traced());
    stage.End(end);
  }
  ASSERT_EQ(histogram->Count(), 1u);
  EXPECT_DOUBLE_EQ(histogram->Read().sum, 250'000.0);

  const auto root = profiler.Snapshot();
  const auto frame = std::find_if(
      root.children.begin(), root.children.end(), [](const Profiler::Node& n) {
        return n.name == "sentinel_stage_bank_scan";
      });
  ASSERT_NE(frame, root.children.end());
  EXPECT_EQ(frame->count, 1u);
  EXPECT_EQ(frame->total_ns, 250'000u);

  const auto spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  const auto& span = spans[0].parent_id != 0 ? spans[0] : spans[1];
  EXPECT_STREQ(span.name, "sentinel_stage_bank_scan");
  EXPECT_EQ(span.start_ns, ToNs(start));
  EXPECT_EQ(span.end_ns, ToNs(end));
}

TEST(StageScopeTest, JoinTraceRootsTheSpanOnTheDeviceTrace) {
  Tracer tracer;
  {
    // An enclosing context does not adopt a device-trace stage.
    ScopedSpan outer(&tracer, "sentinel_test_outer");
    StageScope stage(Stage::kCapture, nullptr, &tracer);
    EXPECT_FALSE(stage.traced());
    stage.JoinTrace(41);
    EXPECT_TRUE(stage.traced());
    stage.AddArg("k", "v");
  }
  const auto spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  const auto& span = spans[0].trace_id == 41 ? spans[0] : spans[1];
  EXPECT_STREQ(span.name, "sentinel_stage_capture");
  EXPECT_EQ(span.trace_id, 41u);
  EXPECT_EQ(span.parent_id, 0u);
  ASSERT_EQ(span.args.size(), 1u);
  EXPECT_LE(span.start_ns, span.end_ns);
}

class LogCaptureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetLogSink([this](std::string_view line) {
      lines_.emplace_back(line);
    });
  }
  void TearDown() override {
    SetLogSink(nullptr);
    SetLogThreshold(LogLevel::kOff);
  }
  std::vector<std::string> lines_;
};

TEST_F(LogCaptureTest, ThresholdFiltersLowerLevels) {
  SetLogThreshold(LogLevel::kInfo);
  SENTINEL_LOG_DEBUG("test", "hidden");
  SENTINEL_LOG_INFO("test", "shown");
  ASSERT_EQ(lines_.size(), 1u);
  EXPECT_NE(lines_[0].find("level=info"), std::string::npos);
  EXPECT_NE(lines_[0].find("component=test"), std::string::npos);
  EXPECT_NE(lines_[0].find("event=shown"), std::string::npos);
  EXPECT_NE(lines_[0].find("ts="), std::string::npos);
}

TEST_F(LogCaptureTest, OffSuppressesEverything) {
  SetLogThreshold(LogLevel::kOff);
  SENTINEL_LOG_ERROR("test", "silent");
  EXPECT_TRUE(lines_.empty());
}

TEST_F(LogCaptureTest, FieldsFormatAndQuote) {
  SetLogThreshold(LogLevel::kInfo);
  SENTINEL_LOG_INFO("test", "fields", {"count", 12}, {"ratio", 0.5},
                    {"flag", true}, {"name", "two words"});
  ASSERT_EQ(lines_.size(), 1u);
  EXPECT_NE(lines_[0].find("count=12"), std::string::npos);
  EXPECT_NE(lines_[0].find("flag=true"), std::string::npos);
  EXPECT_NE(lines_[0].find("name=\"two words\""), std::string::npos);
}

TEST_F(LogCaptureTest, ValuesWithStructuralCharactersAreQuoted) {
  SetLogThreshold(LogLevel::kInfo);
  SENTINEL_LOG_INFO("test", "quoting", {"eq", "a=b"}, {"empty", ""},
                    {"tab", "a\tb"});
  ASSERT_EQ(lines_.size(), 1u);
  EXPECT_NE(lines_[0].find("eq=\"a=b\""), std::string::npos);
  EXPECT_NE(lines_[0].find("empty=\"\""), std::string::npos);
  EXPECT_NE(lines_[0].find("tab=\"a\tb\""), std::string::npos);
}

TEST_F(LogCaptureTest, QuotesBackslashesAndNewlinesAreEscaped) {
  SetLogThreshold(LogLevel::kInfo);
  SENTINEL_LOG_INFO("test", "escaping", {"q", "say \"hi\""},
                    {"bs", "a\\b"}, {"nl", "two\nlines"});
  ASSERT_EQ(lines_.size(), 1u);
  EXPECT_NE(lines_[0].find("q=\"say \\\"hi\\\"\""), std::string::npos);
  EXPECT_NE(lines_[0].find("bs=\"a\\\\b\""), std::string::npos);
  EXPECT_NE(lines_[0].find("nl=\"two\\nlines\""), std::string::npos);
  // The physical log line itself must stay single-line.
  EXPECT_EQ(lines_[0].find('\n'), std::string::npos);
}

TEST(LogLevelTest, ParseNamesAndUnknowns) {
  EXPECT_EQ(ParseLogLevel("trace"), LogLevel::kTrace);
  EXPECT_EQ(ParseLogLevel("debug"), LogLevel::kDebug);
  EXPECT_EQ(ParseLogLevel("info"), LogLevel::kInfo);
  EXPECT_EQ(ParseLogLevel("warn"), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("error"), LogLevel::kError);
  EXPECT_EQ(ParseLogLevel("bogus"), LogLevel::kOff);
  EXPECT_EQ(ParseLogLevel(""), LogLevel::kOff);
}

// One registry hammered from every pool worker at once: counters, gauges,
// histograms and first-use registration all race here, which is exactly
// what the TSan CI job is meant to observe.
TEST(RegistryConcurrencyTest, ParallelForHammersOneRegistry) {
  MetricsRegistry registry;
  util::ThreadPool pool(4);
  constexpr std::size_t kTasks = 256;
  constexpr std::size_t kIters = 200;

  util::ParallelFor(&pool, kTasks, [&](std::size_t i) {
    // First-use registration races with reads from other workers.
    Counter& c = registry.GetCounter("sentinel_hammer_total");
    Histogram& h = registry.GetHistogram("sentinel_hammer_ns");
    Gauge& g = registry.GetGauge("sentinel_hammer_gauge");
    Histogram* ingress = StageHistogram(&registry, Stage::kIngress);
    for (std::size_t k = 0; k < kIters; ++k) {
      c.Increment();
      h.Observe(static_cast<double>(i * kIters + k));
      g.Set(static_cast<double>(i));
      StageScope stage(Stage::kIngress, ingress);
    }
    // Rendering concurrently with writes must also be race-free.
    if (i % 64 == 0) (void)registry.RenderPrometheus();
  });

  EXPECT_EQ(registry.GetCounter("sentinel_hammer_total").Value(),
            kTasks * kIters);
  // Each iteration observes once explicitly and once through its stage.
  EXPECT_EQ(registry.GetHistogram("sentinel_hammer_ns").Count(),
            kTasks * kIters);
  EXPECT_EQ(registry.GetHistogram("sentinel_stage_ingress_ns").Count(),
            kTasks * kIters);
}

TEST(DefaultRegistryTest, ScopedInstallAndRestore) {
  EXPECT_EQ(DefaultRegistry(), nullptr);
  MetricsRegistry registry;
  {
    ScopedDefaultRegistry scoped(&registry);
    EXPECT_EQ(DefaultRegistry(), &registry);
  }
  EXPECT_EQ(DefaultRegistry(), nullptr);
}

TEST(DefaultRegistryTest, ScopedSwapsRestoreInNestingOrder) {
  MetricsRegistry outer_registry;
  MetricsRegistry inner_registry;
  ScopedDefaultRegistry outer(&outer_registry);
  {
    ScopedDefaultRegistry inner(&inner_registry);
    EXPECT_EQ(DefaultRegistry(), &inner_registry);
  }
  EXPECT_EQ(DefaultRegistry(), &outer_registry);
}

// Exposition edge cases: the scrape format is a wire contract, so pin the
// corners a refactor could silently bend.

TEST(RegistryTest, EmptyHistogramStillRendersInfBucket) {
  MetricsRegistry registry;
  registry.GetHistogram("sentinel_idle_ns", "never observed", {10.0});
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("sentinel_idle_ns_bucket{le=\"10\"} 0"),
            std::string::npos);
  EXPECT_NE(text.find("sentinel_idle_ns_bucket{le=\"+Inf\"} 0"),
            std::string::npos);
  EXPECT_NE(text.find("sentinel_idle_ns_sum 0"), std::string::npos);
  EXPECT_NE(text.find("sentinel_idle_ns_count 0"), std::string::npos);
}

TEST(RegistryTest, InfBucketCountsObservationsBeyondAllBounds) {
  MetricsRegistry registry;
  auto& h = registry.GetHistogram("sentinel_tail_ns", "tail", {1.0});
  h.Observe(1e18);  // beyond every finite bound
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("sentinel_tail_ns_bucket{le=\"1\"} 0"),
            std::string::npos);
  EXPECT_NE(text.find("sentinel_tail_ns_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
}

TEST(RegistryTest, RendersLexicographicOrderWithinEachKind) {
  // The exposition groups by kind (counters, gauges, histograms); within
  // each group names must come out lexicographically no matter the
  // registration order, so scrapes diff cleanly.
  MetricsRegistry registry;
  registry.GetCounter("sentinel_zz_total").Increment();
  registry.GetCounter("sentinel_aa_total").Increment();
  registry.GetGauge("sentinel_z_level").Set(1.0);
  registry.GetGauge("sentinel_a_level").Set(1.0);
  registry.GetHistogram("sentinel_z_ns").Observe(1.0);
  registry.GetHistogram("sentinel_a_ns").Observe(1.0);
  const std::string text = registry.RenderPrometheus();
  EXPECT_LT(text.find("# TYPE sentinel_aa_total"),
            text.find("# TYPE sentinel_zz_total"));
  EXPECT_LT(text.find("# TYPE sentinel_a_level"),
            text.find("# TYPE sentinel_z_level"));
  EXPECT_LT(text.find("# TYPE sentinel_a_ns"),
            text.find("# TYPE sentinel_z_ns"));
  // Kind groups themselves hold a fixed order: counters, gauges,
  // histograms.
  EXPECT_LT(text.find("sentinel_zz_total"), text.find("sentinel_a_level"));
  EXPECT_LT(text.find("sentinel_z_level"), text.find("sentinel_a_ns"));
}

}  // namespace
}  // namespace sentinel::obs
