// Microbenchmarks (google-benchmark) for the hot paths behind Table IV and
// the enforcement datapath: feature extraction, fingerprint construction,
// edit distance by length, forest prediction, flow-table lookup at cache
// sizes up to 20000 rules (exact-only and gateway-shaped), and
// enforcement-policy evaluation.
#include <benchmark/benchmark.h>

#include <memory>
#include <random>

#include "capture/trace.h"
#include "core/device_identifier.h"
#include "core/enforcement.h"
#include "devices/simulator.h"
#include "features/edit_distance.h"
#include "ml/random_forest.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/quality.h"
#include "obs/stage.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sdn/flow_table.h"
#include "util/thread_pool.h"

namespace {
using namespace sentinel;

const devices::SimulatedEpisode& SampleEpisode() {
  static const devices::SimulatedEpisode episode = [] {
    devices::DeviceSimulator simulator(42);
    return simulator.RunSetupEpisode(devices::FindDeviceType("HueBridge"));
  }();
  return episode;
}

void BM_ParseFrame(benchmark::State& state) {
  const auto& frame = SampleEpisode().trace.frames().front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::ParseFrame(frame));
  }
}
BENCHMARK(BM_ParseFrame);

void BM_FingerprintExtraction(benchmark::State& state) {
  const auto packets = devices::DeviceSimulator::DevicePackets(SampleEpisode());
  for (auto _ : state) {
    auto fp = features::Fingerprint::FromPackets(packets);
    benchmark::DoNotOptimize(
        features::FixedFingerprint::FromFingerprint(fp));
  }
}
BENCHMARK(BM_FingerprintExtraction);

void BM_EditDistance(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<features::PacketFeatureVector> a(n), b(n);
  std::mt19937_64 rng(1);
  for (std::size_t i = 0; i < n; ++i) {
    a[i][features::kFeatPacketSize] = static_cast<std::uint32_t>(rng() % 64);
    b[i][features::kFeatPacketSize] = static_cast<std::uint32_t>(rng() % 64);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(features::EditDistance(a, b));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EditDistance)->RangeMultiplier(2)->Range(8, 128)->Complexity();

void BM_ForestPredict(benchmark::State& state) {
  static const auto setup = [] {
    const auto dataset = devices::GenerateFingerprintDataset(10, 42);
    ml::Dataset data(features::kFPrimeDim);
    for (std::size_t i = 0; i < dataset.size(); ++i)
      data.Add(dataset.fixed[i].ToVector(), dataset.labels[i] == 0 ? 1 : 0);
    auto forest = std::make_unique<ml::RandomForest>();
    ml::RandomForestConfig config;
    config.tree_count = 30;
    forest->Train(data, config);
    return std::make_pair(std::move(forest), dataset.fixed[0].ToVector());
  }();
  for (auto _ : state) {
    benchmark::DoNotOptimize(setup.first->PositiveProba(setup.second));
  }
}
BENCHMARK(BM_ForestPredict);

// Forest training scaling curve: 30 trees on a binary one-vs-rest dataset
// (the Security Service's per-type workload), by thread count. arg = pool
// threads; 1 uses the sequential path. Real time, because the work runs on
// pool workers.
void BM_ForestTrain(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  static const ml::Dataset& data = [] {
    const auto dataset = devices::GenerateFingerprintDataset(10, 42);
    auto* d = new ml::Dataset(features::kFPrimeDim);
    for (std::size_t i = 0; i < dataset.size(); ++i)
      d->Add(dataset.fixed[i].ToVector(), dataset.labels[i] == 0 ? 1 : 0);
    return *d;
  }();
  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<util::ThreadPool>(threads);
  ml::RandomForestConfig config;
  config.tree_count = 30;
  for (auto _ : state) {
    ml::RandomForest forest;
    forest.Train(data, config, pool.get());
    benchmark::DoNotOptimize(forest.oob_accuracy());
  }
}
BENCHMARK(BM_ForestTrain)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Classifier-bank training scaling curve: the full 27-type
// DeviceIdentifier::Train (27 one-vs-rest forests + reference retention),
// by thread count.
void BM_BankTrain(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  static const devices::FingerprintDataset& dataset = [] {
    return *new devices::FingerprintDataset(
        devices::GenerateFingerprintDataset(10, 42));
  }();
  static const std::vector<core::LabelledFingerprint>& train = [] {
    auto* examples = new std::vector<core::LabelledFingerprint>();
    examples->reserve(dataset.size());
    for (std::size_t i = 0; i < dataset.size(); ++i) {
      examples->push_back(core::LabelledFingerprint{
          &dataset.fingerprints[i], &dataset.fixed[i], dataset.labels[i]});
    }
    return *examples;
  }();
  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<util::ThreadPool>(threads);
  for (auto _ : state) {
    core::DeviceIdentifier identifier;
    identifier.set_thread_pool(pool.get());
    identifier.Train(train);
    benchmark::DoNotOptimize(identifier.type_count());
  }
}
BENCHMARK(BM_BankTrain)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_FlowTableLookup(benchmark::State& state) {
  const auto rules = static_cast<std::size_t>(state.range(0));
  sdn::FlowTable table;
  for (std::size_t i = 0; i < rules; ++i) {
    sdn::FlowRule rule;
    rule.priority = 10;
    rule.match.eth_src = net::MacAddress::FromUint64(i);
    rule.match.eth_dst = net::MacAddress::FromUint64(1'000'000 + i);
    rule.actions = {sdn::ActionOutput{1}};
    table.Add(std::move(rule));
  }
  net::UdpDatagram udp;
  udp.src_port = 50000;
  udp.dst_port = 7000;
  const auto frame = net::BuildUdp4Frame(
      1, net::MacAddress::FromUint64(rules / 2),
      net::MacAddress::FromUint64(1'000'000 + rules / 2),
      net::Ipv4Address(192, 168, 1, 5), net::Ipv4Address(192, 168, 1, 6),
      udp);
  const auto packet = net::ParseFrame(frame);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Lookup(packet, 1));
  }
}
BENCHMARK(BM_FlowTableLookup)->RangeMultiplier(10)->Range(10, 20000);

// The table a gateway builds: N devices, each holding one learning-switch
// rule (eth_src + eth_dst, priority 10) and one WAN-allow rule (eth_src +
// public ip_dst, priority 50). The second argument picks the probe from
// the middle device: 0 = to its allowed cloud endpoint (allow rule wins),
// 1 = to its learned peer (learning rule wins), 2 = broadcast (miss).
void BM_FlowTableGatewayLookup(benchmark::State& state) {
  const auto devices = static_cast<std::uint64_t>(state.range(0));
  const auto gateway_mac = net::MacAddress::FromUint64(0x0200'5e00'0001);
  const net::Ipv4Address cloud(52, 1, 2, 3);
  sdn::FlowTable table;
  for (std::uint64_t i = 0; i < devices; ++i) {
    sdn::FlowRule learn;
    learn.priority = 10;
    learn.match.eth_src = net::MacAddress::FromUint64(i);
    learn.match.eth_dst = net::MacAddress::FromUint64(1'000'000 + i);
    learn.actions = {sdn::ActionOutput{2}};
    table.Add(std::move(learn));
    sdn::FlowRule allow;
    allow.priority = 50;
    allow.match.eth_src = net::MacAddress::FromUint64(i);
    allow.match.ip_dst = cloud;
    allow.actions = {sdn::ActionOutput{1}};
    table.Add(std::move(allow));
  }
  const auto device = net::MacAddress::FromUint64(devices / 2);
  const auto peer = net::MacAddress::FromUint64(1'000'000 + devices / 2);
  const net::Ipv4Address device_ip(192, 168, 1, 5);
  net::UdpDatagram udp;
  udp.src_port = 50000;
  udp.dst_port = 7000;
  net::Frame frame;
  switch (state.range(1)) {
    case 0:
      frame = net::BuildUdp4Frame(1, device, gateway_mac, device_ip, cloud,
                                  udp);
      break;
    case 1:
      frame = net::BuildUdp4Frame(1, device, peer, device_ip,
                                  net::Ipv4Address(192, 168, 1, 6), udp);
      break;
    default:
      frame = net::BuildUdp4Frame(1, device, net::MacAddress::Broadcast(),
                                  device_ip, net::Ipv4Address::Broadcast(),
                                  udp);
      break;
  }
  const auto packet = net::ParseFrame(frame);
  const bool expect_hit = state.range(1) != 2;
  if ((table.Lookup(packet, 1) != nullptr) != expect_hit) {
    state.SkipWithError("probe did not resolve as intended");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Lookup(packet, 1));
  }
}
BENCHMARK(BM_FlowTableGatewayLookup)
    ->ArgsProduct({{10, 100, 1000, 10000, 20000}, {0, 1, 2}})
    ->ArgNames({"devices", "probe"});

void BM_EnforcementAuthorize(benchmark::State& state) {
  const auto rules = static_cast<std::size_t>(state.range(0));
  core::EnforcementEngine engine(
      *net::MacAddress::Parse("02:00:5e:00:00:01"),
      net::Ipv4Address(192, 168, 1, 1));
  for (std::size_t i = 0; i < rules; ++i) {
    core::EnforcementRule rule;
    rule.device_mac = net::MacAddress::FromUint64(i);
    rule.level = core::IsolationLevel::kRestricted;
    rule.allowed_endpoints = {net::Ipv4Address(52, 1, 2, 3)};
    engine.Install(std::move(rule));
  }
  net::ParsedPacket packet;
  packet.src_mac = net::MacAddress::FromUint64(rules / 2);
  packet.dst_mac = *net::MacAddress::Parse("02:00:5e:00:00:01");
  packet.protocols.Set(net::Protocol::kIp);
  packet.protocols.Set(net::Protocol::kTcp);
  packet.src_ip = net::IpAddress(net::Ipv4Address(192, 168, 1, 77));
  packet.dst_ip = net::IpAddress(net::Ipv4Address(52, 1, 2, 3));
  packet.src_port = 50000;
  packet.dst_port = 443;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Authorize(packet));
  }
}
BENCHMARK(BM_EnforcementAuthorize)->RangeMultiplier(10)->Range(10, 20000);

void BM_PcapEncodeDecode(benchmark::State& state) {
  const auto& frames = SampleEpisode().trace.frames();
  for (auto _ : state) {
    const auto blob = capture::EncodePcap(frames);
    benchmark::DoNotOptimize(capture::Trace::FromPcap(blob));
  }
}
BENCHMARK(BM_PcapEncodeDecode);

// Cost of a span site per tracing mode (range(0)): 0 = detached (no
// tracer anywhere — the single-branch contract every per-packet call site
// pays), 1 = attached root span, 2 = attached root + nested child with
// two args (the shape of the per-device identify stage). The stage modes
// time the pipeline's one instrument, a StageScope: 3 = detached (the
// per-frame ingress shape with no histogram, profiler or trace context:
// no clock read), 4 = every sink attached (the capture shape: histogram,
// profiler, and a span on a device trace).
void BM_TraceOverhead(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  obs::Tracer tracer;
  obs::MetricsRegistry registry;
  obs::Histogram* capture_ns =
      obs::StageHistogram(&registry, obs::Stage::kCapture);
  obs::Profiler profiler;
  obs::ScopedProfiler scoped_profiler(mode == 4 ? &profiler : nullptr);
  for (auto _ : state) {
    switch (mode) {
      case 3: {
        obs::StageScope stage(obs::Stage::kIngress);
        benchmark::DoNotOptimize(stage.traced());
        break;
      }
      case 4: {
        obs::StageScope stage(obs::Stage::kCapture, capture_ns, &tracer);
        stage.JoinTrace(1);
        benchmark::DoNotOptimize(stage.traced());
        break;
      }
      case 0: {
        obs::ScopedSpan span("sentinel_bench_detached");
        benchmark::DoNotOptimize(span.enabled());
        break;
      }
      case 1: {
        obs::ScopedSpan span(&tracer, "sentinel_bench_root");
        benchmark::DoNotOptimize(span.enabled());
        break;
      }
      default: {
        obs::ScopedSpan root(&tracer, "sentinel_bench_root");
        obs::ScopedSpan child("sentinel_bench_child");
        child.AddArg("label", "HueBridge");
        child.AddArg("proba", "0.92");
        benchmark::DoNotOptimize(child.enabled());
        break;
      }
    }
  }
}
BENCHMARK(BM_TraceOverhead)->Arg(0)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

// Cost of the quality monitor at a verdict site (same contract as
// BM_TraceOverhead): 0 = detached — the single null-pointer branch every
// Identify() pays with no monitor attached; 1 = attached Record() of one
// verdict against a bound type (a handful of relaxed atomic bumps).
void BM_QualityRecord(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  obs::MetricsRegistry registry;
  obs::QualityMonitor monitor(&registry);
  monitor.BindTypes({0, 1, 2});
  obs::QualityMonitor* attached = mode == 0 ? nullptr : &monitor;
  const obs::QualitySample sample{.top_label = 1,
                                  .top1_probability = 0.9,
                                  .top2_probability = 0.4,
                                  .best_dissimilarity = 1.25};
  for (auto _ : state) {
    if (attached != nullptr) attached->Record(sample);
    benchmark::DoNotOptimize(attached);
  }
}
BENCHMARK(BM_QualityRecord)->Arg(0)->Arg(1);

// Journal append cost: the flight recorder takes a mutex and copies one
// event into a per-device ring (never on the per-packet fast path when
// detached, which is a null check).
void BM_FlightRecorderRecord(benchmark::State& state) {
  obs::FlightRecorder recorder;
  const auto mac = *net::MacAddress::Parse("02:00:00:00:00:01");
  for (auto _ : state) {
    recorder.Record(mac, {.kind = obs::DeviceEventKind::kPacketObserved,
                          .timestamp_ns = 1,
                          .flag = true});
  }
}
BENCHMARK(BM_FlightRecorderRecord);

// One sampler tick of the time-series store: snapshotting every registered
// instrument into its ring. range(0) = registered scalar series count
// (half counters, half gauges) plus one 20-bucket histogram — the shape of
// the serve loop's periodic Sample(), whose cost must stay flat so a 1 s
// cadence never competes with the identification path.
void BM_TimeseriesSample(benchmark::State& state) {
  const auto series = static_cast<std::size_t>(state.range(0));
  obs::MetricsRegistry registry;
  for (std::size_t i = 0; i < series / 2; ++i) {
    registry.GetCounter("sentinel_bench_c" + std::to_string(i))
        .Increment(i + 1);
    registry.GetGauge("sentinel_bench_g" + std::to_string(i))
        .Set(static_cast<double>(i));
  }
  std::vector<double> bounds;
  for (int i = 1; i <= 20; ++i) bounds.push_back(0.05 * i);
  auto& histogram =
      registry.GetHistogram("sentinel_bench_margin", "", bounds);
  for (int i = 0; i < 1024; ++i) histogram.Observe(0.001 * (i % 1000));
  obs::TimeSeriesStore store(&registry);
  std::int64_t now_ns = 0;
  for (auto _ : state) {
    store.Sample(now_ns += 1'000'000);
    benchmark::DoNotOptimize(store.samples_taken());
  }
}
BENCHMARK(BM_TimeseriesSample)->Arg(8)->Arg(64)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
