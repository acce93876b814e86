// sentinelctl — command-line front end to the IoT Sentinel library.
//
//   sentinelctl catalog
//       List the known device-type catalog with connectivity, cluster and
//       vulnerability metadata.
//   sentinelctl train <model.bin> [--episodes N] [--seed S] [--standby]
//       Train the per-type classifier bank and persist it.
//   sentinelctl record <out.pcap> <device-type> [--seed S] [--updated]
//                      [--standby]
//       Simulate a device episode and write it as a standard pcap.
//   sentinelctl identify <model.bin> <capture.pcap>
//       Identify every device in a capture and print the assessment
//       (isolation level, allowlist, advisories).
//   sentinelctl explain <model.bin> <capture.pcap> [mac]
//       Identify like above, then print each device's flight-recorder
//       journal: every classifier's vote, all tie-break scores, the
//       verdict, advisories and the enforcement level.
//   sentinelctl fingerprint <capture.pcap>
//       Dump the fingerprint matrix F of every device whose setup phase
//       the gateway's monitor captures from the pcap, in capture order.
//   sentinelctl evaluate [--episodes N] [--reps R] [--seed S] [--out f.md]
//       Run the paper's cross-validation protocol and print accuracy
//       (optionally also written as a Markdown report).
//   sentinelctl stats [--episodes N] [--seed S] [--json]
//       Exercise the full gateway pipeline on simulated episodes and dump
//       the collected metrics registry.
//   sentinelctl serve [--listen PORT] [--episodes N] [--seed S]
//                     [--rules FILE] [--sample-interval SEC]
//                     [--queue-depth N] [--batch-target N]
//                     [--max-body-bytes N] [--serve-threads N]
//       Exercise the gateway pipeline like `stats`, then serve live
//       telemetry over HTTP: /healthz, /metrics (Prometheus text),
//       /metrics.json, /timeseries (windowed series), /quality (drift
//       monitor), /alerts (rule engine), /devices and /devices/<mac>
//       (flight-recorder JSON). A sampler thread snapshots the registry
//       and evaluates the alert rules every --sample-interval seconds.
//       `serve` is also the always-on identification service: POST
//       /identify (JSON or binary probe) and POST /ingest (raw pcap)
//       enqueue into a MAC-keyed admission queue that any free serving
//       thread (the drain thread, or a connection handler waiting on its
//       verdict) empties in batches of up to --batch-target through
//       DeviceIdentifier::IdentifyBatch, with explicit 429 + Retry-After
//       overload push-back.
//   sentinelctl alerts [--seed S] [--json]
//       Run the firmware-drift scenario: one trained type's traffic
//       shape gradually shifts while a control type stays clean; print
//       the per-window PSI trajectory and the drifted type's alert
//       walking ok -> pending -> firing.
//   sentinelctl profile [--episodes N] [--seed S] [--json] [--out f]
//       Run the stats pipeline with the in-process profiler attached and
//       print the merged self/total-time frame tree (JSON with --json;
//       --out writes collapsed stacks for flamegraph.pl / speedscope).
//   sentinelctl diag <output-dir> [--episodes N] [--seed S]
//       Run the stats pipeline with the full observability plane
//       attached and write a debug bundle: metrics (Prometheus + JSON),
//       profile (JSON + collapsed), lock contention, memory attribution,
//       time series, quality, alerts, trace and build info.
//
// `train`, `identify`, `evaluate` and `stats` accept
// `--metrics-out <file>` to write the run's metrics registry (Prometheus
// text, or JSON with `--json`). `train`, `identify`, `explain` and
// `evaluate` accept `--trace-out <file>` to write the run's spans as
// Chrome-trace-event JSON (loads in Perfetto / chrome://tracing).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "capture/trace.h"
#include "core/device_identifier.h"
#include "core/device_monitor.h"
#include "core/gateway.h"
#include "core/identify_server.h"
#include "core/security_service.h"
#include "core/sentinel_module.h"
#include "core/vulnerability_db.h"
#include "devices/environment.h"
#include "devices/simulator.h"
#include "eval/experiment.h"
#include "netsim/drift.h"
#include "obs/alerts.h"
#include "obs/build_info.h"
#include "obs/flight_recorder.h"
#include "obs/memory_accounting.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/quality.h"
#include "obs/telemetry_server.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace {
using namespace sentinel;

struct Options {
  std::vector<std::string> positional;
  std::size_t episodes = 20;
  std::size_t reps = 10;
  std::uint64_t seed = 42;
  bool seed_set = false;
  bool standby = false;
  bool updated = false;
  bool json = false;
  std::string out_path;
  std::string metrics_out;
  std::string trace_out;
  std::string rules_path;
  std::uint16_t listen_port = 0;
  std::size_t sample_interval = 1;
  // `serve` identification-service knobs (see core/identify_server.h).
  std::size_t queue_depth = 256;
  std::size_t batch_target = 16;
  std::size_t max_body_bytes = 1 << 20;
  std::size_t serve_threads = 4;
};

/// Writes the run's metrics to --metrics-out when requested.
void DumpMetrics(const obs::MetricsRegistry& registry,
                 const Options& options) {
  if (options.metrics_out.empty()) return;
  registry.WriteFile(options.metrics_out, options.json);
  std::printf("wrote metrics (%s) to %s\n",
              options.json ? "json" : "prometheus",
              options.metrics_out.c_str());
}

/// Writes the run's span trace to --trace-out when requested.
void DumpTrace(const obs::Tracer& tracer, const Options& options) {
  if (options.trace_out.empty()) return;
  tracer.WriteChromeJson(options.trace_out);
  std::printf("wrote %llu spans (chrome trace json) to %s\n",
              static_cast<unsigned long long>(tracer.recorded()),
              options.trace_out.c_str());
}

Options ParseOptions(int argc, char** argv, int first) {
  Options options;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--episodes") {
      options.episodes = std::stoul(next_value());
    } else if (arg == "--reps") {
      options.reps = std::stoul(next_value());
    } else if (arg == "--seed") {
      options.seed = std::stoull(next_value());
      options.seed_set = true;
    } else if (arg == "--standby") {
      options.standby = true;
    } else if (arg == "--updated") {
      options.updated = true;
    } else if (arg == "--json") {
      options.json = true;
    } else if (arg == "--out") {
      options.out_path = next_value();
    } else if (arg == "--metrics-out") {
      options.metrics_out = next_value();
    } else if (arg == "--trace-out") {
      options.trace_out = next_value();
    } else if (arg == "--listen") {
      const unsigned long port = std::stoul(next_value());
      if (port > 65535) throw std::runtime_error("--listen: port > 65535");
      options.listen_port = static_cast<std::uint16_t>(port);
    } else if (arg == "--rules") {
      options.rules_path = next_value();
    } else if (arg == "--sample-interval") {
      options.sample_interval = std::stoul(next_value());
      if (options.sample_interval == 0)
        throw std::runtime_error("--sample-interval: must be >= 1 second");
    } else if (arg == "--queue-depth") {
      options.queue_depth = std::stoul(next_value());
      if (options.queue_depth == 0)
        throw std::runtime_error("--queue-depth: must be >= 1");
    } else if (arg == "--batch-target") {
      options.batch_target = std::stoul(next_value());
      if (options.batch_target == 0)
        throw std::runtime_error("--batch-target: must be >= 1");
    } else if (arg == "--max-body-bytes") {
      options.max_body_bytes = std::stoul(next_value());
    } else if (arg == "--serve-threads") {
      options.serve_threads = std::stoul(next_value());
      if (options.serve_threads == 0)
        throw std::runtime_error("--serve-threads: must be >= 1");
    } else if (arg.rfind("--", 0) == 0) {
      throw std::runtime_error("unknown option " + arg);
    } else {
      options.positional.push_back(arg);
    }
  }
  return options;
}

int CmdCatalog() {
  std::printf("%-20s %-10s %-28s %-5s %-4s %s\n", "identifier", "vendor",
              "connectivity", "CVEs", "WPS", "cloud endpoints");
  for (const auto& info : devices::DeviceCatalog()) {
    std::string connectivity;
    if (info.connectivity.wifi) connectivity += "wifi ";
    if (info.connectivity.zigbee) connectivity += "zigbee ";
    if (info.connectivity.ethernet) connectivity += "ethernet ";
    if (info.connectivity.zwave) connectivity += "zwave ";
    if (info.connectivity.other) connectivity += "other ";
    std::string endpoints;
    for (const auto& endpoint : info.cloud_endpoints) {
      if (!endpoints.empty()) endpoints += ", ";
      endpoints += endpoint;
    }
    std::printf("%-20s %-10s %-28s %-5s %-4s %s\n", info.identifier.c_str(),
                info.vendor.c_str(), connectivity.c_str(),
                info.has_known_vulnerabilities ? "yes" : "no",
                info.supports_wps_rekeying ? "yes" : "no", endpoints.c_str());
  }
  return 0;
}

int CmdTrain(const Options& options) {
  if (options.positional.empty())
    throw std::runtime_error("train: missing <model.bin>");
  const auto& path = options.positional[0];
  std::printf("simulating %zu %s episodes per type...\n", options.episodes,
              options.standby ? "standby" : "setup");
  const auto dataset =
      options.standby
          ? devices::GenerateStandbyFingerprintDataset(options.episodes,
                                                       options.seed)
          : devices::GenerateFingerprintDataset(options.episodes,
                                                options.seed);
  std::vector<core::LabelledFingerprint> train;
  for (std::size_t i = 0; i < dataset.size(); ++i)
    train.push_back(core::LabelledFingerprint{
        &dataset.fingerprints[i], &dataset.fixed[i], dataset.labels[i]});
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  core::DeviceIdentifier identifier;
  {
    obs::ScopedDefaultRegistry scoped_registry(
        options.metrics_out.empty() ? nullptr : &registry);
    util::ThreadPool pool;  // auto-attaches to the default registry
    identifier.set_thread_pool(&pool);
    if (!options.metrics_out.empty()) identifier.set_metrics(&registry);
    obs::ScopedSpan train_span(
        options.trace_out.empty() ? nullptr : &tracer, "sentinel_train");
    identifier.Train(train);
    train_span.End();
    identifier.set_thread_pool(nullptr);
  }
  identifier.SaveToFile(path);
  std::printf("trained %zu per-type classifiers -> %s (%.1f KiB in memory)\n",
              identifier.type_count(), path.c_str(),
              static_cast<double>(identifier.MemoryBytes()) / 1024.0);
  std::printf("mean out-of-bag accuracy of the binary classifiers: %.3f\n",
              identifier.MeanOobAccuracy());
  DumpMetrics(registry, options);
  DumpTrace(tracer, options);
  return 0;
}

int CmdRecord(const Options& options) {
  if (options.positional.size() < 2)
    throw std::runtime_error("record: need <out.pcap> <device-type>");
  const auto& path = options.positional[0];
  const auto type = devices::FindDeviceType(options.positional[1]);
  if (type < 0)
    throw std::runtime_error("unknown device type '" + options.positional[1] +
                             "' (see `sentinelctl catalog`)");
  devices::DeviceSimulator simulator(options.seed);
  const auto episode =
      options.standby
          ? simulator.RunStandbyEpisode(type)
          : simulator.RunSetupEpisode(
                type, options.updated ? devices::FirmwareVersion::kUpdated
                                      : devices::FirmwareVersion::kFactory);
  capture::WritePcapFile(path, episode.trace.frames());
  std::printf("wrote %zu frames (%s, %s traffic) to %s\n",
              episode.trace.size(), options.positional[1].c_str(),
              options.standby ? "standby"
                              : (options.updated ? "updated-firmware setup"
                                                 : "setup"),
              path.c_str());
  return 0;
}

/// Reads a pcap file; malformed content throws with the typed parse error
/// ("truncated_record at record 3: ...").
capture::Trace LoadPcap(const std::string& path) {
  capture::TraceError error;
  auto trace = capture::ReadPcapFile(path, &error);
  if (!trace)
    throw std::runtime_error(path + ": malformed pcap: " + error.ToString());
  return std::move(*trace);
}

/// One device's outcome from RunIdentificationPipeline.
struct IdentifiedDevice {
  net::MacAddress mac;
  std::size_t packet_count = 0;
  core::AssessmentResult assessment;
};

/// Replays a pcap through the live gateway's own stages: its device
/// monitor's setup-phase capture (capture + fingerprint), then the
/// Sentinel module's onboarding step per capture (Security Service
/// assessment, enforcement-rule installation), with optional tracing and
/// per-device flight recording. Shared by `identify` and `explain` so both
/// tell the same decision story.
std::vector<IdentifiedDevice> RunIdentificationPipeline(
    core::SecurityService& service, const std::string& pcap_path,
    obs::MetricsRegistry* metrics, obs::Tracer* tracer,
    obs::FlightRecorder* recorder) {
  core::EnforcementEngine engine(net::MacAddress({0x02, 0, 0x5e, 0, 0, 1}),
                                 net::Ipv4Address(192, 168, 1, 1));
  core::SentinelModule module(service, engine, {});
  module.set_tracer(tracer);
  module.set_flight_recorder(recorder);
  if (metrics != nullptr) {
    module.set_metrics(metrics);
    engine.set_metrics(metrics);
    service.set_metrics(metrics);
  }
  std::vector<IdentifiedDevice> out;
  for (const auto& capture : module.monitor().Replay(LoadPcap(pcap_path))) {
    out.push_back(IdentifiedDevice{capture.device_mac, capture.packet_count,
                                   module.Onboard(capture)});
  }
  return out;
}

/// Loads <model.bin> into an in-process Security Service seeded with the
/// catalog vulnerability database.
core::SecurityService LoadSecurityService(const std::string& model_path,
                                          obs::MetricsRegistry* metrics) {
  auto identifier = core::DeviceIdentifier::LoadFromFile(model_path);
  if (metrics != nullptr) identifier.set_metrics(metrics);
  return core::SecurityService(std::move(identifier),
                               core::VulnerabilityDb::SeedFromCatalog());
}

void PrintAssessment(const IdentifiedDevice& device) {
  std::printf("%s: %zu packets", device.mac.ToString().c_str(),
              device.packet_count);
  const auto& assessment = device.assessment;
  if (!assessment.type.has_value()) {
    std::printf(" -> UNKNOWN device-type (isolation: %s)\n",
                core::ToString(assessment.level).c_str());
    return;
  }
  const auto& info = devices::GetDeviceType(*assessment.type);
  std::printf(" -> %s (%s)\n", info.identifier.c_str(), info.model.c_str());
  if (assessment.advisories.empty()) {
    std::printf("   no known vulnerabilities -> isolation: %s\n",
                core::ToString(assessment.level).c_str());
  } else {
    std::printf("   %zu advisories -> isolation: %s, allowlist:\n",
                assessment.advisories.size(),
                core::ToString(assessment.level).c_str());
    for (const auto& endpoint : assessment.allowed_endpoint_names)
      std::printf("     %s\n", endpoint.c_str());
    for (const auto& advisory : assessment.advisories)
      std::printf("     %s (CVSS %.1f)\n", advisory.cve_id.c_str(),
                  advisory.cvss_score);
  }
  if (assessment.requires_user_notification)
    std::printf("   NOTE: uncontrollable side channel -> notify the user\n");
}

int CmdIdentify(const Options& options) {
  if (options.positional.size() < 2)
    throw std::runtime_error("identify: need <model.bin> <capture.pcap>");
  obs::MetricsRegistry registry;
  obs::MetricsRegistry* metrics =
      options.metrics_out.empty() ? nullptr : &registry;
  obs::Tracer tracer;
  obs::Tracer* trace_sink = options.trace_out.empty() ? nullptr : &tracer;
  auto service = LoadSecurityService(options.positional[0], metrics);
  const auto devices_seen = RunIdentificationPipeline(
      service, options.positional[1], metrics, trace_sink, nullptr);
  for (const auto& device : devices_seen) PrintAssessment(device);
  DumpMetrics(registry, options);
  DumpTrace(tracer, options);
  return 0;
}

int CmdExplain(const Options& options) {
  if (options.positional.size() < 2)
    throw std::runtime_error("explain: need <model.bin> <capture.pcap> [mac]");
  obs::Tracer tracer;
  obs::Tracer* trace_sink = options.trace_out.empty() ? nullptr : &tracer;
  obs::FlightRecorder recorder;
  auto service = LoadSecurityService(options.positional[0], nullptr);
  RunIdentificationPipeline(service, options.positional[1], nullptr,
                            trace_sink, &recorder);
  if (options.positional.size() >= 3) {
    const auto mac = net::MacAddress::Parse(options.positional[2]);
    if (!mac.has_value())
      throw std::runtime_error("explain: bad mac '" + options.positional[2] +
                               "'");
    if (!recorder.Known(*mac))
      throw std::runtime_error("explain: no journal for " + mac->ToString());
    std::fputs(recorder.Explain(*mac).c_str(), stdout);
  } else {
    for (const auto& mac : recorder.Devices())
      std::fputs(recorder.Explain(mac).c_str(), stdout);
  }
  DumpTrace(tracer, options);
  return 0;
}

int CmdFingerprint(const Options& options) {
  if (options.positional.empty())
    throw std::runtime_error("fingerprint: need <capture.pcap>");
  core::DeviceMonitor monitor;
  for (const auto& capture : monitor.Replay(LoadPcap(options.positional[0]))) {
    const auto& fingerprint = capture.full;
    std::printf("%s: F is 23 x %zu\n", capture.device_mac.ToString().c_str(),
                fingerprint.size());
    for (std::size_t i = 0; i < fingerprint.size(); ++i) {
      std::printf("  p%-3zu", i + 1);
      for (const auto value : fingerprint.packets()[i])
        std::printf(" %4u", value);
      std::printf("\n");
    }
  }
  return 0;
}

int CmdEvaluate(const Options& options) {
  std::printf("dataset: 27 types x %zu episodes; %zu repetitions of "
              "stratified 10-fold CV\n",
              options.episodes, options.reps);
  const auto dataset =
      devices::GenerateFingerprintDataset(options.episodes, options.seed);
  eval::CrossValidationConfig config;
  config.repetitions = options.reps;
  obs::MetricsRegistry registry;
  obs::MetricsRegistry* metrics =
      options.metrics_out.empty() ? nullptr : &registry;
  obs::Tracer tracer;
  const auto outcome = [&] {
    obs::ScopedDefaultRegistry scoped_registry(metrics);
    util::ThreadPool pool;  // auto-attaches to the default registry
    // Root span for the whole protocol; per-fold training spans nest under
    // it because ForEachFold carries the trace context into the pool.
    obs::ScopedSpan evaluate_span(
        options.trace_out.empty() ? nullptr : &tracer, "sentinel_evaluate");
    return eval::RunCrossValidation(dataset, config, &pool, metrics);
  }();
  for (std::size_t t = 0; t < devices::DeviceTypeCount(); ++t) {
    std::printf("%-20s %.3f\n",
                devices::GetDeviceType(static_cast<int>(t)).identifier.c_str(),
                outcome.PerTypeAccuracy(t));
  }
  std::printf("%-20s %.3f (paper: 0.815)\n", "GLOBAL",
              outcome.OverallAccuracy());

  if (!options.out_path.empty()) {
    std::FILE* f = std::fopen(options.out_path.c_str(), "w");
    if (f == nullptr)
      throw std::runtime_error("cannot write " + options.out_path);
    std::fprintf(f, "# IoT Sentinel identification report\n\n");
    std::fprintf(f,
                 "Protocol: %zu episodes/type, %zu repetitions of stratified "
                 "%zu-fold cross-validation, seed %llu.\n\n",
                 options.episodes, options.reps, config.folds,
                 static_cast<unsigned long long>(options.seed));
    std::fprintf(f, "| device-type | accuracy |\n|---|---|\n");
    for (std::size_t t = 0; t < devices::DeviceTypeCount(); ++t) {
      std::fprintf(
          f, "| %s | %.3f |\n",
          devices::GetDeviceType(static_cast<int>(t)).identifier.c_str(),
          outcome.PerTypeAccuracy(t));
    }
    std::fprintf(f, "| **GLOBAL** | **%.3f** |\n\n",
                 outcome.OverallAccuracy());
    std::fprintf(f,
                 "Multi-match rate: %.1f%%; unknown verdicts: %zu of %zu.\n",
                 100.0 * static_cast<double>(outcome.multi_match_count) /
                     static_cast<double>(outcome.total_identifications),
                 [&] {
                   std::size_t u = 0;
                   for (const auto v : outcome.unknown_per_type) u += v;
                   return u;
                 }(),
                 outcome.total_identifications);
    std::fclose(f);
    std::printf("wrote %s\n", options.out_path.c_str());
  }
  DumpMetrics(registry, options);
  DumpTrace(tracer, options);
  return 0;
}

/// Trains a Security Service and streams `demo_devices` simulated setup
/// episodes through a fully wired Security Gateway. Shared by `stats`
/// (dump the registry afterwards) and `serve` (keep serving it).
void StreamDemoEpisodes(core::SecurityGateway& gateway,
                        const Options& options) {
  constexpr sdn::PortId kDevicePort = 10;
  gateway.AttachWan([](const net::Frame&) {});
  gateway.AttachPort(kDevicePort, [](const net::Frame&) {});

  const std::size_t demo_devices =
      std::min<std::size_t>(devices::DeviceTypeCount(), 5);
  // Progress chatter goes to stderr so `profile --json` and `diag` keep
  // stdout parseable.
  std::fprintf(stderr,
               "streaming %zu device setup episodes through the gateway...\n",
               demo_devices);
  devices::DeviceSimulator simulator(options.seed + 1);
  for (std::size_t t = 0; t < demo_devices; ++t) {
    const auto episode =
        simulator.RunSetupEpisode(static_cast<devices::DeviceTypeId>(t));
    for (const auto& frame : episode.trace.frames()) {
      const auto packet = net::ParseFrame(frame);
      const auto port = packet.src_mac == episode.device_mac
                            ? kDevicePort
                            : gateway.config().wan_port;
      gateway.Ingress(port, frame);
    }
    const auto last = episode.trace.frames().back().timestamp_ns;
    gateway.sentinel().FlushIdle(last + 60'000'000'000ull);
  }
}

/// Trains the demo Security Service the stats/serve/profile/diag
/// commands all exercise: a classifier bank over the catalog dataset.
core::SecurityService TrainDemoService(const Options& options,
                                       obs::MetricsRegistry* registry) {
  // Progress goes to stderr: `profile --json` and `diag` callers own stdout.
  std::fprintf(stderr,
               "training security service (%zu episodes/type, seed %llu)...\n",
               options.episodes,
               static_cast<unsigned long long>(options.seed));
  const auto dataset =
      devices::GenerateFingerprintDataset(options.episodes, options.seed);
  std::vector<core::LabelledFingerprint> train;
  train.reserve(dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i)
    train.push_back(core::LabelledFingerprint{
        &dataset.fingerprints[i], &dataset.fixed[i], dataset.labels[i]});
  core::DeviceIdentifier identifier;
  {
    util::ThreadPool pool;  // auto-attaches to the default registry
    identifier.set_thread_pool(&pool);
    if (registry != nullptr) identifier.set_metrics(registry);
    identifier.Train(train);
    identifier.set_thread_pool(nullptr);
  }
  return core::SecurityService(std::move(identifier),
                               core::VulnerabilityDb::SeedFromCatalog());
}

/// Registers the gateway's component-level MemoryBytes() estimators in
/// `memory`. The returned registrations must not outlive the components.
std::vector<obs::MemoryAccounting::Registration> RegisterGatewayMemory(
    obs::MemoryAccounting& memory, core::SecurityGateway& gateway,
    core::SecurityService& service) {
  std::vector<obs::MemoryAccounting::Registration> registrations;
  registrations.push_back(memory.Register(
      "gateway/datapath",
      [&gateway] { return gateway.datapath().MemoryBytes(); }));
  registrations.push_back(memory.Register(
      "gateway/enforcement",
      [&gateway] { return gateway.enforcement().MemoryBytes(); }));
  registrations.push_back(memory.Register(
      "gateway/monitor_sessions",
      [&gateway] { return gateway.sentinel().monitor().MemoryBytes(); }));
  registrations.push_back(memory.Register(
      "service/identifier",
      [&service] { return service.identifier().MemoryBytes(); }));
  return registrations;
}

void WriteTextFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
}

int CmdStats(const Options& options) {
  // End-to-end observability demo: train a Security Service, stream a few
  // simulated setup episodes through a fully wired Security Gateway, and
  // dump everything the metrics registry collected along the way.
  obs::MetricsRegistry registry;
  obs::ScopedDefaultRegistry scoped_registry(&registry);

  auto service = TrainDemoService(options, &registry);
  core::SecurityGateway gateway(service);
  gateway.set_metrics(&registry);
  StreamDemoEpisodes(gateway, options);

  const std::string rendered =
      options.json ? registry.RenderJson() : registry.RenderPrometheus();
  std::fputs(rendered.c_str(), stdout);
  DumpMetrics(registry, options);
  return 0;
}

int CmdServe(const Options& options) {
  // Live telemetry: run the `stats` demo pipeline with the full
  // observability plane attached (flight recorder, quality monitor,
  // time-series store, alert engine), then serve everything over HTTP
  // until interrupted while a sampler thread keeps the windows fresh.
  obs::MetricsRegistry registry;
  obs::ScopedDefaultRegistry scoped_registry(&registry);
  // Install the profiler before training so the whole pipeline — model
  // build, demo episodes and everything served afterwards — lands in one
  // frame tree behind /profile.
  obs::Profiler profiler;
  obs::ScopedProfiler scoped_profiler(&profiler);
  obs::FlightRecorder recorder;
  const obs::StandardMetrics standard = obs::RegisterStandardMetrics(registry);
  obs::QualityMonitor quality(&registry);

  auto service = TrainDemoService(options, &registry);
  service.set_quality_monitor(&quality);

  core::SecurityGateway gateway(service);
  gateway.set_metrics(&registry);
  gateway.set_flight_recorder(&recorder);
  gateway.set_quality_monitor(&quality);
  StreamDemoEpisodes(gateway, options);
  // The demo traffic becomes the drift baseline; everything identified
  // while serving forms the live window the PSI gauges compare against.
  quality.PinBaseline();

  obs::TimeSeriesStore store(&registry);
  obs::AlertEngine alerts(&store, &registry);
  if (!options.rules_path.empty()) {
    const std::size_t loaded = alerts.LoadRulesFile(options.rules_path);
    std::printf("loaded %zu alert rules from %s\n", loaded,
                options.rules_path.c_str());
  } else {
    // Built-in demo rules: overall unknown-verdict pressure plus one drift
    // rule per trained type's PSI gauge.
    alerts.LoadRules(
        "alert high_unknown_rate series=sentinel_quality_unknown_total "
        "input=rate op=gt threshold=0.5 for=30 window=10\n");
    for (const int label : service.identifier().labels()) {
      obs::AlertRule rule;
      rule.name = "psi_type_" + std::to_string(label);
      rule.series = "sentinel_quality_psi{type=\"" + std::to_string(label) +
                    "\"}";
      rule.op = obs::AlertRule::Op::kGt;
      rule.threshold = 0.25;
      rule.for_ns = 60'000'000'000;
      rule.window = 1;
      alerts.AddRule(rule);
    }
  }

  // Live memory attribution behind /memory: the gateway's component
  // estimators, sampled on scrape.
  obs::MemoryAccounting memory;
  const auto memory_registrations =
      RegisterGatewayMemory(memory, gateway, service);

  // The identification service proper: POST /identify and /ingest feed a
  // MAC-keyed admission queue that the drain thread and waiting connection
  // handlers serve through DeviceIdentifier::IdentifyBatch (see
  // core/identify_server.h for the serving rule and overload semantics).
  core::IdentifyServer identify_server(
      &service.identifier(), {.queue_depth = options.queue_depth,
                              .batch_target = options.batch_target});
  identify_server.set_metrics(&registry);
  identify_server.Start();

  obs::TelemetryServer server(&registry, &recorder,
                              {.port = options.listen_port,
                               .max_body_bytes = options.max_body_bytes,
                               .serve_threads = options.serve_threads});
  server.set_timeseries(&store);
  server.set_quality(&quality);
  server.set_alerts(&alerts);
  server.set_profiler(&profiler);
  server.set_memory(&memory);
  server.set_post_routes(
      &identify_server, {"/identify", "/ingest"},
      {"application/json", "application/octet-stream",
       "application/vnd.tcpdump.pcap"});

  // ordering: relaxed — a stop flag polled every 100 ms; the join below is
  // the synchronization point, the flag only needs eventual visibility.
  std::atomic<bool> stop{false};
  const auto started = std::chrono::steady_clock::now();
  std::thread sampler([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto now = std::chrono::steady_clock::now();
      standard.uptime_seconds->Set(
          std::chrono::duration<double>(now - started).count());
      quality.UpdateDrift();
      const auto now_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              now.time_since_epoch())
              .count();
      store.Sample(now_ns);
      alerts.Evaluate(now_ns);
      for (std::size_t tick = 0; tick < options.sample_interval * 10 &&
                                 !stop.load(std::memory_order_relaxed);
           ++tick)
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });

  server.Start();
  std::printf("serving telemetry on http://127.0.0.1:%u\n"
              "  /healthz  /metrics  /metrics.json  /timeseries  /quality\n"
              "  /alerts  /profile  /profile.collapsed  /locks  /memory\n"
              "  /devices  /devices/<mac>\n"
              "identification service (batch target %zu, queue %zu):\n"
              "  POST /identify  (application/json | application/octet-stream)"
              "\n  POST /ingest    (pcap bytes)\n",
              static_cast<unsigned>(server.port()), options.batch_target,
              options.queue_depth);
  std::fflush(stdout);
  server.Serve();  // blocks until the process is interrupted
  stop.store(true, std::memory_order_relaxed);
  identify_server.Stop();
  sampler.join();
  return 0;
}

int CmdAlerts(const Options& options) {
  // Firmware-drift scenario: one trained type's packet sizes gradually
  // shift (a simulated firmware update changing the traffic shape) while a
  // control type stays clean. Shows the PSI detector and the alert engine
  // catching the drift deterministically.
  netsim::DriftConfig config;
  if (options.seed_set) config.seed = options.seed;
  util::ThreadPool pool;
  const netsim::DriftReport report = netsim::RunDriftScenario(config, &pool);
  if (options.json) {
    std::fputs(report.ToJson().c_str(), stdout);
    return 0;
  }
  std::printf("firmware-drift scenario: type %d drifts from window %zu, "
              "type %d is the control (seed %llu)\n\n",
              config.drifted_type, config.drift_start_window,
              config.control_type,
              static_cast<unsigned long long>(config.seed));
  std::printf("%-7s %-7s %-12s %-12s %-9s %-9s %-7s %-7s\n", "window",
              "shift", "psi_drift", "psi_ctrl", "drifted", "control", "acc_d",
              "acc_c");
  for (const netsim::DriftWindow& w : report.trajectory) {
    std::printf("%-7zu %-7.3f %-12.4f %-12.4f %-9s %-9s %zu/%-5zu %zu/%zu\n",
                w.window, w.feature_shift, w.psi_drifted, w.psi_control,
                obs::AlertStateName(w.drifted_state),
                obs::AlertStateName(w.control_state), w.drifted_correct,
                config.probes_per_window, w.control_correct,
                config.probes_per_window);
  }
  std::printf("\npending at window: %d\nfiring at window: %d\n"
              "detection latency: %d windows after drift onset\n"
              "control stayed ok: %s\nverdict hash: %llu\n",
              report.pending_window, report.firing_window,
              report.detection_latency_windows,
              report.control_stayed_ok ? "yes" : "NO",
              static_cast<unsigned long long>(report.verdict_hash));
  return report.firing_window >= 0 && report.control_stayed_ok ? 0 : 1;
}

int CmdProfile(const Options& options) {
  // Where does the pipeline's time go: run the stats demo (train + stream
  // episodes) with the in-process profiler installed and print the merged
  // self/total-time frame tree.
  obs::MetricsRegistry registry;
  obs::ScopedDefaultRegistry scoped_registry(&registry);
  obs::Profiler profiler;
  obs::ScopedProfiler scoped_profiler(&profiler);

  auto service = TrainDemoService(options, &registry);
  core::SecurityGateway gateway(service);
  gateway.set_metrics(&registry);
  StreamDemoEpisodes(gateway, options);

  if (options.json) {
    std::fputs(profiler.RenderJson().c_str(), stdout);
    std::printf("\n");
  } else {
    std::fputs(profiler.RenderText().c_str(), stdout);
  }
  if (!options.out_path.empty()) {
    WriteTextFile(options.out_path, profiler.RenderCollapsed());
    std::fprintf(stderr, "wrote collapsed stacks (flamegraph input) to %s\n",
                 options.out_path.c_str());
  }
  return 0;
}

int CmdDiag(const Options& options) {
  // Debug bundle: run the stats demo with the whole observability plane
  // attached and write every exposition into <output-dir>.
  if (options.positional.empty())
    throw std::runtime_error("diag: missing <output-dir>");
  const std::string dir = options.positional[0];
  std::filesystem::create_directories(dir);

  obs::MetricsRegistry registry;
  obs::ScopedDefaultRegistry scoped_registry(&registry);
  obs::Profiler profiler;
  obs::ScopedProfiler scoped_profiler(&profiler);
  obs::FlightRecorder recorder;
  obs::Tracer tracer;
  obs::QualityMonitor quality(&registry);

  auto service = TrainDemoService(options, &registry);
  service.set_quality_monitor(&quality);
  core::SecurityGateway gateway(service);
  gateway.set_metrics(&registry);
  gateway.set_flight_recorder(&recorder);
  gateway.set_quality_monitor(&quality);
  gateway.set_tracer(&tracer);  // single-threaded demo stream
  StreamDemoEpisodes(gateway, options);

  obs::MemoryAccounting memory;
  const auto memory_registrations =
      RegisterGatewayMemory(memory, gateway, service);

  obs::TimeSeriesStore store(&registry);
  obs::AlertEngine alerts(&store, &registry);
  for (std::int64_t tick = 1; tick <= 3; ++tick) {
    store.Sample(tick * 1'000'000'000);
    alerts.Evaluate(tick * 1'000'000'000);
  }

  const std::vector<std::pair<std::string, std::string>> bundle = {
      {"metrics.prom", registry.RenderPrometheus()},
      {"metrics.json", registry.RenderJson()},
      {"profile.json", profiler.RenderJson()},
      {"profile.collapsed", profiler.RenderCollapsed()},
      {"locks.json", obs::RenderLockContentionJson()},
      {"memory.json", memory.RenderJson()},
      {"timeseries.json", store.RenderJson(/*window=*/60)},
      {"quality.json", quality.RenderJson()},
      {"alerts.json", alerts.RenderJson()},
      {"trace.json", tracer.RenderChromeJson()},
      {"build.txt", "version " + obs::BuildVersion() + "\ncompiler " +
                        obs::BuildCompiler() + "\n"},
  };
  for (const auto& [name, content] : bundle) {
    WriteTextFile(dir + "/" + name, content);
  }
  std::printf("wrote %zu-file debug bundle to %s\n", bundle.size(),
              dir.c_str());
  for (const auto& [name, content] : bundle) {
    std::printf("  %-18s %8zu bytes\n", name.c_str(), content.size());
  }
  return 0;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: sentinelctl <command> [args]\n"
      "\n"
      "commands:\n"
      "  catalog\n"
      "      List the device-type catalog with connectivity and\n"
      "      vulnerability metadata.\n"
      "  train <model.bin> [--episodes N] [--seed S] [--standby]\n"
      "      Train the per-type classifier bank and persist it.\n"
      "  record <out.pcap> <device-type> [--seed S] [--updated] [--standby]\n"
      "      Simulate a device episode and write it as a standard pcap.\n"
      "  identify <model.bin> <capture.pcap>\n"
      "      Run captures through monitoring, identification and\n"
      "      enforcement; print each device's assessment.\n"
      "  explain <model.bin> <capture.pcap> [mac]\n"
      "      Identify, then print each device's flight-recorder journal:\n"
      "      classifier votes, tie-break scores, verdict, advisories and\n"
      "      the enforcement level.\n"
      "  fingerprint <capture.pcap>\n"
      "      Dump the fingerprint matrix F of every device whose setup\n"
      "      phase the gateway's monitor captures, in capture order.\n"
      "  evaluate [--episodes N] [--reps R] [--seed S] [--out report.md]\n"
      "      Run the paper's cross-validation protocol and print accuracy.\n"
      "  stats [--episodes N] [--seed S] [--json]\n"
      "      Exercise the full gateway pipeline on simulated episodes and\n"
      "      dump the collected metrics registry.\n"
      "  serve [--listen PORT] [--episodes N] [--seed S] [--rules FILE]\n"
      "        [--sample-interval SEC] [--queue-depth N] [--batch-target N]\n"
      "        [--max-body-bytes N] [--serve-threads N]\n"
      "      Run the stats pipeline, then serve /healthz, /metrics,\n"
      "      /metrics.json, /timeseries, /quality, /alerts, /devices and\n"
      "      /devices/<mac> over HTTP on 127.0.0.1 (an ephemeral port is\n"
      "      chosen and printed when PORT is 0). A sampler thread windows\n"
      "      the registry and evaluates alert rules (loaded from --rules,\n"
      "      see examples/alerts.rules) every --sample-interval seconds.\n"
      "      POST /identify takes one probe (JSON {\"mac\",\"packets\"} or\n"
      "      binary MAC+fingerprint) and POST /ingest takes raw pcap\n"
      "      bytes; both feed an admission queue (--queue-depth, 429 +\n"
      "      Retry-After when full). Any free serving thread -- the drain\n"
      "      thread or a connection handler waiting on its verdict --\n"
      "      takes everything queued, up to --batch-target probes, through\n"
      "      the batch identifier; nothing waits for a batch to fill.\n"
      "      --serve-threads connection handlers (default 4, at least 1)\n"
      "      give keep-alive + pipelining.\n"
      "  alerts [--seed S] [--json]\n"
      "      Run the firmware-drift scenario: one type's traffic shape\n"
      "      ramps away from its baseline while a control type stays\n"
      "      clean; print the per-window PSI trajectory and the alert\n"
      "      walking ok -> pending -> firing.\n"
      "  profile [--episodes N] [--seed S] [--json] [--out stacks.txt]\n"
      "      Run the stats pipeline with the in-process profiler attached\n"
      "      and print the merged self/total-time frame tree (--json for\n"
      "      JSON; --out writes collapsed stacks for flamegraph tools).\n"
      "  diag <output-dir> [--episodes N] [--seed S]\n"
      "      Run the stats pipeline with the full observability plane\n"
      "      attached and write a debug bundle (metrics, profile, lock\n"
      "      contention, memory attribution, time series, quality,\n"
      "      alerts, trace, build info) into <output-dir>.\n"
      "\n"
      "train/identify/evaluate/stats also accept --metrics-out <file>\n"
      "(Prometheus text; JSON with --json); train/identify/explain/evaluate\n"
      "accept --trace-out <file> for Chrome-trace-event JSON (Perfetto).\n"
      "Set SENTINEL_LOG=info|debug for structured logs on stderr;\n"
      "SENTINEL_THREADS caps the worker pool.\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  try {
    const Options options = ParseOptions(argc, argv, 2);
    if (command == "catalog") return CmdCatalog();
    if (command == "train") return CmdTrain(options);
    if (command == "record") return CmdRecord(options);
    if (command == "identify") return CmdIdentify(options);
    if (command == "explain") return CmdExplain(options);
    if (command == "fingerprint") return CmdFingerprint(options);
    if (command == "evaluate") return CmdEvaluate(options);
    if (command == "stats") return CmdStats(options);
    if (command == "serve") return CmdServe(options);
    if (command == "alerts") return CmdAlerts(options);
    if (command == "profile") return CmdProfile(options);
    if (command == "diag") return CmdDiag(options);
    return Usage();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "sentinelctl %s: %s\n", command.c_str(),
                 error.what());
    return 1;
  }
}
