// IdentifyServer tests, all through Submit/Collect: work-conserving batch
// formation (on a server that was never Start()ed, the collectors alone
// serve the queue, so every batch is deterministic), the differential
// guarantee (served verdicts bit-identical to per-call Identify, down to
// the rendered JSON bytes), the admission queue's FIFO order and overload
// rules (reject-with-Retry-After and shed-oldest-per-MAC), the queue
// lock's per-request budget, the drain thread and collectors serving side
// by side, and the HTTP facade's parsing of all three probe formats.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "capture/trace.h"
#include "core/device_monitor.h"
#include "core/gateway.h"
#include "core/identify_server.h"
#include "core/security_service.h"
#include "devices/simulator.h"
#include "features/fingerprint_codec.h"
#include "gateway_capture.h"
#include "obs/metrics.h"
#include "util/json.h"
#include "util/lock_telemetry.h"

namespace sentinel::core {
namespace {

/// One Security Service around an identifier trained on a 6-type bank,
/// shared across tests (training dominates test runtime; the server never
/// mutates it).
SecurityService& SharedService() {
  static SecurityService* service = [] {
    const auto dataset = devices::GenerateFingerprintDataset(4, 2026);
    std::vector<LabelledFingerprint> examples;
    for (std::size_t i = 0; i < dataset.size(); ++i) {
      if (dataset.labels[i] >= 6) continue;
      examples.push_back(LabelledFingerprint{
          &dataset.fingerprints[i], &dataset.fixed[i], dataset.labels[i]});
    }
    DeviceIdentifier trained;
    trained.Train(examples);
    return new SecurityService(std::move(trained),
                               VulnerabilityDb::SeedFromCatalog());
  }();
  return *service;
}

const DeviceIdentifier& SharedIdentifier() {
  return std::as_const(SharedService()).identifier();
}

const devices::FingerprintDataset& Probes() {
  static const auto* probes =
      new devices::FingerprintDataset(devices::GenerateFingerprintDataset(
          /*n_per_type=*/1, /*seed=*/777));
  return *probes;
}

net::MacAddress Mac(std::uint8_t last) {
  return net::MacAddress(std::array<std::uint8_t, 6>{0x02, 0, 0, 0, 0, last});
}

/// The per-call Identify() verdict rendering of probe `i`.
std::string PerCallVerdict(std::size_t i) {
  const auto& probes = Probes();
  return IdentifyServer::RenderVerdictJson(
      SharedIdentifier().Identify(probes.fingerprints[i], probes.fixed[i]));
}

std::string ProbeJson(const features::Fingerprint& fingerprint,
                      const std::string& mac) {
  std::string body = "{\"mac\":\"" + mac + "\",\"packets\":[";
  for (std::size_t p = 0; p < fingerprint.packets().size(); ++p) {
    if (p > 0) body += ',';
    body += '[';
    for (std::size_t f = 0; f < features::kFeatureCount; ++f) {
      if (f > 0) body += ',';
      body += std::to_string(fingerprint.packets()[p][f]);
    }
    body += ']';
  }
  body += "]}";
  return body;
}

std::string ProbeBinary(const features::Fingerprint& fingerprint,
                        const net::MacAddress& mac) {
  std::string body(reinterpret_cast<const char*>(mac.octets().data()), 6);
  const auto bytes = features::SerializeFingerprint(fingerprint);
  body.append(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  return body;
}

/// Submits probe `i` as a binary /identify body from device `mac`.
std::uint64_t SubmitProbe(IdentifyServer& server, std::size_t i,
                          const net::MacAddress& mac) {
  return server.Submit("/identify", "application/octet-stream",
                       ProbeBinary(Probes().fingerprints[i], mac));
}

/// What one /identify response says about its probe.
struct Outcome {
  int status = 0;
  /// "served", or the 429's error: "superseded" or "overloaded".
  std::string state;
  /// The served verdict object's bytes.
  std::string verdict;
  std::size_t batch_size = 0;
  std::uint64_t retry_after_ms = 0;
};

Outcome CollectProbe(IdentifyServer& server, std::uint64_t id) {
  const obs::PostResponse response = server.Collect(id);
  Outcome outcome{.status = response.status,
                  .retry_after_ms = response.retry_after_ms};
  const auto document = util::ParseJson(response.body);
  if (!document) return outcome;
  if (const auto* error = document->Find("error"))
    outcome.state = error->string;
  if (const auto* status = document->Find("status"))
    outcome.state = status->string;
  if (const auto* batch = document->Find("batch_size"))
    outcome.batch_size = static_cast<std::size_t>(batch->number);
  const std::string key = "\"verdict\":";
  const auto begin = response.body.find(key);
  const auto end = response.body.find(",\"batch_size\":");
  if (begin != std::string::npos && end != std::string::npos)
    outcome.verdict = response.body.substr(begin + key.size(),
                                           end - begin - key.size());
  return outcome;
}

TEST(IdentifyServer, SizeTargetFormsOneBatchAndVerdictsMatchPerCall) {
  // Not started: the first collector takes everything queued, up to the
  // cap, and the next collector whose probe is still queued takes the
  // rest. A cap of 1 serves every probe alone, through the same batch
  // kernel.
  constexpr std::size_t kProbes = 10;
  for (const std::size_t target : {std::size_t{8}, std::size_t{1}}) {
    SCOPED_TRACE(target);
    IdentifyServer server(&SharedIdentifier(),
                          {.queue_depth = 64, .batch_target = target});
    std::vector<std::uint64_t> ids;
    for (std::size_t i = 0; i < kProbes; ++i)
      ids.push_back(SubmitProbe(server, i, Mac(static_cast<std::uint8_t>(i))));
    for (std::size_t i = 0; i < kProbes; ++i) {
      const Outcome outcome = CollectProbe(server, ids[i]);
      ASSERT_EQ(outcome.state, "served");
      const std::size_t batch_start = i / target * target;
      EXPECT_EQ(outcome.batch_size, std::min(target, kProbes - batch_start));
      // The rendered verdict JSON — what a client actually receives — must
      // be byte-identical to the per-call path's rendering.
      EXPECT_EQ(outcome.verdict, PerCallVerdict(i));
    }
    const std::size_t full_batches = kProbes / target;
    const std::size_t remainder = kProbes % target;
    const auto stats = server.stats();
    EXPECT_EQ(stats.batches, full_batches + (remainder > 0 ? 1 : 0));
    EXPECT_EQ(stats.flush_size, full_batches);
    EXPECT_EQ(stats.flush_sparse, remainder > 0 ? 1u : 0u);
    EXPECT_EQ(stats.flush_deadline, 0u);
    EXPECT_EQ(stats.probes_served, kProbes);
    EXPECT_EQ(stats.batch_size_counts.at(target), full_batches);
    if (remainder > 0) {
      EXPECT_EQ(stats.batch_size_counts.at(remainder), 1u);
    }
  }
}

TEST(IdentifyServer, PartialBatchIsServedWithoutWaiting) {
  IdentifyServer server(&SharedIdentifier(),
                        {.queue_depth = 64, .batch_target = 16});
  // One probe of a target of 16: served at once, nothing holds out for
  // more probes.
  const Outcome outcome = CollectProbe(server, SubmitProbe(server, 0, Mac(1)));
  EXPECT_EQ(outcome.state, "served");
  EXPECT_EQ(outcome.batch_size, 1u);
  const auto stats = server.stats();
  EXPECT_EQ(stats.flush_sparse, 1u);
  EXPECT_EQ(stats.flush_deadline, 0u);
}

TEST(IdentifyServer, ZeroQueueDepthOrBatchTargetIsRejected) {
  EXPECT_THROW(
      { IdentifyServer server(&SharedIdentifier(), {.queue_depth = 0}); },
      std::invalid_argument);
  EXPECT_THROW(
      {
        IdentifyServer server(&SharedIdentifier(),
                              {.queue_depth = 8, .batch_target = 0});
      },
      std::invalid_argument);
}

TEST(IdentifyServer, OverloadRejectsWithRetryAfter) {
  IdentifyServer server(&SharedIdentifier(),
                        {.queue_depth = 2, .batch_target = 16});
  (void)SubmitProbe(server, 0, Mac(1));
  (void)SubmitProbe(server, 1, Mac(2));
  // Queue full, no same-MAC victim: explicit rejection with back-off.
  const std::uint64_t rejected = SubmitProbe(server, 2, Mac(3));
  const auto stats = server.stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(server.queue_depth(), 2u);
  const Outcome outcome = CollectProbe(server, rejected);
  EXPECT_EQ(outcome.status, 429);
  EXPECT_EQ(outcome.state, "overloaded");
  EXPECT_GE(outcome.retry_after_ms, 1u);
}

TEST(IdentifyServer, OverloadShedsOldestProbeOfSameDevice) {
  IdentifyServer server(&SharedIdentifier(),
                        {.queue_depth = 2, .batch_target = 2});
  const std::uint64_t first = SubmitProbe(server, 0, Mac(1));
  (void)SubmitProbe(server, 1, Mac(2));
  // Same device again on a full queue: the stale probe is shed, the
  // fresh one admitted.
  const std::uint64_t fresh = SubmitProbe(server, 2, Mac(1));
  const Outcome shed = CollectProbe(server, first);
  EXPECT_EQ(shed.status, 429);
  EXPECT_EQ(shed.state, "superseded");
  // The superseded collector returns without serving; the fresh probe's
  // collector serves both survivors as one batch.
  const Outcome served = CollectProbe(server, fresh);
  EXPECT_EQ(served.state, "served");
  EXPECT_EQ(served.batch_size, 2u);
  EXPECT_EQ(server.stats().shed, 1u);
}

TEST(IdentifyServer, StopResolvesQueuedProbesAsShed) {
  IdentifyServer server(&SharedIdentifier(),
                        {.queue_depth = 8, .batch_target = 8});
  const std::uint64_t queued = SubmitProbe(server, 0, Mac(1));
  server.Stop();
  EXPECT_EQ(CollectProbe(server, queued).state, "superseded");
  // A post-stop submission is turned away, not silently queued, and
  // without a back-off hint: retrying will not help.
  const Outcome late = CollectProbe(server, SubmitProbe(server, 1, Mac(2)));
  EXPECT_EQ(late.status, 429);
  EXPECT_EQ(late.state, "overloaded");
  EXPECT_EQ(late.retry_after_ms, 0u);
  EXPECT_EQ(server.stats().admitted, 1u);
  EXPECT_EQ(server.stats().rejected, 0u);
}

TEST(IdentifyServer, MirrorsCountersIntoMetricsRegistry) {
  obs::MetricsRegistry registry;
  IdentifyServer server(&SharedIdentifier(),
                        {.queue_depth = 8, .batch_target = 2});
  server.set_metrics(&registry);
  const std::uint64_t first = SubmitProbe(server, 0, Mac(1));
  (void)SubmitProbe(server, 1, Mac(2));
  EXPECT_EQ(CollectProbe(server, first).batch_size, 2u);
  const std::string exposition = registry.RenderPrometheus();
  EXPECT_NE(exposition.find("sentinel_serve_admitted_total 2"),
            std::string::npos);
  EXPECT_NE(exposition.find("sentinel_serve_batches_total 1"),
            std::string::npos);
  EXPECT_NE(exposition.find("sentinel_serve_queue_depth 0"),
            std::string::npos);
  EXPECT_NE(exposition.find("sentinel_serve_batch_size"), std::string::npos);
}

TEST(IdentifyServer, DrainAndWaitersServeConcurrentSubmitters) {
  // Started: the drain thread and every blocked collector serve side by
  // side. Each verdict must still equal its per-call rendering.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 200;
  const auto& probes = Probes();
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < probes.size(); ++i)
    expected.push_back(PerCallVerdict(i));
  IdentifyServer server(&SharedIdentifier(), {});
  server.Start();
  std::vector<std::size_t> mismatches(kThreads, 0);
  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (std::size_t n = 0; n < kPerThread; ++n) {
        const std::size_t i = (t * kPerThread + n) % probes.size();
        const Outcome outcome = CollectProbe(
            server,
            SubmitProbe(server, i, Mac(static_cast<std::uint8_t>(t))));
        if (outcome.state != "served" || outcome.verdict != expected[i])
          ++mismatches[t];
      }
    });
  }
  for (auto& submitter : submitters) submitter.join();
  for (std::size_t t = 0; t < kThreads; ++t)
    EXPECT_EQ(mismatches[t], 0u) << "submitter " << t;
  EXPECT_EQ(server.stats().probes_served, kThreads * kPerThread);
  server.Stop();
}

/// Acquisitions of the identify_server.queue lock site so far.
std::uint64_t QueueLockAcquisitions() {
  for (std::size_t i = 0; i < LockSiteCount(); ++i) {
    const LockSiteStats& site = LockSiteAt(i);
    if (site.Name() != nullptr &&
        std::strcmp(site.Name(), "identify_server.queue") == 0)
      // ordering: relaxed — read after every acquisition it counts, on
      // this thread.
      return site.acquisitions.load(std::memory_order_relaxed);
  }
  return 0;
}

TEST(IdentifyServer, QueueLockBudgetPerRequest) {
  // Never started, so this test's requests make every acquisition: Submit
  // takes the lock once, Collect once plus once per batch it serves.
  ASSERT_TRUE(LockTelemetryEnabled());
  IdentifyServer sequential(&SharedIdentifier(),
                            {.queue_depth = 64, .batch_target = 16});
  std::uint64_t before = QueueLockAcquisitions();
  constexpr std::size_t kSequential = 64;
  for (std::size_t n = 0; n < kSequential; ++n) {
    const std::uint64_t id = SubmitProbe(sequential, n % Probes().size(),
                                         Mac(static_cast<std::uint8_t>(n)));
    ASSERT_EQ(sequential.Collect(id).status, 200);
  }
  EXPECT_LE(static_cast<double>(QueueLockAcquisitions() - before) /
                kSequential,
            3.0);

  // A pipelined burst at the batch target: the first collector serves all
  // sixteen in one batch.
  constexpr std::size_t kBurst = 16;
  IdentifyServer burst(&SharedIdentifier(),
                       {.queue_depth = 64, .batch_target = kBurst});
  before = QueueLockAcquisitions();
  std::vector<std::uint64_t> ids;
  for (std::size_t n = 0; n < kBurst; ++n)
    ids.push_back(SubmitProbe(burst, n, Mac(static_cast<std::uint8_t>(n))));
  for (const std::uint64_t id : ids) ASSERT_EQ(burst.Collect(id).status, 200);
  EXPECT_LE(static_cast<double>(QueueLockAcquisitions() - before) / kBurst,
            2.1);
  EXPECT_EQ(burst.stats().batches, 1u);
}

// --- The admission queue's rules, seen through Submit/Collect ---

TEST(AdmissionQueue, FifoOrderAndBoundedPop) {
  // Never started: the first collector serves the oldest three probes (the
  // batch target), the fourth probe's collector the two left.
  IdentifyServer server(&SharedIdentifier(),
                        {.queue_depth = 8, .batch_target = 3});
  std::vector<std::uint64_t> ids;
  for (std::uint8_t n = 1; n <= 5; ++n)
    ids.push_back(SubmitProbe(server, n, Mac(n)));
  EXPECT_EQ(server.queue_depth(), 5u);
  EXPECT_EQ(CollectProbe(server, ids[0]).batch_size, 3u);
  EXPECT_EQ(server.queue_depth(), 2u);
  EXPECT_EQ(CollectProbe(server, ids[2]).batch_size, 3u);
  EXPECT_EQ(server.stats().batches, 1u);
  // Capped at what is queued.
  EXPECT_EQ(CollectProbe(server, ids[3]).batch_size, 2u);
  EXPECT_EQ(CollectProbe(server, ids[1]).batch_size, 3u);
  EXPECT_EQ(CollectProbe(server, ids[4]).batch_size, 2u);
  EXPECT_EQ(server.stats().batches, 2u);
  EXPECT_EQ(server.queue_depth(), 0u);
}

TEST(AdmissionQueue, FullQueueShedsOldestProbeOfSameDevice) {
  // A batch target of 1: each batch is the queue's front probe.
  IdentifyServer server(&SharedIdentifier(),
                        {.queue_depth = 3, .batch_target = 1});
  // Two probes of device 1 and one of device 2.
  const std::uint64_t oldest = SubmitProbe(server, 0, Mac(1));
  const std::uint64_t other = SubmitProbe(server, 1, Mac(2));
  const std::uint64_t newer = SubmitProbe(server, 2, Mac(1));
  // Full. A fresh probe of device 1 sheds the OLDEST device-1 probe, not
  // the newer one.
  const std::uint64_t fresh = SubmitProbe(server, 3, Mac(1));
  EXPECT_EQ(server.queue_depth(), 3u);
  EXPECT_EQ(server.stats().shed, 1u);
  EXPECT_EQ(CollectProbe(server, oldest).state, "superseded");
  // Survivors keep FIFO order and the newcomer queues at the back: each
  // collector finds its own probe at the front and serves one batch.
  std::uint64_t batches = 0;
  for (const std::uint64_t id : {other, newer, fresh}) {
    EXPECT_EQ(CollectProbe(server, id).state, "served");
    EXPECT_EQ(server.stats().batches, ++batches);
  }
}

TEST(AdmissionQueue, FullQueueRejectsWhenNoSameDeviceVictimExists) {
  IdentifyServer server(&SharedIdentifier(),
                        {.queue_depth = 2, .batch_target = 16});
  const std::uint64_t first = SubmitProbe(server, 0, Mac(1));
  const std::uint64_t second = SubmitProbe(server, 1, Mac(2));
  const std::uint64_t rejected = SubmitProbe(server, 2, Mac(3));
  EXPECT_EQ(CollectProbe(server, rejected).state, "overloaded");
  // The rejected probe left no trace: the other two are served as one
  // batch of two.
  EXPECT_EQ(server.queue_depth(), 2u);
  EXPECT_EQ(server.stats().admitted, 2u);
  EXPECT_EQ(CollectProbe(server, first).batch_size, 2u);
  EXPECT_EQ(CollectProbe(server, second).batch_size, 2u);
  EXPECT_EQ(server.stats().probes_served, 2u);
}

// --- HTTP facade (per-request formats) ---

TEST(IdentifyServerHttp, JsonAndBinaryProbesServeTheSameVerdictBytes) {
  IdentifyServer server(&SharedIdentifier(),
                        {.queue_depth = 64, .batch_target = 4});
  server.Start();
  const auto& probes = Probes();
  const auto& fingerprint = probes.fingerprints[0];
  const auto expected = "\"verdict\":" + IdentifyServer::RenderVerdictJson(
                                             SharedIdentifier().Identify(
                                                 fingerprint, probes.fixed[0]));

  const auto json_id = server.Submit("/identify", "application/json",
                                     ProbeJson(fingerprint, "02:00:00:00:00:01"));
  const auto json_response = server.Collect(json_id);
  EXPECT_EQ(json_response.status, 200);
  EXPECT_NE(json_response.body.find("\"status\":\"served\""),
            std::string::npos);
  EXPECT_NE(json_response.body.find(expected), std::string::npos);

  const auto binary_id = server.Submit("/identify", "application/octet-stream",
                                       ProbeBinary(fingerprint, Mac(1)));
  const auto binary_response = server.Collect(binary_id);
  EXPECT_EQ(binary_response.status, 200);
  EXPECT_NE(binary_response.body.find(expected), std::string::npos);
  server.Stop();
}

TEST(IdentifyServerHttp, IngestSplitsAPcapPerDevice) {
  IdentifyServer server(&SharedIdentifier(),
                        {.queue_depth = 64, .batch_target = 4});
  server.Start();
  devices::DeviceSimulator simulator(7);
  const auto episode = simulator.RunSetupEpisode(0);
  const auto pcap = capture::EncodePcap(episode.trace.frames());
  std::string body(reinterpret_cast<const char*>(pcap.data()), pcap.size());
  const auto id =
      server.Submit("/ingest", "application/octet-stream", std::move(body));
  const auto response = server.Collect(id);
  EXPECT_EQ(response.status, 200);
  // The setup episode's device must be among the fingerprinted MACs.
  EXPECT_NE(response.body.find(episode.device_mac.ToString()),
            std::string::npos);
  EXPECT_NE(response.body.find("\"status\":\"served\""), std::string::npos);
  server.Stop();
}

/// Several devices joining at once, where two keep talking after an idle
/// gap has ended their setup phase, and one source sends too few frames to
/// complete a setup capture.
struct MixedJoins {
  std::vector<net::Frame> frames;  // time-sorted
  /// Device-facing port of every source but the gateway.
  std::unordered_map<std::uint64_t, sdn::PortId> device_port;
  /// Frames each joining device sent during its setup episode.
  std::unordered_map<std::uint64_t, std::size_t> setup_frames;
  net::MacAddress short_source = Mac(0x77);
};

MixedJoins MakeMixedJoins() {
  MixedJoins joins;
  devices::DeviceSimulator simulator(31);
  const auto setup = simulator.RunConcurrentSetupEpisodes({0, 2, 4, 5});
  joins.frames = setup.merged.frames();
  for (std::size_t e = 0; e < setup.episodes.size(); ++e) {
    const net::MacAddress mac = setup.episodes[e].device_mac;
    joins.device_port.emplace(mac.ToUint64(), static_cast<sdn::PortId>(10 + e));
    std::vector<net::Frame> own;
    for (const net::Frame& frame : setup.merged.frames())
      if (net::ParseFrame(frame).src_mac == mac) own.push_back(frame);
    joins.setup_frames.emplace(mac.ToUint64(), own.size());
    if (e % 2 != 0) continue;
    // Devices 0 and 2 resend their first six frames 10 s after their last.
    const std::uint64_t shift = own.back().timestamp_ns -
                                own.front().timestamp_ns + 10'000'000'000;
    for (std::size_t i = 0; i < 6; ++i) {
      net::Frame later = own[i];
      later.timestamp_ns += shift;
      joins.frames.push_back(std::move(later));
    }
  }
  // Five frames to the gateway's DNS: short of the 8-packet minimum.
  joins.device_port.emplace(joins.short_source.ToUint64(), 20);
  const std::uint64_t start = joins.frames.front().timestamp_ns;
  for (std::size_t i = 0; i < 5; ++i) {
    net::UdpDatagram udp;
    udp.src_port = 40000;
    udp.dst_port = 53;
    udp.payload.assign(20 + i, 0x11);
    joins.frames.push_back(net::BuildUdp4Frame(
        start + i * 100'000'000, joins.short_source,
        SecurityGatewayConfig{}.gateway_mac, net::Ipv4Address(192, 168, 1, 77),
        net::Ipv4Address(192, 168, 1, 1), udp));
  }
  std::stable_sort(joins.frames.begin(), joins.frames.end(),
                   [](const net::Frame& a, const net::Frame& b) {
                     return a.timestamp_ns < b.timestamp_ns;
                   });
  return joins;
}

TEST(IdentifyServerHttp, IngestFingerprintsWhatTheGatewayCaptures) {
  const MixedJoins joins = MakeMixedJoins();
  const std::vector<net::Frame>& frames = joins.frames;

  // What a live gateway captures from the same frames, per device.
  test_support::CapturedProbes probes;
  test_support::RecordingClient client(SharedService(), probes);
  SecurityGateway gateway(client);
  std::vector<net::MacAddress> onboarded;
  gateway.sentinel().OnIdentification(
      [&](const IdentificationEvent& event) {
        onboarded.push_back(event.device_mac);
      });
  gateway.AttachWan([](const net::Frame&) {});
  for (const auto& [mac, port] : joins.device_port)
    gateway.AttachPort(port, [](const net::Frame&) {});
  for (const net::Frame& frame : frames) {
    const auto it =
        joins.device_port.find(net::ParseFrame(frame).src_mac.ToUint64());
    gateway.Ingress(
        it == joins.device_port.end() ? gateway.config().wan_port : it->second,
        frame);
  }
  gateway.sentinel().FlushIdle(frames.back().timestamp_ns + 60'000'000'000);
  ASSERT_EQ(onboarded.size(), probes.full.size());
  std::unordered_map<std::uint64_t, features::Fingerprint> by_gateway;
  for (std::size_t i = 0; i < onboarded.size(); ++i)
    by_gateway.emplace(onboarded[i].ToUint64(), probes.full[i]);

  DeviceMonitor monitor;
  const auto captures = monitor.Replay(capture::Trace(frames));

  IdentifyServer server(&SharedIdentifier(),
                        {.queue_depth = 64, .batch_target = 4});
  const auto pcap = capture::EncodePcap(frames);
  const auto response = server.Collect(server.Submit(
      "/ingest", "application/vnd.tcpdump.pcap",
      std::string(reinterpret_cast<const char*>(pcap.data()), pcap.size())));
  ASSERT_EQ(response.status, 200) << response.body;
  const auto document = util::ParseJson(response.body);
  ASSERT_TRUE(document.has_value()) << response.body;

  // /ingest lists exactly the monitor's captures, in completion order.
  std::vector<std::string> listed;
  for (const auto& device : document->Find("devices")->items)
    listed.push_back(device.Find("mac")->string);
  std::vector<std::string> captured;
  for (const auto& capture : captures)
    captured.push_back(capture.device_mac.ToString());
  EXPECT_EQ(listed, captured);

  const net::MacAddress gateway_mac = gateway.config().gateway_mac;
  std::size_t gateway_captured = 0;
  for (const auto& capture : captures) {
    const std::string mac = capture.device_mac.ToString();
    SCOPED_TRACE(mac);
    // The served verdict is a per-call Identify of that capture.
    EXPECT_NE(response.body.find(
                  "\"mac\":\"" + mac + "\",\"status\":\"served\",\"verdict\":" +
                  IdentifyServer::RenderVerdictJson(SharedIdentifier().Identify(
                      capture.full, capture.fixed))),
              std::string::npos);
    // The gateway never fingerprints its own MAC; every other capture is
    // the one the gateway took.
    if (capture.device_mac == gateway_mac) continue;
    ++gateway_captured;
    const auto it = by_gateway.find(capture.device_mac.ToUint64());
    ASSERT_NE(it, by_gateway.end());
    EXPECT_EQ(it->second, capture.full);
  }
  EXPECT_EQ(gateway_captured, by_gateway.size());

  // Each joining device's capture is its setup episode: the frames it
  // resent past the idle gap stay out.
  for (const auto& [mac, count] : joins.setup_frames) {
    const auto it = std::find_if(
        captures.begin(), captures.end(), [mac = mac](const auto& capture) {
          return capture.device_mac.ToUint64() == mac;
        });
    ASSERT_NE(it, captures.end());
    EXPECT_EQ(it->packet_count, count);
  }
  // The short source is tracked but skipped.
  EXPECT_EQ(std::find(listed.begin(), listed.end(),
                      joins.short_source.ToString()),
            listed.end());
  EXPECT_GE(document->Find("devices_skipped")->number, 1.0);
  EXPECT_EQ(document->Find("devices_skipped")->number,
            static_cast<double>(monitor.tracked_count() - captures.size()));
}

TEST(IdentifyServerHttp, MalformedBodiesAre400WithoutExceptions) {
  IdentifyServer server(&SharedIdentifier(), {.queue_depth = 8});
  server.Start();
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"application/json", "not json"},
      {"application/json", "{\"mac\":\"nope\",\"packets\":[]}"},
      {"application/json", "{\"packets\":[]}"},
      {"application/json",
       "{\"mac\":\"02:00:00:00:00:01\",\"packets\":[[1,2]]}"},
      {"application/octet-stream", "tooshort"},
      {"application/octet-stream", std::string(6, '\0') + "garbage"},
  };
  for (const auto& [content_type, body] : bad) {
    const auto id = server.Submit("/identify", content_type,
                                  std::string(body));
    EXPECT_EQ(server.Collect(id).status, 400) << body;
  }
  // Wrong media type for the route and unknown routes.
  EXPECT_EQ(server.Collect(server.Submit("/identify", "text/plain", "x"))
                .status,
            415);
  EXPECT_EQ(
      server.Collect(server.Submit("/ingest", "application/json", "{}"))
          .status,
      415);
  EXPECT_EQ(server.Collect(server.Submit("/ingest", "application/octet-stream",
                                         "not a pcap"))
                .status,
            400);
  EXPECT_EQ(server.Collect(server.Submit("/elsewhere", "application/json",
                                         "{}"))
                .status,
            404);
  // The routing 404 is not a parse error — it has its own counter.
  EXPECT_EQ(server.stats().parse_errors, 9u);
  EXPECT_EQ(server.stats().unknown_routes, 1u);
  server.Stop();
}

TEST(IdentifyServerHttp, FullQueueYields429WithRetryAfter) {
  // Not started: nothing is served before the first Collect, so the
  // second distinct-MAC probe deterministically finds the queue full.
  IdentifyServer server(&SharedIdentifier(),
                        {.queue_depth = 1, .batch_target = 8});
  const auto& probes = Probes();
  const auto first_id =
      server.Submit("/identify", "application/json",
                      ProbeJson(probes.fingerprints[0], "02:00:00:00:00:01"));
  const auto second_id =
      server.Submit("/identify", "application/json",
                      ProbeJson(probes.fingerprints[1], "02:00:00:00:00:02"));
  const auto rejected = server.Collect(second_id);
  EXPECT_EQ(rejected.status, 429);
  EXPECT_GE(rejected.retry_after_ms, 1u);
  EXPECT_NE(rejected.body.find("overloaded"), std::string::npos);
  // Collecting the first probe serves it on the collecting thread.
  EXPECT_EQ(server.Collect(first_id).status, 200);
}

}  // namespace
}  // namespace sentinel::core
