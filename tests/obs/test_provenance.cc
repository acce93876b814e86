// Decision-provenance end-to-end: a live gateway with a tracer and a
// flight recorder attached must emit the capture → fingerprint →
// identify → tie-break → enforce span chain under one per-device trace
// id, journal the full identification story, and — the overhead
// contract — leave models and verdicts bit-identical to an untraced run.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/gateway.h"
#include "devices/simulator.h"
#include "net/byte_io.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"

namespace sentinel::core {
namespace {

constexpr sdn::PortId kDevicePort = 10;

void PlayEpisode(SecurityGateway& gateway,
                 const devices::SimulatedEpisode& episode) {
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

TEST(GatewayProvenanceTest, StageSpansShareTheDeviceTraceId) {
  const auto service = BuildTrainedSecurityService(/*n_per_type=*/10,
                                                   /*seed=*/42);
  obs::Tracer tracer;
  obs::FlightRecorder recorder;
  SecurityGateway gateway(*service);
  gateway.set_tracer(&tracer);
  gateway.set_flight_recorder(&recorder);
  gateway.AttachWan([](const net::Frame&) {});
  gateway.AttachPort(kDevicePort, [](const net::Frame&) {});

  devices::DeviceSimulator simulator(606);
  const auto episode =
      simulator.RunSetupEpisode(devices::FindDeviceType("EdnetCam"));
  PlayEpisode(gateway, episode);

  const obs::TraceId device_trace = recorder.trace_id(episode.device_mac);
  ASSERT_NE(device_trace, 0u);

  std::set<std::string> device_span_names;
  for (const auto& span : tracer.Snapshot()) {
    if (span.trace_id == device_trace) device_span_names.insert(span.name);
  }
  EXPECT_TRUE(device_span_names.contains("sentinel_stage_capture"));
  EXPECT_TRUE(device_span_names.contains("sentinel_stage_fingerprint"));
  EXPECT_TRUE(device_span_names.contains("sentinel_identification"));
  EXPECT_TRUE(device_span_names.contains("sentinel_stage_identify"));
  EXPECT_TRUE(device_span_names.contains("sentinel_stage_tie_break"));
  EXPECT_TRUE(device_span_names.contains("sentinel_stage_enforce"));

  // The journal tells the same story: every classifier voted, a verdict
  // was reached and an enforcement level was set.
  std::size_t votes = 0;
  bool verdict = false, enforcement = false;
  for (const auto& event : recorder.Events(episode.device_mac)) {
    switch (event.kind) {
      case obs::DeviceEventKind::kClassifierVote:
        ++votes;
        break;
      case obs::DeviceEventKind::kVerdict:
        verdict = true;
        break;
      case obs::DeviceEventKind::kEnforcementLevel:
        enforcement = true;
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(votes, devices::DeviceTypeCount());
  EXPECT_TRUE(verdict);
  EXPECT_TRUE(enforcement);
  const std::string story = recorder.Explain(episode.device_mac);
  EXPECT_NE(story.find("classifier votes"), std::string::npos);
  EXPECT_NE(story.find("verdict:"), std::string::npos);
}

TEST(TraceDeterminismTest, TracingDoesNotChangeModelsOrVerdicts) {
  const auto dataset = devices::GenerateFingerprintDataset(/*n_per_type=*/5,
                                                           /*seed=*/77);
  std::vector<LabelledFingerprint> train;
  train.reserve(dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    train.push_back(LabelledFingerprint{&dataset.fingerprints[i],
                                        &dataset.fixed[i], dataset.labels[i]});
  }

  IdentifierConfig config;
  config.seed = 1234;

  DeviceIdentifier plain(config);
  plain.Train(train);

  obs::Tracer tracer;
  DeviceIdentifier traced(config);
  {
    obs::ScopedSpan root(&tracer, "sentinel_train");
    traced.Train(train);
  }
  EXPECT_GT(tracer.recorded(), 0u);

  net::ByteWriter plain_bytes, traced_bytes;
  plain.Save(plain_bytes);
  traced.Save(traced_bytes);
  ASSERT_EQ(plain_bytes.bytes().size(), traced_bytes.bytes().size());
  EXPECT_TRUE(std::equal(plain_bytes.bytes().begin(),
                         plain_bytes.bytes().end(),
                         traced_bytes.bytes().begin()));

  for (std::size_t i = 0; i < 10; ++i) {
    const auto a = plain.Identify(dataset.fingerprints[i], dataset.fixed[i]);
    obs::ScopedSpan root(&tracer, "sentinel_identify");
    const auto b = traced.Identify(dataset.fingerprints[i], dataset.fixed[i]);
    EXPECT_EQ(a.type.has_value(), b.type.has_value());
    if (a.type.has_value() && b.type.has_value()) {
      EXPECT_EQ(*a.type, *b.type);
    }
    ASSERT_EQ(a.bank_probabilities.size(), b.bank_probabilities.size());
    for (std::size_t k = 0; k < a.bank_probabilities.size(); ++k)
      EXPECT_DOUBLE_EQ(a.bank_probabilities[k], b.bank_probabilities[k]);
  }
}

}  // namespace
}  // namespace sentinel::core
