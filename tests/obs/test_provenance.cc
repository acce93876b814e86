// Decision-provenance end-to-end: a live gateway with a tracer and a
// flight recorder attached must emit the capture → fingerprint →
// identify → tie-break → enforce span chain under one per-device trace
// id, journal the full identification story, and — the overhead
// contract — leave models and verdicts bit-identical to an untraced run.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/gateway.h"
#include "devices/simulator.h"
#include "net/byte_io.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/stage.h"
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
  EXPECT_TRUE(device_span_names.contains("sentinel_stage_identify_enforce"));
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

void CollectFrameNames(const obs::Profiler::Node& node,
                       std::set<std::string>& names) {
  for (const auto& child : node.children) {
    names.insert(child.name);
    CollectFrameNames(child, names);
  }
}

// One stage, one name: with a registry, a tracer and a profiler attached
// to one gateway, every stage-table row that a device's join runs through
// appears under the row's name as a span and as a profiler frame, and a
// row with a histogram fills `<name>_ns`. The device trace keeps its
// shape: capture, fingerprint and identify_enforce are roots of the
// device's trace id; identify and enforce nest under identify_enforce;
// bank scan and tie-break under identify.
TEST(GatewayProvenanceTest, EveryJoinStageHasOneNameAcrossSinks) {
  const auto service = BuildTrainedSecurityService(/*n_per_type=*/10,
                                                   /*seed=*/42);
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  obs::Profiler profiler;
  obs::FlightRecorder recorder;
  SecurityGateway gateway(*service);
  service->set_metrics(&registry);
  gateway.set_metrics(&registry);
  gateway.set_tracer(&tracer);
  gateway.set_flight_recorder(&recorder);
  gateway.AttachWan([](const net::Frame&) {});
  gateway.AttachPort(kDevicePort, [](const net::Frame&) {});

  devices::DeviceSimulator simulator(606);
  const auto episode =
      simulator.RunSetupEpisode(devices::FindDeviceType("EdnetCam"));
  {
    obs::ScopedProfiler scoped_profiler(&profiler);
    // The datapath stages trace as children of an enclosing span.
    obs::ScopedSpan join(&tracer, "sentinel_test_join");
    PlayEpisode(gateway, episode);
  }
  service->set_metrics(nullptr);

  std::set<std::string> frames;
  CollectFrameNames(profiler.Snapshot(), frames);
  std::set<std::string> spans;
  for (const auto& span : tracer.Snapshot()) spans.insert(span.name);

  std::set<std::string> exercised;
  for (const auto& row : obs::kStageTable) {
    const std::string name = row.name;
    if (!frames.contains(name)) {
      EXPECT_FALSE(spans.contains(name)) << name;
      continue;
    }
    exercised.insert(name);
    EXPECT_TRUE(spans.contains(name)) << name;
    if (row.help != nullptr) {
      EXPECT_GT(registry.GetHistogram(name + "_ns").Count(), 0u) << name;
    }
  }
  for (const char* name :
       {"sentinel_stage_ingress", "sentinel_stage_flow_match",
        "sentinel_stage_packet_in", "sentinel_stage_capture",
        "sentinel_stage_fingerprint", "sentinel_stage_identify_enforce",
        "sentinel_stage_identify", "sentinel_stage_bank_scan",
        "sentinel_stage_tie_break", "sentinel_stage_enforce"}) {
    EXPECT_TRUE(exercised.contains(name)) << name;
  }

  const obs::TraceId device_trace = recorder.trace_id(episode.device_mac);
  ASSERT_NE(device_trace, 0u);
  std::map<obs::SpanId, std::string> names_by_id;
  std::vector<obs::SpanRecord> device_spans;
  for (const auto& span : tracer.Snapshot()) {
    if (span.trace_id != device_trace) continue;
    names_by_id[span.span_id] = span.name;
    device_spans.push_back(span);
  }
  const std::map<std::string, std::string> parent_of = {
      {"sentinel_stage_capture", ""},
      {"sentinel_stage_fingerprint", ""},
      {"sentinel_stage_identify_enforce", ""},
      {"sentinel_stage_identify", "sentinel_stage_identify_enforce"},
      {"sentinel_stage_enforce", "sentinel_stage_identify_enforce"},
      {"sentinel_stage_bank_scan", "sentinel_stage_identify"},
      {"sentinel_stage_tie_break", "sentinel_stage_identify"}};
  for (const auto& span : device_spans) {
    const auto want = parent_of.find(span.name);
    ASSERT_NE(want, parent_of.end()) << span.name;
    const std::string parent =
        span.parent_id == 0 ? std::string() : names_by_id[span.parent_id];
    EXPECT_EQ(parent, want->second) << span.name;
  }
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
