// Tests for the telemetry HTTP endpoint: socketless routing through
// HandleRequest()/HandlePath() — method handling, the JSON routes, edge
// cases — plus real loopback round-trips on an ephemeral port.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <thread>

#include "net/address.h"
#include "obs/alerts.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/quality.h"
#include "obs/telemetry_server.h"
#include "obs/timeseries.h"

namespace sentinel::obs {
namespace {

net::MacAddress Mac(std::uint8_t last) {
  return net::MacAddress({0x02, 0x00, 0x00, 0x00, 0x00, last});
}

TEST(TelemetryRoutesTest, HealthzAlwaysOk) {
  TelemetryServer server(nullptr, nullptr);
  const std::string response = server.HandlePath("/healthz");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos);
  // Contains "ok" as a substring so plain-text smoke checks keep passing.
  EXPECT_NE(response.find("ok"), std::string::npos);
}

TEST(TelemetryRoutesTest, HealthzReportsBuildAndSourceStatus) {
  MetricsRegistry registry;
  TimeSeriesStore store(&registry);
  store.Sample(1'000'000'000);
  store.Sample(2'000'000'000);
  AlertEngine alerts(&store);
  alerts.AddRule({.name = "r1", .series = "nope"});

  TelemetryServer server(&registry, nullptr);
  // Detached sources report attached:false and no counts.
  const std::string bare = server.HandlePath("/healthz");
  EXPECT_NE(bare.find("\"sampler\":{\"attached\":false}"), std::string::npos);
  EXPECT_NE(bare.find("\"version\":"), std::string::npos);
  EXPECT_NE(bare.find("\"compiler\":"), std::string::npos);
  EXPECT_NE(bare.find("\"uptime_seconds\":0"), std::string::npos);

  server.set_timeseries(&store);
  server.set_alerts(&alerts);
  const std::string full = server.HandlePath("/healthz");
  EXPECT_NE(full.find("\"samples\":2"), std::string::npos);
  EXPECT_NE(full.find("\"rules\":1"), std::string::npos);
  EXPECT_NE(full.find("\"firing\":0"), std::string::npos);
  EXPECT_NE(full.find("\"pending\":0"), std::string::npos);
}

TEST(TelemetryRoutesTest, MetricsRendersPrometheusText) {
  MetricsRegistry registry;
  registry.GetCounter("sentinel_served_total", "requests").Increment(3);
  TelemetryServer server(&registry, nullptr);
  const std::string response = server.HandlePath("/metrics");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(response.find("sentinel_served_total 3"), std::string::npos);
}

TEST(TelemetryRoutesTest, MetricsWithoutRegistryIsEmptyBody) {
  TelemetryServer server(nullptr, nullptr);
  const std::string response = server.HandlePath("/metrics");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("Content-Length: 0"), std::string::npos);
}

TEST(TelemetryRoutesTest, DevicesListAndJournal) {
  FlightRecorder recorder;
  recorder.Record(Mac(9), {.kind = DeviceEventKind::kFirstSeen});
  recorder.Record(Mac(9), {.kind = DeviceEventKind::kVerdict,
                           .label = "HueBridge",
                           .flag = true});
  TelemetryServer server(nullptr, &recorder);
  const std::string list = server.HandlePath("/devices");
  EXPECT_NE(list.find("application/json"), std::string::npos);
  EXPECT_NE(list.find("\"02:00:00:00:00:09\""), std::string::npos);
  const std::string journal = server.HandlePath("/devices/02:00:00:00:00:09");
  EXPECT_NE(journal.find("200 OK"), std::string::npos);
  EXPECT_NE(journal.find("\"verdict\""), std::string::npos);
  EXPECT_NE(journal.find("\"HueBridge\""), std::string::npos);
}

TEST(TelemetryRoutesTest, UnknownRoutesAre404) {
  FlightRecorder recorder;
  recorder.Record(Mac(9), {.kind = DeviceEventKind::kFirstSeen});
  TelemetryServer server(nullptr, &recorder);
  EXPECT_NE(server.HandlePath("/nope").find("404"), std::string::npos);
  // Journalled recorder, but a MAC it has never seen.
  EXPECT_NE(server.HandlePath("/devices/02:00:00:00:00:01").find("404"),
            std::string::npos);
  // Syntactically invalid MAC.
  EXPECT_NE(server.HandlePath("/devices/not-a-mac").find("404"),
            std::string::npos);
  // No recorder wired at all.
  TelemetryServer bare(nullptr, nullptr);
  EXPECT_NE(bare.HandlePath("/devices/02:00:00:00:00:09").find("404"),
            std::string::npos);
}

TEST(TelemetryRoutesTest, NonGetMethodsAre405) {
  MetricsRegistry registry;
  registry.GetCounter("c", "c").Increment();
  TelemetryServer server(&registry, nullptr);
  for (const char* method : {"POST", "PUT", "DELETE", "HEAD", "PATCH"}) {
    const std::string response = server.HandleRequest(method, "/metrics");
    EXPECT_NE(response.find("405"), std::string::npos) << method;
    EXPECT_EQ(response.find("sentinel"), std::string::npos) << method;
  }
  // The same path through the GET spelling still works.
  EXPECT_NE(server.HandleRequest("GET", "/metrics").find("200 OK"),
            std::string::npos);
}

TEST(TelemetryRoutesTest, MetricsJsonRoute) {
  MetricsRegistry registry;
  registry.GetCounter("sentinel_served_total", "requests").Increment(3);
  TelemetryServer server(&registry, nullptr);
  const std::string response = server.HandlePath("/metrics.json");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("application/json"), std::string::npos);
  EXPECT_NE(response.find("\"sentinel_served_total\""), std::string::npos);

  // Without a registry the route degrades to an empty JSON document.
  TelemetryServer bare(nullptr, nullptr);
  EXPECT_NE(bare.HandlePath("/metrics.json").find("{}"), std::string::npos);
}

TEST(TelemetryRoutesTest, ObservabilityRoutesServeAttachedSources) {
  MetricsRegistry registry;
  registry.GetGauge("g", "gauge").Set(4.0);
  TimeSeriesStore store(&registry);
  store.Sample(1'000'000'000);
  QualityMonitor quality(&registry);
  AlertEngine alerts(&store);

  TelemetryServer server(&registry, nullptr);
  // Before attachment every route serves an empty JSON document.
  for (const char* path : {"/timeseries", "/quality", "/alerts"}) {
    const std::string response = server.HandlePath(path);
    EXPECT_NE(response.find("200 OK"), std::string::npos) << path;
    EXPECT_NE(response.find("{}"), std::string::npos) << path;
  }
  server.set_timeseries(&store, /*window_samples=*/30);
  server.set_quality(&quality);
  server.set_alerts(&alerts);
  EXPECT_NE(server.HandlePath("/timeseries").find("\"g\""),
            std::string::npos);
  EXPECT_NE(server.HandlePath("/timeseries").find("\"window\": 30"),
            std::string::npos);
  EXPECT_NE(server.HandlePath("/quality").find("\"totals\""),
            std::string::npos);
  EXPECT_NE(server.HandlePath("/alerts").find("\"rules\""),
            std::string::npos);
}

TEST(TelemetryRoutesTest, ProfileMemoryAndLockRoutes) {
  TelemetryServer server(nullptr, nullptr);
  // Detached profiler/memory sources degrade to empty JSON documents.
  EXPECT_NE(server.HandlePath("/profile").find("{}"), std::string::npos);
  EXPECT_NE(server.HandlePath("/memory").find("{}"), std::string::npos);
  EXPECT_NE(server.HandlePath("/profile.collapsed").find("200 OK"),
            std::string::npos);
  // /locks needs no source: the site table is process-wide.
  const std::string locks = server.HandlePath("/locks");
  EXPECT_NE(locks.find("200 OK"), std::string::npos);
  EXPECT_NE(locks.find("\"sites\""), std::string::npos);

  Profiler profiler;
  MemoryAccounting memory;
  const auto registration =
      memory.Register("test/component", [] { return std::size_t{64}; });
  server.set_profiler(&profiler);
  server.set_memory(&memory);
  {
    ScopedProfiler install(&profiler);
    SENTINEL_PROFILE_SCOPE("route_frame");
  }
  const std::string profile = server.HandlePath("/profile");
  EXPECT_NE(profile.find("application/json"), std::string::npos);
  EXPECT_NE(profile.find("\"route_frame\""), std::string::npos);
  const std::string mem = server.HandlePath("/memory");
  EXPECT_NE(mem.find("\"test/component\""), std::string::npos);
  EXPECT_NE(mem.find("\"total_bytes\":64"), std::string::npos);
}

TEST(TelemetryRoutesTest, MalformedDevicePathsAre404) {
  FlightRecorder recorder;
  recorder.Record(Mac(9), {.kind = DeviceEventKind::kFirstSeen});
  TelemetryServer server(nullptr, &recorder);
  for (const char* path :
       {"/devices/", "/devices/02:00", "/devices/02:00:00:00:00:09/extra",
        "/devices/02:00:00:00:00:0g", "/devices/..", "/DEVICES/x"}) {
    EXPECT_NE(server.HandlePath(path).find("404"), std::string::npos)
        << path;
  }
  // Near-miss prefixes of valid routes stay 404 too.
  EXPECT_NE(server.HandlePath("/metricsx").find("404"), std::string::npos);
  EXPECT_NE(server.HandlePath("/healthz2").find("404"), std::string::npos);
}

TEST(TelemetryServerTest, LoopbackRoundTripOnEphemeralPort) {
  MetricsRegistry registry;
  registry.GetCounter("sentinel_live_total", "live").Increment(7);
  TelemetryServer server(&registry, nullptr);
  server.Start();
  ASSERT_NE(server.port(), 0);
  std::thread serving([&] { server.Serve(/*max_requests=*/1); });

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  // Every connection is keep-alive; asking for close ends it after the
  // one response, so reading until EOF returns promptly.
  const std::string request =
      "GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  serving.join();
  server.Stop();
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("sentinel_live_total 7"), std::string::npos);
}

/// Sends one raw request to `server` (already Start()ed, Serve()ing one
/// request on another thread) and returns the full response. With
/// `half_close` the client shuts its sending side down after the request.
std::string RawRoundTrip(const TelemetryServer& server,
                         const std::string& request, bool half_close = false) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  if (half_close) ::shutdown(fd, SHUT_WR);
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(TelemetryServerTest, PostOverSocketIs405) {
  MetricsRegistry registry;
  TelemetryServer server(&registry, nullptr);
  server.Start();
  std::thread serving([&] { server.Serve(/*max_requests=*/1); });
  const std::string response = RawRoundTrip(
      server,
      "POST /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
  serving.join();
  server.Stop();
  EXPECT_NE(response.find("HTTP/1.1 405"), std::string::npos);
  EXPECT_NE(response.find("only GET"), std::string::npos);
}

TEST(TelemetryServerTest, OversizedRequestLineIsCutOffNotServed) {
  MetricsRegistry registry;
  registry.GetCounter("sentinel_secret_total", "s").Increment();
  TelemetryServer server(&registry, nullptr);
  server.Start();
  std::thread serving([&] { server.Serve(/*max_requests=*/1); });
  // A request line far beyond the 4 KiB header cap: the server must cut it
  // off and answer 400 with a close, never hang or serve the metrics body.
  const std::string response = RawRoundTrip(
      server,
      "GET /" + std::string(8192, 'a') + " HTTP/1.1\r\nHost: x\r\n\r\n");
  serving.join();
  server.Stop();
  EXPECT_EQ(response.rfind("HTTP/1.1 400", 0), 0u) << response;
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  EXPECT_EQ(response.find("sentinel_secret_total"), std::string::npos);
}

TEST(TelemetryServerTest, PeerClosingMidRequestGetsNoAnswer) {
  TelemetryServer server(nullptr, nullptr);
  server.Start();
  std::thread serving([&] { server.Serve(/*max_requests=*/1); });
  // The header block never ends: the request is incomplete, so it is not
  // served — the server closes without answering.
  const std::string response =
      RawRoundTrip(server, "GET /metrics HTTP/1.1\r\nHost: x\r\n",
                   /*half_close=*/true);
  serving.join();
  server.Stop();
  EXPECT_EQ(response, "");
}

TEST(TelemetryServerTest, StopUnblocksServe) {
  TelemetryServer server(nullptr, nullptr);
  server.Start();
  std::thread serving([&] { server.Serve(); });
  server.Stop();
  serving.join();  // must return promptly once the listen fd is closed
}

}  // namespace
}  // namespace sentinel::obs
