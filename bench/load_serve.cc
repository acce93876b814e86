// Closed-loop load generator for the always-on identification service:
// a trained 31-type bank behind TelemetryServer POST routes, driven over
// real loopback sockets with HTTP/1.1 keep-alive + pipelining.
//
// Phases:
//   1. differential — every served verdict is compared byte-for-byte
//      (rendered verdict JSON) against the per-call Identify() path.
//   2. per-call baseline — batch target 1, pipeline depth 1: the QPS an
//      unbatched serve loop reaches.
//   3. offered-load sweep — batched server (target 16), pipeline depth
//      1/4/16/32: QPS and p50/p99 vs offered concurrency. Work-conserving
//      serving never waits for a batch to fill, so the shallow rows
//      (depths 1 and 4) must reach 0.9x the per-call QPS; the deepest row
//      is saturation and must clear 2x it.
//   4. overload — a tiny admission queue flooded with distinct-MAC and
//      same-MAC probes: explicit 429s with Retry-After, and
//      shed-oldest-per-MAC superseding. The server is never Start()ed, so
//      its one handler admits the whole flood before serving any of it.
//
//   load_serve [--quick] [--json <path>]
//
// --quick shrinks request counts for the CI smoke job; --json writes the
// machine-readable baseline (scripts/serve_baseline.sh commits it as
// BENCH_serve.json).
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/device_identifier.h"
#include "core/identify_server.h"
#include "devices/simulator.h"
#include "features/fingerprint.h"
#include "features/fingerprint_codec.h"
#include "obs/telemetry_server.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace {

using Clock = std::chrono::steady_clock;
using sentinel::core::DeviceIdentifier;
using sentinel::core::IdentificationResult;
using sentinel::core::IdentifyServer;
using sentinel::core::IdentifyServerConfig;
using sentinel::core::LabelledFingerprint;

/// Widens the 27-type catalog dataset to `type_count` synthetic types —
/// same protocol as throughput_identify so the bank is comparable.
sentinel::devices::FingerprintDataset Widen(
    const sentinel::devices::FingerprintDataset& base,
    std::size_t type_count) {
  int catalog = 0;
  for (const int label : base.labels) catalog = std::max(catalog, label + 1);
  sentinel::devices::FingerprintDataset out;
  for (std::size_t i = 0; i < base.size(); ++i) {
    if (static_cast<std::size_t>(base.labels[i]) >= type_count) continue;
    out.fingerprints.push_back(base.fingerprints[i]);
    out.fixed.push_back(base.fixed[i]);
    out.labels.push_back(base.labels[i]);
  }
  for (std::size_t s = static_cast<std::size_t>(catalog); s < type_count;
       ++s) {
    const int src = static_cast<int>(s) % catalog;
    const auto offset = 911u * static_cast<std::uint32_t>(
                                   s - static_cast<std::size_t>(catalog) + 1);
    for (std::size_t i = 0; i < base.size(); ++i) {
      if (base.labels[i] != src) continue;
      auto packets = base.fingerprints[i].packets();
      for (auto& packet : packets)
        packet[sentinel::features::kFeatPacketSize] += offset;
      auto fp = sentinel::features::Fingerprint::FromPacketVectors(packets);
      out.fixed.push_back(
          sentinel::features::FixedFingerprint::FromFingerprint(fp));
      out.fingerprints.push_back(std::move(fp));
      out.labels.push_back(static_cast<int>(s));
    }
  }
  return out;
}

std::vector<LabelledFingerprint> ToExamples(
    const sentinel::devices::FingerprintDataset& dataset) {
  std::vector<LabelledFingerprint> examples;
  examples.reserve(dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    examples.push_back(LabelledFingerprint{
        &dataset.fingerprints[i], &dataset.fixed[i], dataset.labels[i]});
  }
  return examples;
}

/// One in-process service instance: identification server + HTTP front.
struct Service {
  IdentifyServer ids;
  sentinel::obs::TelemetryServer http;
  std::thread serving;

  /// `start_drain` false leaves the queue to the waiting handlers alone.
  Service(const DeviceIdentifier* identifier, IdentifyServerConfig config,
          std::size_t serve_threads, bool start_drain = true)
      : ids(identifier, config),
        http(nullptr, nullptr, {.serve_threads = serve_threads}) {
    http.set_post_routes(&ids, {"/identify", "/ingest"},
                         {"application/octet-stream", "application/json"});
    if (start_drain) ids.Start();
    http.Start();
    serving = std::thread([this] { http.Serve(); });
  }
  ~Service() {
    http.Stop();
    serving.join();
    ids.Stop();
  }
};

/// Binary probe request: 6 MAC octets + the SFP fingerprint codec. The
/// serving hot path deliberately never touches JSON.
std::string ProbeRequest(std::uint32_t mac_seq,
                         const sentinel::features::Fingerprint& fingerprint) {
  std::array<std::uint8_t, 6> mac{0x02, 0x00,
                                  static_cast<std::uint8_t>(mac_seq >> 24),
                                  static_cast<std::uint8_t>(mac_seq >> 16),
                                  static_cast<std::uint8_t>(mac_seq >> 8),
                                  static_cast<std::uint8_t>(mac_seq)};
  std::string body(reinterpret_cast<const char*>(mac.data()), mac.size());
  const auto bytes = sentinel::features::SerializeFingerprint(fingerprint);
  body.append(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  return "POST /identify HTTP/1.1\r\nHost: bench\r\n"
         "Content-Type: application/octet-stream\r\n"
         "Content-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

int ConnectLoopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  SENTINEL_CHECK(fd >= 0) << "socket() failed";
  const int one = 1;
  SENTINEL_CHECK(
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) == 0)
      << "TCP_NODELAY failed";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  SENTINEL_CHECK(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0)
      << "connect() failed";
  return fd;
}

void SendAll(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, 0);
    SENTINEL_CHECK(n > 0) << "send() failed";
    sent += static_cast<std::size_t>(n);
  }
}

/// Buffered reader that peels complete HTTP responses off a connection.
class ResponseStream {
 public:
  explicit ResponseStream(int fd) : fd_(fd) {}

  /// Blocks until one full response is buffered; returns its status and
  /// (optionally) its body.
  int Next(std::string* body_out) {
    for (;;) {
      const auto header_end = buffer_.find("\r\n\r\n");
      if (header_end != std::string::npos) {
        const std::size_t content_length = ContentLength(header_end);
        const std::size_t total = header_end + 4 + content_length;
        if (buffer_.size() >= total) {
          const int status = std::atoi(buffer_.c_str() + 9);  // "HTTP/1.1 "
          if (body_out != nullptr)
            *body_out = buffer_.substr(header_end + 4, content_length);
          buffer_.erase(0, total);
          return status;
        }
      }
      char chunk[8192];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      SENTINEL_CHECK(n > 0) << "connection closed mid-response";
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  std::size_t ContentLength(std::size_t header_end) const {
    const std::string headers = buffer_.substr(0, header_end);
    const auto pos = headers.find("Content-Length:");
    SENTINEL_CHECK(pos != std::string::npos) << "response without length";
    return static_cast<std::size_t>(
        std::atol(headers.c_str() + pos + std::strlen("Content-Length:")));
  }

  int fd_;
  std::string buffer_;
};

struct ClientRun {
  std::vector<std::uint64_t> latencies_ns;  // send-of-burst to response
  std::vector<std::string> bodies;          // when capture_bodies
  double elapsed_s = 0.0;
  std::size_t ok = 0;
  std::size_t too_many = 0;  // 429s (rejected or superseded)
};

/// Closed loop on one connection: send `pipeline` requests in one write,
/// read the `pipeline` responses, repeat until `requests` are done.
ClientRun DriveConnection(std::uint16_t port,
                          const std::vector<std::string>& requests,
                          std::size_t total, std::size_t pipeline,
                          bool capture_bodies) {
  const int fd = ConnectLoopback(port);
  ResponseStream responses(fd);
  ClientRun run;
  run.latencies_ns.reserve(total);
  const auto t_start = Clock::now();
  std::size_t next = 0;
  std::size_t done = 0;
  while (done < total) {
    const std::size_t burst = std::min(pipeline, total - done);
    std::string wire;
    for (std::size_t b = 0; b < burst; ++b) {
      wire += requests[next];
      next = (next + 1) % requests.size();
    }
    const auto t_send = Clock::now();
    SendAll(fd, wire);
    for (std::size_t b = 0; b < burst; ++b) {
      std::string body;
      const int status = responses.Next(capture_bodies ? &body : nullptr);
      const auto t_done = Clock::now();
      if (status == 200) {
        ++run.ok;
      } else if (status == 429) {
        ++run.too_many;
      } else {
        SENTINEL_CHECK(false) << "unexpected status " << status;
      }
      run.latencies_ns.push_back(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t_done - t_send)
              .count()));
      if (capture_bodies) run.bodies.push_back(std::move(body));
    }
    done += burst;
  }
  run.elapsed_s = std::chrono::duration<double>(Clock::now() - t_start).count();
  ::close(fd);
  return run;
}

std::uint64_t Percentile(std::vector<std::uint64_t> values, double p) {
  SENTINEL_CHECK(!values.empty());
  const auto nth = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  std::nth_element(values.begin(), values.begin() + nth, values.end());
  return values[nth];
}

struct PhaseNumbers {
  std::size_t pipeline = 0;
  std::size_t requests = 0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

PhaseNumbers Summarize(const ClientRun& run, std::size_t pipeline) {
  PhaseNumbers numbers;
  numbers.pipeline = pipeline;
  numbers.requests = run.latencies_ns.size();
  numbers.qps = static_cast<double>(run.latencies_ns.size()) / run.elapsed_s;
  numbers.p50_us =
      static_cast<double>(Percentile(run.latencies_ns, 0.50)) / 1e3;
  numbers.p99_us =
      static_cast<double>(Percentile(run.latencies_ns, 0.99)) / 1e3;
  return numbers;
}

constexpr std::size_t kBatchTarget = 16;
/// Shallow pipelines cannot fill a batch; there the batched server must
/// keep this share of the per-call QPS.
constexpr double kShallowFloor = 0.9;

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[i + 1];
  }
  sentinel::bench::MetricsSession session(argc, argv);
  sentinel::bench::Header(
      "Serving-path load: work-conserving batching vs per-call over HTTP",
      "the always-on service serves concurrent probes in batches, which "
      "share the queue lock, wake-ups and socket writes; each probe still "
      "pays its own bank scan");

  const std::size_t bank_types = 31;
  const auto train_base =
      sentinel::devices::GenerateFingerprintDataset(quick ? 4 : 6, 42);
  const auto probe_base =
      sentinel::devices::GenerateFingerprintDataset(2, 4242);
  const auto train = Widen(train_base, bank_types);
  const auto probes = Widen(probe_base, bank_types);

  DeviceIdentifier identifier;
  {
    sentinel::util::ThreadPool pool;
    identifier.set_thread_pool(&pool);
    identifier.Train(ToExamples(train));
    identifier.set_thread_pool(nullptr);
  }

  // Pre-built binary probe requests, one distinct MAC per probe.
  std::vector<std::string> requests;
  requests.reserve(probes.size());
  for (std::size_t i = 0; i < probes.size(); ++i)
    requests.push_back(
        ProbeRequest(static_cast<std::uint32_t>(i), probes.fingerprints[i]));

  // --- Phase 1: differential (untimed) ---------------------------------
  std::size_t mismatches = 0;
  {
    Service service(&identifier,
                    {.queue_depth = 256, .batch_target = kBatchTarget},
                    /*serve_threads=*/1);
    const auto run = DriveConnection(service.http.port(), requests,
                                     probes.size(), /*pipeline=*/8,
                                     /*capture_bodies=*/true);
    SENTINEL_CHECK(run.ok == probes.size()) << "differential probes failed";
    for (std::size_t i = 0; i < probes.size(); ++i) {
      const std::string expected =
          "\"verdict\":" +
          IdentifyServer::RenderVerdictJson(
              identifier.Identify(probes.fingerprints[i], probes.fixed[i]));
      if (run.bodies[i].find(expected) == std::string::npos) ++mismatches;
    }
    std::printf("differential: %zu probes, %zu verdict mismatches\n",
                probes.size(), mismatches);
    SENTINEL_CHECK(mismatches == 0)
        << "served verdicts diverged from the per-call path";
  }

  // Full-mode phases run long enough (~1-2 s each) that thread placement
  // on a shared VM averages out; 8192-request phases swung the saturation
  // ratio between 1.8x and 3.2x from run to run.
  const std::size_t saturation_requests = quick ? 1024 : 32768;

  // --- Phase 2: per-call baseline (batch target 1, no pipelining) ------
  PhaseNumbers per_call;
  {
    Service service(&identifier, {.queue_depth = 256, .batch_target = 1},
                    /*serve_threads=*/1);
    // Warmup, then the timed run.
    (void)DriveConnection(service.http.port(), requests,
                          std::min<std::size_t>(128, saturation_requests), 1,
                          false);
    per_call = Summarize(
        DriveConnection(service.http.port(), requests, saturation_requests, 1,
                        false),
        1);
  }

  // --- Phase 3: offered-load sweep on the batched server ---------------
  std::printf("%9s %9s %12s %10s %10s\n", "pipeline", "requests", "qps",
              "p50_us", "p99_us");
  std::printf("%9s %9zu %12.0f %10.1f %10.1f   (per-call baseline)\n", "1*",
              per_call.requests, per_call.qps, per_call.p50_us,
              per_call.p99_us);
  std::vector<PhaseNumbers> sweep;
  std::vector<std::pair<std::size_t, std::uint64_t>> batch_histogram;
  for (const std::size_t pipeline : {std::size_t{1}, std::size_t{4},
                                     std::size_t{16}, std::size_t{32}}) {
    Service service(&identifier,
                    {.queue_depth = 256, .batch_target = kBatchTarget},
                    /*serve_threads=*/1);
    (void)DriveConnection(service.http.port(), requests,
                          std::min<std::size_t>(128, saturation_requests),
                          pipeline, false);
    const auto numbers = Summarize(
        DriveConnection(service.http.port(), requests, saturation_requests,
                        pipeline, false),
        pipeline);
    std::printf("%9zu %9zu %12.0f %10.1f %10.1f   (%.2fx per-call)\n",
                numbers.pipeline, numbers.requests, numbers.qps,
                numbers.p50_us, numbers.p99_us, numbers.qps / per_call.qps);
    sweep.push_back(numbers);
    if (pipeline == 32) {
      for (const auto& [size, count] : service.ids.stats().batch_size_counts)
        batch_histogram.emplace_back(size, count);
    }
  }
  // No wait for a batch to fill: at depths 1 and 4 the batched server
  // keeps (nearly) per-call throughput.
  for (const PhaseNumbers& shallow : {sweep[0], sweep[1]}) {
    const double ratio = shallow.qps / per_call.qps;
    SENTINEL_CHECK(ratio >= kShallowFloor)
        << "batched serving at pipeline depth " << shallow.pipeline
        << " only " << ratio << "x the per-call baseline";
  }
  const PhaseNumbers& saturation = sweep.back();
  const double speedup = saturation.qps / per_call.qps;
  std::printf("batched saturation vs per-call: %.2fx\n", speedup);
  // The tentpole criterion: batching must at least double served QPS at
  // the 31-type bank. The quick smoke run keeps a softer floor — tiny
  // request counts on a loaded CI core are noisy.
  SENTINEL_CHECK(speedup >= (quick ? 1.2 : 2.0))
      << "batched serving only " << speedup << "x the per-call baseline";

  // --- Phase 4: overload — explicit 429s and shed-oldest-per-MAC -------
  std::size_t overload_rejected = 0;
  std::size_t overload_served = 0;
  std::uint64_t shed_count = 0;
  {
    Service service(&identifier, {.queue_depth = 4, .batch_target = 64},
                    /*serve_threads=*/1, /*start_drain=*/false);
    // Distinct MACs: queue fills, the tail is rejected with Retry-After.
    auto flood = DriveConnection(service.http.port(), requests, 64, 64, true);
    overload_rejected = flood.too_many;
    overload_served = flood.ok;
    for (const auto& body : flood.bodies) {
      if (body.find("retry_after_ms") != std::string::npos) continue;
      SENTINEL_CHECK(body.find("\"verdict\"") != std::string::npos ||
                     body.find("superseded") != std::string::npos)
          << "overload response neither verdict nor push-back: " << body;
    }
    SENTINEL_CHECK(overload_rejected > 0) << "flood produced no 429s";
    SENTINEL_CHECK(overload_served >= 1) << "flood starved admitted probes";

    // Same MAC over and over: each new probe supersedes the queued one.
    std::vector<std::string> same_mac(
        8, ProbeRequest(0xffffffff, probes.fingerprints[0]));
    const auto shed_run =
        DriveConnection(service.http.port(), same_mac, 8, 8, true);
    shed_count = service.ids.stats().shed;
    SENTINEL_CHECK(shed_count >= 1) << "same-MAC flood shed nothing";
    std::printf(
        "overload (queue 4): %zu rejected with Retry-After, %zu served; "
        "same-MAC flood: %llu superseded, %zu served\n",
        overload_rejected, overload_served,
        static_cast<unsigned long long>(shed_count), shed_run.ok);
  }

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    SENTINEL_CHECK(f != nullptr) << "cannot write " << json_path;
    std::fprintf(f, "{\n  \"bench\": \"load_serve\",\n");
    std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
    std::fprintf(f, "  \"bank_types\": %zu,\n", bank_types);
    std::fprintf(f, "  \"batch_target\": %zu,\n", kBatchTarget);
    std::fprintf(f,
                 "  \"differential\": {\"probes\": %zu, \"mismatches\": %zu},"
                 "\n",
                 probes.size(), mismatches);
    std::fprintf(f,
                 "  \"per_call\": {\"pipeline\": %zu, \"requests\": %zu, "
                 "\"qps\": %.1f, \"p50_us\": %.1f, \"p99_us\": %.1f},\n",
                 per_call.pipeline, per_call.requests, per_call.qps,
                 per_call.p50_us, per_call.p99_us);
    std::fprintf(f, "  \"batched_sweep\": [\n");
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const auto& n = sweep[i];
      std::fprintf(f,
                   "    {\"pipeline\": %zu, \"requests\": %zu, \"qps\": %.1f,"
                   " \"p50_us\": %.1f, \"p99_us\": %.1f,"
                   " \"vs_per_call\": %.2f}%s\n",
                   n.pipeline, n.requests, n.qps, n.p50_us, n.p99_us,
                   n.qps / per_call.qps, i + 1 < sweep.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"speedup_batched_vs_per_call\": %.2f,\n", speedup);
    std::fprintf(f, "  \"batch_size_histogram\": {");
    for (std::size_t i = 0; i < batch_histogram.size(); ++i)
      std::fprintf(f, "%s\"%zu\": %llu", i == 0 ? "" : ", ",
                   batch_histogram[i].first,
                   static_cast<unsigned long long>(batch_histogram[i].second));
    std::fprintf(f, "},\n");
    std::fprintf(f,
                 "  \"overload\": {\"queue_depth\": 4, \"rejected\": %zu, "
                 "\"served\": %zu, \"shed_same_mac\": %llu},\n",
                 overload_rejected, overload_served,
                 static_cast<unsigned long long>(shed_count));
    std::fprintf(f, "  \"observability\": %s\n",
                 session.ObservabilityJson().c_str());
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  sentinel::bench::Footer();
  return 0;
}
