// The always-on identification service behind `sentinelctl serve`'s POST
// routes (DESIGN.md "Serving path"). Probes arrive over HTTP — a parsed
// fingerprint on POST /identify, raw setup-phase frames on POST /ingest —
// and every request lives in one table, keyed by request id, from Submit
// to Collect: either its ready response (a parse error, 404 or 415) or its
// probes, each of which ends served, shed or rejected. Admitted probes
// wait in one bounded FIFO queue whose entries name their (request,
// probe).
//
// Serving is work-conserving: whenever a serving thread is free and the
// queue is non-empty, it takes everything queued, up to batch_target, and
// serves it through DeviceIdentifier::IdentifyBatch, the one
// identification kernel. Two kinds of thread serve: the background drain
// thread Start() launches, and any caller blocked in Collect (a
// connection handler collecting a response) whose probes are not done
// yet. An admission wakes the drain thread only once a second probe is
// queued: a lone probe is left to its own collector, which is cheaper
// than a cross-thread wake. Nothing waits for a batch to fill, so light
// load is served at per-call latency; batches grow only while every
// serving thread is busy. A batch is still one scan and one tie-break per
// probe, so what batching amortizes is the queue lock, the wake-ups and
// the socket writes, not the identification. Submit takes the queue lock
// once; Collect takes it once, plus once per batch it serves.
// Without Start() the collectors alone serve the queue — the
// deterministic seam the tests drive.
//
// Overload is explicit, never silent: past the queue's capacity the
// oldest queued probe of the same device is shed (the newest fingerprint
// per device wins) and its request answered 429, or — when no
// same-device probe is queued — the new probe is rejected with 429 +
// Retry-After derived from the observed service rate. Every served result
// equals a per-call Identify() of the same fingerprint on every field but
// the two stage timings (differentially tested), so the rendered verdict
// bytes are identical.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/device_identifier.h"
#include "features/fingerprint.h"
#include "net/address.h"
#include "obs/metrics.h"
#include "obs/telemetry_server.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace sentinel::core {

struct IdentifyServerConfig {
  /// Admission queue capacity; probes past it shed or get 429. Must be at
  /// least 1.
  std::size_t queue_depth = 256;
  /// Largest batch one serving thread takes off the queue and serves
  /// through IdentifyBatch (1 serves each probe alone; must be at least
  /// 1). Batches of up to 16 identify on the serving thread; see
  /// BENCH_serve.json's batch histogram for the sizes saturation reaches.
  std::size_t batch_target = 16;
};

/// Lifetime counters of one server, readable at any time (stats()) and —
/// with set_metrics() — mirrored into the telemetry registry.
struct ServeStats {
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t batches = 0;
  std::uint64_t probes_served = 0;
  /// Bodies rejected as malformed or mistyped (400/415) — routing 404s
  /// are counted separately below, not here.
  std::uint64_t parse_errors = 0;
  /// POSTs to a path no route claims (404).
  std::uint64_t unknown_routes = 0;
  /// Batches taken at the batch_target cap (the queue held at least that
  /// many probes).
  std::uint64_t flush_size = 0;
  /// Always 0: no deadline holds a batch back. Kept so readers of the
  /// counter set need not change.
  std::uint64_t flush_deadline = 0;
  /// Batches taken below the cap: a serving thread was free and took
  /// everything queued.
  std::uint64_t flush_sparse = 0;
  /// Batch-size histogram: served batch size -> occurrences.
  std::map<std::size_t, std::uint64_t> batch_size_counts;
};

class IdentifyServer : public obs::PostRoutes {
 public:
  /// `identifier` must be trained and must outlive the server. Throws
  /// std::invalid_argument when config.queue_depth or config.batch_target
  /// is 0.
  explicit IdentifyServer(const DeviceIdentifier* identifier,
                          IdentifyServerConfig config = {});
  ~IdentifyServer() override;
  IdentifyServer(const IdentifyServer&) = delete;
  IdentifyServer& operator=(const IdentifyServer&) = delete;

  /// Starts the background drain thread. Optional: without it, callers
  /// of Collect serve the queue themselves.
  void Start();
  /// Stops the drain thread and resolves every still-queued probe as
  /// shed so no collector blocks forever; later probes are rejected.
  /// Idempotent; the destructor calls it.
  void Stop();

  /// Mirrors the serve counters into `registry` (attach before Start,
  /// like the identifier's own metrics): queue-depth gauge, admission /
  /// shed / rejection / batch / probe counters, batch-size and
  /// queue-wait histograms.
  void set_metrics(obs::MetricsRegistry* registry);

  // --- obs::PostRoutes (the HTTP facade, and what the tests drive) ---

  /// Parses and admits one POST body (never blocks, never throws).
  /// Routes: /identify with application/json `{"mac": "...", "packets":
  /// [[23 uints]...]}` or application/octet-stream (6 raw MAC octets +
  /// SFP fingerprint bytes); /ingest with a classic pcap image, replayed
  /// through the gateway's setup-phase capture (DeviceMonitor::Replay)
  /// into one probe per captured device. Malformed input becomes a 400
  /// collected later.
  [[nodiscard]] std::uint64_t Submit(const std::string& path,
                                     const std::string& content_type,
                                     std::string body) override;
  /// Blocks until every probe of the request is served, shed or rejected
  /// and renders the response; consumes the id. While its probes are
  /// pending and probes are queued, the caller serves queued batches
  /// itself instead of sleeping.
  [[nodiscard]] obs::PostResponse Collect(std::uint64_t request_id) override;

  // --- introspection ---

  [[nodiscard]] ServeStats stats() const;
  [[nodiscard]] std::size_t queue_depth() const;
  [[nodiscard]] const IdentifyServerConfig& config() const { return config_; }

  /// Renders the verdict-grade JSON object shared by every serving mode
  /// — `{"known":...,"type":...,"matched_types":[...],
  /// "tie_break_count":...,"dissimilarity":...}` — exposed so the
  /// differential tests and the load generator can render a per-call
  /// Identify() result through the exact same bytes.
  [[nodiscard]] static std::string RenderVerdictJson(
      const IdentificationResult& result);

 private:
  /// One probe of a request (one per captured device for /ingest) and,
  /// once resolved, its outcome.
  struct Probe {
    enum class State { kQueued, kServed, kShed, kRejected };
    net::MacAddress mac;
    features::Fingerprint full;
    features::FixedFingerprint fixed;
    State state = State::kQueued;
    std::uint64_t enqueue_ns = 0;
    /// kServed: the verdict, its batch's size and its queueing delay.
    IdentificationResult result;
    std::size_t batch_size = 0;
    std::uint64_t queue_wait_ns = 0;
    /// kRejected: suggested client back-off (0 once the server stopped).
    std::uint64_t retry_after_ms = 0;
  };
  /// One request between Submit and Collect.
  struct Request {
    enum class Kind { kReady, kIdentify, kIngest };
    Kind kind = Kind::kReady;
    /// kReady: the response (a 400/415 for a malformed body, a 404).
    obs::PostResponse response;
    std::vector<Probe> probes;
    /// Probes still queued or in service.
    std::size_t unresolved = 0;
    /// kIngest provenance for the response body.
    std::size_t frames = 0;
    std::size_t devices_skipped = 0;
  };
  /// A queued probe. The pointers stay valid while it is queued or in
  /// service: requests_ never moves its nodes, a request's probes are
  /// never resized after Submit, and Collect erases a request only once
  /// none of its probes is unresolved.
  struct Queued {
    Request* request;
    Probe* probe;
  };

  /// Queues `probe` of `request`, shedding the oldest queued probe of the
  /// same device when the queue is full, or else rejects it.
  void AdmitLocked(Request& request, Probe& probe, std::uint64_t now_ns)
      SENTINEL_REQUIRES(mu_);
  /// Suggested Retry-After from current depth x observed per-probe
  /// service time (a fixed 1 ms per probe before any batch has been
  /// measured).
  [[nodiscard]] std::uint64_t RetryAfterMsLocked() const
      SENTINEL_REQUIRES(mu_);

  void DrainLoop();
  /// The one serving step both kinds of serving thread take: pops up to
  /// batch_target queued probes, identifies them through IdentifyBatch
  /// with mu_ released, then resolves them and wakes the collectors.
  /// Requires a non-empty queue; returns with mu_ held again.
  void ServeNextBatchLocked() SENTINEL_REQUIRES(mu_);

  static Request BuildIdentify(const std::string& content_type,
                               const std::string& body);
  static Request BuildIngest(const std::string& content_type,
                             const std::string& body);
  /// A request answered without a probe: an error response.
  static Request Ready(int status, const std::string& message);
  static obs::PostResponse Render(Request& request);
  /// Renders one probe's outcome into `out` (shared by both routes).
  static void AppendProbeJson(std::string& out, const Probe& probe);

  /// Metric handles resolved once in set_metrics(); all-null when
  /// detached.
  struct ServeMetrics {
    obs::Gauge* queue_depth = nullptr;
    obs::Counter* admitted = nullptr;
    obs::Counter* rejected = nullptr;
    obs::Counter* shed = nullptr;
    obs::Counter* batches = nullptr;
    obs::Counter* probes = nullptr;
    obs::Counter* parse_errors = nullptr;
    obs::Counter* unknown_routes = nullptr;
    obs::Histogram* batch_size = nullptr;
    obs::Histogram* queue_wait_ns = nullptr;
  };

  const DeviceIdentifier* identifier_;
  IdentifyServerConfig config_;
  ServeMetrics metrics_;

  mutable sentinel::Mutex mu_{"identify_server.queue"};
  /// Drain wake-ups: new admission or stop.
  sentinel::CondVar work_cv_;
  /// Collector wake-ups: batch served or probe shed.
  sentinel::CondVar done_cv_;
  std::unordered_map<std::uint64_t, Request> requests_
      SENTINEL_GUARDED_BY(mu_);
  std::deque<Queued> queue_ SENTINEL_GUARDED_BY(mu_);
  std::uint64_t next_request_ SENTINEL_GUARDED_BY(mu_) = 0;
  ServeStats stats_ SENTINEL_GUARDED_BY(mu_);
  /// Smoothed per-probe service time, feeding Retry-After.
  double ewma_service_ns_ SENTINEL_GUARDED_BY(mu_) = 0.0;
  bool stopping_ SENTINEL_GUARDED_BY(mu_) = false;
  bool started_ = false;
  std::thread drain_;
};

}  // namespace sentinel::core
