// Minimal blocking HTTP/1.1 endpoint for live telemetry scraping and —
// when a PostRoutes backend is attached — the always-on identification
// service (`sentinelctl serve`). GET routes:
//   GET /healthz          -> structured health JSON ("status": "ok",
//                            build info, uptime, sampler + alert summary)
//   GET /metrics          -> Prometheus text exposition of the registry
//   GET /metrics.json     -> the registry's JSON exposition
//   GET /timeseries       -> windowed stats of every sampled series (JSON)
//   GET /quality          -> model-quality monitor state (JSON)
//   GET /alerts           -> alert rule states (JSON)
//   GET /profile          -> merged profiler self/total-time tree (JSON)
//   GET /profile.collapsed-> collapsed-stack lines (flamegraph input)
//   GET /locks            -> per-site lock-contention telemetry (JSON)
//   GET /memory           -> unified memory-attribution tree (JSON)
//   GET /devices          -> JSON list of journalled device MACs
//   GET /devices/<mac>    -> the device's flight-recorder journal as JSON
// POST is 405 everywhere until set_post_routes() registers a backend and
// its paths (the service registers POST /identify and POST /ingest; see
// core/identify_server.h). POST requests are hardened at this layer,
// before any backend sees them: bodies above max_body_bytes get 413
// without being read, Transfer-Encoding is rejected with 501 (only
// identity framing is implemented), a POST without Content-Length gets
// 411, and an unsupported media type gets 415. Anything else is 404.
// Every request, over a socket or not, passes that one gate.
//
// Serve() runs config.serve_threads connection handlers with HTTP/1.1
// keep-alive and pipelining: each handler admits every pipelined POST of
// a read burst into the backend before it waits on the first verdict, so
// the burst reaches the identification queue whole and can be served as
// one batch — by the drain thread or by the waiting handler itself. A
// response says "Connection: close" exactly when the handler closes the
// connection right after it: after a request that asked for close or
// whose framing cannot be resynchronized, after the 400/413 answer to a
// header block past 4 KiB or a declared body past max_body_bytes, and at
// the end of a burst during which the peer stopped sending or Stop() was
// called. A peer that closes mid-request gets no answer. A handler owns its
// connection only while it is live: idle keep-alive connections are
// closed after a configurable quiet interval, and connections accepted
// while every handler is busy queue only up to max_queued_connections
// before the server pushes back with 503 + Retry-After. Stop() from any
// thread unblocks Serve(). POSIX sockets only, loopback by default; no
// third-party dependencies.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/alerts.h"
#include "obs/flight_recorder.h"
#include "obs/memory_accounting.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/quality.h"
#include "obs/timeseries.h"

namespace sentinel::obs {

struct TelemetryServerConfig {
  /// TCP port to bind; 0 picks an ephemeral port (see port()).
  std::uint16_t port = 0;
  /// Bind all interfaces instead of loopback (off: scrape locally or
  /// through a reverse proxy).
  bool bind_any = false;
  /// Largest accepted POST body; a request declaring (or growing) more is
  /// answered 413 and its body is never buffered.
  std::size_t max_body_bytes = 1 << 20;  // 1 MiB
  /// Keep-alive + pipelining connection handlers Serve() runs; at least 1
  /// (the constructor throws std::invalid_argument on 0). One handler is
  /// pinned by any client that polls more often than the idle timeout, so
  /// the default leaves room for a scraper beside the service's clients.
  std::size_t serve_threads = 4;
  /// Accepted connections waiting for a free handler beyond this are
  /// answered 503 + Retry-After and closed instead of queueing unboundedly
  /// behind pinned keep-alive handlers.
  std::size_t max_queued_connections = 64;
  /// A keep-alive connection with no request activity for this many
  /// consecutive 200 ms recv quiet periods is closed, returning its
  /// handler to the pool (default ~30 s). 0 disables the idle timeout.
  std::size_t idle_timeout_periods = 150;
};

/// Full HTTP response of a POST route backend.
struct PostResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  /// When > 0 the response carries a Retry-After header (milliseconds
  /// rounded up to whole seconds) — overload push-back (429).
  std::uint64_t retry_after_ms = 0;
};

/// Two-phase POST backend. Submit() parses and admits one request body —
/// cheap and non-blocking (overload turns into an immediate 429 at
/// Collect) — and returns an opaque request id; Collect() blocks until
/// that request's response is ready and consumes the id. The split lets a
/// connection handler admit EVERY pipelined request of a read burst
/// before waiting on the first verdict; admitting-then-waiting one at a
/// time would cap the identification batch size at the connection count.
class PostRoutes {
 public:
  virtual ~PostRoutes() = default;
  /// `path` is one of the registered routes; `content_type` has already
  /// passed the accepted-types gate. Never throws.
  [[nodiscard]] virtual std::uint64_t Submit(const std::string& path,
                                             const std::string& content_type,
                                             std::string body) = 0;
  [[nodiscard]] virtual PostResponse Collect(std::uint64_t request_id) = 0;
};

class TelemetryServer {
 public:
  /// Either source may be nullptr; the matching routes then serve empty
  /// documents. Both must outlive the server. Throws std::invalid_argument
  /// when config.serve_threads is 0.
  TelemetryServer(const MetricsRegistry* registry,
                  const FlightRecorder* recorder,
                  TelemetryServerConfig config = {});
  ~TelemetryServer();
  TelemetryServer(const TelemetryServer&) = delete;
  TelemetryServer& operator=(const TelemetryServer&) = delete;

  /// Binds and listens; throws std::runtime_error on failure. After this
  /// returns, port() is the bound port.
  void Start();
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Blocking accept loop; returns after Stop() (or, when
  /// `max_requests` > 0, after accepting that many connections — tests).
  void Serve(std::size_t max_requests = 0);

  /// Thread-safe; unblocks a concurrent Serve().
  void Stop();

  /// Optional consumers behind /timeseries, /quality and /alerts; each
  /// route serves "{}" until its source is attached. All must outlive the
  /// server. Attach before Start() — the accept loop reads these without
  /// synchronization.
  void set_timeseries(const TimeSeriesStore* store,
                      std::size_t window_samples = 60) {
    timeseries_ = store;
    timeseries_window_ = window_samples;
  }
  void set_quality(const QualityMonitor* monitor) { quality_ = monitor; }
  void set_alerts(const AlertEngine* engine) { alerts_ = engine; }
  /// Sources behind /profile(.collapsed) and /memory; "{}" until
  /// attached, like the other optional sources.
  void set_profiler(const Profiler* profiler) { profiler_ = profiler; }
  void set_memory(const MemoryAccounting* memory) { memory_ = memory; }

  /// Registers the POST backend, the paths it serves and the media types
  /// it accepts (anything else on those paths is 415; POST to any other
  /// path stays 405). Attach before Start(), like the other sources; the
  /// backend must outlive the server.
  void set_post_routes(PostRoutes* routes, std::vector<std::string> paths,
                       std::vector<std::string> content_types) {
    post_routes_ = routes;
    post_paths_ = std::move(paths);
    post_content_types_ = std::move(content_types);
  }

  /// One parsed request, ready for routing — the testable-without-sockets
  /// form a connection handler reduces its bytes to.
  struct HttpRequest {
    std::string method;
    std::string path;
    /// Media type, lowercased, parameters stripped ("application/json"
    /// from "Application/JSON; charset=utf-8"); empty when absent.
    std::string content_type;
    bool has_transfer_encoding = false;
    bool has_content_length = false;
    std::size_t content_length = 0;
    /// Client sent "Connection: close".
    bool close_connection = false;
    std::string body;
  };

  /// Incremental request parser over a connection's receive buffer — the
  /// socket-free parser every connection handler runs.
  enum class ParseStatus {
    kComplete,           // one request parsed and consumed from the buffer
    kNeedMore,           // keep receiving
    kHeaderOverflow,     // header block exceeded the 4 KiB cap
    kBodyTooLarge,       // declared Content-Length beyond max_body_bytes
    kBadRequestLine,     // request line without a method or a path
    kConflictingLength,  // Content-Length headers with different values
  };
  /// Parses the first request in `buffer` into `out`. kComplete consumes
  /// it (headers and body); the framing errors (the other statuses but
  /// kNeedMore) consume at most the headers and end the connection.
  ParseStatus ParseOneRequest(std::string& buffer, HttpRequest& out) const;
  /// The closing 400 (413 for kBodyTooLarge) after a framing error.
  [[nodiscard]] std::string FramingErrorResponse(ParseStatus status) const;

  /// Routes one parsed request to a full HTTP response (status line,
  /// headers, body, "Connection: close"), through the same gate and
  /// rendering as a connection handler — the whole method/hardening
  /// surface is testable without sockets.
  [[nodiscard]] std::string HandleHttpRequest(const HttpRequest& request) const;

  /// (method, path) shorthand for HandleHttpRequest — the non-GET 405
  /// lives behind this too.
  [[nodiscard]] std::string HandleRequest(const std::string& method,
                                          const std::string& path) const;
  /// GET shorthand for HandleRequest.
  [[nodiscard]] std::string HandlePath(const std::string& path) const;

 private:
  /// The one request gate: the GET route's response, or a 405/501/411/
  /// 413/415 rejection, rendered with `keep_alive`'s Connection header —
  /// or nullopt when the request is a POST for the backend.
  [[nodiscard]] std::optional<std::string> Route(const HttpRequest& request,
                                                 bool keep_alive) const;
  [[nodiscard]] std::string HandlePathImpl(const std::string& path,
                                           bool keep_alive) const;
  [[nodiscard]] bool IsPostPath(const std::string& path) const;
  [[nodiscard]] bool AcceptsContentType(const std::string& media_type) const;

  /// Keep-alive + pipelining until the peer closes, a response closes the
  /// connection, the idle timeout fires or Stop() is called.
  void ServeConnection(int connection_fd);
  void SendAll(int connection_fd, const std::string& response);

  const MetricsRegistry* registry_;
  const FlightRecorder* recorder_;
  const TimeSeriesStore* timeseries_ = nullptr;
  std::size_t timeseries_window_ = 60;
  const QualityMonitor* quality_ = nullptr;
  const AlertEngine* alerts_ = nullptr;
  const Profiler* profiler_ = nullptr;
  const MemoryAccounting* memory_ = nullptr;
  PostRoutes* post_routes_ = nullptr;
  std::vector<std::string> post_paths_;
  std::vector<std::string> post_content_types_;
  TelemetryServerConfig config_;
  /// Monotonic ns at Start(); 0 before. /healthz derives uptime from it.
  std::uint64_t start_ns_ = 0;
  std::uint16_t port_ = 0;
  /// Atomic so Stop() can race Serve() from another thread; -1 when not
  /// listening. Stop() exchanges to -1 so the fd is closed exactly once.
  // ordering: release on publish (socket fully configured before the
  // accept loop may read it) / acquire on read; Stop()'s acq_rel exchange
  // both claims the fd for close() and observes the listener's state.
  std::atomic<int> listen_fd_{-1};
  // ordering: release on Stop / acquire in the accept loop — the loop must
  // observe the stop flag no later than the fd teardown it pairs with.
  std::atomic<bool> stopping_{false};
};

}  // namespace sentinel::obs
