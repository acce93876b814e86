#include "obs/telemetry_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "obs/build_info.h"
#include "obs/json.h"
#include "obs/log.h"
#include "util/mutex.h"

namespace sentinel::obs {

namespace {

/// Most pipelined requests served per read burst; bounds per-connection
/// memory against a client that never reads responses.
constexpr std::size_t kMaxPipeline = 64;
/// Header-block cap; a longer block is answered 400 and the connection
/// closed.
constexpr std::size_t kHeaderCap = 4096;

const char* ReasonFor(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 411: return "Length Required";
    case 413: return "Content Too Large";
    case 415: return "Unsupported Media Type";
    case 429: return "Too Many Requests";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    default: return "Internal Server Error";
  }
}

std::string HttpResponse(int status, const char* reason,
                         const char* content_type, const std::string& body,
                         bool keep_alive, std::uint64_t retry_after_ms = 0) {
  std::string out = "HTTP/1.1 " + std::to_string(status) + " " + reason +
                    "\r\nContent-Type: " + content_type +
                    "\r\nContent-Length: " + std::to_string(body.size());
  if (retry_after_ms > 0)
    out += "\r\nRetry-After: " + std::to_string((retry_after_ms + 999) / 1000);
  out += keep_alive ? "\r\nConnection: keep-alive\r\n\r\n"
                    : "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

std::string PlainResponse(int status, const std::string& body,
                          bool keep_alive) {
  return HttpResponse(status, ReasonFor(status), "text/plain; charset=utf-8",
                      body, keep_alive);
}

std::string NotFound(bool keep_alive) {
  return PlainResponse(404, "not found\n", keep_alive);
}

std::string BodyTooLarge(std::size_t max_body_bytes, bool keep_alive) {
  return PlainResponse(
      413, "body exceeds " + std::to_string(max_body_bytes) + " bytes\n",
      keep_alive);
}

std::string RenderPost(const PostResponse& response, bool keep_alive) {
  return HttpResponse(response.status, ReasonFor(response.status),
                      response.content_type.c_str(), response.body, keep_alive,
                      response.retry_after_ms);
}

std::string_view Trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t'))
    text.remove_prefix(1);
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t'))
    text.remove_suffix(1);
  return text;
}

std::string ToLower(std::string_view text) {
  std::string out(text);
  for (char& c : out)
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  return out;
}

/// Nagle on an accepted connection interacts with the peer's delayed ACK:
/// when a pipelined burst is answered in two writes (the burst straddled a
/// recv chunk), the second small write is held until the client ACKs the
/// first — and a client that is only reading delays that ACK ~40ms. An
/// HTTP server always wants its responses on the wire immediately.
void DisableNagle(int connection_fd) {
  const int one = 1;
  ::setsockopt(connection_fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

TelemetryServer::TelemetryServer(const MetricsRegistry* registry,
                                 const FlightRecorder* recorder,
                                 TelemetryServerConfig config)
    : registry_(registry), recorder_(recorder), config_(config) {
  if (config_.serve_threads == 0)
    throw std::invalid_argument("TelemetryServer: serve_threads must be >= 1");
}

TelemetryServer::~TelemetryServer() { Stop(); }

void TelemetryServer::Start() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0)
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  const int enable = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr =
      htonl(config_.bind_any ? INADDR_ANY : INADDR_LOOPBACK);
  address.sin_port = htons(config_.port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&address),
             sizeof(address)) != 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("bind port " + std::to_string(config_.port) +
                             ": " + error);
  }
  if (::listen(fd, 64) != 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("listen: " + error);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) ==
      0) {
    port_ = ntohs(bound.sin_port);
  }
  start_ns_ = NowNs();
  listen_fd_.store(fd, std::memory_order_release);
  SENTINEL_LOG_INFO("telemetry", "listening", {"port", port_});
}

void TelemetryServer::Serve(std::size_t max_requests) {
  const int fd = listen_fd_.load(std::memory_order_acquire);
  if (fd < 0) {
    // A concurrent Stop() may have already retired the socket; that is a
    // clean shutdown, not a usage error.
    if (stopping_.load(std::memory_order_acquire)) return;
    throw std::runtime_error("TelemetryServer::Serve before Start");
  }
  // The accept loop feeds a bounded handoff the connection handlers
  // drain. All queue state is local — the workers are joined
  // before Serve returns, so nothing outlives this frame.
  struct Handoff {
    sentinel::Mutex mu{"telemetry_server.handoff"};
    sentinel::CondVar cv;
    std::deque<int> connections;  // guarded by mu
    bool closed = false;          // guarded by mu
  } handoff;
  std::vector<std::thread> workers;
  workers.reserve(config_.serve_threads);
  for (std::size_t i = 0; i < config_.serve_threads; ++i) {
    workers.emplace_back([this, &handoff] {
      for (;;) {
        int connection = -1;
        {
          sentinel::MutexLock lock(handoff.mu);
          handoff.cv.Wait(handoff.mu, [&handoff]() SENTINEL_REQUIRES(
                                          handoff.mu) {
            return handoff.closed || !handoff.connections.empty();
          });
          if (handoff.connections.empty()) return;  // closed and drained
          connection = handoff.connections.front();
          handoff.connections.pop_front();
        }
        ServeConnection(connection);
        ::close(connection);
      }
    });
  }
  std::size_t served = 0;
  while (!stopping_.load(std::memory_order_acquire)) {
    const int connection = ::accept(fd, nullptr, nullptr);
    if (connection < 0) {
      if (errno == EINTR) continue;
      break;
    }
    // Bound the handler's blocking recv so Stop() is observed even on an
    // idle keep-alive connection.
    timeval timeout{.tv_sec = 0, .tv_usec = 200000};
    ::setsockopt(connection, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                 sizeof(timeout));
    DisableNagle(connection);
    bool admitted = false;
    {
      sentinel::MutexLock lock(handoff.mu);
      if (handoff.connections.size() < config_.max_queued_connections) {
        handoff.connections.push_back(connection);
        admitted = true;
      }
    }
    if (admitted) {
      handoff.cv.NotifyOne();
    } else {
      // Every handler is pinned to a live connection and the handoff is
      // at capacity: push back instead of queueing unboundedly — a queued
      // connection would sit unanswered for an unbounded time anyway.
      SendAll(connection,
              HttpResponse(503, ReasonFor(503), "text/plain; charset=utf-8",
                           "all connection handlers busy\n",
                           /*keep_alive=*/false, /*retry_after_ms=*/1000));
      ::close(connection);
    }
    if (max_requests > 0 && ++served >= max_requests) break;
  }
  {
    sentinel::MutexLock lock(handoff.mu);
    handoff.closed = true;
  }
  handoff.cv.NotifyAll();
  for (auto& worker : workers) worker.join();
}

void TelemetryServer::Stop() {
  stopping_.store(true, std::memory_order_release);
  const int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

TelemetryServer::ParseStatus TelemetryServer::ParseOneRequest(
    std::string& buffer, HttpRequest& out) const {
  const std::size_t header_end = buffer.find("\r\n\r\n");
  if (header_end == std::string::npos)
    return buffer.size() > kHeaderCap ? ParseStatus::kHeaderOverflow
                                      : ParseStatus::kNeedMore;
  if (header_end > kHeaderCap) return ParseStatus::kHeaderOverflow;

  out = HttpRequest{};
  const std::string_view head(buffer.data(), header_end);
  std::size_t line_end = head.find("\r\n");
  if (line_end == std::string_view::npos) line_end = header_end;
  const std::string_view request_line = head.substr(0, line_end);
  const std::size_t body_start = header_end + 4;
  const std::size_t first_space = request_line.find(' ');
  if (first_space != std::string_view::npos) {
    out.method = std::string(request_line.substr(0, first_space));
    const std::size_t second_space =
        request_line.find(' ', first_space + 1);
    out.path = std::string(request_line.substr(
        first_space + 1, second_space == std::string_view::npos
                             ? std::string_view::npos
                             : second_space - first_space - 1));
  }
  if (out.method.empty() || out.path.empty()) {
    buffer.erase(0, body_start);
    return ParseStatus::kBadRequestLine;
  }

  bool conflicting_length = false;
  std::size_t pos = line_end >= header_end ? header_end : line_end + 2;
  while (pos < header_end) {
    std::size_t next = head.find("\r\n", pos);
    if (next == std::string_view::npos) next = header_end;
    const std::string_view header = head.substr(pos, next - pos);
    pos = next + 2;
    const std::size_t colon = header.find(':');
    if (colon == std::string_view::npos) continue;
    const std::string name = ToLower(Trim(header.substr(0, colon)));
    const std::string_view value = Trim(header.substr(colon + 1));
    if (name == "content-length") {
      std::size_t length = 0;
      const auto [ptr, ec] =
          std::from_chars(value.data(), value.data() + value.size(), length);
      if (ec != std::errc() || ptr != value.data() + value.size()) {
        // Malformed length: the body boundary is unknowable, so serve
        // this request bodyless and drop the connection after it.
        out.close_connection = true;
      } else if (out.has_content_length && length != out.content_length) {
        conflicting_length = true;
      } else {
        out.has_content_length = true;
        out.content_length = length;
      }
    } else if (name == "transfer-encoding") {
      out.has_transfer_encoding = true;
      out.close_connection = true;  // framing not parsed: cannot resync
    } else if (name == "content-type") {
      std::string_view media = value;
      const std::size_t semicolon = media.find(';');
      if (semicolon != std::string_view::npos)
        media = Trim(media.substr(0, semicolon));
      out.content_type = ToLower(media);
    } else if (name == "connection") {
      if (ToLower(value).find("close") != std::string::npos)
        out.close_connection = true;
    }
  }

  if (conflicting_length) {
    buffer.erase(0, body_start);
    return ParseStatus::kConflictingLength;
  }
  if (out.has_content_length &&
      out.content_length > config_.max_body_bytes) {
    // Consume the headers only; the unread body makes the connection
    // unsynchronizable, so the caller must close after responding 413.
    buffer.erase(0, body_start);
    return ParseStatus::kBodyTooLarge;
  }
  if (out.has_transfer_encoding) {
    // Respond 501 without attempting to parse chunked framing.
    buffer.erase(0, body_start);
    return ParseStatus::kComplete;
  }
  const std::size_t body_len =
      out.has_content_length ? out.content_length : 0;
  if (buffer.size() < body_start + body_len) return ParseStatus::kNeedMore;
  out.body.assign(buffer, body_start, body_len);
  buffer.erase(0, body_start + body_len);
  return ParseStatus::kComplete;
}

bool TelemetryServer::IsPostPath(const std::string& path) const {
  return std::find(post_paths_.begin(), post_paths_.end(), path) !=
         post_paths_.end();
}

bool TelemetryServer::AcceptsContentType(const std::string& media_type) const {
  return std::find(post_content_types_.begin(), post_content_types_.end(),
                   media_type) != post_content_types_.end();
}

void TelemetryServer::SendAll(int connection_fd, const std::string& response) {
  std::size_t sent = 0;
  while (sent < response.size()) {
    const ssize_t n = ::send(connection_fd, response.data() + sent,
                             response.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
}

void TelemetryServer::ServeConnection(int connection_fd) {
  std::string buffer;
  // Sized so a deep pipelined burst of ~2 KB requests lands in few reads.
  char chunk[65536];
  bool close_connection = false;
  // Consecutive 200 ms recv quiet periods with no complete request; the
  // idle timeout frees this handler from a silent keep-alive peer.
  std::size_t idle_periods = 0;
  while (!close_connection && !stopping_.load(std::memory_order_acquire)) {
    // Gather a burst: parse every complete pipelined request already
    // buffered or already sitting in the kernel receive queue. Only the
    // first recv blocks; once at least one request is in hand the socket
    // is drained non-blockingly, so a deep pipelined burst is admitted
    // whole instead of chunk by chunk — the difference between the
    // identification drain seeing one batch of W and W/chunk dribbles.
    std::vector<HttpRequest> burst;
    ParseStatus status = ParseStatus::kNeedMore;
    while (burst.size() < kMaxPipeline) {
      HttpRequest request;
      status = ParseOneRequest(buffer, request);
      if (status == ParseStatus::kComplete) {
        if (request.close_connection) close_connection = true;
        burst.push_back(std::move(request));
        if (close_connection) break;
        continue;
      }
      if (status != ParseStatus::kNeedMore) break;  // overflow / too large
      const ssize_t n = ::recv(connection_fd, chunk, sizeof(chunk),
                               burst.empty() ? 0 : MSG_DONTWAIT);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        // Socket dry (burst in hand) or recv timeout (empty burst): leave
        // the gather loop either way — the stopping_ check below then
        // observes Stop() even on an idle keep-alive connection.
        break;
      }
      if (n <= 0) {
        close_connection = true;
        break;
      }
      buffer.append(chunk, static_cast<std::size_t>(n));
    }
    // Stop() ends the connection after this burst, so the burst's last
    // response says close.
    if (stopping_.load(std::memory_order_acquire)) close_connection = true;
    if (burst.empty() && status == ParseStatus::kNeedMore &&
        !close_connection) {
      // A quiet period on an idle (or stalled mid-request) keep-alive
      // connection. Bound how long it may pin this handler so a handful
      // of silent clients cannot starve the pool.
      if (config_.idle_timeout_periods > 0 &&
          ++idle_periods >= config_.idle_timeout_periods)
        break;
      continue;
    }
    idle_periods = 0;
    // A framing error leaves the rest of the stream unreadable: its 400 or
    // 413 answer follows the burst and is the connection's last response.
    const bool framing_error = status != ParseStatus::kComplete &&
                               status != ParseStatus::kNeedMore;
    // A response says close iff the connection closes right after it, so
    // at most the burst's last response does.
    const auto keep_alive = [&](std::size_t i) {
      return !close_connection || framing_error || i + 1 < burst.size();
    };

    // Phase 1: admit every POST of the burst into the backend before
    // waiting on any verdict; everything else is answered by the gate
    // inline. This is what turns W pipelined requests into one
    // identification batch.
    struct Slot {
      std::optional<std::string> response;  // nullopt: pending in backend
      std::uint64_t request_id = 0;
    };
    std::vector<Slot> slots;
    slots.reserve(burst.size());
    for (std::size_t i = 0; i < burst.size(); ++i) {
      auto& request = burst[i];
      Slot slot{.response = Route(request, keep_alive(i))};
      if (!slot.response) {
        slot.request_id = post_routes_->Submit(
            request.path, request.content_type, std::move(request.body));
      }
      slots.push_back(std::move(slot));
    }

    // Phase 2: collect verdicts in request order, answer in one send.
    std::string out;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      out += slots[i].response
                 ? *slots[i].response
                 : RenderPost(post_routes_->Collect(slots[i].request_id),
                              keep_alive(i));
    }
    if (framing_error) {
      out += FramingErrorResponse(status);
      close_connection = true;
    }
    if (!out.empty()) SendAll(connection_fd, out);
  }
}

std::string TelemetryServer::FramingErrorResponse(ParseStatus status) const {
  if (status == ParseStatus::kBodyTooLarge)
    return BodyTooLarge(config_.max_body_bytes, /*keep_alive=*/false);
  return PlainResponse(400,
                       status == ParseStatus::kHeaderOverflow
                           ? "header block too large\n"
                       : status == ParseStatus::kBadRequestLine
                           ? "malformed request line\n"
                           : "conflicting Content-Length headers\n",
                       /*keep_alive=*/false);
}

std::string TelemetryServer::HandleHttpRequest(
    const HttpRequest& request) const {
  if (auto response = Route(request, /*keep_alive=*/false)) return *response;
  const std::uint64_t id = post_routes_->Submit(
      request.path, request.content_type, request.body);
  return RenderPost(post_routes_->Collect(id), /*keep_alive=*/false);
}

std::optional<std::string> TelemetryServer::Route(const HttpRequest& request,
                                                  bool keep_alive) const {
  if (request.method == "GET") return HandlePathImpl(request.path, keep_alive);
  if (request.method != "POST" || post_routes_ == nullptr ||
      !IsPostPath(request.path)) {
    return PlainResponse(405, "only GET is supported\n", keep_alive);
  }
  // POST hardening, in rejection order: framing first (501/411/413 —
  // anything that makes the body unreadable or unreasonable), then the
  // media-type gate (415), then dispatch.
  if (request.has_transfer_encoding) {
    return PlainResponse(
        501, "Transfer-Encoding is not supported; send Content-Length\n",
        keep_alive);
  }
  if (!request.has_content_length && request.body.empty())
    return PlainResponse(411, "POST requires Content-Length\n", keep_alive);
  if (std::max(request.content_length, request.body.size()) >
      config_.max_body_bytes) {
    return BodyTooLarge(config_.max_body_bytes, keep_alive);
  }
  if (!AcceptsContentType(request.content_type))
    return PlainResponse(415, "unsupported media type\n", keep_alive);
  return std::nullopt;
}

std::string TelemetryServer::HandleRequest(const std::string& method,
                                           const std::string& path) const {
  HttpRequest request;
  request.method = method;
  request.path = path;
  return HandleHttpRequest(request);
}

std::string TelemetryServer::HandlePath(const std::string& path) const {
  return HandlePathImpl(path, /*keep_alive=*/false);
}

std::string TelemetryServer::HandlePathImpl(const std::string& path,
                                            bool keep_alive) const {
  if (path == "/healthz") {
    // Structured health document; "status":"ok" keeps the plain-text
    // smoke check (`grep ok`) working.
    std::string body = "{\"status\":\"ok\"";
    body += ",\"version\":" + JsonQuote(BuildVersion());
    body += ",\"compiler\":" + JsonQuote(BuildCompiler());
    const std::uint64_t uptime_s =
        start_ns_ == 0 ? 0 : (NowNs() - start_ns_) / 1000000000ULL;
    body += ",\"uptime_seconds\":" + std::to_string(uptime_s);
    body += ",\"sampler\":{\"attached\":";
    body += timeseries_ == nullptr ? "false" : "true";
    if (timeseries_ != nullptr) {
      body += ",\"samples\":" + std::to_string(timeseries_->samples_taken());
      body += ",\"capacity\":" + std::to_string(timeseries_->capacity());
    }
    body += "},\"alerts\":{\"attached\":";
    body += alerts_ == nullptr ? "false" : "true";
    if (alerts_ != nullptr) {
      std::size_t firing = 0;
      std::size_t pending = 0;
      const auto statuses = alerts_->Status();
      for (const auto& status : statuses) {
        if (status.state == AlertState::kFiring) ++firing;
        if (status.state == AlertState::kPending) ++pending;
      }
      body += ",\"rules\":" + std::to_string(statuses.size());
      body += ",\"firing\":" + std::to_string(firing);
      body += ",\"pending\":" + std::to_string(pending);
    }
    body += "},\"profiler\":{\"attached\":";
    body += profiler_ == nullptr ? "false" : "true";
    body += "}}\n";
    return HttpResponse(200, "OK", "application/json", body, keep_alive);
  }
  if (path == "/metrics") {
    const std::string body =
        registry_ == nullptr ? std::string() : registry_->RenderPrometheus();
    return HttpResponse(200, "OK",
                        "text/plain; version=0.0.4; charset=utf-8", body,
                        keep_alive);
  }
  if (path == "/metrics.json") {
    const std::string body =
        registry_ == nullptr ? std::string("{}\n") : registry_->RenderJson();
    return HttpResponse(200, "OK", "application/json", body, keep_alive);
  }
  if (path == "/timeseries") {
    const std::string body =
        timeseries_ == nullptr ? std::string("{}\n")
                               : timeseries_->RenderJson(timeseries_window_);
    return HttpResponse(200, "OK", "application/json", body, keep_alive);
  }
  if (path == "/quality") {
    const std::string body =
        quality_ == nullptr ? std::string("{}\n") : quality_->RenderJson();
    return HttpResponse(200, "OK", "application/json", body, keep_alive);
  }
  if (path == "/alerts") {
    const std::string body =
        alerts_ == nullptr ? std::string("{}\n") : alerts_->RenderJson();
    return HttpResponse(200, "OK", "application/json", body, keep_alive);
  }
  if (path == "/profile") {
    const std::string body =
        profiler_ == nullptr ? std::string("{}\n") : profiler_->RenderJson();
    return HttpResponse(200, "OK", "application/json", body, keep_alive);
  }
  if (path == "/profile.collapsed") {
    const std::string body =
        profiler_ == nullptr ? std::string() : profiler_->RenderCollapsed();
    return HttpResponse(200, "OK", "text/plain; charset=utf-8", body,
                        keep_alive);
  }
  if (path == "/locks") {
    return HttpResponse(200, "OK", "application/json",
                        RenderLockContentionJson(), keep_alive);
  }
  if (path == "/memory") {
    const std::string body =
        memory_ == nullptr ? std::string("{}\n") : memory_->RenderJson();
    return HttpResponse(200, "OK", "application/json", body, keep_alive);
  }
  if (path == "/devices") {
    std::string body = "{\"devices\": [";
    if (recorder_ != nullptr) {
      bool first = true;
      for (const auto& mac : recorder_->Devices()) {
        body += first ? "" : ", ";
        first = false;
        AppendJsonEscaped(body, mac.ToString());
      }
    }
    body += "]}\n";
    return HttpResponse(200, "OK", "application/json", body, keep_alive);
  }
  constexpr const char* kDevicePrefix = "/devices/";
  if (path.rfind(kDevicePrefix, 0) == 0) {
    const auto mac =
        net::MacAddress::Parse(path.substr(std::strlen(kDevicePrefix)));
    if (!mac.has_value() || recorder_ == nullptr || !recorder_->Known(*mac))
      return NotFound(keep_alive);
    return HttpResponse(200, "OK", "application/json",
                        recorder_->RenderJson(*mac), keep_alive);
  }
  return NotFound(keep_alive);
}

}  // namespace sentinel::obs
