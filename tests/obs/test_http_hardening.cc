// POST request hardening at the telemetry/serving HTTP layer, one test
// per rejection class (405 unregistered path, 501 Transfer-Encoding,
// 411 missing length, 413 oversized body, 415 wrong media type, 400 for a
// malformed request line or conflicting Content-Length headers), plus
// the dispatch contract with the two-phase PostRoutes backend: Retry-After
// rendering, and — over a real socket — a pipelined burst whose requests
// are all admitted before the first response is collected, and the
// Connection rule: only the response the connection closes after says so.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/telemetry_server.h"

namespace sentinel::obs {
namespace {

/// Echo backend that records the Submit/Collect interleaving. Not
/// thread-safe by itself; the pooled socket test uses one handler thread.
class FakePostRoutes : public PostRoutes {
 public:
  std::uint64_t Submit(const std::string& path,
                       const std::string& content_type,
                       std::string body) override {
    submissions.push_back({path, content_type, std::move(body)});
    return submissions.size();  // 1-based id
  }

  PostResponse Collect(std::uint64_t request_id) override {
    if (submitted_before_first_collect == 0)
      submitted_before_first_collect = submissions.size();
    const auto& sub = submissions.at(request_id - 1);
    if (respond_429) {
      return {.status = 429,
              .body = "{\"error\":\"overloaded\"}\n",
              .retry_after_ms = retry_after_ms};
    }
    return {.status = 200,
            .body = "{\"echo\":\"" + sub.body + "\",\"path\":\"" + sub.path +
                    "\",\"type\":\"" + sub.content_type + "\"}\n"};
  }

  struct Submission {
    std::string path;
    std::string content_type;
    std::string body;
  };
  std::vector<Submission> submissions;
  std::size_t submitted_before_first_collect = 0;
  bool respond_429 = false;
  std::uint64_t retry_after_ms = 0;
};

TelemetryServer::HttpRequest Post(const std::string& path,
                                  const std::string& content_type,
                                  const std::string& body) {
  TelemetryServer::HttpRequest request;
  request.method = "POST";
  request.path = path;
  request.content_type = content_type;
  request.has_content_length = true;
  request.content_length = body.size();
  request.body = body;
  return request;
}

/// A server with the fake backend on POST /identify (JSON only).
struct Harness {
  FakePostRoutes backend;
  TelemetryServer server{nullptr, nullptr};

  Harness() {
    server.set_post_routes(&backend, {"/identify"}, {"application/json"});
  }
};

TEST(HttpHardeningTest, PostToUnregisteredPathIs405) {
  Harness h;
  // Even with a backend attached, paths it never registered stay 405 —
  // the pre-existing GET-only contract of the telemetry routes.
  const auto response =
      h.server.HandleHttpRequest(Post("/metrics", "application/json", "{}"));
  EXPECT_NE(response.find("HTTP/1.1 405"), std::string::npos);
  EXPECT_NE(response.find("only GET"), std::string::npos);
  EXPECT_TRUE(h.backend.submissions.empty());
}

TEST(HttpHardeningTest, TransferEncodingIs501) {
  Harness h;
  auto request = Post("/identify", "application/json", "{}");
  request.has_transfer_encoding = true;
  const auto response = h.server.HandleHttpRequest(request);
  EXPECT_NE(response.find("HTTP/1.1 501"), std::string::npos);
  EXPECT_NE(response.find("Transfer-Encoding"), std::string::npos);
  EXPECT_TRUE(h.backend.submissions.empty());
}

TEST(HttpHardeningTest, MissingContentLengthIs411) {
  Harness h;
  auto request = Post("/identify", "application/json", "");
  request.has_content_length = false;
  const auto response = h.server.HandleHttpRequest(request);
  EXPECT_NE(response.find("HTTP/1.1 411"), std::string::npos);
  EXPECT_TRUE(h.backend.submissions.empty());
}

TEST(HttpHardeningTest, OversizedBodyIs413) {
  FakePostRoutes backend;
  TelemetryServer server(nullptr, nullptr, {.max_body_bytes = 64});
  server.set_post_routes(&backend, {"/identify"}, {"application/json"});
  // Declared length beyond the cap — body itself never buffered.
  auto declared = Post("/identify", "application/json", "{}");
  declared.content_length = 1 << 20;
  EXPECT_NE(server.HandleHttpRequest(declared).find("HTTP/1.1 413"),
            std::string::npos);
  // Actual body beyond the cap.
  const auto grown =
      Post("/identify", "application/json", std::string(128, 'x'));
  EXPECT_NE(server.HandleHttpRequest(grown).find("HTTP/1.1 413"),
            std::string::npos);
  EXPECT_TRUE(backend.submissions.empty());
}

TEST(HttpHardeningTest, WrongContentTypeIs415) {
  Harness h;
  const auto response = h.server.HandleHttpRequest(
      Post("/identify", "text/plain", "not json"));
  EXPECT_NE(response.find("HTTP/1.1 415"), std::string::npos);
  EXPECT_TRUE(h.backend.submissions.empty());
}

TEST(HttpHardeningTest, ValidPostDispatchesToBackend) {
  Harness h;
  const auto response = h.server.HandleHttpRequest(
      Post("/identify", "application/json", "{\"mac\":\"x\"}"));
  EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(response.find("\"echo\":\"{\"mac\":\"x\"}\""), std::string::npos)
      << response;
  ASSERT_EQ(h.backend.submissions.size(), 1u);
  EXPECT_EQ(h.backend.submissions[0].path, "/identify");
  EXPECT_EQ(h.backend.submissions[0].content_type, "application/json");
}

TEST(HttpHardeningTest, RetryAfterHeaderRoundsUpToWholeSeconds) {
  Harness h;
  h.backend.respond_429 = true;
  h.backend.retry_after_ms = 2500;
  const auto response = h.server.HandleHttpRequest(
      Post("/identify", "application/json", "{}"));
  EXPECT_NE(response.find("HTTP/1.1 429"), std::string::npos);
  EXPECT_NE(response.find("Retry-After: 3\r\n"), std::string::npos);
}

/// Sends one blob of raw bytes and reads until the server closes.
std::string RawRoundTrip(const TelemetryServer& server,
                         const std::string& request) {
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

/// Splits a response stream into its responses' header blocks, stepping
/// over each body by its Content-Length.
std::vector<std::string> ResponseHeads(const std::string& stream) {
  std::vector<std::string> heads;
  std::size_t pos = 0;
  while (pos < stream.size()) {
    const std::size_t end = stream.find("\r\n\r\n", pos);
    if (end == std::string::npos) break;
    std::string head = stream.substr(pos, end - pos);
    const std::size_t length = head.find("Content-Length: ");
    if (length == std::string::npos) break;
    pos = end + 4 + std::stoul(head.substr(length + 16));
    heads.push_back(std::move(head));
  }
  return heads;
}

/// Whether a response head carries `status` and says keep-alive or close.
bool HeadIs(const std::string& head, int status, bool keep_alive) {
  return head.rfind("HTTP/1.1 " + std::to_string(status) + " ", 0) == 0 &&
         head.find(keep_alive ? "Connection: keep-alive"
                              : "Connection: close") != std::string::npos;
}

std::string PipelinedPost(const std::string& body, bool close) {
  return "POST /identify HTTP/1.1\r\nHost: x\r\n"
         "Content-Type: application/json\r\n"
         "Content-Length: " +
         std::to_string(body.size()) + "\r\n" +
         (close ? "Connection: close\r\n" : "") + "\r\n" + body;
}

TEST(HttpHardeningTest, PipelinedPostsAdmitAsABurstAndRespondInOrder) {
  FakePostRoutes backend;
  TelemetryServer server(nullptr, nullptr, {.serve_threads = 1});
  server.set_post_routes(&backend, {"/identify"}, {"application/json"});
  server.Start();
  std::thread serving([&] { server.Serve(/*max_requests=*/1); });
  // Three POSTs in one write; the last closes the connection.
  const std::string response = RawRoundTrip(
      server, PipelinedPost("{\"n\":1}", false) +
                  PipelinedPost("{\"n\":2}", false) +
                  PipelinedPost("{\"n\":3}", true));
  serving.join();
  server.Stop();
  // All three were submitted to the backend before the first Collect —
  // the property that lets the identification drain form real batches.
  EXPECT_EQ(backend.submitted_before_first_collect, 3u);
  // Responses come back in request order.
  const auto first = response.find("{\"n\":1}");
  const auto second = response.find("{\"n\":2}");
  const auto third = response.find("{\"n\":3}");
  ASSERT_NE(first, std::string::npos) << response;
  ASSERT_NE(second, std::string::npos);
  ASSERT_NE(third, std::string::npos);
  EXPECT_LT(first, second);
  EXPECT_LT(second, third);
  // The burst carries the client's close: only its last response, the one
  // the connection closes after, says so.
  const auto heads = ResponseHeads(response);
  ASSERT_EQ(heads.size(), 3u) << response;
  EXPECT_TRUE(HeadIs(heads[0], 200, /*keep_alive=*/true)) << heads[0];
  EXPECT_TRUE(HeadIs(heads[1], 200, /*keep_alive=*/true)) << heads[1];
  EXPECT_TRUE(HeadIs(heads[2], 200, /*keep_alive=*/false)) << heads[2];
}

// Regression: a rejected POST used to answer "Connection: close" and then
// keep serving the connection; a server that says close must not process
// further requests (RFC 9112 section 9.6). A 411 leaves the stream in
// sync, so the connection stays open and says so.
TEST(HttpHardeningTest, RejectionKeepsThePipelineAliveAndSaysSo) {
  FakePostRoutes backend;
  TelemetryServer server(nullptr, nullptr, {.serve_threads = 1});
  server.set_post_routes(&backend, {"/identify"}, {"application/json"});
  server.Start();
  std::thread serving([&] { server.Serve(/*max_requests=*/1); });
  const std::string response = RawRoundTrip(
      server,
      "POST /identify HTTP/1.1\r\nHost: x\r\n"
      "Content-Type: application/json\r\n\r\n"
      "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
      "GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
  serving.join();
  server.Stop();
  const auto heads = ResponseHeads(response);
  ASSERT_EQ(heads.size(), 3u) << response;
  EXPECT_TRUE(HeadIs(heads[0], 411, /*keep_alive=*/true)) << heads[0];
  EXPECT_TRUE(HeadIs(heads[1], 200, /*keep_alive=*/true)) << heads[1];
  EXPECT_TRUE(HeadIs(heads[2], 200, /*keep_alive=*/false)) << heads[2];
  EXPECT_TRUE(backend.submissions.empty());
}

TEST(HttpHardeningTest, ZeroServeThreadsIsRejected) {
  EXPECT_THROW(TelemetryServer(nullptr, nullptr, {.serve_threads = 0}),
               std::invalid_argument);
}

TEST(HttpHardeningTest, KeepAliveServesSequentialRequestsOnOneConnection) {
  FakePostRoutes backend;
  TelemetryServer server(nullptr, nullptr, {.serve_threads = 1});
  server.set_post_routes(&backend, {"/identify"}, {"application/json"});
  server.Start();
  std::thread serving([&] { server.Serve(/*max_requests=*/1); });

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  // Reads until `marker` shows up — small responses arrive in one burst,
  // but a slow scheduler may split them.
  const auto recv_until = [&](const std::string& marker) {
    std::string got;
    char buffer[4096];
    while (got.find(marker) == std::string::npos) {
      const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
      if (n <= 0) break;
      got.append(buffer, static_cast<std::size_t>(n));
    }
    return got;
  };

  const std::string one = PipelinedPost("{\"n\":1}", false);
  ASSERT_EQ(::send(fd, one.data(), one.size(), 0),
            static_cast<ssize_t>(one.size()));
  const std::string first = recv_until("{\"n\":1}");
  // The connection stays open and says so.
  EXPECT_NE(first.find("Connection: keep-alive"), std::string::npos) << first;

  const std::string two = PipelinedPost("{\"n\":2}", true);
  ASSERT_EQ(::send(fd, two.data(), two.size(), 0),
            static_cast<ssize_t>(two.size()));
  const std::string second = recv_until("{\"n\":2}");
  EXPECT_NE(second.find("Connection: close"), std::string::npos) << second;
  ::close(fd);
  serving.join();
  server.Stop();
  EXPECT_EQ(backend.submissions.size(), 2u);
}

/// Connects and returns the fd (no request sent).
int ConnectTo(const TelemetryServer& server) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

/// Reads from `fd` until `marker` appears or the peer closes.
std::string RecvUntil(int fd, const std::string& marker) {
  std::string got;
  char buffer[4096];
  while (got.find(marker) == std::string::npos) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    got.append(buffer, static_cast<std::size_t>(n));
  }
  return got;
}

// Regression: a handler parked on an idle keep-alive connection must
// still observe Stop() — the gather loop used to spin on recv timeouts
// without ever re-checking stopping_, deadlocking shutdown.
TEST(HttpHardeningTest, StopUnblocksServeDespiteIdleKeepAliveConnection) {
  FakePostRoutes backend;
  // Idle timeout effectively off: only Stop() may free the handler.
  TelemetryServer server(nullptr, nullptr,
                         {.serve_threads = 1, .idle_timeout_periods = 100000});
  server.set_post_routes(&backend, {"/identify"}, {"application/json"});
  server.Start();
  std::thread serving([&] { server.Serve(/*max_requests=*/1); });
  const int fd = ConnectTo(server);
  const std::string one = PipelinedPost("{\"n\":1}", false);
  ASSERT_EQ(::send(fd, one.data(), one.size(), 0),
            static_cast<ssize_t>(one.size()));
  ASSERT_NE(RecvUntil(fd, "{\"n\":1}").find("Connection: keep-alive"),
            std::string::npos);
  // The connection now sits idle, pinning the only handler. Stop() must
  // unblock Serve() within a recv timeout period; a hang here is the bug.
  server.Stop();
  serving.join();
  ::close(fd);
}

TEST(HttpHardeningTest, IdleKeepAliveConnectionIsClosedAndHandlerFreed) {
  FakePostRoutes backend;
  // Two quiet periods (~400 ms) close an idle connection.
  TelemetryServer server(nullptr, nullptr,
                         {.serve_threads = 1, .idle_timeout_periods = 2});
  server.set_post_routes(&backend, {"/identify"}, {"application/json"});
  server.Start();
  std::thread serving([&] { server.Serve(/*max_requests=*/2); });
  const int fd = ConnectTo(server);
  const std::string one = PipelinedPost("{\"n\":1}", false);
  ASSERT_EQ(::send(fd, one.data(), one.size(), 0),
            static_cast<ssize_t>(one.size()));
  ASSERT_NE(RecvUntil(fd, "{\"n\":1}").find("Connection: keep-alive"),
            std::string::npos);
  // Stay silent: the server must close the connection on its own.
  EXPECT_EQ(RecvUntil(fd, "never sent"), "");
  ::close(fd);
  // The freed handler serves the next client.
  const std::string response =
      RawRoundTrip(server, PipelinedPost("{\"n\":2}", true));
  EXPECT_NE(response.find("{\"n\":2}"), std::string::npos) << response;
  serving.join();
  server.Stop();
}

TEST(HttpHardeningTest, ConnectionsBeyondHandoffCapGet503) {
  FakePostRoutes backend;
  // One pinnable handler, one queued connection allowed, idle timeout far
  // beyond the test's horizon so the handler stays pinned throughout.
  TelemetryServer server(nullptr, nullptr,
                         {.serve_threads = 1,
                          .max_queued_connections = 1,
                          .idle_timeout_periods = 100000});
  server.set_post_routes(&backend, {"/identify"}, {"application/json"});
  server.Start();
  std::thread serving([&] { server.Serve(/*max_requests=*/3); });
  // Pin the handler: once the response is back, the handler owns this
  // connection and the handoff queue is empty.
  const int pinned = ConnectTo(server);
  const std::string one = PipelinedPost("{\"n\":1}", false);
  ASSERT_EQ(::send(pinned, one.data(), one.size(), 0),
            static_cast<ssize_t>(one.size()));
  ASSERT_NE(RecvUntil(pinned, "{\"n\":1}").find("keep-alive"),
            std::string::npos);
  // Fills the one queue slot (no handler free to serve it)...
  const int queued = ConnectTo(server);
  // ...so the next connection is pushed back instead of queueing forever.
  const int rejected = ConnectTo(server);
  const std::string response = RecvUntil(rejected, "\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 503"), std::string::npos) << response;
  EXPECT_NE(response.find("Retry-After:"), std::string::npos) << response;
  ::close(rejected);
  // Release the handler so the queued connection drains and Serve exits.
  ::close(pinned);
  ::close(queued);
  serving.join();
  server.Stop();
}

TEST(HttpHardeningTest, HugeDeclaredLengthGets413WithoutBodyUpload) {
  FakePostRoutes backend;
  TelemetryServer server(nullptr, nullptr, {.max_body_bytes = 1024});
  server.set_post_routes(&backend, {"/identify"}, {"application/json"});
  server.Start();
  std::thread serving([&] { server.Serve(/*max_requests=*/1); });
  // Headers only: the server must answer from the declared length alone
  // instead of waiting for (or buffering) a 10 MB body.
  const std::string response = RawRoundTrip(
      server,
      "POST /identify HTTP/1.1\r\nHost: x\r\n"
      "Content-Type: application/json\r\nContent-Length: 10485760\r\n\r\n");
  serving.join();
  server.Stop();
  EXPECT_NE(response.find("HTTP/1.1 413"), std::string::npos);
  EXPECT_TRUE(backend.submissions.empty());
}

// RFC 9112 section 6.3: Content-Length headers that disagree make the
// body boundary unknowable. The server answers 400 and closes; it must not
// pick one length and parse the rest of the body as the next request.
TEST(HttpHardeningTest, ConflictingContentLengthsGet400AndClose) {
  FakePostRoutes backend;
  TelemetryServer server(nullptr, nullptr, {.serve_threads = 1});
  server.set_post_routes(&backend, {"/identify"}, {"application/json"});
  server.Start();
  std::thread serving([&] { server.Serve(/*max_requests=*/1); });
  const std::string response = RawRoundTrip(
      server,
      "POST /identify HTTP/1.1\r\nHost: x\r\n"
      "Content-Type: application/json\r\n"
      "Content-Length: 5\r\nContent-Length: 0\r\n\r\nhello"
      "GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
  serving.join();
  server.Stop();
  const auto heads = ResponseHeads(response);
  ASSERT_EQ(heads.size(), 1u) << response;
  EXPECT_TRUE(HeadIs(heads[0], 400, /*keep_alive=*/false)) << heads[0];
  EXPECT_NE(response.find("conflicting Content-Length"), std::string::npos);
  EXPECT_TRUE(backend.submissions.empty());
}

// A request line without a method or a path (here an empty one) is a
// malformed request, not an unsupported method: 400, then close.
TEST(HttpHardeningTest, MalformedRequestLineGets400AndClose) {
  FakePostRoutes backend;
  TelemetryServer server(nullptr, nullptr, {.serve_threads = 1});
  server.set_post_routes(&backend, {"/identify"}, {"application/json"});
  server.Start();
  std::thread serving([&] { server.Serve(/*max_requests=*/1); });
  const std::string response = RawRoundTrip(
      server,
      "\r\n\r\n"
      "GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
  serving.join();
  server.Stop();
  const auto heads = ResponseHeads(response);
  ASSERT_EQ(heads.size(), 1u) << response;
  EXPECT_TRUE(HeadIs(heads[0], 400, /*keep_alive=*/false)) << heads[0];
  EXPECT_NE(response.find("malformed request line"), std::string::npos);
}

}  // namespace
}  // namespace sentinel::obs
