// Fuzz target: the HTTP request parser and gate every connection handler of
// obs::TelemetryServer runs (obs/telemetry_server.cc) — the bytes
// `sentinelctl serve` reads from any network client.
//
// Input format: the bytes one client sent on one connection. The harness
// parses up to 64 pipelined requests with ParseOneRequest and answers each
// complete one through HandleHttpRequest, stopping where a handler stops
// reading: at a request that closes the connection, at a framing error, or
// at the end of the input.
//
// Properties enforced:
//   - every kComplete consumes at least one byte;
//   - a complete request with Content-Length and no Transfer-Encoding
//     carries exactly that many body bytes;
//   - kBodyTooLarge only when the declared length exceeds max_body_bytes;
//   - every response starts with "HTTP/1.1 ", has a status in {200, 404,
//     405, 411, 413, 415, 501}, and a Content-Length equal to its body size.
// The server is never started; POST /identify goes to an echo backend.
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "obs/telemetry_server.h"
#include "util/check.h"

namespace {

namespace obs = sentinel::obs;

constexpr std::size_t kMaxBodyBytes = 256;
constexpr std::size_t kMaxPipeline = 64;

/// Answers every request with its own body, as a 200.
class EchoRoutes : public obs::PostRoutes {
 public:
  std::uint64_t Submit(const std::string& /*path*/,
                       const std::string& /*content_type*/,
                       std::string body) override {
    body_ = std::move(body);
    return ++last_id_;
  }
  obs::PostResponse Collect(std::uint64_t request_id) override {
    SENTINEL_CHECK(request_id == last_id_)
        << "Collect(" << request_id << ") after Submit " << last_id_;
    return {.content_type = "application/octet-stream",
            .body = std::move(body_)};
  }

 private:
  std::string body_;
  std::uint64_t last_id_ = 0;
};

obs::TelemetryServer& Server() {
  static auto* server = [] {
    static EchoRoutes routes;
    auto* s = new obs::TelemetryServer(nullptr, nullptr,
                                       {.max_body_bytes = kMaxBodyBytes});
    s->set_post_routes(&routes, {"/identify"},
                       {"application/json", "application/octet-stream"});
    return s;
  }();
  return *server;
}

void CheckResponse(std::string_view response) {
  SENTINEL_CHECK(response.substr(0, 9) == "HTTP/1.1 ")
      << "response without an HTTP/1.1 status line";
  int status = 0;
  const auto [end, ec] = std::from_chars(response.data() + 9,
                                         response.data() + response.size(),
                                         status);
  SENTINEL_CHECK(ec == std::errc() && end - response.data() == 12)
      << "malformed status code";
  SENTINEL_CHECK(status == 200 || status == 404 || status == 405 ||
                 status == 411 || status == 413 || status == 415 ||
                 status == 501)
      << "unexpected status " << status;
  const std::size_t header_end = response.find("\r\n\r\n");
  SENTINEL_CHECK(header_end != std::string_view::npos)
      << "response without a header terminator";
  constexpr std::string_view kLength = "\r\nContent-Length: ";
  const std::size_t at = response.find(kLength);
  SENTINEL_CHECK(at != std::string_view::npos && at < header_end)
      << "response without Content-Length";
  std::size_t length = 0;
  const char* digits = response.data() + at + kLength.size();
  std::from_chars(digits, response.data() + header_end, length);
  SENTINEL_CHECK(length == response.size() - header_end - 4)
      << "Content-Length " << length << " but a "
      << response.size() - header_end - 4 << "-byte body";
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const auto& server = Server();
  std::string buffer(reinterpret_cast<const char*>(data), size);
  for (std::size_t served = 0; served < kMaxPipeline; ++served) {
    const std::size_t before = buffer.size();
    obs::TelemetryServer::HttpRequest request;
    const auto status = server.ParseOneRequest(buffer, request);
    using Status = obs::TelemetryServer::ParseStatus;
    if (status == Status::kBodyTooLarge) {
      SENTINEL_CHECK(request.has_content_length &&
                     request.content_length > kMaxBodyBytes)
          << "kBodyTooLarge for a declared length of "
          << request.content_length;
      break;
    }
    if (status != Status::kComplete) break;  // needs more bytes / overflow
    SENTINEL_CHECK(buffer.size() < before)
        << "a complete request consumed no bytes";
    if (request.has_content_length && !request.has_transfer_encoding) {
      SENTINEL_CHECK(request.body.size() == request.content_length)
          << "Content-Length " << request.content_length << " but a "
          << request.body.size() << "-byte body";
    }
    CheckResponse(server.HandleHttpRequest(request));
    if (request.close_connection) break;
  }
  return 0;
}
