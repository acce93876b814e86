// Fuzz target: the HTTP request parser and gate every connection handler of
// obs::TelemetryServer runs (obs/telemetry_server.cc) — the bytes
// `sentinelctl serve` reads from any network client.
//
// Input format: the bytes one client sent on one connection. The harness
// parses up to 64 pipelined requests with ParseOneRequest and answers each
// complete one through HandleHttpRequest, stopping where a handler stops
// reading: at a request that closes the connection, at a framing error
// (answered with FramingErrorResponse), or at the end of the input.
//
// Properties enforced:
//   - every kComplete consumes at least one byte;
//   - a complete request with Content-Length and no Transfer-Encoding
//     carries exactly that many body bytes;
//   - no complete request was framed from Content-Length headers with
//     different values;
//   - kBodyTooLarge only when the declared length exceeds max_body_bytes;
//   - every response starts with "HTTP/1.1 ", has a status in {200, 400,
//     404, 405, 411, 413, 415, 501}, and a Content-Length equal to its
//     body size; a 400 only ends the parse loop and says
//     "Connection: close".
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

std::string_view Trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t'))
    text.remove_prefix(1);
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t'))
    text.remove_suffix(1);
  return text;
}

/// Whether the header block at the front of `buffer` carries two
/// well-formed Content-Length values that differ.
bool HasConflictingLengths(std::string_view buffer) {
  const std::size_t header_end = buffer.find("\r\n\r\n");
  if (header_end == std::string_view::npos) return false;
  const std::string_view head = buffer.substr(0, header_end);
  std::size_t pos = head.find("\r\n");
  bool seen = false;
  std::size_t first = 0;
  while (pos != std::string_view::npos && pos < head.size()) {
    pos += 2;
    std::size_t next = head.find("\r\n", pos);
    if (next == std::string_view::npos) next = head.size();
    const std::string_view line = head.substr(pos, next - pos);
    pos = next;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    std::string name(Trim(line.substr(0, colon)));
    for (char& c : name)
      if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    if (name != "content-length") continue;
    const std::string_view value = Trim(line.substr(colon + 1));
    std::size_t length = 0;
    const auto [end, ec] =
        std::from_chars(value.data(), value.data() + value.size(), length);
    if (ec != std::errc() || end != value.data() + value.size()) continue;
    if (seen && length != first) return true;
    seen = true;
    first = length;
  }
  return false;
}

/// `ends_loop`: the response is the connection's last (a framing error).
void CheckResponse(std::string_view response, bool ends_loop) {
  SENTINEL_CHECK(response.substr(0, 9) == "HTTP/1.1 ")
      << "response without an HTTP/1.1 status line";
  int status = 0;
  const auto [end, ec] = std::from_chars(response.data() + 9,
                                         response.data() + response.size(),
                                         status);
  SENTINEL_CHECK(ec == std::errc() && end - response.data() == 12)
      << "malformed status code";
  SENTINEL_CHECK(status == 200 || status == 400 || status == 404 ||
                 status == 405 || status == 411 || status == 413 ||
                 status == 415 || status == 501)
      << "unexpected status " << status;
  const std::size_t header_end = response.find("\r\n\r\n");
  SENTINEL_CHECK(header_end != std::string_view::npos)
      << "response without a header terminator";
  if (status == 400) {
    SENTINEL_CHECK(ends_loop) << "a 400 that keeps parsing the connection";
    SENTINEL_CHECK(response.substr(0, header_end).find("\r\nConnection: "
                                                       "close") !=
                   std::string_view::npos)
        << "a 400 that does not say Connection: close";
  }
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
    const bool conflicting = HasConflictingLengths(buffer);
    obs::TelemetryServer::HttpRequest request;
    const auto status = server.ParseOneRequest(buffer, request);
    using Status = obs::TelemetryServer::ParseStatus;
    if (status == Status::kNeedMore) break;
    if (status != Status::kComplete) {  // a framing error ends the loop
      if (status == Status::kBodyTooLarge) {
        SENTINEL_CHECK(request.has_content_length &&
                       request.content_length > kMaxBodyBytes)
            << "kBodyTooLarge for a declared length of "
            << request.content_length;
      }
      CheckResponse(server.FramingErrorResponse(status), /*ends_loop=*/true);
      break;
    }
    SENTINEL_CHECK(!conflicting)
        << "a complete request framed from conflicting Content-Lengths";
    SENTINEL_CHECK(buffer.size() < before)
        << "a complete request consumed no bytes";
    if (request.has_content_length && !request.has_transfer_encoding) {
      SENTINEL_CHECK(request.body.size() == request.content_length)
          << "Content-Length " << request.content_length << " but a "
          << request.body.size() << "-byte body";
    }
    CheckResponse(server.HandleHttpRequest(request), /*ends_loop=*/false);
    if (request.close_connection) break;
  }
  return 0;
}
