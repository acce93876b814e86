#include "core/identify_server.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "capture/trace.h"
#include "core/device_monitor.h"
#include "features/fingerprint_codec.h"
#include "net/byte_io.h"
#include "obs/json.h"
#include "obs/profiler.h"
#include "util/json.h"

namespace sentinel::core {

namespace {

constexpr std::size_t kMacBytes = 6;
/// Per-probe service time Retry-After assumes before any batch has been
/// measured.
constexpr double kFallbackServiceNs = 1e6;  // 1 ms

/// Shortest-round-trip decimal form, deterministic for a given double —
/// the serve and per-call renderers must produce identical bytes for
/// identical verdicts. The shortest %g precision that round-trips;
/// to_chars/from_chars with an explicit precision print and parse exactly
/// like printf/scanf, at a fraction of their cost on every served verdict.
std::string FormatDouble(double value) {
  char buf[32];
  for (int precision = 1;; ++precision) {
    const auto printed = std::to_chars(buf, buf + sizeof(buf), value,
                                       std::chars_format::general, precision);
    double parsed = 0.0;
    std::from_chars(buf, printed.ptr, parsed);
    if (parsed == value || precision == 17) return {buf, printed.ptr};
  }
}

/// Validates one JSON number as an exact uint32 feature value.
bool ToFeature(const util::JsonValue& value, std::uint32_t& out) {
  if (!value.IsNumber()) return false;
  const double number = value.number;
  if (number < 0.0 || number > 4294967295.0 || number != std::floor(number))
    return false;
  out = static_cast<std::uint32_t>(number);
  return true;
}

}  // namespace

IdentifyServer::IdentifyServer(const DeviceIdentifier* identifier,
                               IdentifyServerConfig config)
    : identifier_(identifier), config_(config) {
  if (config_.queue_depth == 0)
    throw std::invalid_argument("IdentifyServer: queue_depth must be >= 1");
  if (config_.batch_target == 0)
    throw std::invalid_argument("IdentifyServer: batch_target must be >= 1");
}

IdentifyServer::~IdentifyServer() { Stop(); }

void IdentifyServer::Start() {
  if (started_) return;
  started_ = true;
  drain_ = std::thread([this] { DrainLoop(); });
}

void IdentifyServer::Stop() {
  {
    sentinel::MutexLock lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    work_cv_.NotifyAll();
  }
  if (drain_.joinable()) drain_.join();
  sentinel::MutexLock lock(mu_);
  // Resolve every still-queued probe as shed so no collector blocks on a
  // queue nobody serves any more.
  for (const Queued& queued : queue_) {
    queued.probe->state = Probe::State::kShed;
    --queued.request->unresolved;
  }
  queue_.clear();
  if (metrics_.queue_depth) metrics_.queue_depth->Set(0.0);
  done_cv_.NotifyAll();
}

void IdentifyServer::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    metrics_ = {};
    return;
  }
  metrics_.queue_depth = &registry->GetGauge(
      "sentinel_serve_queue_depth", "Probes waiting in the admission queue");
  metrics_.admitted = &registry->GetCounter(
      "sentinel_serve_admitted_total", "Probes admitted into the queue");
  metrics_.rejected = &registry->GetCounter(
      "sentinel_serve_rejected_total",
      "Probes rejected with 429 (queue full, no same-device victim)");
  metrics_.shed = &registry->GetCounter(
      "sentinel_serve_shed_total",
      "Queued probes shed in favour of a newer same-device probe");
  metrics_.batches = &registry->GetCounter(
      "sentinel_serve_batches_total", "Batches taken off the queue and served");
  metrics_.probes = &registry->GetCounter(
      "sentinel_serve_probes_total", "Probes served to a verdict");
  metrics_.parse_errors = &registry->GetCounter(
      "sentinel_serve_parse_errors_total",
      "POST bodies rejected as malformed (400/415)");
  metrics_.unknown_routes = &registry->GetCounter(
      "sentinel_serve_unknown_route_total",
      "POSTs to a path no route claims (404)");
  metrics_.batch_size = &registry->GetHistogram(
      "sentinel_serve_batch_size", "Probes per served batch",
      {1, 2, 4, 8, 16, 32, 64});
  metrics_.queue_wait_ns = &registry->GetHistogram(
      "sentinel_serve_queue_wait_ns",
      "Admission-to-service queueing delay per served probe",
      {1e4, 1e5, 5e5, 1e6, 2e6, 5e6, 1e7, 1e8});
}

std::uint64_t IdentifyServer::RetryAfterMsLocked() const {
  const double per_probe_ns =
      ewma_service_ns_ > 0.0 ? ewma_service_ns_ : kFallbackServiceNs;
  const double backlog_ms =
      static_cast<double>(queue_.size()) * per_probe_ns / 1e6;
  return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(backlog_ms));
}

void IdentifyServer::AdmitLocked(Request& request, Probe& probe,
                                 std::uint64_t now_ns) {
  if (stopping_) {
    probe.state = Probe::State::kRejected;
    return;
  }
  if (queue_.size() >= config_.queue_depth) {
    // Full: shed the OLDEST queued probe of the same device, if any — the
    // newer observation supersedes it (same MAC, fresher traffic).
    const auto victim = std::find_if(
        queue_.begin(), queue_.end(), [&probe](const Queued& queued) {
          return queued.probe->mac == probe.mac;
        });
    if (victim == queue_.end()) {
      probe.state = Probe::State::kRejected;
      probe.retry_after_ms = RetryAfterMsLocked();
      ++stats_.rejected;
      if (metrics_.rejected) metrics_.rejected->Increment();
      return;
    }
    victim->probe->state = Probe::State::kShed;
    --victim->request->unresolved;
    queue_.erase(victim);
    ++stats_.shed;
    if (metrics_.shed) metrics_.shed->Increment();
    done_cv_.NotifyAll();
  }
  probe.enqueue_ns = now_ns;
  queue_.push_back({&request, &probe});
  ++request.unresolved;
  ++stats_.admitted;
  if (metrics_.admitted) metrics_.admitted->Increment();
  if (metrics_.queue_depth)
    metrics_.queue_depth->Set(static_cast<double>(queue_.size()));
}

void IdentifyServer::DrainLoop() {
  sentinel::MutexLock lock(mu_);
  for (;;) {
    while (!stopping_ && queue_.empty()) work_cv_.Wait(mu_);
    if (stopping_) return;
    ServeNextBatchLocked();
  }
}

void IdentifyServer::ServeNextBatchLocked() {
  const auto batch_end = queue_.begin() + static_cast<std::ptrdiff_t>(
                             std::min(config_.batch_target, queue_.size()));
  const std::vector<Queued> batch(queue_.begin(), batch_end);
  queue_.erase(queue_.begin(), batch_end);
  if (metrics_.queue_depth)
    metrics_.queue_depth->Set(static_cast<double>(queue_.size()));
  mu_.Unlock();
  const std::uint64_t serve_start = obs::NowNs();
  std::vector<DeviceIdentifier::FingerprintRef> refs;
  refs.reserve(batch.size());
  for (const Queued& queued : batch)
    refs.push_back(
        {.full = &queued.probe->full, .fixed = &queued.probe->fixed});
  std::vector<IdentificationResult> results = identifier_->IdentifyBatch(refs);
  const std::uint64_t serve_end = obs::NowNs();
  mu_.Lock();

  const double per_probe_ns = static_cast<double>(serve_end - serve_start) /
                              static_cast<double>(batch.size());
  ewma_service_ns_ = ewma_service_ns_ == 0.0
                         ? per_probe_ns
                         : 0.3 * per_probe_ns + 0.7 * ewma_service_ns_;
  ++stats_.batches;
  stats_.probes_served += batch.size();
  ++stats_.batch_size_counts[batch.size()];
  if (batch.size() == config_.batch_target) {
    ++stats_.flush_size;
  } else {
    ++stats_.flush_sparse;
  }
  if (metrics_.batches) metrics_.batches->Increment();
  if (metrics_.probes) metrics_.probes->Increment(batch.size());
  if (metrics_.batch_size)
    metrics_.batch_size->Observe(static_cast<double>(batch.size()));
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Probe& probe = *batch[i].probe;
    probe.state = Probe::State::kServed;
    probe.result = std::move(results[i]);
    probe.batch_size = batch.size();
    probe.queue_wait_ns =
        serve_start >= probe.enqueue_ns ? serve_start - probe.enqueue_ns : 0;
    if (metrics_.queue_wait_ns)
      metrics_.queue_wait_ns->Observe(static_cast<double>(probe.queue_wait_ns));
    --batch[i].request->unresolved;
  }
  done_cv_.NotifyAll();
}

// --- HTTP facade ---

std::uint64_t IdentifyServer::Submit(const std::string& path,
                                     const std::string& content_type,
                                     std::string body) {
  Request request;
  // Submit never throws: a hostile body whose parse escapes the typed
  // error paths still becomes a 400 collected later, never an exception
  // unwinding into the connection-handler thread.
  try {
    if (path == "/identify") {
      request = BuildIdentify(content_type, body);
    } else if (path == "/ingest") {
      request = BuildIngest(content_type, body);
    } else {
      request = Ready(404, "no such POST route");
    }
  } catch (const std::exception& error) {
    request = Ready(400, std::string("malformed body: ") + error.what());
  } catch (...) {
    request = Ready(400, "malformed body");
  }
  const std::uint64_t now = obs::NowNs();
  sentinel::MutexLock lock(mu_);
  if (request.kind == Request::Kind::kReady) {
    // A ready response answers an unknown route (404) or a malformed body.
    const bool unknown_route = request.response.status == 404;
    ++(unknown_route ? stats_.unknown_routes : stats_.parse_errors);
    obs::Counter* counter =
        unknown_route ? metrics_.unknown_routes : metrics_.parse_errors;
    if (counter != nullptr) counter->Increment();
  }
  const std::uint64_t id = ++next_request_;
  Request& registered = requests_.emplace(id, std::move(request)).first->second;
  for (Probe& probe : registered.probes) AdmitLocked(registered, probe, now);
  // A lone probe is served by its own collector, which arrives within
  // microseconds; waking the drain for it would cost a futex wake (10-16 us
  // per admission on a 4-vCPU VM) and then race that collector. The drain
  // is woken once a second probe queues up.
  const bool wake_drain = registered.unresolved > 0 && queue_.size() > 1;
  lock.Unlock();
  if (wake_drain) work_cv_.NotifyOne();
  return id;
}

obs::PostResponse IdentifyServer::Collect(std::uint64_t request_id) {
  sentinel::MutexLock lock(mu_);
  const auto it = requests_.find(request_id);
  if (it == requests_.end())
    return {.status = 500, .body = "{\"error\":\"unknown request id\"}\n"};
  // A reference, not the iterator: other threads insert requests (and may
  // rehash) while a batch is served with mu_ released.
  const Request& request = it->second;
  while (request.unresolved > 0) {
    // Work-conserving: a collector whose probes are still pending serves
    // the queue instead of idling (its own probes are queued or in
    // service).
    if (!stopping_ && !queue_.empty()) {
      ServeNextBatchLocked();
    } else {
      done_cv_.Wait(mu_);
    }
  }
  auto node = requests_.extract(request_id);
  lock.Unlock();
  return Render(node.mapped());
}

IdentifyServer::Request IdentifyServer::Ready(int status,
                                              const std::string& message) {
  Request request;
  request.response.status = status;
  request.response.body = "{\"error\":";
  obs::AppendJsonEscaped(request.response.body, message);
  request.response.body += "}\n";
  return request;
}

IdentifyServer::Request IdentifyServer::BuildIdentify(
    const std::string& content_type, const std::string& body) {
  net::MacAddress mac;
  features::Fingerprint full;
  if (content_type == "application/octet-stream") {
    if (body.size() <= kMacBytes)
      return Ready(400, "binary probe shorter than MAC + header");
    std::array<std::uint8_t, kMacBytes> octets{};
    for (std::size_t i = 0; i < kMacBytes; ++i)
      octets[i] = static_cast<std::uint8_t>(body[i]);
    mac = net::MacAddress(octets);
    const auto* bytes =
        reinterpret_cast<const std::uint8_t*>(body.data()) + kMacBytes;
    try {
      full = features::ParseFingerprint(
          std::span<const std::uint8_t>(bytes, body.size() - kMacBytes));
    } catch (const std::exception& error) {
      // Wider than CodecError on purpose: whatever a hostile byte string
      // provokes, Submit's never-throws contract turns it into a 400.
      return Ready(400, std::string("bad fingerprint bytes: ") + error.what());
    }
  } else if (content_type == "application/json") {
    const auto document = util::ParseJson(body);
    if (!document || !document->IsObject())
      return Ready(400, "body is not a JSON object");
    const auto* mac_value = document->Find("mac");
    if (mac_value == nullptr || !mac_value->IsString())
      return Ready(400, "missing string field \"mac\"");
    const auto parsed_mac = net::MacAddress::Parse(mac_value->string);
    if (!parsed_mac) return Ready(400, "malformed MAC address");
    mac = *parsed_mac;
    const auto* packets = document->Find("packets");
    if (packets == nullptr || !packets->IsArray())
      return Ready(400, "missing array field \"packets\"");
    std::vector<features::PacketFeatureVector> vectors;
    vectors.reserve(packets->items.size());
    for (const auto& packet : packets->items) {
      if (!packet.IsArray() ||
          packet.items.size() != features::kFeatureCount)
        return Ready(400, "each packet must be an array of 23 feature values");
      features::PacketFeatureVector vector{};
      for (std::size_t i = 0; i < features::kFeatureCount; ++i)
        if (!ToFeature(packet.items[i], vector[i]))
          return Ready(400, "feature values must be integers in [0, 2^32)");
      vectors.push_back(vector);
    }
    full = features::Fingerprint::FromPacketVectors(vectors);
  } else {
    return Ready(415, "unsupported media type for /identify");
  }
  if (full.empty()) return Ready(400, "empty fingerprint");

  Request request;
  request.kind = Request::Kind::kIdentify;
  auto fixed = features::FixedFingerprint::FromFingerprint(full);
  request.probes.push_back(
      Probe{.mac = mac, .full = std::move(full), .fixed = std::move(fixed)});
  return request;
}

IdentifyServer::Request IdentifyServer::BuildIngest(
    const std::string& content_type, const std::string& body) {
  if (content_type != "application/octet-stream" &&
      content_type != "application/vnd.tcpdump.pcap")
    return Ready(415, "unsupported media type for /ingest");
  capture::TraceError error;
  auto trace = capture::Trace::FromPcap(
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(body.data()), body.size()),
      &error);
  if (!trace) return Ready(400, "malformed pcap: " + error.ToString());

  Request request;
  request.kind = Request::Kind::kIngest;
  request.frames = trace->size();
  // The gateway's setup-phase capture decides which frames fingerprint a
  // device; a source that never completes one is skipped.
  DeviceMonitor monitor;
  for (CompletedCapture& capture : monitor.Replay(std::move(*trace)))
    request.probes.push_back(Probe{.mac = capture.device_mac,
                                   .full = std::move(capture.full),
                                   .fixed = std::move(capture.fixed)});
  request.devices_skipped = monitor.tracked_count() - request.probes.size();
  return request;
}

std::string IdentifyServer::RenderVerdictJson(
    const IdentificationResult& result) {
  std::string out = "{\"known\":";
  out += result.IsKnown() ? "true" : "false";
  out += ",\"type\":";
  out += result.type ? std::to_string(*result.type) : "null";
  out += ",\"matched_types\":[";
  for (std::size_t i = 0; i < result.matched_types.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(result.matched_types[i]);
  }
  out += "],\"tie_break_count\":";
  out += std::to_string(result.tie_break_count);
  out += ",\"dissimilarity\":";
  // The winner's score, when discrimination ran (>1 matched type): the
  // one dissimilarity the fast/serve/reference contract guarantees
  // bit-identical.
  std::string winner_score = "null";
  if (result.type &&
      result.dissimilarity_scores.size() == result.matched_types.size()) {
    for (std::size_t i = 0; i < result.matched_types.size(); ++i) {
      if (result.matched_types[i] == *result.type) {
        winner_score = FormatDouble(result.dissimilarity_scores[i]);
        break;
      }
    }
  }
  out += winner_score;
  out += '}';
  return out;
}

void IdentifyServer::AppendProbeJson(std::string& out, const Probe& probe) {
  out += "{\"mac\":";
  obs::AppendJsonEscaped(out, probe.mac.ToString());
  switch (probe.state) {
    case Probe::State::kRejected:
      out += ",\"status\":\"rejected\",\"retry_after_ms\":";
      out += std::to_string(probe.retry_after_ms);
      out += '}';
      return;
    case Probe::State::kQueued:  // unreachable: Collect waits them out
    case Probe::State::kShed:
      out += ",\"status\":\"superseded\"}";
      return;
    case Probe::State::kServed:
      break;
  }
  out += ",\"status\":\"served\",\"verdict\":";
  out += RenderVerdictJson(probe.result);
  out += ",\"batch_size\":";
  out += std::to_string(probe.batch_size);
  out += ",\"queue_wait_ns\":";
  out += std::to_string(probe.queue_wait_ns);
  out += '}';
}

obs::PostResponse IdentifyServer::Render(Request& request) {
  obs::PostResponse response;
  switch (request.kind) {
    case Request::Kind::kReady:
      return std::move(request.response);
    case Request::Kind::kIdentify: {
      const Probe& probe = request.probes.front();
      if (probe.state == Probe::State::kRejected) {
        response.status = 429;
        response.retry_after_ms = probe.retry_after_ms;
        response.body = "{\"error\":\"overloaded\",\"retry_after_ms\":" +
                        std::to_string(probe.retry_after_ms) + "}\n";
      } else if (probe.state != Probe::State::kServed) {
        response.status = 429;
        response.body =
            "{\"error\":\"superseded\",\"detail\":"
            "\"a newer probe for this device replaced this one\"}\n";
      } else {
        AppendProbeJson(response.body, probe);
        response.body += '\n';
      }
      return response;
    }
    case Request::Kind::kIngest:
      response.body = "{\"frames\":" + std::to_string(request.frames) +
                      ",\"devices_skipped\":" +
                      std::to_string(request.devices_skipped) +
                      ",\"devices\":[";
      for (std::size_t i = 0; i < request.probes.size(); ++i) {
        if (i > 0) response.body += ',';
        AppendProbeJson(response.body, request.probes[i]);
      }
      response.body += "]}\n";
      return response;
  }
  return {.status = 500, .body = "{\"error\":\"unreachable\"}\n"};
}

ServeStats IdentifyServer::stats() const {
  sentinel::MutexLock lock(mu_);
  return stats_;
}

std::size_t IdentifyServer::queue_depth() const {
  sentinel::MutexLock lock(mu_);
  return queue_.size();
}

}  // namespace sentinel::core
