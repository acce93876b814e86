// Serve workloads: the IdentifyServer behind TelemetryServer's POST
// routes, configured as `sentinelctl serve` ships (queue 256, batch target
// 16, 2 ms bound, 4 connection handlers), driven over loopback TCP from
// this process with binary POST /identify probes.
//
//   serve_light    — open loop: Poisson arrivals at a fixed rate over 4
//                    keep-alive connections; each latency is timed from
//                    the request's scheduled send time.
//   serve_saturate — closed loop: 4 connections, 16 requests in flight on
//                    each, driven by one generator thread.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <ctime>
#include <cstring>
#include <deque>
#include <random>
#include <thread>
#include <unordered_map>

#include "core/identify_server.h"
#include "core/security_service.h"
#include "devices/profiles.h"
#include "devices/simulator.h"
#include "features/fingerprint_codec.h"
#include "obs/metrics.h"
#include "obs/telemetry_server.h"
#include "util/lock_telemetry.h"
#include "util/mutex.h"
#include "workloads.h"

namespace e2ebench {
namespace {

using sentinel::core::IdentifyServer;
using sentinel::core::ServeStats;
using sentinel::obs::PostResponse;
using sentinel::obs::PostRoutes;
using sentinel::obs::TelemetryServer;

constexpr std::size_t kConnections = 4;
constexpr std::size_t kSaturateDepth = 16;
/// Offered rate of serve_light: well below per-call capacity (order of
/// 10k requests/s on a 4-core host), so batches cannot fill.
constexpr double kLightRate = 2'000.0;
/// serve_light's run is invalid when the generator's p99 lateness exceeds
/// this share of the measured p99 latency.
constexpr double kMaxLatenessShare = 0.2;
/// Responses still missing this long after the last send are failures.
constexpr std::uint64_t kDrainTimeoutNs = 5'000'000'000;
/// The open-loop sender sleeps until this long before a send is due and
/// spins the rest: waking a sleeping thread on a VM takes tens of
/// microseconds at the tail, which would otherwise dominate lateness.
constexpr std::uint64_t kSpinNs = 50'000;

/// One held-out probe: its request template and the verdict JSON a
/// per-call Identify() renders for it.
struct Probe {
  std::string request;  // full HTTP request; MAC bytes patched per send
  std::size_t mac_offset = 0;
  std::string verdict;
};

/// Held-out probes from `seed`: 8 setup episodes per catalog type plus
/// 24 background phones/laptops (expected unknown), shuffled.
std::vector<Probe> MakeProbes(const sentinel::core::DeviceIdentifier& identifier,
                              std::uint64_t seed) {
  sentinel::devices::DeviceSimulator simulator(seed);
  std::vector<sentinel::devices::SimulatedEpisode> episodes;
  for (std::size_t round = 0; round < 8; ++round)
    for (std::size_t t = 0; t < sentinel::devices::DeviceTypeCount(); ++t)
      episodes.push_back(
          simulator.RunSetupEpisode(static_cast<int>(t)));
  for (std::size_t b = 0; b < 24; ++b)
    episodes.push_back(simulator.RunBackgroundEpisode(
        b % 2 == 0 ? sentinel::devices::BackgroundDeviceKind::kSmartphone
                   : sentinel::devices::BackgroundDeviceKind::kLaptop));
  std::mt19937_64 rng(seed ^ 0x3c6ef372fe94f82bull);
  std::shuffle(episodes.begin(), episodes.end(), rng);

  std::vector<Probe> probes;
  for (const auto& episode : episodes) {
    const auto full =
        sentinel::devices::DeviceSimulator::ExtractFingerprint(episode);
    const auto fixed =
        sentinel::features::FixedFingerprint::FromFingerprint(full);
    Probe probe;
    probe.verdict =
        IdentifyServer::RenderVerdictJson(identifier.Identify(full, fixed));
    const auto bytes = sentinel::features::SerializeFingerprint(full);
    std::string body(6, '\0');
    body[0] = 0x02;  // locally administered unicast; bytes 2-5: sequence
    body.append(bytes.begin(), bytes.end());
    probe.request = "POST /identify HTTP/1.1\r\nHost: e2ebench\r\n"
                    "Content-Type: application/octet-stream\r\n"
                    "Content-Length: " +
                    std::to_string(body.size()) + "\r\n\r\n";
    probe.mac_offset = probe.request.size();
    probe.request += body;
    probes.push_back(std::move(probe));
  }
  return probes;
}

std::uint32_t ReadSequence(const char* mac) {
  return (std::uint32_t{static_cast<std::uint8_t>(mac[2])} << 24) |
         (std::uint32_t{static_cast<std::uint8_t>(mac[3])} << 16) |
         (std::uint32_t{static_cast<std::uint8_t>(mac[4])} << 8) |
         std::uint32_t{static_cast<std::uint8_t>(mac[5])};
}

/// Request `seq` for `probe`: the template with the sequence number in the
/// MAC, so every request is a distinct device and can be matched to its
/// server-side record.
std::string Request(const Probe& probe, std::uint32_t seq) {
  std::string request = probe.request;
  request[probe.mac_offset + 2] = static_cast<char>(seq >> 24);
  request[probe.mac_offset + 3] = static_cast<char>(seq >> 16);
  request[probe.mac_offset + 4] = static_cast<char>(seq >> 8);
  request[probe.mac_offset + 5] = static_cast<char>(seq);
  return request;
}

std::string MacText(std::uint32_t seq) {
  return Format("02:00:%02x:%02x:%02x:%02x", seq >> 24, (seq >> 16) & 0xff,
                (seq >> 8) & 0xff, seq & 0xff);
}

/// True when `body` is the served verdict of `probe` for request `seq`,
/// byte-equal to the per-call rendering.
bool VerdictMatches(const std::string& body, const Probe& probe,
                    std::uint32_t seq) {
  const std::string prefix = "{\"mac\":\"" + MacText(seq) +
                             "\",\"status\":\"served\",\"verdict\":" +
                             probe.verdict + ",\"batch_size\":";
  return body.compare(0, prefix.size(), prefix) == 0;
}

/// Reads an unsigned field `"name":<digits>` out of a response body.
std::uint64_t BodyField(const std::string& body, const char* name) {
  const std::string key = std::string("\"") + name + "\":";
  const auto pos = body.find(key);
  if (pos == std::string::npos) return 0;
  return std::strtoull(body.c_str() + pos + key.size(), nullptr, 10);
}

int ConnectLoopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Peels complete HTTP responses off a keep-alive connection.
class ResponseReader {
 public:
  explicit ResponseReader(int fd) : fd_(fd) {}

  /// Takes one buffered response if complete (status and body out).
  bool TryNext(int& status, std::string& body) {
    const auto header_end = buffer_.find("\r\n\r\n");
    if (header_end == std::string::npos) return false;
    const auto pos = buffer_.find("Content-Length:");
    if (pos == std::string::npos || pos > header_end) return false;
    const std::size_t length = std::strtoul(
        buffer_.c_str() + pos + std::strlen("Content-Length:"), nullptr, 10);
    const std::size_t total = header_end + 4 + length;
    if (buffer_.size() < total) return false;
    status = std::atoi(buffer_.c_str() + 9);  // "HTTP/1.1 "
    body.assign(buffer_, header_end + 4, length);
    buffer_.erase(0, total);
    return true;
  }
  /// One recv() into the buffer; false when the peer closed or failed.
  bool Fill() {
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

 private:
  int fd_;
  std::string buffer_;
};

/// Server-side view of one request, recorded by TimedRoutes.
struct ServerRecord {
  std::uint32_t seq = 0;
  std::uint64_t submit_start = 0;
  std::uint64_t submit_end = 0;
  std::uint64_t collect_start = 0;
  std::uint64_t collect_end = 0;
  std::uint64_t queue_wait_ns = 0;
};

/// Timing PostRoutes wrapper around the IdentifyServer (traced phases
/// only): times Submit (decode + admission) and Collect (wait + render)
/// per request and reads the queue wait from the response.
class TimedRoutes : public PostRoutes {
 public:
  explicit TimedRoutes(IdentifyServer& inner) : inner_(inner) {}

  std::uint64_t Submit(const std::string& path, const std::string& type,
                       std::string body) override {
    ServerRecord record;
    record.seq = body.size() >= 6 ? ReadSequence(body.data()) : 0;
    record.submit_start = NowNs();
    const std::uint64_t id = inner_.Submit(path, type, std::move(body));
    record.submit_end = NowNs();
    sentinel::MutexLock lock(mu_);
    open_.emplace(id, record);
    return id;
  }

  PostResponse Collect(std::uint64_t id) override {
    const std::uint64_t start = NowNs();
    PostResponse response = inner_.Collect(id);
    const std::uint64_t end = NowNs();
    sentinel::MutexLock lock(mu_);
    auto node = open_.extract(id);
    if (!node.empty()) {
      ServerRecord record = node.mapped();
      record.collect_start = start;
      record.collect_end = end;
      record.queue_wait_ns = BodyField(response.body, "queue_wait_ns");
      done_.push_back(record);
    }
    return response;
  }

  std::vector<ServerRecord> Take() {
    sentinel::MutexLock lock(mu_);
    return std::move(done_);
  }

 private:
  IdentifyServer& inner_;
  sentinel::Mutex mu_{"e2ebench.timed_routes"};
  std::unordered_map<std::uint64_t, ServerRecord> open_
      SENTINEL_GUARDED_BY(mu_);
  std::vector<ServerRecord> done_ SENTINEL_GUARDED_BY(mu_);
};

/// The identification service as `sentinelctl serve` runs it (with its
/// metrics registry attached, so the serving path's counters, histograms
/// and queue-depth gauge are updated), optionally behind the timing
/// wrapper.
class Service {
 public:
  Service(const sentinel::core::DeviceIdentifier& identifier, bool timed)
      : ids_(&identifier, sentinel::core::IdentifyServerConfig{}),
        timed_(ids_),
        http_(&registry_, nullptr, {.serve_threads = 4}) {
    ids_.set_metrics(&registry_);
    PostRoutes* routes = timed ? static_cast<PostRoutes*>(&timed_) : &ids_;
    http_.set_post_routes(routes, {"/identify", "/ingest"},
                          {"application/json", "application/octet-stream",
                           "application/vnd.tcpdump.pcap"});
    ids_.Start();
    http_.Start();
    serving_ = std::thread([this] { http_.Serve(); });
  }
  ~Service() {
    http_.Stop();
    serving_.join();
    ids_.Stop();
  }
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  std::uint16_t port() const { return http_.port(); }
  IdentifyServer& ids() { return ids_; }
  TimedRoutes& timed() { return timed_; }

 private:
  sentinel::obs::MetricsRegistry registry_;
  IdentifyServer ids_;
  TimedRoutes timed_;
  TelemetryServer http_;
  std::thread serving_;
};

/// Client-side record of one request.
struct ClientRecord {
  std::uint32_t seq = 0;
  std::uint64_t due_ns = 0;   // scheduled send (open loop) or send
  std::uint64_t sent_ns = 0;  // actual send
  std::uint64_t done_ns = 0;  // full response read
};

/// Lifetime counters of the identify_server.queue lock site.
struct LockCounters {
  std::uint64_t contended = 0;
  std::uint64_t wait_ns = 0;
};

LockCounters ReadQueueLock() {
  for (std::size_t i = 0; i < sentinel::LockSiteCount(); ++i) {
    const auto& site = sentinel::LockSiteAt(i);
    const char* name = site.Name();
    if (name != nullptr && std::strcmp(name, "identify_server.queue") == 0) {
      // ordering: relaxed — monotonic statistics read after the run.
      return {site.contended.load(std::memory_order_relaxed),
              site.wait_ns_total.load(std::memory_order_relaxed)};
    }
  }
  return {};
}

/// Per-connection tallies a generator thread fills.
struct Tally {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  Reservoir latency_us;
  std::vector<ClientRecord> records;  // traced phases only
};

class ServeWorkload : public Workload {
 public:
  ServeWorkload(std::uint64_t seed, bool saturate)
      : saturate_(saturate),
        seed_(seed),
        service_(TrainService()),
        probes_(MakeProbes(service_->identifier(), InputSeed(seed, 4))),
        server_(std::make_unique<Service>(service_->identifier(), false)) {}

  std::vector<std::string> MetricNames() const override {
    if (saturate_)
      return {"serve_sat_qps", "serve_sat_p50_us", "serve_sat_p99_us"};
    return {"serve_light_qps", "serve_light_p50_us", "serve_light_p99_us"};
  }
  bool Loopback() const override { return true; }

  Outcome Measure(double seconds, sentinel::obs::Tracer* tracer) override {
    const bool traced = tracer != nullptr;
    if (traced != timed_server_) {
      server_.reset();
      server_ = std::make_unique<Service>(service_->identifier(), traced);
      timed_server_ = traced;
    }
    std::array<int, kConnections> fds{};
    for (auto& fd : fds) fd = ConnectLoopback(server_->port());
    const ServeStats stats0 = server_->ids().stats();
    const LockCounters lock0 = ReadQueueLock();

    std::vector<Tally> tallies(kConnections);
    Reservoir lateness_us;
    Outcome out;
    if (saturate_) {
      out.seconds = RunClosedLoop(fds, seconds, traced, tallies);
    } else {
      out.seconds = RunOpenLoop(fds, seconds, traced, tallies, lateness_us);
    }
    for (const int fd : fds)
      if (fd >= 0) ::close(fd);

    std::uint64_t ok = 0;
    for (const Tally& tally : tallies) {
      out.attempted += tally.sent;
      out.failed += tally.failed;
      ok += tally.ok;
      out.latency_us.Merge(tally.latency_us);
    }
    if (std::count(fds.begin(), fds.end(), -1) > 0) ++out.failed;
    out.valid = out.failed == 0 && out.attempted > 0;
    out.notes.push_back(Format(
        "%llu requests over %zu loopback connections: %llu ok, %llu failed "
        "(non-200, wrong verdict or missing)",
        static_cast<unsigned long long>(out.attempted), kConnections,
        static_cast<unsigned long long>(ok),
        static_cast<unsigned long long>(out.failed)));
    if (!saturate_) {
      const double lateness_p99 = lateness_us.Quantile(0.99);
      const double latency_p99 = out.latency_us.Quantile(0.99);
      // An invalid measurement is marked in the report; `correct` stays
      // about the program's outputs.
      const bool honest = lateness_p99 <= kMaxLatenessShare * latency_p99;
      out.notes.push_back(Format(
          "open loop at %.0f req/s (Poisson): generator lateness p50 %.1f us, "
          "p99 %.1f us = %.1f%% of latency p99 -> run %s",
          kLightRate, lateness_us.Quantile(0.5), lateness_p99,
          latency_p99 > 0 ? 100.0 * lateness_p99 / latency_p99 : 0.0,
          honest ? "valid" : "INVALID (generator too late)"));
    } else {
      out.notes.push_back(Format("closed loop: %zu connections x %zu in flight",
                                 kConnections, kSaturateDepth));
    }

    if (traced) Layers(tallies, stats0, lock0, *tracer, out);
    return out;
  }

 private:
  const Probe& ProbeFor(std::uint32_t seq) const {
    return probes_[seq % probes_.size()];
  }

  /// Books the response to `record`: a 200 carrying the expected verdict
  /// counts (with its latency), anything else fails.
  void Book(Tally& tally, const ClientRecord& record, int status,
            const std::string& body, bool traced) {
    const bool ok = status == 200 && VerdictMatches(body, ProbeFor(record.seq),
                                                    record.seq);
    if (!ok) {
      ++tally.failed;
      return;
    }
    ++tally.ok;
    tally.latency_us.Add(static_cast<double>(record.done_ns - record.due_ns) /
                         1e3);
    if (traced) tally.records.push_back(record);
  }

  /// Open loop: a sender thread sends on a precomputed Poisson schedule,
  /// round-robin over the connections, while this thread reads responses
  /// as they arrive, so reading never delays a scheduled send. Returns the
  /// phase's wall time: first due time to last response.
  double RunOpenLoop(const std::array<int, kConnections>& fds, double seconds,
                     bool traced, std::vector<Tally>& tallies,
                     Reservoir& lateness_us) {
    std::mt19937_64 rng(InputSeed(seed_, 5) + next_sequence_);
    std::exponential_distribution<double> gap(kLightRate / 1e9);
    std::vector<std::uint64_t> due;
    for (double t = gap(rng); t < seconds * 1e9; t += gap(rng))
      due.push_back(static_cast<std::uint64_t>(t));
    const std::uint64_t start = NowNs() + 1'000'000;
    const std::uint64_t give_up = start + due.back() + kDrainTimeoutNs;
    const std::uint32_t base = next_sequence_;
    next_sequence_ += static_cast<std::uint32_t>(due.size());

    struct Pending {
      sentinel::Mutex mu{"e2ebench.open_loop"};
      std::deque<ClientRecord> queue SENTINEL_GUARDED_BY(mu);
    };
    std::array<Pending, kConnections> pending;
    // ordering: release after the sender's last booking / acquire before
    // the reader trusts an empty pending set to mean "all answered".
    std::atomic<bool> sending{true};
    std::thread sender([&] {
      // The default 50 us timer slack would make every scheduled send late
      // by up to that much; ask for exact wake-ups.
      ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      for (std::size_t i = 0; i < due.size(); ++i) {
        const std::size_t c = i % kConnections;
        ClientRecord record;
        record.seq = base + static_cast<std::uint32_t>(i);
        record.due_ns = start + due[i];
        const std::string request = Request(ProbeFor(record.seq), record.seq);
        const std::uint64_t wake = record.due_ns - kSpinNs;
        const timespec at{static_cast<time_t>(wake / 1'000'000'000),
                          static_cast<long>(wake % 1'000'000'000)};
        while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &at,
                                 nullptr) == EINTR) {
        }
        while (NowNs() < record.due_ns) {
        }
        record.sent_ns = NowNs();
        ++tallies[c].sent;
        {
          sentinel::MutexLock lock(pending[c].mu);
          pending[c].queue.push_back(record);
        }
        // A failed send leaves its record pending: it fails as unanswered.
        if (fds[c] >= 0) SendAll(fds[c], request);
        lateness_us.Add(static_cast<double>(record.sent_ns - record.due_ns) /
                        1e3);
      }
      sending.store(false, std::memory_order_release);
    });

    std::vector<ResponseReader> readers;
    for (const int fd : fds) readers.emplace_back(fd);
    std::array<bool, kConnections> open{};
    for (std::size_t c = 0; c < kConnections; ++c) open[c] = fds[c] >= 0;
    const auto outstanding = [&] {
      std::size_t total = 0;
      for (auto& p : pending) {
        sentinel::MutexLock lock(p.mu);
        total += p.queue.size();
      }
      return total;
    };
    std::array<pollfd, kConnections> polls{};
    std::uint64_t last_done = start;
    int status = 0;
    std::string body;
    for (;;) {
      if (!sending.load(std::memory_order_acquire) &&
          (outstanding() == 0 || NowNs() > give_up))
        break;
      for (std::size_t c = 0; c < kConnections; ++c)
        polls[c] = pollfd{open[c] ? fds[c] : -1, POLLIN, 0};
      const timespec tick{0, 10'000'000};
      if (::ppoll(polls.data(), polls.size(), &tick, nullptr) <= 0) continue;
      for (std::size_t c = 0; c < kConnections; ++c) {
        if (polls[c].revents == 0) continue;
        if (!readers[c].Fill()) {
          open[c] = false;  // its pending requests fail as unanswered
          continue;
        }
        while (readers[c].TryNext(status, body)) {
          const std::uint64_t now = NowNs();
          ClientRecord record;
          {
            sentinel::MutexLock lock(pending[c].mu);
            if (!pending[c].queue.empty()) {
              record = pending[c].queue.front();
              pending[c].queue.pop_front();
            }
          }
          if (record.due_ns == 0) {  // a response nobody asked for
            ++tallies[c].failed;
            continue;
          }
          record.done_ns = now;
          last_done = now;
          Book(tallies[c], record, status, body, traced);
        }
      }
    }
    sender.join();
    for (std::size_t c = 0; c < kConnections; ++c) {
      sentinel::MutexLock lock(pending[c].mu);
      tallies[c].failed += pending[c].queue.size();
    }
    return static_cast<double>(std::max(last_done, start) - start) / 1e9;
  }

  /// Closed loop: this thread keeps kSaturateDepth requests in flight on
  /// each connection until the deadline, then drains, reading whichever
  /// connection has responses (one generator thread, so the client takes
  /// as little of the host's CPU as it can). Returns the phase's wall time:
  /// start to last response.
  double RunClosedLoop(const std::array<int, kConnections>& fds,
                       double seconds, bool traced,
                       std::vector<Tally>& tallies) {
    const std::uint64_t start = NowNs();
    const std::uint64_t deadline =
        start + static_cast<std::uint64_t>(seconds * 1e9);
    const std::uint32_t base = next_sequence_;
    std::vector<ResponseReader> readers;
    for (const int fd : fds) readers.emplace_back(fd);
    std::array<std::deque<ClientRecord>, kConnections> pending;
    std::array<std::uint32_t, kConnections> sent{};
    // A connection that fails has all its pending requests failed and is
    // dropped from the loop.
    const auto drop = [&](std::size_t c) {
      tallies[c].failed += pending[c].size();
      pending[c].clear();
    };
    const auto send_one = [&](std::size_t c) {
      ClientRecord record;
      record.seq = base + static_cast<std::uint32_t>(c) +
                   static_cast<std::uint32_t>(kConnections) * sent[c]++;
      record.sent_ns = record.due_ns = NowNs();
      ++tallies[c].sent;
      pending[c].push_back(record);
      if (!SendAll(fds[c], Request(ProbeFor(record.seq), record.seq)))
        drop(c);
    };
    for (std::size_t c = 0; c < kConnections; ++c) {
      if (fds[c] < 0) continue;
      for (std::size_t i = 0; i < kSaturateDepth; ++i) {
        send_one(c);
        if (pending[c].empty()) break;  // the connection failed
      }
    }

    std::array<pollfd, kConnections> polls{};
    int status = 0;
    std::string body;
    for (;;) {
      std::size_t waiting = 0;
      for (std::size_t c = 0; c < kConnections; ++c) {
        polls[c] = pollfd{pending[c].empty() ? -1 : fds[c], POLLIN, 0};
        waiting += pending[c].size();
      }
      if (waiting == 0) break;
      const int ready = ::poll(polls.data(), polls.size(),
                               static_cast<int>(kDrainTimeoutNs / 1'000'000));
      if (ready == 0) {  // nothing answered for the drain timeout
        for (std::size_t c = 0; c < kConnections; ++c) drop(c);
        break;
      }
      if (ready < 0) continue;
      for (std::size_t c = 0; c < kConnections; ++c) {
        if (polls[c].revents == 0) continue;
        if (!readers[c].Fill()) {
          drop(c);
          continue;
        }
        while (!pending[c].empty() && readers[c].TryNext(status, body)) {
          ClientRecord record = pending[c].front();
          pending[c].pop_front();
          record.done_ns = NowNs();
          Book(tallies[c], record, status, body, traced);
          if (record.done_ns < deadline) send_one(c);
        }
      }
    }
    const std::uint64_t end = NowNs();
    std::uint32_t most = 0;
    for (const std::uint32_t n : sent) most = std::max(most, n);
    next_sequence_ = base + static_cast<std::uint32_t>(kConnections) * most;
    return static_cast<double>(end - start) / 1e9;
  }

  /// Per-layer metrics and spans of a traced phase: client records joined
  /// with the server-side records by request sequence number.
  void Layers(const std::vector<Tally>& tallies, const ServeStats& stats0,
              const LockCounters& lock0, sentinel::obs::Tracer& tracer,
              Outcome& out) {
    const ServeStats stats = server_->ids().stats();
    const LockCounters lock = ReadQueueLock();
    std::unordered_map<std::uint32_t, ServerRecord> server;
    for (const ServerRecord& r : server_->timed().Take()) server[r.seq] = r;

    Reservoir submit_us;
    Reservoir queue_wait_us;
    Reservoir service_us;
    Reservoir overhead_us;
    for (const Tally& tally : tallies) {
      for (const ClientRecord& c : tally.records) {
        const auto trace = tracer.NewTraceId();
        const auto root =
            RecordSpan(tracer, "client.request", c.sent_ns, c.done_ns, trace, 0);
        const auto it = server.find(c.seq);
        if (it == server.end()) continue;
        const ServerRecord& s = it->second;
        const double submit = static_cast<double>(s.submit_end - s.submit_start);
        const double collect =
            static_cast<double>(s.collect_end - s.collect_start);
        const double admitted_to_ready =
            static_cast<double>(s.collect_end - s.submit_end);
        submit_us.Add(submit / 1e3);
        queue_wait_us.Add(static_cast<double>(s.queue_wait_ns) / 1e3);
        service_us.Add(
            std::max(0.0, admitted_to_ready -
                              static_cast<double>(s.queue_wait_ns)) /
            1e3);
        overhead_us.Add(
            std::max(0.0, static_cast<double>(c.done_ns - c.sent_ns) - submit -
                              collect) /
            1e3);
        RecordSpan(tracer, "server.submit", s.submit_start, s.submit_end, trace,
                   root);
        RecordSpan(tracer, "server.queue_wait", s.submit_end,
                   s.submit_end + s.queue_wait_ns, trace, root);
        RecordSpan(tracer, "server.collect", s.collect_start, s.collect_end,
                   trace, root);
      }
    }
    const auto delta = [](std::uint64_t a, std::uint64_t b) {
      return static_cast<double>(a - b);
    };
    const double batches = delta(stats.batches, stats0.batches);
    auto& l = out.layers;
    l["core.serve_submit_us_p50"] = submit_us.Quantile(0.5);
    l["core.serve_queue_wait_us_p50"] = queue_wait_us.Quantile(0.5);
    l["core.serve_queue_wait_us_p99"] = queue_wait_us.Quantile(0.99);
    l["core.serve_service_us_p50"] = service_us.Quantile(0.5);
    l["core.serve_batch_size_mean"] =
        Ratio(delta(stats.probes_served, stats0.probes_served), batches);
    l["core.flush_size_ratio"] =
        Ratio(delta(stats.flush_size, stats0.flush_size), batches);
    l["core.flush_deadline_ratio"] =
        Ratio(delta(stats.flush_deadline, stats0.flush_deadline), batches);
    l["core.flush_sparse_ratio"] =
        Ratio(delta(stats.flush_sparse, stats0.flush_sparse), batches);
    l["core.serve_rejected"] = delta(stats.rejected, stats0.rejected);
    l["core.serve_shed"] = delta(stats.shed, stats0.shed);
    l["obs.http_overhead_us_p50"] = overhead_us.Quantile(0.5);
    l["obs.http_overhead_us_p99"] = overhead_us.Quantile(0.99);
    l["util.queue_lock_contended"] = delta(lock.contended, lock0.contended);
    l["util.queue_lock_wait_ns"] = delta(lock.wait_ns, lock0.wait_ns);
  }

  bool saturate_;
  std::uint64_t seed_;
  std::unique_ptr<sentinel::core::SecurityService> service_;
  std::vector<Probe> probes_;
  std::unique_ptr<Service> server_;
  bool timed_server_ = false;
  std::uint32_t next_sequence_ = 1;
};

}  // namespace

std::unique_ptr<Workload> MakeServeLight(std::uint64_t seed) {
  return std::make_unique<ServeWorkload>(seed, false);
}

std::unique_ptr<Workload> MakeServeSaturate(std::uint64_t seed) {
  return std::make_unique<ServeWorkload>(seed, true);
}

}  // namespace e2ebench
