// Gateway workloads: the SecurityGateway (switch + controller + Sentinel
// module + enforcement) with a real trained SecurityService, driven from
// one caller thread.
//
//   gateway_onboard — a stream of fresh simulated joins, each device going
//     through capture -> fingerprint -> bank scan -> tie-break -> assess ->
//     enforce once. Each pass replays a newly generated join pool into a
//     fresh gateway, so no episode is replayed twice; generating and
//     verifying a pool happen between passes, outside the timed replays.
//   gateway_forward — an onboarded fleet's standby traffic, as the
//     simulator emits it; identification never runs in the timed part.
#include <algorithm>
#include <optional>
#include <string_view>
#include <random>
#include <unordered_map>
#include <unordered_set>

#include "core/gateway.h"
#include "core/security_service.h"
#include "devices/profiles.h"
#include "devices/simulator.h"
#include "features/fingerprint_codec.h"
#include "workloads.h"

namespace e2ebench {
namespace {

using sentinel::core::AssessmentResult;
using sentinel::core::IdentificationEvent;
using sentinel::core::IsolationLevel;
using sentinel::core::SecurityGateway;
using sentinel::core::SecurityGatewayConfig;
using sentinel::core::SecurityService;
using sentinel::core::SecurityServiceClient;
using sentinel::features::Fingerprint;
using sentinel::features::FixedFingerprint;
using sentinel::net::Frame;
using sentinel::net::Ipv4Address;
using sentinel::net::MacAddress;
using sentinel::sdn::PortId;

/// Device-facing ports (a home gateway's radios and LAN jacks); devices
/// are spread over them round-robin. The WAN port is the gateway default.
constexpr PortId kFirstDevicePort = 10;
constexpr std::size_t kDevicePorts = 4;
const PortId kWanPort = SecurityGatewayConfig{}.wan_port;

/// FlushIdle ticks: at most one per simulated second, taken when traffic
/// reaches the tick; the final flush lands past the 5 s idle gap.
constexpr std::uint64_t kTickNs = 1'000'000'000;
constexpr std::uint64_t kFinalFlushNs = 60'000'000'000;

/// One frame as the gateway receives it: the ingress port and the bytes.
struct Ingest {
  PortId port = 0;
  Frame frame;
};

/// The ISP router beyond the WAN port, registered with the Sentinel module
/// as infrastructure. The simulator sources Internet answers from the
/// gateway's own MAC; on the wire they arrive from this router.
const MacAddress kUpstreamMac({0x02, 0x00, 0x5e, 0x00, 0x00, 0xfe});
const MacAddress kGatewayMac = SecurityGatewayConfig{}.gateway_mac;

MacAddress MacAt(const Frame& frame, std::size_t offset) {
  std::uint64_t value = 0;
  for (std::size_t i = offset; i < offset + 6; ++i)
    value = (value << 8) | frame.bytes[i];
  return MacAddress::FromUint64(value);
}

std::optional<Ipv4Address> Ipv4Source(const Frame& frame) {
  const auto& b = frame.bytes;
  if (b.size() < 34 || b[12] != 0x08 || b[13] != 0x00) return std::nullopt;
  return Ipv4Address((std::uint32_t{b[26]} << 24) |
                     (std::uint32_t{b[27]} << 16) |
                     (std::uint32_t{b[28]} << 8) | b[29]);
}

/// Where a simulated frame enters the gateway, if it does at all: frames a
/// device sends enter on its port (`device_port`, set by the caller when
/// the source is a device); Internet answers enter on the WAN
/// port from the upstream router; the gateway's own answers (DHCP, DNS,
/// NTP, ARP) are emitted by the gateway itself and never ingress. (Fed in
/// on the WAN port they would teach the learning switch the gateway's MAC
/// there, and its device->gateway forwarding rules would then carry a
/// strict device's Internet traffic past the policy.)
std::optional<Ingest> Route(Frame frame, std::optional<PortId> device_port) {
  if (device_port) return Ingest{*device_port, std::move(frame)};
  if (MacAt(frame, 6) == kGatewayMac) {
    const auto ip = Ipv4Source(frame);
    if (!ip || ip->IsPrivate()) return std::nullopt;
    std::copy(kUpstreamMac.octets().begin(), kUpstreamMac.octets().end(),
              frame.bytes.begin() + 6);
  }
  return Ingest{kWanPort, std::move(frame)};
}

struct JoinDevice {
  MacAddress mac;
  Ipv4Address ip;
  /// Catalog type, or -1 for a background phone/laptop.
  int type = -1;
};

/// A pool of joins: devices set up in small concurrent groups whose frames
/// interleave on the wire, time-ordered within and across groups.
struct JoinPool {
  std::vector<JoinDevice> devices;
  std::vector<Ingest> frames;
  std::unordered_map<std::uint64_t, std::size_t> index;  // MAC -> device
};

/// A seeded stream of joins: each Next() call simulates fresh devices set
/// up in groups of 2-6, each slot a background phone or laptop with
/// probability 1/10 and otherwise the next catalog type of a shuffled cycle
/// (so every type appears equally often). The simulator's clock and RNG
/// carry over between calls, so no two pools share an episode.
class JoinStream {
 public:
  explicit JoinStream(std::uint64_t seed)
      : simulator_(seed), rng_(seed ^ 0x6a09e667f3bcc909ull) {}

  /// The next `device_count` (or a few more) joins. Groups whose MACs
  /// collide with earlier devices of the pool are regenerated, keeping
  /// every join of a pool a distinct device.
  JoinPool Next(std::size_t device_count) {
    JoinPool pool;
    while (pool.devices.size() < device_count) AddGroup(pool);
    return pool;
  }

 private:
  int NextType() {
    const auto catalog =
        static_cast<int>(sentinel::devices::DeviceTypeCount());
    if (next_in_cycle_ == cycle_.size()) {
      cycle_.resize(static_cast<std::size_t>(catalog));
      for (int t = 0; t < catalog; ++t) cycle_[static_cast<std::size_t>(t)] = t;
      std::shuffle(cycle_.begin(), cycle_.end(), rng_);
      next_in_cycle_ = 0;
    }
    return cycle_[next_in_cycle_++];
  }

  void AddGroup(JoinPool& pool) {
    const std::size_t size = 2 + rng_() % 5;
    std::vector<int> types;
    std::vector<sentinel::devices::BackgroundDeviceKind> background;
    for (std::size_t slot = 0; slot < size; ++slot) {
      if (rng_() % 10 == 0) {
        background.push_back(
            rng_() % 2 == 0
                ? sentinel::devices::BackgroundDeviceKind::kSmartphone
                : sentinel::devices::BackgroundDeviceKind::kLaptop);
      } else {
        types.push_back(NextType());
      }
    }
    if (types.empty()) types.push_back(NextType());

    auto group = simulator_.RunConcurrentSetupEpisodes(types);
    std::vector<sentinel::devices::SimulatedEpisode> episodes =
        std::move(group.episodes);
    std::vector<Frame> frames = group.merged.frames();
    const std::uint64_t base = frames.front().timestamp_ns;
    for (const auto kind : background) {
      auto episode = simulator_.RunBackgroundEpisode(kind);
      // Background devices join at the same instant as the group.
      const std::uint64_t shift =
          episode.trace.frames().front().timestamp_ns - base;
      for (Frame frame : episode.trace.frames()) {
        frame.timestamp_ns -= shift;
        frames.push_back(std::move(frame));
      }
      episodes.push_back(std::move(episode));
    }
    std::stable_sort(frames.begin(), frames.end(),
                     [](const Frame& a, const Frame& b) {
                       return a.timestamp_ns < b.timestamp_ns;
                     });

    std::unordered_set<std::uint64_t> group_macs;
    for (const auto& episode : episodes) {
      const std::uint64_t key = episode.device_mac.ToUint64();
      if (pool.index.contains(key) || !group_macs.insert(key).second) return;
    }

    std::unordered_map<std::uint64_t, PortId> ports;
    for (const auto& episode : episodes) {
      const std::size_t id = pool.devices.size();
      const auto port =
          static_cast<PortId>(kFirstDevicePort + id % kDevicePorts);
      pool.index.emplace(episode.device_mac.ToUint64(), id);
      ports.emplace(episode.device_mac.ToUint64(), port);
      pool.devices.push_back(
          JoinDevice{episode.device_mac, episode.device_ip, episode.type});
    }
    for (Frame& frame : frames) {
      const auto it = ports.find(MacAt(frame, 6).ToUint64());
      auto in = Route(std::move(frame), it == ports.end()
                                            ? std::nullopt
                                            : std::optional(it->second));
      if (in) pool.frames.push_back(std::move(*in));
    }
  }

  sentinel::devices::DeviceSimulator simulator_;
  std::mt19937_64 rng_;
  std::vector<int> cycle_;
  std::size_t next_in_cycle_ = 0;
};

/// Replays every group of `pool` through `gateway`, calling
/// `call(ingress, fn)` around every gateway call (`fn` performs it;
/// `ingress` is false for FlushIdle ticks) so callers can time and trace
/// each one, then flushes the remaining setup phases.
template <typename Call>
void ReplayJoins(SecurityGateway& gateway, const JoinPool& pool, Call&& call) {
  std::uint64_t next_tick = 0;
  for (const Ingest& in : pool.frames) {
    const std::uint64_t ts = in.frame.timestamp_ns;
    if (ts >= next_tick) {
      call(false, [&] { gateway.sentinel().FlushIdle(ts); });
      next_tick = ts + kTickNs;
    }
    call(true, [&] { gateway.Ingress(in.port, in.frame); });
  }
  const std::uint64_t end = pool.frames.back().frame.timestamp_ns + kFinalFlushNs;
  call(false, [&] { gateway.sentinel().FlushIdle(end); });
}

/// Wires a gateway as the benchmark deploys it: every port attached, the
/// upstream router registered as infrastructure.
void AttachPorts(SecurityGateway& gateway) {
  gateway.sentinel().AddInfrastructureMac(kUpstreamMac);
  gateway.AttachWan([](const Frame&) {});
  for (std::size_t p = 0; p < kDevicePorts; ++p)
    gateway.AttachPort(static_cast<PortId>(kFirstDevicePort + p),
                       [](const Frame&) {});
}

/// What the gateway must install for one device: the level and type of a
/// direct SecurityService::Assess on the fingerprints the gateway built.
struct Expected {
  IsolationLevel level = IsolationLevel::kStrict;
  std::string type;  // empty: unknown
  std::vector<Ipv4Address> allowed;
};

/// Forwards to the service and keeps a copy of the last fingerprints, so
/// the identification callback can re-assess exactly what the gateway saw.
class RecordingClient : public SecurityServiceClient {
 public:
  explicit RecordingClient(SecurityService& service) : service_(service) {}
  AssessmentResult Assess(const Fingerprint& full,
                          const FixedFingerprint& fixed) override {
    full_ = full;
    fixed_ = fixed;
    return service_.Assess(full, fixed);
  }
  const Fingerprint& full() const { return full_; }
  const FixedFingerprint& fixed() const { return fixed_; }

 private:
  SecurityService& service_;
  Fingerprint full_;
  FixedFingerprint fixed_;
};

/// Verification of join pools: what each device of the last pool must get
/// installed, and running totals over every pool verified.
struct Verified {
  std::vector<Expected> expected;
  std::uint64_t joins = 0;
  std::uint64_t mismatched = 0;
  std::uint64_t missing = 0;
  std::uint64_t levels[3] = {0, 0, 0};

  [[nodiscard]] std::uint64_t failures() const { return mismatched + missing; }
  [[nodiscard]] std::string Note() const {
    return Format(
        "verified %llu joins against direct Assess (untimed): %llu "
        "mismatched, %llu incomplete; levels strict/restricted/trusted "
        "%llu/%llu/%llu",
        static_cast<unsigned long long>(joins),
        static_cast<unsigned long long>(mismatched),
        static_cast<unsigned long long>(missing),
        static_cast<unsigned long long>(levels[0]),
        static_cast<unsigned long long>(levels[1]),
        static_cast<unsigned long long>(levels[2]));
  }
};

/// Replays every join of `pool` once through `gateway` (whose service
/// client must be `recorder`) and checks each device's installed rule
/// against a direct Assess on the fingerprints the gateway built. A device
/// that never completes identification, or whose installed level or type
/// differs, is a failure. Sets `out.expected` to the pool's devices and
/// adds to the totals.
void VerifyJoins(SecurityGateway& gateway, RecordingClient& recorder,
                 SecurityService& service, const JoinPool& pool,
                 Verified& out) {
  out.expected.assign(pool.devices.size(), Expected{});
  std::vector<std::uint8_t> seen(pool.devices.size(), 0);
  gateway.sentinel().OnIdentification([&](const IdentificationEvent& event) {
    const auto it = pool.index.find(event.device_mac.ToUint64());
    if (it == pool.index.end()) {
      ++out.mismatched;  // identified a MAC that is not a joining device
      return;
    }
    const AssessmentResult direct =
        service.Assess(recorder.full(), recorder.fixed());
    const auto* rule = gateway.enforcement().Find(event.device_mac);
    if (rule == nullptr || rule->level != direct.level ||
        rule->device_type != direct.type_identifier)
      ++out.mismatched;
    ++seen[it->second];
    out.expected[it->second] = Expected{direct.level, direct.type_identifier,
                                        direct.allowed_endpoints};
  });
  ReplayJoins(gateway, pool, [](bool, auto&& fn) { fn(); });
  gateway.sentinel().OnIdentification(nullptr);

  for (const std::uint8_t count : seen) out.missing += count == 1 ? 0 : 1;
  for (const Expected& e : out.expected)
    ++out.levels[static_cast<std::size_t>(e.level)];
  out.joins += pool.devices.size();
}

/// Wraps the service with per-call timing (traced phases only): the assess
/// layer's time, plus the identifier's own stage timings and counts read
/// from each IdentificationResult, and whether the fingerprint assessed
/// equals one assessed earlier in the phase.
class TimingClient : public SecurityServiceClient {
 public:
  explicit TimingClient(SecurityServiceClient& inner) : inner_(inner) {}
  AssessmentResult Assess(const Fingerprint& full,
                          const FixedFingerprint& fixed) override {
    // Hashed before the timer starts, so assess and enforce times exclude
    // it (the device's onboarding latency does not).
    const auto bytes = sentinel::features::SerializeFingerprint(full);
    const std::string_view view(reinterpret_cast<const char*>(bytes.data()),
                                bytes.size());
    if (!seen_.insert(std::hash<std::string_view>{}(view)).second)
      ++duplicates;
    last_start_ns = NowNs();
    AssessmentResult result = inner_.Assess(full, fixed);
    last_end_ns = NowNs();
    ++calls;
    assess_ns.Add(static_cast<double>(last_end_ns - last_start_ns));
    const auto& id = result.identification;
    bank_scan_ns.Add(static_cast<double>(id.classification_time.count()));
    edit_distances += id.edit_distance_count;
    if (id.matched_types.size() >= 2) {
      ++multi_match;
      tiebreak_ns.Add(static_cast<double>(id.discrimination_time.count()));
    }
    if (!id.type.has_value()) ++unknown;
    return result;
  }

  std::uint64_t calls = 0;
  std::uint64_t multi_match = 0;
  std::uint64_t unknown = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t last_start_ns = 0;
  std::uint64_t last_end_ns = 0;
  Reservoir assess_ns;
  Reservoir bank_scan_ns;
  Reservoir tiebreak_ns;
  std::uint64_t edit_distances = 0;

 private:
  SecurityServiceClient& inner_;
  std::unordered_set<std::size_t> seen_;
};

// ---------------------------------------------------------------------------

class GatewayOnboard : public Workload {
 public:
  explicit GatewayOnboard(std::uint64_t seed)
      : service_(TrainService()), joins_(InputSeed(seed, 1)) {
    NextPool();
  }

  std::vector<std::string> MetricNames() const override {
    return {"onboard_devices_per_s", "onboard_p50_us", "onboard_p99_us"};
  }
  bool Loopback() const override { return false; }

  Outcome Measure(double seconds, sentinel::obs::Tracer* tracer) override {
    Outcome out;
    TimingClient timing(*service_);
    SecurityServiceClient& client =
        tracer != nullptr ? static_cast<SecurityServiceClient&>(timing)
                          : *service_;

    Reservoir ingress_ns;
    Reservoir fastpath_ns;
    Reservoir packet_in_ns;
    Reservoir enforce_ns;
    std::uint64_t received = 0;
    std::uint64_t packet_ins = 0;
    std::uint64_t lookups = 0;
    std::uint64_t hash_hits = 0;
    std::uint64_t frames_ingested = 0;
    std::uint64_t identified = 0;
    std::uint64_t mismatched = 0;
    std::uint64_t missing = 0;
    std::uint64_t timed_ns = 0;
    std::uint64_t prepare_ns = 0;
    std::uint64_t passes = 0;
    const std::uint64_t failures_before = verified_.failures();

    const auto budget = static_cast<std::uint64_t>(seconds * 1e9);
    while (timed_ns < budget) {
      if (pool_used_) {
        const std::uint64_t t0 = NowNs();
        NextPool();
        prepare_ns += NowNs() - t0;
      }
      pool_used_ = true;
      ++passes;

      SecurityGateway gateway(client);
      AttachPorts(gateway);
      std::uint64_t call_start = 0;
      bool identified_in_call = false;
      std::vector<std::uint8_t> seen(pool_.devices.size(), 0);
      gateway.sentinel().OnIdentification(
          [&](const IdentificationEvent& event) {
            const std::uint64_t now = NowNs();
            out.latency_us.Add(static_cast<double>(now - call_start) / 1e3);
            identified_in_call = true;
            ++identified;
            const auto it = pool_.index.find(event.device_mac.ToUint64());
            if (it != pool_.index.end()) ++seen[it->second];
            if (tracer == nullptr) return;
            enforce_ns.Add(static_cast<double>(now - timing.last_end_ns));
            const auto trace = tracer->NewTraceId();
            const auto root =
                RecordSpan(*tracer, "gateway.onboard", call_start, now, trace, 0);
            RecordSpan(*tracer, "core.assess", timing.last_start_ns,
                       timing.last_end_ns, trace, root);
            RecordSpan(*tracer, "core.enforce", timing.last_end_ns, now, trace,
                       root);
          });

      const std::uint64_t pass_start = NowNs();
      if (tracer == nullptr) {
        ReplayJoins(gateway, pool_, [&](bool, auto&& fn) {
          call_start = NowNs();
          fn();
        });
      } else {
        const auto& counters = gateway.datapath().counters();
        ReplayJoins(gateway, pool_, [&](bool ingress, auto&& fn) {
          const std::uint64_t before = counters.packet_ins;
          identified_in_call = false;
          call_start = NowNs();
          fn();
          if (!ingress) return;
          const auto ns = static_cast<double>(NowNs() - call_start);
          ingress_ns.Add(ns);
          if (counters.packet_ins == before) {
            fastpath_ns.Add(ns);
          } else if (!identified_in_call) {
            packet_in_ns.Add(ns);
          }
        });
      }
      timed_ns += NowNs() - pass_start;

      frames_ingested += pool_.frames.size();
      for (std::size_t d = 0; d < pool_.devices.size(); ++d) {
        if (seen[d] != 1) {
          ++missing;
          continue;
        }
        const auto* rule = gateway.enforcement().Find(pool_.devices[d].mac);
        const Expected& want = verified_.expected[d];
        if (rule == nullptr || rule->level != want.level ||
            rule->device_type != want.type)
          ++mismatched;
      }
      out.attempted += pool_.devices.size();
      const auto& counters = gateway.datapath().counters();
      received += counters.received;
      packet_ins += counters.packet_ins;
      const auto stats = gateway.datapath().flow_table().stats();
      lookups += stats.lookups;
      hash_hits += stats.hash_hits;
    }
    out.seconds = static_cast<double>(timed_ns) / 1e9;

    // Identifications beyond the attempted devices (a MAC identified twice,
    // or a non-device MAC) are failures too.
    const std::uint64_t extra =
        identified > out.attempted - missing
            ? identified - (out.attempted - missing)
            : 0;
    const std::uint64_t verify_failures =
        verified_.failures() - failures_before;
    out.failed = mismatched + missing + extra + verify_failures;
    out.valid = out.failed == 0;
    out.notes.push_back(verified_.Note());
    out.notes.push_back(Format(
        "%llu devices onboarded in %llu passes, each a fresh join pool into a "
        "fresh gateway: %llu mismatched, %llu incomplete, %llu unexpected "
        "identifications; generating and verifying pools took %.3f s "
        "outside the timed replays",
        static_cast<unsigned long long>(out.attempted),
        static_cast<unsigned long long>(passes),
        static_cast<unsigned long long>(mismatched),
        static_cast<unsigned long long>(missing),
        static_cast<unsigned long long>(extra),
        static_cast<double>(prepare_ns) / 1e9));

    if (tracer != nullptr) {
      auto& l = out.layers;
      l["sdn.ingress_calls"] = static_cast<double>(ingress_ns.count());
      l["sdn.ingress_ns"] = ingress_ns.mean();
      l["sdn.fastpath_ratio"] = Ratio(static_cast<double>(received - packet_ins),
                                      static_cast<double>(received));
      l["sdn.fastpath_ns_p50"] = fastpath_ns.Quantile(0.5);
      l["sdn.flow_hash_hit_ratio"] = Ratio(static_cast<double>(hash_hits),
                                           static_cast<double>(lookups));
      l["core.packet_in_ns_p50"] = packet_in_ns.Quantile(0.5);
      l["capture.frames_per_device"] =
          Ratio(static_cast<double>(frames_ingested),
                static_cast<double>(out.attempted));
      l["capture.duplicate_fingerprint_ratio"] =
          Ratio(static_cast<double>(timing.duplicates),
                static_cast<double>(timing.calls));
      l["core.assess_calls"] = static_cast<double>(timing.calls);
      l["core.assess_ns_p50"] = timing.assess_ns.Quantile(0.5);
      l["core.assess_ns_p99"] = timing.assess_ns.Quantile(0.99);
      l["ml.bank_scan_ns_p50"] = timing.bank_scan_ns.Quantile(0.5);
      l["features.tiebreak_ns_p50"] = timing.tiebreak_ns.Quantile(0.5);
      l["features.tiebreak_ns_p99"] = timing.tiebreak_ns.Quantile(0.99);
      l["features.edit_distances_per_id"] =
          Ratio(static_cast<double>(timing.edit_distances),
                static_cast<double>(timing.calls));
      l["core.multi_match_ratio"] = Ratio(
          static_cast<double>(timing.multi_match),
          static_cast<double>(timing.calls));
      l["core.unknown_ratio"] = Ratio(static_cast<double>(timing.unknown),
                                      static_cast<double>(timing.calls));
      l["core.enforce_ns_p50"] = enforce_ns.Quantile(0.5);
    }
    return out;
  }

 private:
  /// Joins per pass: enough concurrent groups to average over their random
  /// sizes and mix.
  static constexpr std::size_t kPoolDevices = 1'000;

  /// Generates the next join pool and verifies it through a gateway of its
  /// own, recording what the timed replay must install.
  void NextPool() {
    pool_ = joins_.Next(kPoolDevices);
    RecordingClient recorder(*service_);
    SecurityGateway gateway(recorder);
    AttachPorts(gateway);
    VerifyJoins(gateway, recorder, *service_, pool_, verified_);
  }

  std::unique_ptr<SecurityService> service_;
  JoinStream joins_;
  JoinPool pool_;
  /// True once pool_ has been replayed (the set-up pool is replayed by the
  /// first pass; every later pass generates its own).
  bool pool_used_ = false;
  Verified verified_;
};

// ---------------------------------------------------------------------------

/// Rewrites the Ethernet source/destination `from` to `to` (the IP layer
/// is left alone: the gateway's policy keys on MACs and destination IPs).
void RewriteMac(Frame& frame, const MacAddress& from, const MacAddress& to) {
  for (const std::size_t offset : {std::size_t{0}, std::size_t{6}}) {
    if (std::equal(from.octets().begin(), from.octets().end(),
                   frame.bytes.begin() + static_cast<std::ptrdiff_t>(offset)))
      std::copy(to.octets().begin(), to.octets().end(),
                frame.bytes.begin() + static_cast<std::ptrdiff_t>(offset));
  }
}

class GatewayForward : public Workload {
 public:
  explicit GatewayForward(std::uint64_t seed)
      : service_(TrainService()),
        fleet_(JoinStream(InputSeed(seed, 2)).Next(kFleetDevices)),
        recorder_(*service_),
        counting_(recorder_),
        gateway_(counting_) {
    AttachPorts(gateway_);
    VerifyJoins(gateway_, recorder_, *service_, fleet_, verified_);
    for (std::size_t d = 0; d < fleet_.devices.size(); ++d) {
      const Expected& e = verified_.expected[d];
      if (e.level == IsolationLevel::kTrusted) continue;
      Policed& p = policed_[fleet_.devices[d].mac.ToUint64()];
      p.level = e.level;
      for (const auto ip : e.allowed) p.allowed.insert(ip.value());
    }
    gateway_.AttachWan([this](const Frame& frame) { CheckWan(frame); });
    GenerateTraffic(InputSeed(seed, 3));
  }

  std::vector<std::string> MetricNames() const override {
    return {"forward_frames_per_s", "forward_p50_us", "forward_p99_us"};
  }
  bool Loopback() const override { return false; }

  Outcome Measure(double seconds, sentinel::obs::Tracer* tracer) override {
    Outcome out;
    out.notes.push_back(verified_.Note());
    out.notes.push_back(
        Format("traffic pool: %zu standby frames of %zu devices",
               traffic_.size(), fleet_.devices.size()));
    const std::uint64_t assess_before = counting_.calls;
    const auto& counters = gateway_.datapath().counters();
    const std::uint64_t received0 = counters.received;
    const std::uint64_t packet_ins0 = counters.packet_ins;
    const auto stats0 = gateway_.datapath().flow_table().stats();
    leaks_ = 0;

    Reservoir fastpath_ns;
    Reservoir packet_in_ns;
    const std::uint64_t start = NowNs();
    const std::uint64_t deadline =
        start + static_cast<std::uint64_t>(seconds * 1e9);
    constexpr std::size_t kChunk = 4'096;
    std::uint64_t end_ns = start;
    while (end_ns < deadline) {
      const std::size_t end = std::min(cursor_ + kChunk, traffic_.size());
      for (; cursor_ < end; ++cursor_) {
        const Ingest& in = traffic_[cursor_];
        const std::uint64_t before =
            tracer != nullptr ? counters.packet_ins.Load() : 0;
        const std::uint64_t t0 = NowNs();
        gateway_.Ingress(in.port, in.frame);
        const std::uint64_t t1 = NowNs();
        out.latency_us.Add(static_cast<double>(t1 - t0) / 1e3);
        end_ns = t1;
        if (tracer == nullptr) continue;
        if (counters.packet_ins == before) {
          fastpath_ns.Add(static_cast<double>(t1 - t0));
        } else {
          packet_in_ns.Add(static_cast<double>(t1 - t0));
          RecordSpan(*tracer, "sdn.packet_in", t0, t1, tracer->NewTraceId(),
                     0);
        }
      }
      if (cursor_ == traffic_.size()) cursor_ = 0;
    }
    out.seconds = static_cast<double>(end_ns - start) / 1e9;
    const std::uint64_t received = counters.received - received0;
    out.attempted = received;
    out.failed = leaks_ + verified_.failures();
    out.valid = out.failed == 0;
    out.notes.push_back(Format(
        "%llu frames forwarded; %llu reached the WAN port against their "
        "device's isolation level",
        static_cast<unsigned long long>(received),
        static_cast<unsigned long long>(leaks_)));

    if (tracer != nullptr) {
      const std::uint64_t packet_ins = counters.packet_ins - packet_ins0;
      const auto stats = gateway_.datapath().flow_table().stats();
      auto& l = out.layers;
      l["sdn.ingress_calls"] = static_cast<double>(received);
      l["sdn.ingress_ns"] = out.latency_us.mean() * 1e3;
      l["sdn.fastpath_ratio"] =
          Ratio(static_cast<double>(received - packet_ins),
                static_cast<double>(received));
      l["sdn.fastpath_ns_p50"] = fastpath_ns.Quantile(0.5);
      l["sdn.flow_hash_hit_ratio"] =
          Ratio(static_cast<double>(stats.hash_hits - stats0.hash_hits),
                static_cast<double>(stats.lookups - stats0.lookups));
      l["core.packet_in_ns_p50"] = packet_in_ns.Quantile(0.5);
      l["core.assess_calls"] =
          static_cast<double>(counting_.calls - assess_before);
    }
    return out;
  }

 private:
  static constexpr std::size_t kFleetDevices = 1'000;

  /// Counts Assess calls, so the timed part can show none happen.
  class CountingClient : public SecurityServiceClient {
   public:
    explicit CountingClient(SecurityServiceClient& inner) : inner_(inner) {}
    AssessmentResult Assess(const Fingerprint& full,
                            const FixedFingerprint& fixed) override {
      ++calls;
      return inner_.Assess(full, fixed);
    }
    std::uint64_t calls = 0;

   private:
    SecurityServiceClient& inner_;
  };

  /// A device the policy keeps off (part of) the Internet.
  struct Policed {
    IsolationLevel level = IsolationLevel::kStrict;
    std::unordered_set<std::uint32_t> allowed;
  };

  /// WAN-port output check: a frame from a strict device to a public
  /// unicast IPv4 address, or from a restricted device to one outside its
  /// allowlist, is a leak. (Flooded LAN broadcasts also reach the WAN port
  /// and are not Internet access.)
  void CheckWan(const Frame& frame) {
    const auto& b = frame.bytes;
    if (b.size() < 34 || b[12] != 0x08 || b[13] != 0x00) return;
    std::uint64_t src = 0;
    for (std::size_t i = 6; i < 12; ++i) src = (src << 8) | b[i];
    const auto it = policed_.find(src);
    if (it == policed_.end()) return;
    const Ipv4Address dst((std::uint32_t{b[30]} << 24) |
                          (std::uint32_t{b[31]} << 16) |
                          (std::uint32_t{b[32]} << 8) | b[33]);
    if (dst.IsPrivate() || dst.IsMulticast() || dst == Ipv4Address::Broadcast())
      return;
    if (it->second.level == IsolationLevel::kStrict ||
        !it->second.allowed.contains(dst.value()))
      ++leaks_;
  }

  /// Standby traffic of every fleet device, exactly as the simulator emits
  /// it (its own standby episode, or a background device's rejoin),
  /// re-addressed to the onboarded MAC. All episodes start at the same
  /// instant, as the simulator's concurrent set-ups do, and their frames
  /// interleave by time. No LAN traffic is added beyond what the episodes
  /// hold: the repository has no model of device-to-device traffic.
  void GenerateTraffic(std::uint64_t seed) {
    sentinel::devices::DeviceSimulator simulator(seed);
    std::vector<Ingest> traffic;
    for (std::size_t d = 0; d < fleet_.devices.size(); ++d) {
      const JoinDevice& device = fleet_.devices[d];
      const auto episode =
          device.type >= 0
              ? simulator.RunStandbyEpisode(device.type)
              : simulator.RunBackgroundEpisode(
                    sentinel::devices::BackgroundDeviceKind::kSmartphone);
      const std::uint64_t first = episode.trace.frames().front().timestamp_ns;
      const auto port = static_cast<PortId>(kFirstDevicePort + d % kDevicePorts);
      for (Frame frame : episode.trace.frames()) {
        RewriteMac(frame, episode.device_mac, device.mac);
        frame.timestamp_ns -= first;
        const bool from_device = MacAt(frame, 6) == device.mac;
        auto in = Route(std::move(frame),
                        from_device ? std::optional(port) : std::nullopt);
        if (in) traffic.push_back(std::move(*in));
      }
    }
    std::stable_sort(traffic.begin(), traffic.end(),
                     [](const Ingest& x, const Ingest& y) {
                       return x.frame.timestamp_ns < y.frame.timestamp_ns;
                     });
    traffic_ = std::move(traffic);
  }

  std::unique_ptr<SecurityService> service_;
  JoinPool fleet_;
  RecordingClient recorder_;
  CountingClient counting_;
  SecurityGateway gateway_;
  Verified verified_;
  std::unordered_map<std::uint64_t, Policed> policed_;
  std::vector<Ingest> traffic_;
  std::size_t cursor_ = 0;
  std::uint64_t leaks_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeGatewayOnboard(std::uint64_t seed) {
  return std::make_unique<GatewayOnboard>(seed);
}

std::unique_ptr<Workload> MakeGatewayForward(std::uint64_t seed) {
  return std::make_unique<GatewayForward>(seed);
}

}  // namespace e2ebench
