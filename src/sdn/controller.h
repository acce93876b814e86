// SDN controller (Floodlight stand-in) with pluggable modules. The
// Sentinel enforcement logic is implemented as one such module
// (core/sentinel_module.h), exactly as the paper describes: "We wrote a
// custom module for Floodlight SDN controller to perform network
// monitoring tasks, fingerprint generation and to manage communications
// with IoT Security Service."
//
// Fleet scale: the learning-switch MAC table is a util::MacTable — sharded
// by MAC with per-shard locks, and optionally bounded — a per-shard LRU cap
// evicts the least-recently-learned station so a gateway tracking churning
// fleets (ROADMAP: 1M+ MACs) holds bounded memory. Defaults (one shard, no
// cap) reproduce the seed behavior exactly.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "sdn/switch.h"
#include "util/mac_table.h"

namespace sentinel::sdn {

/// Controller module interface. Modules see every packet-in and can
/// install flow rules through the controller.
class ControllerModule {
 public:
  virtual ~ControllerModule() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Result of packet-in handling.
  enum class Verdict {
    kContinue,  // let later modules (and default forwarding) run
    kHandled,   // stop the chain; the module forwarded/dropped itself
  };

  /// Called for every packet the switch could not handle in its tables.
  virtual Verdict OnPacketIn(SoftwareSwitch& sw, PortId in_port,
                             const net::Frame& frame,
                             const net::ParsedPacket& packet) = 0;
};

struct ControllerOptions {
  /// Learned-MAC table shards; rounded up to a power of two.
  std::size_t shard_count = 1;
  /// Bounded-memory tier: maximum learned stations per shard; 0 (default)
  /// disables eviction. Evicts the least-recently-learned MAC.
  std::size_t max_learned_macs_per_shard = 0;
};

/// A simple synchronous controller: learning-switch forwarding, with a
/// module chain consulted first.
class Controller {
 public:
  Controller() : Controller(ControllerOptions{}) {}
  explicit Controller(ControllerOptions options);

  /// Registers a module; modules run in registration order.
  void AddModule(std::shared_ptr<ControllerModule> module) {
    modules_.push_back(std::move(module));
  }

  /// Entry point invoked by switches on table miss, with the packet the
  /// switch already parsed from `frame`. Applies modules, then
  /// MAC-learning forwarding: learned destination -> output +
  /// install exact flow, unknown -> flood. Safe to call concurrently once
  /// the module chain is registered (module handlers own their internal
  /// synchronization; the MAC table locks per shard).
  void OnPacketIn(SoftwareSwitch& sw, PortId in_port, const net::Frame& frame,
                  const net::ParsedPacket& packet);

  /// Installs a rule into the switch's table (FlowMod).
  static void InstallRule(SoftwareSwitch& sw, FlowRule rule) {
    sw.flow_table().Add(std::move(rule));
  }

  /// Snapshot of the learned MAC -> port table (copies; the live table is
  /// sharded and lock-protected).
  [[nodiscard]] std::unordered_map<std::uint64_t, PortId> mac_table() const;
  [[nodiscard]] std::size_t learned_mac_count() const { return macs_.size(); }
  /// Stations evicted by the bounded-memory tier so far.
  [[nodiscard]] std::uint64_t macs_evicted_total() const {
    return macs_.evicted_total();
  }

  /// Attaches the `sentinel_controller_mac_evicted_total` counter and the
  /// `sentinel_controller_learned_macs` gauge. nullptr detaches.
  void set_metrics(obs::MetricsRegistry* registry);

 private:
  /// Records src_mac -> port, refreshing recency and evicting past the cap.
  void Learn(std::uint64_t mac, PortId port);

  std::vector<std::shared_ptr<ControllerModule>> modules_;
  /// Learned station -> port, recency = last time the station was learned.
  util::MacTable<PortId> macs_;
  obs::Counter* evicted_metric_ = nullptr;
  obs::Gauge* learned_gauge_ = nullptr;
};

}  // namespace sentinel::sdn
