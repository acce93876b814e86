// Software switch (Open vSwitch stand-in): ports, flow-table lookup and a
// packet-in miss path to the controller. The Security Gateway's datapath.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "sdn/flow_table.h"
#include "util/relaxed_counter.h"

namespace sentinel::sdn {

/// Delivery callback for a port: invoked when the switch outputs a frame.
using PortOutput = std::function<void(const net::Frame&)>;

class Controller;  // see controller.h

/// A software switch with numbered ports and an OpenFlow-style flow table.
/// Frames enter via Inject(); matched rules forward or drop, misses go to
/// the controller as packet-in events.
class SoftwareSwitch {
 public:
  explicit SoftwareSwitch(std::string datapath_id = "sgw-ovs",
                          FlowTableOptions table_options = {});

  /// Attaches a port. Delivering to an unattached port is a no-op.
  void AttachPort(PortId port, PortOutput output);
  void DetachPort(PortId port);

  /// Binds the controller handling packet-in events (not owned).
  void SetController(Controller* controller) { controller_ = controller; }

  /// Processes an incoming frame on `in_port`. Returns true if the frame
  /// was forwarded (or flooded), false if dropped or malformed.
  ///
  /// Thread-safety: concurrent Inject() calls are safe once the topology is
  /// static (no concurrent AttachPort/DetachPort/SetController) — the flow
  /// table match is lock-protected and copy-out, and the counters are
  /// relaxed atomics. Misses punt to the controller on the calling thread.
  bool Inject(PortId in_port, const net::Frame& frame);

  /// OpenFlow PacketOut: emits `frame` on `out_port` (or kPortFlood to all
  /// ports except `in_port`) without a table lookup. Used by the
  /// controller to forward the frame that triggered a packet-in.
  void PacketOut(PortId out_port, PortId in_port, const net::Frame& frame);

  /// Housekeeping: expires timed-out flow rules as of `now_ns`.
  std::size_t ExpireFlows(std::uint64_t now_ns) {
    return table_.ExpireRules(now_ns);
  }

  FlowTable& flow_table() { return table_; }
  [[nodiscard]] const FlowTable& flow_table() const { return table_; }
  [[nodiscard]] const std::string& datapath_id() const { return datapath_id_; }

  // Relaxed atomics: Inject() may run from many ingress threads at once
  // (the flow table serializes rule state per shard; these are statistics).
  struct Counters {
    util::RelaxedCounter received;
    util::RelaxedCounter forwarded;
    util::RelaxedCounter flooded;
    util::RelaxedCounter dropped;
    util::RelaxedCounter packet_ins;
    util::RelaxedCounter malformed;
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  /// Attaches datapath telemetry: the ingress stage's histogram timing
  /// Inject() end-to-end (obs/stage.h), registry counters mirroring the
  /// Counters struct, and the embedded flow table's series (see
  /// FlowTable::set_metrics). nullptr detaches.
  void set_metrics(obs::MetricsRegistry* registry);

  /// Total memory attributable to the datapath (flow table + port map),
  /// for the Fig. 6c accounting.
  [[nodiscard]] std::size_t MemoryBytes() const;

 private:
  struct SwitchMetrics {
    obs::Histogram* ingress_ns = nullptr;
    obs::Counter* received_total = nullptr;
    obs::Counter* forwarded_total = nullptr;
    obs::Counter* flooded_total = nullptr;
    obs::Counter* dropped_total = nullptr;
    obs::Counter* packet_ins_total = nullptr;
    obs::Counter* malformed_total = nullptr;
  };

  void Output(PortId out_port, PortId in_port, const net::Frame& frame);
  void Flood(PortId in_port, const net::Frame& frame);

  std::string datapath_id_;
  FlowTable table_;
  std::unordered_map<PortId, PortOutput> ports_;
  Controller* controller_ = nullptr;
  Counters counters_;
  SwitchMetrics handles_;
};

}  // namespace sentinel::sdn
