#include "netsim/network.h"

namespace sentinel::netsim {

// ---- SharedMedium ----------------------------------------------------------

SimTime SharedMedium::Transmit(SimTime now, std::size_t bytes) {
  const SimTime start = std::max(now, busy_until_);
  const auto airtime = static_cast<SimTime>(
      static_cast<double>(bytes) * 8.0 / bits_per_ns_);
  busy_until_ = start + airtime + overhead_ns_;
  return busy_until_;
}

// ---- GatewayCpu ------------------------------------------------------------

SimTime GatewayCpu::Process(SimTime now) {
  const SimTime cost = service_ns_ + (filtering_ ? filter_extra_ns_ : 0);
  const SimTime start = std::max(now, busy_until_);
  busy_until_ = start + cost;
  busy_ns_ += cost;
  return busy_until_;
}

double GatewayCpu::Utilization(SimTime window_start, SimTime window_end,
                               double base_load) const {
  if (window_end <= window_start) return base_load;
  const double busy = static_cast<double>(busy_ns_) /
                      static_cast<double>(window_end - window_start);
  const double util = base_load + busy;
  return util > 1.0 ? 1.0 : util;
}

// ---- SimHost ---------------------------------------------------------------

SimHost::SimHost(Network& network, std::string name, net::MacAddress mac,
                 net::Ipv4Address ip, LinkProfile link, sdn::PortId port)
    : network_(network),
      name_(std::move(name)),
      mac_(mac),
      ip_(ip),
      link_(link),
      port_(port) {}

void SimHost::SendFrame(net::Frame frame) {
  ++sent_;
  network_.HostTransmit(*this, std::move(frame));
}

void SimHost::Ping(const SimHost& target,
                   std::function<void(SimTime)> on_rtt, std::size_t payload) {
  const std::uint16_t id = next_icmp_id_++;
  const std::uint16_t seq = 1;
  pending_pings_[(std::uint32_t{id} << 16) | seq] = {
      network_.queue().now(), std::move(on_rtt)};
  auto request = net::IcmpMessage::EchoRequest(id, seq, payload);
  SendFrame(net::BuildIcmp4Frame(network_.queue().now(), mac_, target.mac(),
                                 ip_, target.ip(), request));
}

void SimHost::SendUdp(const SimHost& target, std::uint16_t dst_port,
                      std::size_t payload) {
  net::UdpDatagram udp;
  udp.src_port = next_udp_port_++;
  if (next_udp_port_ < 50000) next_udp_port_ = 50000;
  udp.dst_port = dst_port;
  udp.payload.assign(payload, 0x5a);
  SendFrame(net::BuildUdp4Frame(network_.queue().now(), mac_, target.mac(),
                                ip_, target.ip(), udp));
}

void SimHost::Deliver(const net::Frame& frame) {
  ++received_;
  net::ParsedPacket packet;
  try {
    packet = net::ParseFrame(frame);
  } catch (const net::CodecError&) {
    return;
  }
  if (!packet.protocols.Has(net::Protocol::kIcmp)) return;

  // Re-decode the ICMP body to answer echoes / match replies.
  net::ByteReader r(frame.bytes);
  net::EthernetHeader::Decode(r);
  std::size_t payload_len = 0;
  net::Ipv4Header::Decode(r, payload_len);
  const auto icmp = net::IcmpMessage::Decode(r, payload_len);

  if (icmp.IsEchoRequest()) {
    SendFrame(net::BuildIcmp4Frame(network_.queue().now(), mac_,
                                   packet.src_mac,
                                   ip_, packet.src_ip->v4(),
                                   net::IcmpMessage::EchoReply(icmp)));
    return;
  }
  if (icmp.IsEchoReply()) {
    const std::uint32_t key =
        (std::uint32_t{icmp.identifier} << 16) | icmp.sequence;
    const auto it = pending_pings_.find(key);
    if (it != pending_pings_.end()) {
      const SimTime rtt = network_.queue().now() - it->second.first;
      auto callback = std::move(it->second.second);
      pending_pings_.erase(it);
      if (callback) callback(rtt);
    }
  }
}

// ---- Network ---------------------------------------------------------------

Network::Network(std::uint64_t seed)
    : switch_("security-gateway"),
      cpu_(/*service_ns=*/150'000, /*filter_extra_ns=*/6'000),
      rng_(seed) {
  switch_.SetController(&controller_);
}

SimHost* Network::AddHost(const std::string& name, net::Ipv4Address ip,
                          LinkProfile link) {
  const sdn::PortId port = next_port_++;
  // Locally-administered MAC derived from the port number.
  auto mac = net::MacAddress::FromUint64(0x020000000000ull + port);
  auto host = std::make_unique<SimHost>(*this, name, mac, ip, link, port);
  SimHost* raw = host.get();
  hosts_.push_back(std::move(host));
  switch_.AttachPort(port, [this, raw](const net::Frame& frame) {
    DeliverToHost(*raw, frame);
  });
  return raw;
}

SimHost* Network::HostByIp(net::Ipv4Address ip) {
  for (auto& host : hosts_)
    if (host->ip() == ip) return host.get();
  return nullptr;
}

void Network::InstallStaticForwarding() {
  for (const auto& src : hosts_) {
    for (const auto& dst : hosts_) {
      if (src == dst) continue;
      sdn::FlowRule rule;
      rule.priority = 10;
      rule.match.eth_src = src->mac();
      rule.match.eth_dst = dst->mac();
      rule.actions = {sdn::ActionOutput{dst->port()}};
      switch_.flow_table().Add(std::move(rule));
    }
  }
}

void Network::StartFlow(SimHost& src, const SimHost& dst,
                        double packets_per_second, std::size_t payload,
                        SimTime duration_ns) {
  const auto interval =
      static_cast<SimTime>(1e9 / packets_per_second);
  const SimTime stop = queue_.now() + duration_ns;
  // Desynchronize flows with a random phase. The recurring event holds the
  // callback via shared ownership, but the callback itself captures only a
  // weak reference to avoid an ownership cycle; the network keeps the flow
  // alive in flows_.
  std::uniform_int_distribution<SimTime> phase(0, interval);
  auto tick = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak_tick = tick;
  SimHost* src_ptr = &src;
  const SimHost* dst_ptr = &dst;
  *tick = [this, src_ptr, dst_ptr, payload, interval, stop, weak_tick]() {
    if (queue_.now() >= stop) return;
    src_ptr->SendUdp(*dst_ptr, 7000, payload);
    queue_.ScheduleAfter(interval, [weak_tick]() {
      if (const auto self = weak_tick.lock()) (*self)();
    });
  };
  flows_.push_back(tick);
  queue_.ScheduleAfter(phase(rng_), [weak_tick]() {
    if (const auto self = weak_tick.lock()) (*self)();
  });
}

SimTime Network::LinkDelay(const LinkProfile& link) {
  std::uniform_int_distribution<SimTime> jitter(0, 2 * link.jitter_ns);
  const SimTime base = link.base_latency_ns - link.jitter_ns;
  return base + jitter(rng_);
}

bool Network::LinkDrops(const LinkProfile& link) {
  if (link.loss_probability <= 0.0) return false;
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  if (coin(rng_) >= link.loss_probability) return false;
  ++frames_lost_;
  return true;
}

void Network::HostTransmit(SimHost& host, net::Frame frame) {
  if (LinkDrops(host.link())) return;
  // WiFi frames first serialize on the shared medium (contention), then
  // propagate; wired links only propagate.
  SimTime tx_done = queue_.now();
  if (host.link().kind == LinkKind::kWifi) {
    tx_done = wifi_.Transmit(queue_.now(), frame.size());
  }
  const SimTime ready = tx_done + LinkDelay(host.link());
  const sdn::PortId port = host.port();
  queue_.ScheduleAt(ready, [this, port, frame = std::move(frame)]() {
    // Arrival at the gateway: queue behind the CPU, then run the datapath.
    SimTime done = cpu_.Process(queue_.now());
    if (cpu_.filtering()) done += filtering_pipeline_ns_;
    queue_.ScheduleAt(done, [this, port, frame]() {
      net::Frame stamped = frame;
      stamped.timestamp_ns = queue_.now();
      switch_.Inject(port, stamped);
    });
  });
}

void Network::DeliverToHost(SimHost& host, const net::Frame& frame) {
  if (LinkDrops(host.link())) return;
  SimTime tx_done = queue_.now();
  if (host.link().kind == LinkKind::kWifi) {
    tx_done = wifi_.Transmit(queue_.now(), frame.size());
  }
  const SimTime ready = tx_done + LinkDelay(host.link());
  SimHost* target = &host;
  queue_.ScheduleAt(ready, [target, frame]() { target->Deliver(frame); });
}

std::size_t Network::GatewayMemoryBytes(std::size_t extra_bytes) const {
  return base_memory_bytes_ + switch_.MemoryBytes() + extra_bytes;
}

}  // namespace sentinel::netsim
