#include "sdn/flow.h"

#include <sstream>

namespace sentinel::sdn {

namespace {

bool IpEquals(const std::optional<net::IpAddress>& packet_ip,
              net::Ipv4Address want) {
  return packet_ip.has_value() && packet_ip->IsV4() && packet_ip->v4() == want;
}

}  // namespace

bool FlowMatch::Matches(const net::ParsedPacket& p, PortId in) const {
  if (in_port && *in_port != in) return false;
  if (eth_src && *eth_src != p.src_mac) return false;
  if (eth_dst && *eth_dst != p.dst_mac) return false;
  if (eth_type) {
    const bool is_ip = p.protocols.Has(net::Protocol::kIp);
    const bool is_arp = p.protocols.Has(net::Protocol::kArp);
    if (*eth_type == net::kEtherTypeIpv4 && !is_ip) return false;
    if (*eth_type == net::kEtherTypeArp && !is_arp) return false;
    if (*eth_type != net::kEtherTypeIpv4 && *eth_type != net::kEtherTypeArp &&
        (is_ip || is_arp))
      return false;
  }
  if (ip_src && !IpEquals(p.src_ip, *ip_src)) return false;
  if (ip_dst && !IpEquals(p.dst_ip, *ip_dst)) return false;
  if (ip_proto) {
    const bool tcp = p.protocols.Has(net::Protocol::kTcp);
    const bool udp = p.protocols.Has(net::Protocol::kUdp);
    const bool icmp = p.protocols.Has(net::Protocol::kIcmp);
    switch (*ip_proto) {
      case net::kIpProtoTcp:
        if (!tcp) return false;
        break;
      case net::kIpProtoUdp:
        if (!udp) return false;
        break;
      case net::kIpProtoIcmp:
        if (!icmp) return false;
        break;
      default:
        return false;
    }
  }
  if (tp_src && (!p.src_port || *p.src_port != *tp_src)) return false;
  if (tp_dst && (!p.dst_port || *p.dst_port != *tp_dst)) return false;
  return true;
}

bool FlowMatch::IsWildcard() const {
  return !in_port && !eth_src && !eth_dst && !eth_type && !ip_src && !ip_dst &&
         !ip_proto && !tp_src && !tp_dst;
}

std::string FlowMatch::ToString() const {
  std::ostringstream out;
  bool any = false;
  auto field = [&](const char* name, const std::string& value) {
    if (any) out << ",";
    out << name << "=" << value;
    any = true;
  };
  if (in_port) field("in_port", std::to_string(*in_port));
  if (eth_src) field("eth_src", eth_src->ToString());
  if (eth_dst) field("eth_dst", eth_dst->ToString());
  if (eth_type) field("eth_type", std::to_string(*eth_type));
  if (ip_src) field("ip_src", ip_src->ToString());
  if (ip_dst) field("ip_dst", ip_dst->ToString());
  if (ip_proto) field("ip_proto", std::to_string(*ip_proto));
  if (tp_src) field("tp_src", std::to_string(*tp_src));
  if (tp_dst) field("tp_dst", std::to_string(*tp_dst));
  if (!any) out << "*";
  return out.str();
}

std::string FlowRule::ToString() const {
  std::ostringstream out;
  out << "prio=" << priority << " match[" << match.ToString() << "] -> ";
  if (actions.empty()) out << "drop";
  for (const auto& action : actions) {
    if (std::holds_alternative<ActionOutput>(action))
      out << "output:" << std::get<ActionOutput>(action).port << " ";
    else if (std::holds_alternative<ActionFlood>(action))
      out << "flood ";
    else
      out << "controller ";
  }
  return out.str();
}

std::size_t FlowRule::MemoryBytes() const {
  return sizeof(FlowRule) + actions.capacity() * sizeof(FlowAction);
}

}  // namespace sentinel::sdn
