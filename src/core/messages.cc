#include "core/messages.h"

#include <algorithm>
#include <cassert>

#include "common/byte_io.h"
#include "net/ethernet.h"
#include "sim/frame.h"

namespace portland::core {

// ---------------------------------------------------------------------------
// LDP frames
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> LdpMessage::to_frame() const {
  std::vector<std::uint8_t> out = sim::acquire_frame_bytes();
  out.reserve(kFrameSize);
  ByteWriter w(out);
  // LDP frames are link-local: broadcast dst, synthetic src derived from
  // the switch id (switches have no real MAC of their own).
  net::EthernetHeader eth{MacAddress::broadcast(),
                          MacAddress::from_u64(from.switch_id & 0xFFFFFFFFFFFF),
                          net::to_u16(net::EtherType::kLdp)};
  eth.serialize(w);
  w.u8(static_cast<std::uint8_t>(type));
  from.serialize(w);
  w.u16(sender_port);
  w.u64(heard_id);
  w.u8(position);
  w.u32(nonce);
  assert(out.size() == kFrameSize);
  return out;
}

std::optional<LdpMessage> LdpMessage::from_frame(
    std::span<const std::uint8_t> frame) {
  ByteReader r(frame);
  const net::EthernetHeader eth = net::EthernetHeader::deserialize(r);
  if (!r.ok() || !eth.is(net::EtherType::kLdp)) return std::nullopt;
  LdpMessage m;
  const std::uint8_t type = r.u8();
  m.from = SwitchLocator::deserialize(r);
  m.sender_port = r.u16();
  m.heard_id = r.u64();
  m.position = r.u8();
  m.nonce = r.u32();
  if (!r.ok()) return std::nullopt;
  if (type < 1 || type > 4) return std::nullopt;
  m.type = static_cast<LdpType>(type);
  return m;
}

// ---------------------------------------------------------------------------
// Control messages
// ---------------------------------------------------------------------------

namespace {

enum class Tag : std::uint8_t {
  kSwitchHello = 1,
  kPodRequest,
  kPodAssignment,
  kHostRegister,
  kArpQuery,
  kArpResponse,
  kFaultNotify,
  kPruneUpdate,
  kMcastJoin,
  kMcastLeave,
  kMcastSenderSeen,
  kMcastInstall,
  kMcastRemove,
  kInvalidateHost,
  kFmDelta,
};

struct BodyWriter {
  ByteWriter& w;

  void operator()(const SwitchHello& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::kSwitchHello));
    m.self.serialize(w);
    w.u16(static_cast<std::uint16_t>(m.neighbors.size()));
    for (const NeighborEntry& n : m.neighbors) {
      w.u16(n.port);
      n.neighbor.serialize(w);
    }
  }
  void operator()(const PodRequest&) const {
    w.u8(static_cast<std::uint8_t>(Tag::kPodRequest));
  }
  void operator()(const PodAssignment& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::kPodAssignment));
    w.u16(m.pod);
  }
  void operator()(const HostRegister& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::kHostRegister));
    m.ip.serialize(w);
    m.amac.serialize(w);
    m.pmac.serialize(w);
    w.u16(m.edge_port);
  }
  void operator()(const ArpQuery& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::kArpQuery));
    w.u32(m.query_id);
    m.ip.serialize(w);
  }
  void operator()(const ArpResponse& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::kArpResponse));
    w.u32(m.query_id);
    m.ip.serialize(w);
    m.pmac.serialize(w);
    w.u8(m.found ? 1 : 0);
  }
  void operator()(const FaultNotify& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::kFaultNotify));
    w.u16(m.port);
    w.u64(m.neighbor);
    w.u8(m.link_up ? 1 : 0);
  }
  void operator()(const PruneUpdate& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::kPruneUpdate));
    w.u8(m.flush ? 1 : 0);
    w.u16(static_cast<std::uint16_t>(m.entries.size()));
    for (const PruneEntry& e : m.entries) {
      w.u16(e.dst_pod);
      w.u8(e.dst_position);
      w.u64(e.avoid);
      w.u8(e.add ? 1 : 0);
    }
  }
  void operator()(const McastJoin& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::kMcastJoin));
    m.group.serialize(w);
    w.u16(m.host_port);
  }
  void operator()(const McastLeave& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::kMcastLeave));
    m.group.serialize(w);
    w.u16(m.host_port);
  }
  void operator()(const McastSenderSeen& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::kMcastSenderSeen));
    m.group.serialize(w);
  }
  void operator()(const McastInstall& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::kMcastInstall));
    m.group.serialize(w);
    w.u16(static_cast<std::uint16_t>(m.ports.size()));
    for (const std::uint16_t p : m.ports) w.u16(p);
  }
  void operator()(const McastRemove& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::kMcastRemove));
    m.group.serialize(w);
  }
  void operator()(const InvalidateHost& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::kInvalidateHost));
    m.ip.serialize(w);
    m.old_pmac.serialize(w);
    m.new_pmac.serialize(w);
  }
  void operator()(const FmDelta& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::kFmDelta));
    w.u32(m.section);
    w.u64(m.version);
    w.u32(static_cast<std::uint32_t>(m.image.size()));
    w.bytes(m.image);
  }
};

/// Encoded body size after the tag byte, mirroring BodyWriter field by
/// field (a locator is 12 bytes, an IP 4, a MAC 6).
struct BodySize {
  std::size_t operator()(const SwitchHello& m) const {
    return 12 + 2 + m.neighbors.size() * (2 + 12);
  }
  std::size_t operator()(const PodRequest&) const { return 0; }
  std::size_t operator()(const PodAssignment&) const { return 2; }
  std::size_t operator()(const HostRegister&) const { return 4 + 6 + 6 + 2; }
  std::size_t operator()(const ArpQuery&) const { return 4 + 4; }
  std::size_t operator()(const ArpResponse&) const { return 4 + 4 + 6 + 1; }
  std::size_t operator()(const FaultNotify&) const { return 2 + 8 + 1; }
  std::size_t operator()(const PruneUpdate& m) const {
    return 1 + 2 + m.entries.size() * (2 + 1 + 8 + 1);
  }
  std::size_t operator()(const McastJoin&) const { return 4 + 2; }
  std::size_t operator()(const McastLeave&) const { return 4 + 2; }
  std::size_t operator()(const McastSenderSeen&) const { return 4; }
  std::size_t operator()(const McastInstall& m) const {
    return 4 + 2 + m.ports.size() * 2;
  }
  std::size_t operator()(const McastRemove&) const { return 4; }
  std::size_t operator()(const InvalidateHost&) const { return 4 + 6 + 6; }
  std::size_t operator()(const FmDelta& m) const {
    return 4 + 8 + 4 + m.image.size();
  }
};

}  // namespace

std::size_t control_wire_size(const ControlMessage& msg) {
  return 8 + 1 + std::visit(BodySize{}, msg.body);  // sender, tag, body
}

std::vector<std::uint8_t> serialize_control(const ControlMessage& msg) {
  // Encoded into a recycled frame buffer reserved to the exact size, so
  // a steady-state send allocates nothing.
  const std::size_t size = control_wire_size(msg);
  std::vector<std::uint8_t> out = sim::acquire_frame_bytes();
  out.reserve(size);
  ByteWriter w(out);
  w.u64(msg.sender);
  std::visit(BodyWriter{w}, msg.body);
  assert(out.size() == size);
  return out;
}

std::optional<ControlMessage> parse_control(
    std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  ControlMessage msg;
  msg.sender = r.u64();
  const std::uint8_t tag = r.u8();
  switch (static_cast<Tag>(tag)) {
    case Tag::kSwitchHello: {
      SwitchHello m;
      m.self = SwitchLocator::deserialize(r);
      const std::uint16_t n = r.u16();
      // One allocation per periodic hello; a count the bytes cannot hold
      // (a damaged message) reserves no more than they can.
      m.neighbors.reserve(std::min<std::size_t>(n, r.remaining_size() / 14));
      for (std::uint16_t i = 0; i < n && r.ok(); ++i) {
        NeighborEntry e;
        e.port = r.u16();
        e.neighbor = SwitchLocator::deserialize(r);
        m.neighbors.push_back(e);
      }
      msg.body = std::move(m);
      break;
    }
    case Tag::kPodRequest:
      msg.body = PodRequest{};
      break;
    case Tag::kPodAssignment: {
      PodAssignment m;
      m.pod = r.u16();
      msg.body = m;
      break;
    }
    case Tag::kHostRegister: {
      HostRegister m;
      m.ip = Ipv4Address::deserialize(r);
      m.amac = MacAddress::deserialize(r);
      m.pmac = MacAddress::deserialize(r);
      m.edge_port = r.u16();
      msg.body = m;
      break;
    }
    case Tag::kArpQuery: {
      ArpQuery m;
      m.query_id = r.u32();
      m.ip = Ipv4Address::deserialize(r);
      msg.body = m;
      break;
    }
    case Tag::kArpResponse: {
      ArpResponse m;
      m.query_id = r.u32();
      m.ip = Ipv4Address::deserialize(r);
      m.pmac = MacAddress::deserialize(r);
      m.found = r.u8() != 0;
      msg.body = m;
      break;
    }
    case Tag::kFaultNotify: {
      FaultNotify m;
      m.port = r.u16();
      m.neighbor = r.u64();
      m.link_up = r.u8() != 0;
      msg.body = m;
      break;
    }
    case Tag::kPruneUpdate: {
      PruneUpdate m;
      m.flush = r.u8() != 0;
      const std::uint16_t n = r.u16();
      for (std::uint16_t i = 0; i < n && r.ok(); ++i) {
        PruneEntry e;
        e.dst_pod = r.u16();
        e.dst_position = r.u8();
        e.avoid = r.u64();
        e.add = r.u8() != 0;
        m.entries.push_back(e);
      }
      msg.body = std::move(m);
      break;
    }
    case Tag::kMcastJoin: {
      McastJoin m;
      m.group = Ipv4Address::deserialize(r);
      m.host_port = r.u16();
      msg.body = m;
      break;
    }
    case Tag::kMcastLeave: {
      McastLeave m;
      m.group = Ipv4Address::deserialize(r);
      m.host_port = r.u16();
      msg.body = m;
      break;
    }
    case Tag::kMcastSenderSeen: {
      McastSenderSeen m;
      m.group = Ipv4Address::deserialize(r);
      msg.body = m;
      break;
    }
    case Tag::kMcastInstall: {
      McastInstall m;
      m.group = Ipv4Address::deserialize(r);
      const std::uint16_t n = r.u16();
      for (std::uint16_t i = 0; i < n && r.ok(); ++i) {
        m.ports.push_back(r.u16());
      }
      msg.body = std::move(m);
      break;
    }
    case Tag::kMcastRemove: {
      McastRemove m;
      m.group = Ipv4Address::deserialize(r);
      msg.body = m;
      break;
    }
    case Tag::kInvalidateHost: {
      InvalidateHost m;
      m.ip = Ipv4Address::deserialize(r);
      m.old_pmac = MacAddress::deserialize(r);
      m.new_pmac = MacAddress::deserialize(r);
      msg.body = m;
      break;
    }
    case Tag::kFmDelta: {
      FmDelta m;
      m.section = r.u32();
      m.version = r.u64();
      const std::uint32_t n = r.u32();
      const auto view = r.view(n);
      m.image.assign(view.begin(), view.end());
      msg.body = std::move(m);
      break;
    }
    default:
      return std::nullopt;
  }
  if (!r.ok()) return std::nullopt;
  return msg;
}

const char* control_type_name(const ControlBody& body) {
  struct Namer {
    const char* operator()(const SwitchHello&) const { return "switch_hello"; }
    const char* operator()(const PodRequest&) const { return "pod_request"; }
    const char* operator()(const PodAssignment&) const {
      return "pod_assignment";
    }
    const char* operator()(const HostRegister&) const {
      return "host_register";
    }
    const char* operator()(const ArpQuery&) const { return "arp_query"; }
    const char* operator()(const ArpResponse&) const { return "arp_response"; }
    const char* operator()(const FaultNotify&) const { return "fault_notify"; }
    const char* operator()(const PruneUpdate&) const { return "prune_update"; }
    const char* operator()(const McastJoin&) const { return "mcast_join"; }
    const char* operator()(const McastLeave&) const { return "mcast_leave"; }
    const char* operator()(const McastSenderSeen&) const {
      return "mcast_sender_seen";
    }
    const char* operator()(const McastInstall&) const {
      return "mcast_install";
    }
    const char* operator()(const McastRemove&) const { return "mcast_remove"; }
    const char* operator()(const InvalidateHost&) const {
      return "invalidate_host";
    }
    const char* operator()(const FmDelta&) const { return "fm_delta"; }
  };
  return std::visit(Namer{}, body);
}

}  // namespace portland::core
