#include "net/packet.h"

#include <algorithm>
#include <cassert>
#include <mutex>
#include <new>
#include <utility>

#include "common/byte_io.h"

namespace portland::net {

namespace {
// Parse counters are kept per thread (shard workers increment them with no
// synchronization) and aggregated on demand. Each thread's block registers
// itself; exited threads fold their totals into `retired`.
struct StatsRegistry {
  std::mutex mutex;
  std::vector<const ParseStats*> live;
  ParseStats retired;
};
StatsRegistry& stats_registry() {
  static StatsRegistry reg;
  return reg;
}

void add_into(ParseStats& into, const ParseStats& from) {
  into.parse_calls += from.parse_calls;
  into.meta_hits += from.meta_hits;
  into.meta_attaches += from.meta_attaches;
  into.rewrite_copies += from.rewrite_copies;
  into.rewrite_in_place += from.rewrite_in_place;
}

struct TlsStats {
  ParseStats stats;
  TlsStats() {
    auto& reg = stats_registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    reg.live.push_back(&stats);
  }
  ~TlsStats() {
    auto& reg = stats_registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    add_into(reg.retired, stats);
    std::erase(reg.live, &stats);
  }
};
ParseStats& tls_stats() {
  thread_local TlsStats t;
  return t.stats;
}
}  // namespace

ParseStats parse_stats() {
  auto& reg = stats_registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  ParseStats total = reg.retired;
  for (const ParseStats* s : reg.live) add_into(total, *s);
  return total;
}

namespace {
/// Fills the flow key + hash once the headers are known; every downstream
/// ECMP decision then reads the cached hash instead of rehashing.
void finish_flow(ParsedFrame& p) {
  if (!p.ipv4.has_value()) return;
  p.flow.src_ip = p.ipv4->src;
  p.flow.dst_ip = p.ipv4->dst;
  p.flow.protocol = p.ipv4->protocol;
  if (p.udp.has_value()) {
    p.flow.src_port = p.udp->src_port;
    p.flow.dst_port = p.udp->dst_port;
  } else if (p.tcp.has_value()) {
    p.flow.src_port = p.tcp->src_port;
    p.flow.dst_port = p.tcp->dst_port;
  }
  p.flow_hash = flow_hash(p.flow);
}
}  // namespace

ParsedFrame parse_frame(std::span<const std::uint8_t> bytes) {
  ++tls_stats().parse_calls;
  ParsedFrame p;
  ByteReader r(bytes);
  p.eth = EthernetHeader::deserialize(r);
  if (!r.ok()) return p;

  if (p.eth.is(EtherType::kArp)) {
    ArpMessage arp;
    if (!ArpMessage::deserialize(r, &arp)) return p;
    p.arp = arp;
    p.valid = true;
    return p;
  }

  if (p.eth.is(EtherType::kIpv4)) {
    Ipv4Header ip;
    if (!Ipv4Header::deserialize(r, &ip)) return p;
    p.ipv4 = ip;
    if (ip.protocol == kProtocolUdp) {
      UdpHeader udp;
      if (!UdpHeader::deserialize(r, &udp)) return p;
      p.udp = udp;
      const std::size_t data = udp.length - UdpHeader::kSize;
      if (r.remaining_size() < data) return p;
      p.payload = r.remaining().subspan(0, data);
    } else if (ip.protocol == kProtocolTcp) {
      TcpHeader tcp;
      if (!TcpHeader::deserialize(r, &tcp)) return p;
      p.tcp = tcp;
      const std::size_t data = ip.payload_length() >= TcpHeader::kSize
                                   ? ip.payload_length() - TcpHeader::kSize
                                   : 0;
      if (r.remaining_size() < data) return p;
      p.payload = r.remaining().subspan(0, data);
    } else {
      p.payload = r.remaining();
    }
    p.valid = true;
    finish_flow(p);
    return p;
  }

  // Control ethertypes (LDP, STP, ...) are parsed by their own modules;
  // the Ethernet header alone is a valid parse here.
  p.payload = r.remaining();
  p.valid = true;
  return p;
}

std::vector<std::uint8_t> build_arp_frame(MacAddress eth_dst,
                                          MacAddress eth_src,
                                          const ArpMessage& arp) {
  std::vector<std::uint8_t> out = sim::acquire_frame_bytes();
  out.reserve(EthernetHeader::kSize + ArpMessage::kSize);
  ByteWriter w(out);
  EthernetHeader eth{eth_dst, eth_src, to_u16(EtherType::kArp)};
  eth.serialize(w);
  arp.serialize(w);
  return out;
}

std::vector<std::uint8_t> build_udp_frame(MacAddress eth_dst,
                                          MacAddress eth_src,
                                          Ipv4Address ip_src,
                                          Ipv4Address ip_dst,
                                          std::uint16_t src_port,
                                          std::uint16_t dst_port,
                                          std::span<const std::uint8_t> payload,
                                          std::uint8_t ttl) {
  assert(payload.size() + UdpHeader::kSize + Ipv4Header::kSize <=
         kEthernetMtu);
  std::vector<std::uint8_t> out = sim::acquire_frame_bytes();
  out.reserve(EthernetHeader::kSize + Ipv4Header::kSize + UdpHeader::kSize +
              payload.size());
  ByteWriter w(out);
  EthernetHeader eth{eth_dst, eth_src, to_u16(EtherType::kIpv4)};
  eth.serialize(w);
  Ipv4Header ip;
  ip.total_length = static_cast<std::uint16_t>(
      Ipv4Header::kSize + UdpHeader::kSize + payload.size());
  ip.ttl = ttl;
  ip.protocol = kProtocolUdp;
  ip.src = ip_src;
  ip.dst = ip_dst;
  ip.serialize(w);
  UdpHeader udp;
  udp.src_port = src_port;
  udp.dst_port = dst_port;
  udp.length = static_cast<std::uint16_t>(UdpHeader::kSize + payload.size());
  udp.serialize(w);
  w.bytes(payload);
  return out;
}

std::vector<std::uint8_t> build_ipv4_frame(MacAddress eth_dst,
                                           MacAddress eth_src,
                                           Ipv4Address ip_src,
                                           Ipv4Address ip_dst,
                                           std::uint8_t protocol,
                                           std::span<const std::uint8_t> payload,
                                           std::uint8_t ttl) {
  std::vector<std::uint8_t> out = sim::acquire_frame_bytes();
  out.reserve(EthernetHeader::kSize + Ipv4Header::kSize + payload.size());
  ByteWriter w(out);
  EthernetHeader eth{eth_dst, eth_src, to_u16(EtherType::kIpv4)};
  eth.serialize(w);
  Ipv4Header ip;
  ip.total_length =
      static_cast<std::uint16_t>(Ipv4Header::kSize + payload.size());
  ip.ttl = ttl;
  ip.protocol = protocol;
  ip.src = ip_src;
  ip.dst = ip_dst;
  ip.serialize(w);
  w.bytes(payload);
  return out;
}

std::vector<std::uint8_t> build_tcp_frame(MacAddress eth_dst,
                                          MacAddress eth_src,
                                          Ipv4Address ip_src,
                                          Ipv4Address ip_dst,
                                          const TcpHeader& tcp,
                                          std::span<const std::uint8_t> payload,
                                          std::uint8_t ttl) {
  assert(payload.size() + TcpHeader::kSize + Ipv4Header::kSize <=
         kEthernetMtu);
  std::vector<std::uint8_t> out = sim::acquire_frame_bytes();
  out.reserve(EthernetHeader::kSize + Ipv4Header::kSize + TcpHeader::kSize +
              payload.size());
  ByteWriter w(out);
  EthernetHeader eth{eth_dst, eth_src, to_u16(EtherType::kIpv4)};
  eth.serialize(w);
  Ipv4Header ip;
  ip.total_length = static_cast<std::uint16_t>(
      Ipv4Header::kSize + TcpHeader::kSize + payload.size());
  ip.ttl = ttl;
  ip.protocol = kProtocolTcp;
  ip.src = ip_src;
  ip.dst = ip_dst;
  ip.serialize(w);
  tcp.serialize(w);
  w.bytes(payload);
  return out;
}

FlowKey flow_key_of(const ParsedFrame& p) {
  FlowKey key;
  if (p.ipv4.has_value()) {
    key.src_ip = p.ipv4->src;
    key.dst_ip = p.ipv4->dst;
    key.protocol = p.ipv4->protocol;
  }
  if (p.udp.has_value()) {
    key.src_port = p.udp->src_port;
    key.dst_port = p.udp->dst_port;
  } else if (p.tcp.has_value()) {
    key.src_port = p.tcp->src_port;
    key.dst_port = p.tcp->dst_port;
  }
  return key;
}

std::uint64_t flow_hash(const FlowKey& key) {
  std::uint64_t z = (static_cast<std::uint64_t>(key.src_ip.value()) << 32) |
                    key.dst_ip.value();
  z ^= (static_cast<std::uint64_t>(key.protocol) << 48) |
       (static_cast<std::uint64_t>(key.src_port) << 16) | key.dst_port;
  // SplitMix64 finalizer.
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {
std::vector<std::uint8_t> copy_frame(std::span<const std::uint8_t> frame) {
  std::vector<std::uint8_t> out = sim::acquire_frame_bytes();
  out.assign(frame.begin(), frame.end());
  return out;
}

void write_mac_at(std::vector<std::uint8_t>& bytes, std::size_t offset,
                  MacAddress mac) {
  assert(offset + MacAddress::kSize <= bytes.size());
  const auto& raw = mac.bytes();
  std::copy(raw.begin(), raw.end(),
            bytes.begin() + static_cast<std::ptrdiff_t>(offset));
}
}  // namespace

std::vector<std::uint8_t> rewrite_eth_src(std::span<const std::uint8_t> frame,
                                          MacAddress new_src) {
  auto out = copy_frame(frame);
  write_mac_at(out, MacAddress::kSize, new_src);  // src follows dst
  return out;
}

std::vector<std::uint8_t> rewrite_eth_dst(std::span<const std::uint8_t> frame,
                                          MacAddress new_dst) {
  auto out = copy_frame(frame);
  write_mac_at(out, 0, new_dst);
  return out;
}

std::vector<std::uint8_t> rewrite_arp_mac(std::span<const std::uint8_t> frame,
                                          bool sender, MacAddress new_mac) {
  auto out = copy_frame(frame);
  // ARP layout after the 14-byte Ethernet header: 8 fixed bytes, then
  // SHA(6) SPA(4) THA(6) TPA(4).
  const std::size_t base = EthernetHeader::kSize + 8;
  const std::size_t offset = sender ? base : base + 6 + 4;
  write_mac_at(out, offset, new_mac);
  return out;
}

// ---------------------------------------------------------------------------
// Parse-once metadata and the copy-on-write rewrite
// ---------------------------------------------------------------------------

namespace {
// Parse summaries live in the frame's opaque meta slot as a raw pointer +
// deleter; the storage cycles through the sim block pool so a summary
// costs no heap allocation at steady state.
void parsed_frame_deleter(const void* p) {
  auto* pf = const_cast<ParsedFrame*>(static_cast<const ParsedFrame*>(p));
  pf->~ParsedFrame();
  sim::detail::RecycleAllocator<ParsedFrame>{}.deallocate(pf, 1);
}

[[nodiscard]] ParsedFrame* alloc_parsed(ParsedFrame&& src) {
  ParsedFrame* storage =
      sim::detail::RecycleAllocator<ParsedFrame>{}.allocate(1);
  return new (storage) ParsedFrame(std::move(src));
}
}  // namespace

const ParsedFrame& parsed_of(const sim::FramePtr& frame) {
  if (const void* cached = frame->meta()) {
    ++tls_stats().meta_hits;
    return *static_cast<const ParsedFrame*>(cached);
  }
  // Two shards may race to parse a multicast replica; attach_meta keeps
  // exactly one winner and frees the loser's candidate. A lost race still
  // counts as an attach here — the parse work was done.
  ParsedFrame* candidate = alloc_parsed(parse_frame(frame_span(frame)));
  const void* installed = frame->attach_meta(candidate, parsed_frame_deleter);
  ++tls_stats().meta_attaches;
  return *static_cast<const ParsedFrame*>(installed);
}

namespace {
constexpr std::size_t kArpMacBase = EthernetHeader::kSize + 8;

void patch_mac(sim::FrameBytes& bytes, std::size_t offset, MacAddress mac) {
  assert(offset + MacAddress::kSize <= bytes.size());
  const auto& raw = mac.bytes();
  std::copy(raw.begin(), raw.end(),
            bytes.begin() + static_cast<std::ptrdiff_t>(offset));
}

void patch_bytes(sim::FrameBytes& bytes, const FrameRewrite& rw) {
  if (rw.eth_dst.has_value()) patch_mac(bytes, 0, *rw.eth_dst);
  if (rw.eth_src.has_value()) patch_mac(bytes, MacAddress::kSize, *rw.eth_src);
  // ARP layout after the Ethernet header: 8 fixed bytes, then SHA(6)
  // SPA(4) THA(6) TPA(4).
  if (rw.arp_sender_mac.has_value()) {
    patch_mac(bytes, kArpMacBase, *rw.arp_sender_mac);
  }
  if (rw.arp_target_mac.has_value()) {
    patch_mac(bytes, kArpMacBase + 6 + 4, *rw.arp_target_mac);
  }
}

void patch_parsed(ParsedFrame& p, const FrameRewrite& rw) {
  if (rw.eth_dst.has_value()) p.eth.dst = *rw.eth_dst;
  if (rw.eth_src.has_value()) p.eth.src = *rw.eth_src;
  if (p.arp.has_value()) {
    if (rw.arp_sender_mac.has_value()) p.arp->sender_mac = *rw.arp_sender_mac;
    if (rw.arp_target_mac.has_value()) p.arp->target_mac = *rw.arp_target_mac;
  }
}
}  // namespace

sim::FramePtr rewrite_frame(const sim::FramePtr& in, const FrameRewrite& rw) {
  if (sim::Frame* own = sim::exclusive_frame(in)) {
    // Sole owner: patch the header fields where they lie, as switch
    // hardware does. The buffer does not move, so a cached summary's
    // payload view stays valid; only its MAC fields need the patch.
    ++tls_stats().rewrite_in_place;
    patch_bytes(own->bytes, rw);
    if (void* meta = own->mutable_meta()) {
      patch_parsed(*static_cast<ParsedFrame*>(meta), rw);
    } else {
      own->attach_meta(alloc_parsed(parse_frame(frame_span(in))),
                       parsed_frame_deleter);  // sole owner: no race
    }
    return in;
  }

  ++tls_stats().rewrite_copies;
  auto out = sim::alloc_frame();
  out->bytes = sim::acquire_frame_bytes();
  out->bytes.assign(in->bytes.begin(),
                    in->bytes.end());  // the single whole-frame copy
  // A rewrite is the same frame to the flight recorder: carry the trace
  // id so PMAC<->AMAC translation doesn't break the per-hop story.
  if (const std::uint64_t id = in->trace_id(); id != 0) {
    out->adopt_trace_id(id);
  }
  patch_bytes(out->bytes, rw);

  // Carry the parse across: clone the cached summary with the same
  // patches applied (and the payload view re-anchored into the new
  // buffer) so downstream hops skip the parse entirely. Without a cached
  // summary the patched buffer is parsed once here — still one parse per
  // frame, just paid at the rewrite instead of at ingress.
  const auto* old = static_cast<const ParsedFrame*>(in->meta());
  ParsedFrame* meta = nullptr;
  if (old != nullptr) {
    meta = alloc_parsed(ParsedFrame(*old));
    patch_parsed(*meta, rw);
    if (!meta->payload.empty()) {
      const auto offset = static_cast<std::size_t>(meta->payload.data() -
                                                   in->bytes.data());
      meta->payload = std::span<const std::uint8_t>(out->bytes)
                          .subspan(offset, meta->payload.size());
    }
  } else {
    meta = alloc_parsed(parse_frame({out->bytes.data(), out->bytes.size()}));
  }
  out->attach_meta(meta, parsed_frame_deleter);  // fresh frame: no race
  return out;
}

}  // namespace portland::net
