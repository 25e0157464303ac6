#include "host/host.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <string_view>

#include "common/logging.h"
#include "net/igmp.h"
#include "obs/flight_recorder.h"
#include "sim/snapshot.h"

namespace portland::host {

using net::ArpMessage;
using net::ArpOp;
using net::ParsedFrame;

namespace {
/// The host owns these freshly built frame bytes, so the resolved
/// destination is patched in place instead of copying the whole buffer.
void patch_eth_dst(std::vector<std::uint8_t>& frame, MacAddress dst) {
  const auto& b = dst.bytes();
  std::copy(b.begin(), b.end(), frame.begin());
}

/// Log2 histogram buckets (in microseconds) for ARP resolution latency.
/// Benches sum these across hosts to report resolution percentiles.
constexpr std::string_view kArpLatencyNames[] = {
      "arp_latency_us_le_1",     "arp_latency_us_le_2",
      "arp_latency_us_le_4",     "arp_latency_us_le_8",
      "arp_latency_us_le_16",    "arp_latency_us_le_32",
      "arp_latency_us_le_64",    "arp_latency_us_le_128",
      "arp_latency_us_le_256",   "arp_latency_us_le_512",
      "arp_latency_us_le_1024",  "arp_latency_us_le_2048",
      "arp_latency_us_le_4096",  "arp_latency_us_le_8192",
      "arp_latency_us_le_16384", "arp_latency_us_le_32768",
      "arp_latency_us_over",
};

std::size_t arp_latency_bucket(SimDuration latency) {
  constexpr std::size_t kLast = std::size(kArpLatencyNames) - 1;
  const auto us = static_cast<std::uint64_t>(latency / kMicrosecond);
  std::size_t idx = 0;
  while (idx < kLast && (1ull << idx) < us) ++idx;
  return idx;
}
}  // namespace

Host::Host(sim::Simulator& sim, std::string name, MacAddress mac,
           Ipv4Address ip, HostConfig config)
    : Device(sim, std::move(name)),
      mac_(mac),
      ip_(ip),
      config_(config),
      arp_cache_(config.arp_cache_lifetime),
      isn_state_(config.seed ^ mac.to_u64()) {
  add_port();  // hosts have a single NIC, port 0
}

Host::~Host() = default;

void Host::start() {
  if (config_.announce_on_start) {
    sim().after(config_.announce_delay, [this] { send_gratuitous_arp(); });
  }
}

std::uint32_t Host::next_isn() {
  // SplitMix64 step; low 32 bits are plenty for a simulated ISN.
  isn_state_ += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = isn_state_;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  return static_cast<std::uint32_t>(z ^ (z >> 27));
}

void Host::send_gratuitous_arp() {
  const ArpMessage garp = ArpMessage::gratuitous(mac_, ip_);
  send(0, sim::make_frame(
              net::build_arp_frame(MacAddress::broadcast(), mac_, garp)));
  counters().add("garp_sent");
}

// --------------------------------------------------------------------------
// Receive path
// --------------------------------------------------------------------------

void Host::handle_frame(sim::PortId in_port, const sim::FramePtr& frame) {
  // Edge switches emit LDMs on host-facing ports every period; drop them
  // on a raw EtherType peek so hosts never parse (or attach metadata to)
  // fabric control traffic.
  const auto bytes = sim::frame_span(frame);
  if (bytes.size() >= net::EthernetHeader::kSize &&
      (static_cast<std::uint16_t>(bytes[12]) << 8 | bytes[13]) ==
          net::to_u16(net::EtherType::kLdp)) {
    counters().add_cached(cells_.rx_ignored, "rx_ignored");
    return;
  }
  const ParsedFrame& parsed = net::parsed_of(frame);
  if (!parsed.valid) {
    counters().add("rx_malformed");
    return;
  }
  if (flight_recorder() != nullptr) {
    record_hop(obs::HopEvent::kDeliver, frame, in_port, frame->size());
  }
  // A broadcast can loop back to its sender through the fabric's
  // down-phase; hosts ignore their own frames.
  if (parsed.eth.src == mac_) return;

  if (parsed.arp.has_value()) {
    handle_arp(*parsed.arp);
    return;
  }
  if (parsed.ipv4.has_value()) {
    handle_ipv4(parsed);
    return;
  }
  counters().add_cached(cells_.rx_ignored, "rx_ignored");
}

void Host::handle_arp(const ArpMessage& arp) {
  // Gleaning: any ARP naming a sender refreshes entries we already track
  // or are actively resolving.
  if (!arp.sender_ip.is_zero() &&
      (arp_cache_.contains(arp.sender_ip) ||
       find_pending(arp.sender_ip) != nullptr)) {
    arp_cache_.insert(arp.sender_ip, arp.sender_mac, sim().now());
    flush_pending(arp.sender_ip, arp.sender_mac);
  }

  if (arp.op == ArpOp::kRequest && arp.target_ip == ip_) {
    counters().add_cached(cells_.arp_replies_sent, "arp_replies_sent");
    const ArpMessage reply =
        ArpMessage::reply(mac_, ip_, arp.sender_mac, arp.sender_ip);
    send(0, sim::make_frame(net::build_arp_frame(arp.sender_mac, mac_, reply)));
    return;
  }
  if (arp.op == ArpOp::kReply) {
    arp_cache_.insert(arp.sender_ip, arp.sender_mac, sim().now());
    flush_pending(arp.sender_ip, arp.sender_mac);
  }
}

void Host::handle_ipv4(const ParsedFrame& parsed) {
  const bool multicast = net::is_multicast_ip(parsed.ipv4->dst);
  if (!multicast && parsed.ipv4->dst != ip_) {
    counters().add("rx_wrong_ip");
    return;
  }

  if (parsed.udp.has_value()) {
    deliver_udp(parsed, multicast);
    return;
  }
  if (parsed.tcp.has_value()) {
    const net::TcpHeader& h = *parsed.tcp;
    const TcpEndpointKey key{parsed.ipv4->src, h.src_port, h.dst_port};
    const auto it = connections_.find(key);
    if (it != connections_.end()) {
      it->second->handle_segment(h, parsed.payload);
      return;
    }
    if (h.flags.syn && !h.flags.ack) {
      const auto listener = listeners_.find(h.dst_port);
      if (listener != listeners_.end()) {
        TcpConnection& conn = make_connection(key);
        conn.accept_syn(h);
        listener->second(conn);
        return;
      }
    }
    counters().add("tcp_rx_no_connection");
    return;
  }
  counters().add("rx_ip_other");
}

void Host::deliver_udp(const ParsedFrame& parsed, bool multicast) {
  if (multicast) {
    const auto it = group_handlers_.find(parsed.ipv4->dst);
    if (it == group_handlers_.end()) {
      counters().add("udp_rx_unjoined_group");
      return;
    }
    it->second(parsed.ipv4->src, parsed.udp->src_port, parsed.udp->dst_port,
               parsed.payload);
    return;
  }
  const auto it = udp_handlers_.find(parsed.udp->dst_port);
  if (it == udp_handlers_.end()) {
    counters().add("udp_rx_unbound");
    return;
  }
  it->second(parsed.ipv4->src, parsed.udp->src_port, parsed.udp->dst_port,
             parsed.payload);
}

// --------------------------------------------------------------------------
// UDP
// --------------------------------------------------------------------------

void Host::bind_udp(std::uint16_t port, UdpHandler handler) {
  udp_handlers_[port] = std::move(handler);
}

void Host::send_udp(Ipv4Address dst, std::uint16_t src_port,
                    std::uint16_t dst_port,
                    std::span<const std::uint8_t> payload) {
  // Built with a broadcast placeholder; send_resolved patches the real dst.
  auto frame = net::build_udp_frame(MacAddress::broadcast(), mac_, ip_, dst,
                                    src_port, dst_port, payload);
  send_resolved(dst, std::move(frame));
}

// --------------------------------------------------------------------------
// TCP
// --------------------------------------------------------------------------

TcpConnection& Host::make_connection(TcpEndpointKey key) {
  auto sink = [this, key](const net::TcpHeader& h,
                          std::span<const std::uint8_t> payload) {
    auto frame = net::build_tcp_frame(MacAddress::broadcast(), mac_, ip_,
                                      key.remote_ip, h, payload);
    send_resolved(key.remote_ip, std::move(frame));
  };
  auto conn = std::make_unique<TcpConnection>(sim(), key, config_.tcp,
                                              std::move(sink), next_isn());
  TcpConnection& ref = *conn;
  connections_[key] = std::move(conn);
  return ref;
}

TcpConnection* Host::tcp_connect(Ipv4Address dst, std::uint16_t dst_port) {
  const TcpEndpointKey key{dst, dst_port, next_ephemeral_port_++};
  TcpConnection& conn = make_connection(key);
  conn.connect();
  return &conn;
}

void Host::tcp_listen(std::uint16_t port,
                      std::function<void(TcpConnection&)> on_accept) {
  listeners_[port] = std::move(on_accept);
}

// --------------------------------------------------------------------------
// Multicast
// --------------------------------------------------------------------------

void Host::join_group(Ipv4Address group, UdpHandler handler) {
  assert(net::is_multicast_ip(group));
  group_handlers_[group] = std::move(handler);
  net::IgmpMessage report{net::IgmpType::kMembershipReport, group};
  const auto payload = report.serialize();
  send(0, sim::make_frame(net::build_ipv4_frame(
              net::multicast_mac(group), mac_, ip_, group, net::kProtocolIgmp,
              payload, /*ttl=*/1)));
  counters().add("igmp_joins_sent");
}

void Host::leave_group(Ipv4Address group) {
  group_handlers_.erase(group);
  net::IgmpMessage leave{net::IgmpType::kLeaveGroup, group};
  const auto payload = leave.serialize();
  send(0, sim::make_frame(net::build_ipv4_frame(
              net::multicast_mac(group), mac_, ip_, group, net::kProtocolIgmp,
              payload, /*ttl=*/1)));
  counters().add("igmp_leaves_sent");
}

void Host::send_udp_multicast(Ipv4Address group, std::uint16_t src_port,
                              std::uint16_t dst_port,
                              std::vector<std::uint8_t> payload) {
  assert(net::is_multicast_ip(group));
  send(0, sim::make_frame(net::build_udp_frame(net::multicast_mac(group),
                                               mac_, ip_, group, src_port,
                                               dst_port, payload)));
}

// --------------------------------------------------------------------------
// ARP resolution
// --------------------------------------------------------------------------

void Host::send_resolved(Ipv4Address dst, std::vector<std::uint8_t> frame) {
  if (const auto mac = arp_cache_.lookup(dst, sim().now()); mac.has_value()) {
    patch_eth_dst(frame, *mac);
    send(0, sim::make_frame(std::move(frame)));
    return;
  }
  if (Pending* p = find_pending(dst)) {
    if (p->frames.size() >= config_.max_pending_frames_per_dst) {
      counters().add("arp_pending_overflow");
      p->frames.erase(p->frames.begin());
    }
    p->frames.push_back(std::move(frame));
    return;
  }
  Pending& p = open_pending(dst);
  p.frames.push_back(std::move(frame));
  p.first_request_at = sim().now();
  send_arp_request(dst);
  p.timer.schedule_after(config_.arp_retry_interval,
                         [this, dst] { arp_retry_tick(dst); });
}

Host::Pending* Host::find_pending(Ipv4Address dst) {
  const auto it = std::lower_bound(
      pending_index_.begin(), pending_index_.end(),
      std::make_pair(dst.value(), std::uint32_t{0}));
  if (it == pending_index_.end() || it->first != dst.value()) return nullptr;
  return pending_pool_[it->second].get();
}

Host::Pending& Host::open_pending(Ipv4Address dst) {
  if (pending_free_.empty()) {
    pending_free_.push_back(static_cast<std::uint32_t>(pending_pool_.size()));
    pending_pool_.push_back(std::make_unique<Pending>(sim()));
  }
  const auto key = std::make_pair(dst.value(), pending_free_.back());
  pending_free_.pop_back();
  pending_index_.insert(
      std::lower_bound(pending_index_.begin(), pending_index_.end(), key),
      key);
  return *pending_pool_[key.second];
}

void Host::close_pending(Ipv4Address dst) {
  const auto it = std::lower_bound(
      pending_index_.begin(), pending_index_.end(),
      std::make_pair(dst.value(), std::uint32_t{0}));
  if (it == pending_index_.end() || it->first != dst.value()) return;
  Pending& p = *pending_pool_[it->second];
  p.timer.cancel();
  p.frames.clear();
  // Keep a short queue's capacity for the next resolution, but not a
  // burst's: that would pin memory in every host for the rest of a run.
  if (p.frames.capacity() > kPooledQueueFrames) {
    p.frames = std::vector<sim::FrameBytes>();
  }
  p.retries = 0;
  p.first_request_at = -1;
  pending_free_.push_back(it->second);
  pending_index_.erase(it);
}

void Host::send_arp_request(Ipv4Address target) {
  ++arp_requests_sent_;
  counters().add_cached(cells_.arp_requests_sent, "arp_requests_sent");
  const ArpMessage req = ArpMessage::request(mac_, ip_, target);
  send(0, sim::make_frame(
              net::build_arp_frame(MacAddress::broadcast(), mac_, req)));
}

void Host::arp_retry_tick(Ipv4Address target) {
  Pending* p = find_pending(target);
  if (p == nullptr) return;
  if (++p->retries > config_.arp_max_retries) {
    counters().add("arp_resolution_failed");
    close_pending(target);  // drop queued frames: unreachable destination
    return;
  }
  send_arp_request(target);
  p->timer.rearm(config_.arp_retry_interval);
}

// --------------------------------------------------------------------------
// Checkpoint
// --------------------------------------------------------------------------

void Host::save_state(sim::SnapshotWriter& w) const {
  arp_cache_.save_state(w);

  // Unresolved sends, in the index's destination-IP order.
  w.u32(static_cast<std::uint32_t>(pending_index_.size()));
  for (const auto& [dst, slot] : pending_index_) {
    const Pending& p = *pending_pool_[slot];
    w.u32(dst);
    w.u32(static_cast<std::uint32_t>(p.retries));
    w.i64(p.first_request_at);
    w.u32(static_cast<std::uint32_t>(p.frames.size()));
    for (const sim::FrameBytes& frame : p.frames) w.blob(frame);
    p.timer.save_state(w);
  }

  w.u16(next_ephemeral_port_);
  w.u64(arp_requests_sent_);

  w.u32(static_cast<std::uint32_t>(connections_.size()));
  for (const auto& [key, conn] : connections_) {
    w.u32(key.remote_ip.value());
    w.u16(key.remote_port);
    w.u16(key.local_port);
    conn->save_state(w);
  }
  // Written after connections: a fresh-process restore creates missing
  // connections through make_connection, which advances isn_state_ — the
  // exact value is reapplied last either way.
  w.u64(isn_state_);
}

void Host::restore_state(sim::SnapshotReader& r) {
  arp_cache_.restore_state(r);

  while (!pending_index_.empty()) {
    close_pending(Ipv4Address(pending_index_.back().first));
  }
  // Per pending resolution: dst, retries, first-request time, frame
  // count, timer record.
  const std::uint32_t n_pending = r.count(4 + 4 + 8 + 4 + 22);
  for (std::uint32_t i = 0; i < n_pending && r.ok(); ++i) {
    const Ipv4Address dst(r.u32());
    Pending* existing = find_pending(dst);
    Pending& p = existing != nullptr ? *existing : open_pending(dst);
    p.retries = static_cast<int>(r.u32());
    p.first_request_at = r.i64();
    const std::uint32_t n_frames = r.count(4);
    for (std::uint32_t j = 0; j < n_frames && r.ok(); ++j) {
      p.frames.push_back(r.blob());
    }
    p.timer.restore_at(r, [this, dst] { arp_retry_tick(dst); });
  }

  next_ephemeral_port_ = r.u16();
  arp_requests_sent_ = r.u64();

  const std::uint32_t n_conns = r.count(4 + 2 + 2);
  std::vector<TcpEndpointKey> restored;
  restored.reserve(n_conns);
  for (std::uint32_t i = 0; i < n_conns && r.ok(); ++i) {
    TcpEndpointKey key;
    key.remote_ip = Ipv4Address(r.u32());
    key.remote_port = r.u16();
    key.local_port = r.u16();
    auto it = connections_.find(key);
    TcpConnection& conn =
        it != connections_.end() ? *it->second : make_connection(key);
    conn.restore_state(r);
    restored.push_back(key);
  }
  // Drop connections the image does not know about (a fork target that
  // had diverged before restore).
  for (auto it = connections_.begin(); it != connections_.end();) {
    const bool keep = std::find(restored.begin(), restored.end(),
                                it->first) != restored.end();
    it = keep ? std::next(it) : connections_.erase(it);
  }
  isn_state_ = r.u64();
}

void Host::flush_pending(Ipv4Address dst, MacAddress mac) {
  Pending* p = find_pending(dst);
  if (p == nullptr) return;
  if (p->first_request_at >= 0) {
    static_assert(std::size(kArpLatencyNames) == kArpLatencyBuckets);
    counters().add_cached(cells_.arp_resolutions, "arp_resolutions");
    const std::size_t bucket =
        arp_latency_bucket(sim().now() - p->first_request_at);
    counters().add_cached(cells_.arp_latency[bucket],
                          kArpLatencyNames[bucket]);
  }
  // Sending cannot re-enter this host (links add latency), so the record
  // stays valid until it is closed.
  p->timer.cancel();
  for (sim::FrameBytes& f : p->frames) {
    patch_eth_dst(f, mac);
    send(0, sim::make_frame(std::move(f)));
  }
  close_pending(dst);
}

}  // namespace portland::host
