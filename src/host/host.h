// Host: an unmodified end host (or VM) attached to the fabric by one port.
//
// PortLand requires zero host changes (paper §1): hosts here speak plain
// ARP / IPv4 / UDP / TCP and announce themselves with a gratuitous ARP on
// boot and after migration — exactly the signals the fabric's edge switches
// consume. The same Host class runs unchanged on the baseline Ethernet
// fabric, which is the point.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/ipv4_address.h"
#include "common/mac_address.h"
#include "host/arp_cache.h"
#include "host/tcp.h"
#include "net/packet.h"
#include "sim/device.h"

namespace portland::host {

struct HostConfig {
  SimDuration arp_cache_lifetime = seconds(600);
  SimDuration arp_retry_interval = millis(200);
  int arp_max_retries = 8;
  std::size_t max_pending_frames_per_dst = 256;
  /// Announce (gratuitous ARP) shortly after start; edge switches use this
  /// to assign PMACs and register the host with the fabric manager.
  bool announce_on_start = true;
  SimDuration announce_delay = millis(1);
  TcpConfig tcp;
  std::uint64_t seed = 0x9E3779B9;  // ISN generation
};

class Host : public sim::Device {
 public:
  Host(sim::Simulator& sim, std::string name, MacAddress mac, Ipv4Address ip,
       HostConfig config = {});
  ~Host() override;

  void handle_frame(sim::PortId in_port, const sim::FramePtr& frame) override;
  void start() override;

  /// Checkpoint: ARP cache, unresolved sends with their retry timers, TCP
  /// connections (created on demand for keys missing after a fresh-
  /// process restore; app deliver/finished callbacks must be re-installed
  /// by the application — in-place forks keep them automatically), ISN
  /// state. UDP/listener handler maps are construction wiring.
  void save_state(sim::SnapshotWriter& w) const override;
  void restore_state(sim::SnapshotReader& r) override;

  [[nodiscard]] MacAddress mac() const { return mac_; }
  [[nodiscard]] Ipv4Address ip() const { return ip_; }

  // --- UDP -----------------------------------------------------------
  using UdpHandler = std::function<void(
      Ipv4Address src_ip, std::uint16_t src_port, std::uint16_t dst_port,
      std::span<const std::uint8_t> payload)>;

  /// Registers a receive handler for a local UDP port.
  void bind_udp(std::uint16_t port, UdpHandler handler);

  /// Sends a UDP datagram (resolving the destination with ARP as needed).
  /// The payload is copied into the frame; callers that reuse one buffer
  /// per datagram pass a span.
  void send_udp(Ipv4Address dst, std::uint16_t src_port,
                std::uint16_t dst_port, std::span<const std::uint8_t> payload);
  void send_udp(Ipv4Address dst, std::uint16_t src_port,
                std::uint16_t dst_port, std::vector<std::uint8_t> payload) {
    send_udp(dst, src_port, dst_port, std::span<const std::uint8_t>(payload));
  }

  // --- TCP -----------------------------------------------------------
  /// Active-opens a connection; returns a stable pointer owned by the host.
  TcpConnection* tcp_connect(Ipv4Address dst, std::uint16_t dst_port);

  /// Listens; `on_accept` fires for each new inbound connection.
  void tcp_listen(std::uint16_t port,
                  std::function<void(TcpConnection&)> on_accept);

  // --- multicast -------------------------------------------------------
  /// Joins `group` (sends an IGMP report) and delivers group UDP traffic
  /// to `handler`.
  void join_group(Ipv4Address group, UdpHandler handler);

  /// Leaves `group` (sends an IGMP leave).
  void leave_group(Ipv4Address group);

  /// Sends a UDP datagram to a multicast group (no ARP involved).
  void send_udp_multicast(Ipv4Address group, std::uint16_t src_port,
                          std::uint16_t dst_port,
                          std::vector<std::uint8_t> payload);

  // --- ARP -------------------------------------------------------------
  /// Announces (ip -> mac) to the fabric; called automatically at start and
  /// by the migration controller after re-attachment.
  void send_gratuitous_arp();

  [[nodiscard]] ArpCache& arp_cache() { return arp_cache_; }

  /// Number of ARP requests this host has transmitted (broadcasts in the
  /// baseline; intercepted by the edge switch in PortLand).
  [[nodiscard]] std::uint64_t arp_requests_sent() const {
    return arp_requests_sent_;
  }

 private:
  void handle_arp(const net::ArpMessage& arp);
  void handle_ipv4(const net::ParsedFrame& parsed);
  void deliver_udp(const net::ParsedFrame& parsed, bool multicast);
  /// Queues `frame` until `dst` resolves, then rewrites the Ethernet dst
  /// and transmits. Frames are built with a broadcast placeholder dst.
  void send_resolved(Ipv4Address dst, std::vector<std::uint8_t> frame);
  void send_arp_request(Ipv4Address target);
  void arp_retry_tick(Ipv4Address target);
  void flush_pending(Ipv4Address dst, MacAddress mac);
  TcpConnection& make_connection(TcpEndpointKey key);
  [[nodiscard]] std::uint32_t next_isn();

  MacAddress mac_;
  Ipv4Address ip_;
  HostConfig config_;
  ArpCache arp_cache_;
  std::uint64_t isn_state_;

  /// One unresolved destination. Records are pooled: a finished record
  /// keeps its frame-queue capacity and its retry timer (with the
  /// timer's shared core) for the next resolution, so steady-state ARP
  /// resolution allocates nothing.
  struct Pending {
    explicit Pending(sim::Simulator& sim) : timer(sim) {}
    std::vector<sim::FrameBytes> frames;  // oldest first
    int retries = 0;
    sim::Timer timer;
    /// When the first ARP request for this destination went out; stamps
    /// the resolution-latency histogram when the answer arrives (E22).
    SimTime first_request_at = -1;
  };
  /// Queue capacity a pooled record keeps (see close_pending).
  static constexpr std::size_t kPooledQueueFrames = 4;
  /// The live record for `dst`, or nullptr.
  [[nodiscard]] Pending* find_pending(Ipv4Address dst);
  /// A cleared record from the pool, indexed under `dst` (absent).
  Pending& open_pending(Ipv4Address dst);
  /// Unindexes `dst` and returns its record to the pool.
  void close_pending(Ipv4Address dst);

  /// Live pending records, (destination IP, pool slot), sorted by IP.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pending_index_;
  std::vector<std::unique_ptr<Pending>> pending_pool_;
  std::vector<std::uint32_t> pending_free_;

  /// Counter cells for the per-message counters, resolved on first use
  /// (CounterSet::add_cached) so the key set matches plain add() calls.
  static constexpr std::size_t kArpLatencyBuckets = 17;  // le_1..over
  struct CounterCells {
    std::uint64_t* rx_ignored = nullptr;
    std::uint64_t* arp_requests_sent = nullptr;
    std::uint64_t* arp_replies_sent = nullptr;
    std::uint64_t* arp_resolutions = nullptr;
    std::array<std::uint64_t*, kArpLatencyBuckets> arp_latency{};
  };
  CounterCells cells_;

  std::map<std::uint16_t, UdpHandler> udp_handlers_;
  std::map<std::uint16_t, std::function<void(TcpConnection&)>> listeners_;
  std::map<TcpEndpointKey, std::unique_ptr<TcpConnection>> connections_;
  std::map<Ipv4Address, UdpHandler> group_handlers_;

  std::uint16_t next_ephemeral_port_ = 49152;
  std::uint64_t arp_requests_sent_ = 0;
};

}  // namespace portland::host
