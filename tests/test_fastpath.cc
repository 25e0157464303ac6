// Data-plane fast path regressions: the precomputed FIB must never serve
// stale decisions (a PruneUpdate or neighbor loss landing mid-flow
// reroutes the very next frame), and the parse-once metadata path must
// preserve forwarding behavior hop by hop.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>
#include <string>

#include "core/fabric.h"
#include "core/path_audit.h"
#include "host/apps.h"
#include "net/igmp.h"
#include "net/packet.h"
#include "obs/flight_recorder.h"
#include "sim/simulator.h"

namespace portland::core {
namespace {

struct CrossPodFlow {
  std::unique_ptr<PortlandFabric> fabric;
  host::Host* src = nullptr;
  host::Host* dst = nullptr;
  std::unique_ptr<host::UdpFlowReceiver> receiver;
  std::unique_ptr<host::UdpFlowSender> sender;

  explicit CrossPodFlow(std::uint64_t seed, bool fast_link_detection = false) {
    PortlandFabric::Options options;
    options.k = 4;
    options.seed = seed;
    options.config.fast_link_detection = fast_link_detection;
    fabric = std::make_unique<PortlandFabric>(options);
    EXPECT_TRUE(fabric->run_until_converged());
    src = &fabric->host_at(0, 0, 0);
    dst = &fabric->host_at(3, 0, 0);
    receiver = std::make_unique<host::UdpFlowReceiver>(*dst, 7001);
    host::UdpFlowSender::Config cfg;
    cfg.dst = dst->ip();
    cfg.interval = millis(1);
    sender = std::make_unique<host::UdpFlowSender>(*src, cfg);
    sender->start();
    fabric->sim().run_until(fabric->sim().now() + millis(100));
  }

  /// The source edge's uplink currently carrying the flow, found by
  /// transmit volume (the flow adds ~1000 frames/s; LDP adds ~100).
  sim::PortId busiest_uplink() {
    const PortlandSwitch& edge = fabric->edge_at(0, 0);
    std::vector<std::uint64_t> before;
    const std::vector<sim::PortId> ups = edge.ldp().up_ports();
    for (const sim::PortId p : ups) {
      before.push_back(edge.port_link(p)->tx_frames(0) +
                       edge.port_link(p)->tx_frames(1));
    }
    fabric->sim().run_until(fabric->sim().now() + millis(20));
    sim::PortId best_port = ups.front();
    std::uint64_t best = 0;
    for (std::size_t i = 0; i < ups.size(); ++i) {
      sim::Link* l = edge.port_link(ups[i]);
      const std::uint64_t delta = l->tx_frames(0) + l->tx_frames(1) - before[i];
      if (delta > best) {
        best = delta;
        best_port = ups[i];
      }
    }
    EXPECT_GT(best, 10u);
    return best_port;
  }
};

/// Counts data (non-LDP-dominated) frames the edge sent out a port over a
/// window by diffing the link's transmit counter from the edge's side.
std::uint64_t edge_tx(const PortlandSwitch& edge, sim::PortId port) {
  sim::Link* l = edge.port_link(port);
  // The edge's side of the link: side 0 transmits a->b.
  return &l->device(0) == &edge ? l->tx_frames(0) : l->tx_frames(1);
}

TEST(Fastpath, PruneUpdateMidFlowReroutesTheVeryNextFrame) {
  CrossPodFlow fx(31);
  PortlandSwitch& edge = fx.fabric->edge_at(0, 0);
  const sim::PortId hot = fx.busiest_uplink();
  const auto hot_nbr = edge.ldp().neighbor(hot);
  ASSERT_TRUE(hot_nbr.has_value());

  const std::uint64_t rebuilds_before = edge.fib_rebuilds();
  const std::uint64_t hot_tx_before = edge_tx(edge, hot);

  // Forge the fabric manager's reroute: avoid the aggregation switch the
  // flow currently transits for the destination edge. Pod and position
  // come from the destination edge's own locator (positions are assigned
  // by the protocol, not by topology index).
  const SwitchLocator dst_loc = fx.fabric->edge_at(3, 0).ldp().self();
  PruneUpdate prune;
  prune.entries.push_back(PruneEntry{dst_loc.pod, dst_loc.position,
                                     hot_nbr->switch_id, /*add=*/true});
  fx.fabric->control().send(edge.id(),
                            ControlMessage{kFabricManagerId, prune});

  const SimTime prune_at = fx.fabric->sim().now();
  fx.fabric->sim().run_until(prune_at + millis(100));

  // The FIB (and with it every cached flow) was invalidated...
  EXPECT_GT(edge.fib_rebuilds(), rebuilds_before);
  // ...the stale uplink carries control traffic only from then on (LDMs
  // are ~10 per 100 ms; the flow would have added ~100)...
  EXPECT_LT(edge_tx(edge, hot) - hot_tx_before, 40u);
  // ...and not a single frame blackholed: the reroute took effect on the
  // very next frame, so the largest delivery gap stays at the control
  // latency scale, far under the 1 ms send interval x a handful.
  const SimDuration gap =
      fx.receiver->max_gap(prune_at - millis(5), prune_at + millis(100));
  EXPECT_LE(gap, millis(10));
  EXPECT_GT(fx.receiver->last_arrival_time(),
            fx.fabric->sim().now() - millis(10));
}

TEST(Fastpath, NeighborLossMidFlowReroutesTheVeryNextFrame) {
  // Carrier-loss detection expires the neighbor the instant the link
  // fails; the next frame must route around it without waiting for any
  // cache to age out.
  CrossPodFlow fx(32, /*fast_link_detection=*/true);
  PortlandSwitch& edge = fx.fabric->edge_at(0, 0);
  const sim::PortId hot = fx.busiest_uplink();

  const std::uint64_t rebuilds_before = edge.fib_rebuilds();
  const SimTime fail_at = fx.fabric->sim().now() + millis(10);
  fx.fabric->failures().fail_link_at(*edge.port_link(hot), fail_at);
  fx.fabric->sim().run_until(fail_at + millis(200));

  EXPECT_GT(edge.fib_rebuilds(), rebuilds_before);
  const SimDuration gap =
      fx.receiver->max_gap(fail_at - millis(5), fail_at + millis(150));
  // Only frames already in flight on the dead link are lost.
  EXPECT_LE(gap, millis(10));
  EXPECT_GT(fx.receiver->last_arrival_time(),
            fx.fabric->sim().now() - millis(10));
}

TEST(Fastpath, IntermediateHopsForwardWithoutReparsing) {
  CrossPodFlow fx(33);
  const net::ParseStats before = net::parse_stats();
  const std::uint64_t delivered_before = fx.receiver->packets_received();

  fx.fabric->sim().run_until(fx.fabric->sim().now() + millis(200));

  const net::ParseStats& after = net::parse_stats();
  const std::uint64_t delivered =
      fx.receiver->packets_received() - delivered_before;
  const std::uint64_t parses = after.parse_calls - before.parse_calls;
  const std::uint64_t hits = after.meta_hits - before.meta_hits;

  ASSERT_GT(delivered, 150u);  // the flow kept flowing
  // One parse per frame (at edge ingress), not one per hop. Control
  // traffic (ARP refreshes etc.) adds a small constant.
  EXPECT_LE(parses, delivered + delivered / 5 + 50);
  // Every downstream hop and the destination host read the cached parse:
  // a 5-switch-hop cross-pod path yields >= 3 metadata hits per frame.
  EXPECT_GE(hits, delivered * 3);
}

TEST(Fastpath, UpPortAccessorsAreCachedAndStable) {
  CrossPodFlow fx(34);
  const PortlandSwitch& edge = fx.fabric->edge_at(0, 0);
  // Same backing storage across calls: the accessor is allocation-free at
  // steady state.
  const auto* first = &edge.ldp().up_ports();
  fx.fabric->sim().run_until(fx.fabric->sim().now() + millis(50));
  EXPECT_EQ(first, &edge.ldp().up_ports());
  EXPECT_EQ(&edge.ldp().down_ports(), &edge.ldp().down_ports());
}

TEST(Fastpath, PathAuditHoldsWithFibDirectEcmp) {
  PortlandFabric::Options options;
  options.k = 4;
  options.seed = 35;
  options.obs.flight_recorder = true;
  options.obs.ring_capacity = 1 << 16;  // keep every hop of the window
  PortlandFabric fabric(options);
  ASSERT_TRUE(fabric.run_until_converged());

  // One cross-pod flow per pod, each from that pod's edge 0, so every
  // up-path decision at a switch belongs to the one flow entering it.
  std::vector<std::unique_ptr<host::UdpFlowReceiver>> receivers;
  std::vector<std::unique_ptr<host::UdpFlowSender>> senders;
  std::uint16_t port = 7100;
  for (std::size_t pod = 0; pod < 4; ++pod) {
    host::Host& a = fabric.host_at(pod, 0, 0);
    host::Host& b = fabric.host_at((pod + 2) % 4, 1, 1);
    receivers.push_back(std::make_unique<host::UdpFlowReceiver>(b, port));
    host::UdpFlowSender::Config cfg;
    cfg.dst = b.ip();
    cfg.src_port = port;
    cfg.dst_port = port;
    cfg.interval = millis(1);
    senders.push_back(std::make_unique<host::UdpFlowSender>(a, cfg));
    senders.back()->start();
    ++port;
  }

  // Warm-up: ARP resolution and the first (lazy) FIB build per switch.
  fabric.sim().run_until(fabric.sim().now() + millis(50));
  const auto total_rebuilds = [&fabric] {
    std::uint64_t n = 0;
    for (const PortlandSwitch* sw : fabric.switches()) n += sw->fib_rebuilds();
    return n;
  };
  const std::uint64_t rebuilds0 = total_rebuilds();
  obs::FlightRecorder* rec = fabric.flight_recorder();
  ASSERT_NE(rec, nullptr);
  rec->clear();

  PathAuditor audit(fabric);
  fabric.sim().run_until(fabric.sim().now() + millis(300));

  EXPECT_GT(audit.packets_completed(), 500u);
  EXPECT_TRUE(audit.violations().empty())
      << audit.violations().front();

  // Steady state: the FIB never changed, so no decision was recomputed
  // against a different table.
  EXPECT_EQ(total_rebuilds(), rebuilds0);
  ASSERT_EQ(rec->records_evicted(), 0u);

  // Flow-level ECMP straight from the FIB: while it is unchanged, every
  // frame of a flow leaves each switch on the same uplink.
  std::set<std::string> edges;
  for (std::size_t pod = 0; pod < 4; ++pod) {
    edges.insert(fabric.edge_at(pod, 0).name());
  }
  std::map<std::string, std::set<std::uint32_t>> uplinks;
  std::uint64_t edge_decisions = 0;
  for (const obs::HopRecord& r : rec->merged()) {
    if (r.event != obs::HopEvent::kEcmpChoice) continue;
    uplinks[r.device].insert(r.port);
    if (edges.count(r.device) != 0) ++edge_decisions;
  }
  EXPECT_GT(edge_decisions, 500u);
  for (const std::string& edge : edges) EXPECT_EQ(uplinks.count(edge), 1u);
  for (const auto& [device, ports] : uplinks) {
    EXPECT_EQ(ports.size(), 1u) << device;
  }
}

TEST(Fastpath, UnicastEdgeRewritesPatchInPlace) {
  CrossPodFlow fx(36);
  const net::ParseStats before = net::parse_stats();
  const std::uint64_t delivered_before = fx.receiver->packets_received();
  fx.fabric->sim().run_until(fx.fabric->sim().now() + millis(200));
  const net::ParseStats after = net::parse_stats();
  const std::uint64_t delivered =
      fx.receiver->packets_received() - delivered_before;
  const std::uint64_t in_place =
      after.rewrite_in_place - before.rewrite_in_place;
  const std::uint64_t copies = after.rewrite_copies - before.rewrite_copies;

  ASSERT_GT(delivered, 150u);
  // Ingress and egress rewrite of every frame, on a frame nobody else
  // holds: patched where it lies. Copies would only come from shared
  // frames, and a unicast flow has none.
  EXPECT_GE(in_place, 2 * delivered);
  EXPECT_EQ(copies, 0u);
}

TEST(Fastpath, TappedFramesAreCopiedNeverPatched) {
  CrossPodFlow fx(37);
  // The tap keeps every delivered frame alive along with the bytes it had
  // on arrival; a rewrite that patched a held frame would show up as a
  // mismatch at the end.
  std::vector<std::pair<sim::FramePtr, sim::FrameBytes>> held;
  fx.fabric->network().set_frame_tap(
      [&held](const sim::Link&, int, const sim::FramePtr& frame) {
        held.emplace_back(frame, frame->bytes);
      });
  const net::ParseStats before = net::parse_stats();
  fx.fabric->sim().run_until(fx.fabric->sim().now() + millis(100));
  fx.fabric->network().set_frame_tap({});
  const net::ParseStats after = net::parse_stats();

  ASSERT_GT(held.size(), 100u);
  for (const auto& [frame, bytes] : held) EXPECT_EQ(frame->bytes, bytes);
  // The tap takes its reference before the receiving switch runs, so
  // every edge rewrite finds the frame shared and copies it.
  EXPECT_GT(after.rewrite_copies - before.rewrite_copies, 90u);
  EXPECT_EQ(after.rewrite_in_place, before.rewrite_in_place);
}

TEST(Fastpath, MulticastReplicasArriveWithTheRightMacs) {
  PortlandFabric::Options options;
  options.k = 4;
  options.seed = 38;
  PortlandFabric fabric(options);
  ASSERT_TRUE(fabric.run_until_converged());
  const Ipv4Address group(224, 1, 0, 7);
  host::Host& sender = fabric.host_at(0, 0, 0);
  // Receivers on the sender's edge, its pod's other edge and two other
  // pods: replicas split at the edge, the aggregation and the core.
  std::vector<host::Host*> receivers = {
      &fabric.host_at(0, 0, 1), &fabric.host_at(0, 1, 0),
      &fabric.host_at(1, 0, 1), &fabric.host_at(3, 1, 1)};
  std::map<std::string, int> delivered;
  for (host::Host* r : receivers) {
    r->join_group(group, [&delivered, r](Ipv4Address, std::uint16_t,
                                         std::uint16_t,
                                         std::span<const std::uint8_t>) {
      ++delivered[r->name()];
    });
  }
  fabric.sim().run_until(fabric.sim().now() + millis(100));
  // The first datagram grafts the sender's edge into the tree.
  sender.send_udp_multicast(group, 8000, 8001, {0});
  fabric.sim().run_until(fabric.sim().now() + millis(100));
  delivered.clear();

  const auto sender_pmac = fabric.edge_at(0, 0).pmac_for(sender.mac());
  ASSERT_TRUE(sender_pmac.has_value());
  std::map<std::string, int> checked;
  fabric.network().set_frame_tap([&](const sim::Link& link, int rx_side,
                                     const sim::FramePtr& frame) {
    const auto* host = dynamic_cast<const host::Host*>(&link.device(rx_side));
    if (host == nullptr) return;
    const net::ParsedFrame& p = net::parsed_of(frame);
    if (!p.ipv4.has_value() || p.ipv4->dst != group) return;
    ++checked[host->name()];
    EXPECT_EQ(p.eth.dst, net::multicast_mac(group)) << host->name();
    EXPECT_EQ(p.eth.src, sender_pmac->to_mac()) << host->name();
    EXPECT_EQ(net::parse_frame(sim::frame_span(frame)).eth.src,
              sender_pmac->to_mac())
        << host->name();
  });
  constexpr int kBurst = 10;
  for (int i = 0; i < kBurst; ++i) {
    sender.send_udp_multicast(group, 8000, 8001,
                              {static_cast<std::uint8_t>(i)});
  }
  fabric.sim().run_until(fabric.sim().now() + millis(100));
  fabric.network().set_frame_tap({});

  for (const host::Host* r : receivers) {
    EXPECT_EQ(delivered[r->name()], kBurst) << r->name();
    EXPECT_EQ(checked[r->name()], kBurst) << r->name();
  }
}

TEST(Fastpath, SmallFnHeapFallbackStillRuns) {
  // Captures larger than the inline buffer transparently fall back to the
  // heap; behavior must be identical.
  sim::Simulator sim;
  std::array<std::uint8_t, 2 * sim::SmallFn::kInlineSize> big{};
  big.fill(7);
  int sum = 0;
  sim.after(10, [big, &sum] {
    for (const std::uint8_t b : big) sum += b;
  });
  sim.run();
  EXPECT_EQ(sum, 7 * static_cast<int>(big.size()));
}

}  // namespace
}  // namespace portland::core
