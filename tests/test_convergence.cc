// ConvergenceMonitor unit tests: the failure-timeline state machine fed
// with synthetic event streams (flap during reroute, zero affected
// flows, overlapping failures, unresolved blackholes), the streaming
// loop-freedom invariant, 5-tuple parsing, the JSONL/Prometheus
// renderers, and a real-socket round trip through the HTTP exporter.
//
// The end-to-end feeds (devices, FM, links) are covered by the soak
// suite (Soak.ConvergenceMonitorIsInvisibleToExecution) and E21.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <string>
#include <tuple>
#include <vector>

#include "obs/canonical_merge.h"
#include "obs/convergence_monitor.h"
#include "obs/http_exporter.h"

namespace portland::obs {
namespace {

// Stable name pointers: the monitor matches stages by endpoint identity
// the way it does in the fabric (device name strings outlive it).
constexpr char kEdge[] = "edge-p0-0";
constexpr char kAgg[] = "agg-p0-0";
constexpr char kEdge2[] = "edge-p1-0";
constexpr char kCore[] = "core-0-0";

std::vector<std::uint8_t> udp_frame(std::uint32_t src_ip,
                                    std::uint32_t dst_ip,
                                    std::uint16_t src_port,
                                    std::uint16_t dst_port,
                                    std::uint8_t proto = 17) {
  std::vector<std::uint8_t> f(14 + 20 + 8, 0);
  f[12] = 0x08;  // EtherType IPv4
  f[13] = 0x00;
  f[14] = 0x45;  // version 4, IHL 5
  f[14 + 9] = proto;
  for (int i = 0; i < 4; ++i) {
    f[14 + 12 + i] = static_cast<std::uint8_t>(src_ip >> (24 - 8 * i));
    f[14 + 16 + i] = static_cast<std::uint8_t>(dst_ip >> (24 - 8 * i));
  }
  f[34] = static_cast<std::uint8_t>(src_port >> 8);
  f[35] = static_cast<std::uint8_t>(src_port);
  f[36] = static_cast<std::uint8_t>(dst_port >> 8);
  f[37] = static_cast<std::uint8_t>(dst_port);
  return f;
}

TEST(FlowKey, ParsesEthernetIpv4Frames) {
  const auto udp = udp_frame(0x0A000001, 0x0A010002, 7100, 7100);
  const FlowKey key = parse_flow_key(udp.data(), udp.size());
  ASSERT_TRUE(key.valid());
  EXPECT_EQ(flow_key_to_string(key), "10.0.0.1:7100->10.1.0.2:7100/udp");

  const auto tcp = udp_frame(0x0A000001, 0x0A010002, 5001, 80, 6);
  EXPECT_EQ(flow_key_to_string(parse_flow_key(tcp.data(), tcp.size())),
            "10.0.0.1:5001->10.1.0.2:80/tcp");

  // Non-TCP/UDP protocols parse with zero ports.
  const auto icmp = udp_frame(0x0A000001, 0x0A010002, 0, 0, 1);
  const FlowKey icmp_key = parse_flow_key(icmp.data(), icmp.size());
  ASSERT_TRUE(icmp_key.valid());
  EXPECT_EQ(flow_key_to_string(icmp_key), "10.0.0.1:0->10.1.0.2:0/1");

  // Non-IPv4 EtherType and truncated headers are rejected.
  auto arp = udp_frame(1, 2, 3, 4);
  arp[12] = 0x08;
  arp[13] = 0x06;
  EXPECT_FALSE(parse_flow_key(arp.data(), arp.size()).valid());
  EXPECT_FALSE(parse_flow_key(udp.data(), 20).valid());
  EXPECT_FALSE(parse_flow_key(nullptr, 100).valid());
}

// advance() replays the per-shard buffers by merging them; the order
// must equal the full (time, shard, seq) sort it replaced, including for
// a shard whose appends are not time-ordered.
TEST(CanonicalMerge, MatchesFullSortWithAnOutOfOrderShard) {
  struct Ev {
    SimTime time = 0;
    std::uint64_t seq = 0;
  };
  using Key = std::tuple<SimTime, std::uint32_t, std::uint64_t>;
  constexpr std::uint32_t kShards = 5;
  std::vector<std::vector<Ev>> runs(kShards);
  std::uint64_t state = 0x9E3779B97F4A7C15ULL;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (std::uint32_t s = 0; s < kShards; ++s) {
    if (s == 3) continue;  // one shard with nothing to drain
    SimTime t = 0;
    for (std::uint64_t seq = 0; seq < 400; ++seq) {
      // Small steps give many equal times, within and across shards.
      t = s == 1 ? static_cast<SimTime>(next() % 200)  // out of order
                 : t + static_cast<SimTime>(next() % 3);
      runs[s].push_back(Ev{t, seq});
    }
  }
  ASSERT_FALSE(std::is_sorted(
      runs[1].begin(), runs[1].end(),
      [](const Ev& x, const Ev& y) { return x.time < y.time; }));

  std::vector<Key> expected;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    for (const Ev& e : runs[s]) expected.emplace_back(e.time, s, e.seq);
  }
  std::sort(expected.begin(), expected.end());

  std::vector<Key> merged;
  merge_canonical(
      kShards, [&runs](std::uint32_t s) -> std::vector<Ev>& { return runs[s]; },
      [](const Ev& e) { return e.time; },
      [&merged](const Ev& e, std::uint32_t s) {
        merged.emplace_back(e.time, s, e.seq);
      });
  EXPECT_EQ(merged, expected);

  // A lone out-of-order shard takes the single-run path.
  std::vector<Ev> lone = {{5, 0}, {2, 1}, {5, 2}, {1, 3}, {2, 4}};
  std::vector<std::uint64_t> order;
  merge_canonical(
      1, [&lone](std::uint32_t) -> std::vector<Ev>& { return lone; },
      [](const Ev& e) { return e.time; },
      [&order](const Ev& e, std::uint32_t) { order.push_back(e.seq); });
  EXPECT_EQ(order, (std::vector<std::uint64_t>{3, 1, 4, 0, 2}));
}

// The same failure fed through three shards, one of which appends out of
// time order, reads exactly like the single-shard in-order feed.
TEST(ConvergenceMonitor, ShardedFeedMatchesSingleShardFeed) {
  const auto frame = udp_frame(0x0A000001, 0x0A010002, 7100, 7100);
  const auto feed = [&frame](ConvergenceMonitor& m, std::uint32_t link,
                             std::uint32_t fabric, std::uint32_t late) {
    m.on_link_event(link, millis(1), kEdge, kAgg, /*up=*/false);
    // `late` appends the recovery before the loss it recovers from.
    m.on_hop(late, millis(55), kEdge2, HopEvent::kDeliver, 9, frame.data(),
             frame.size());
    m.on_drop(late, millis(2), 0, frame.data(), frame.size());
    m.on_neighbor_event(fabric, millis(51), kEdge, /*lost=*/true);
    m.on_fault_notify(fabric, millis(52), /*link_up=*/false);
    m.on_prune_install(fabric, millis(54), kEdge);
    m.on_link_event(link, millis(100), kEdge, kAgg, /*up=*/true);
    m.advance();
  };
  ConvergenceMonitor sharded(3, {});
  feed(sharded, 0, 1, 2);
  ConvergenceMonitor single(1, {});
  single.on_link_event(0, millis(1), kEdge, kAgg, false);
  single.on_drop(0, millis(2), 0, frame.data(), frame.size());
  single.on_neighbor_event(0, millis(51), kEdge, true);
  single.on_fault_notify(0, millis(52), false);
  single.on_prune_install(0, millis(54), kEdge);
  single.on_hop(0, millis(55), kEdge2, HopEvent::kDeliver, 9, frame.data(),
                frame.size());
  single.on_link_event(0, millis(100), kEdge, kAgg, true);
  single.advance();

  std::string a;
  std::string b;
  sharded.write_timelines_jsonl(&a);
  single.write_timelines_jsonl(&b);
  EXPECT_EQ(a, b);
  ASSERT_EQ(sharded.completed().size(), 1u);
  EXPECT_EQ(sharded.completed()[0].recovered, millis(55));
  ASSERT_EQ(sharded.completed()[0].blackholes.size(), 1u);
  EXPECT_EQ(sharded.completed()[0].blackholes[0].duration(), millis(53));
}

TEST(ConvergenceMonitor, SingleFailureTimeline) {
  ConvergenceMonitor monitor(1, {});
  const auto frame = udp_frame(0x0A000001, 0x0A010002, 7100, 7100);

  monitor.on_link_event(0, millis(1), kEdge, kAgg, /*up=*/false);
  monitor.on_drop(0, millis(2), 0, frame.data(), frame.size());
  monitor.on_neighbor_event(0, millis(51), kEdge, /*lost=*/true);
  monitor.on_fault_notify(0, millis(52), /*link_up=*/false);
  monitor.on_prune_install(0, millis(54), kEdge);
  monitor.on_hop(0, millis(55), kEdge2, HopEvent::kDeliver, 9,
                 frame.data(), frame.size());
  monitor.on_link_event(0, millis(100), kEdge, kAgg, /*up=*/true);
  monitor.advance();

  ASSERT_EQ(monitor.completed().size(), 1u);
  EXPECT_EQ(monitor.open_timelines(), 0u);
  const FailureTimeline& tl = monitor.completed()[0];
  EXPECT_EQ(tl.link, "edge-p0-0<->agg-p0-0");
  EXPECT_EQ(tl.link_down, millis(1));
  EXPECT_EQ(tl.detect, millis(51));
  EXPECT_EQ(tl.notify, millis(52));
  EXPECT_EQ(tl.reroute, millis(54));
  EXPECT_EQ(tl.recovered, millis(55));
  EXPECT_EQ(tl.repaired, millis(100));
  EXPECT_FALSE(tl.flapped);
  EXPECT_EQ(tl.convergence(), millis(54));  // recovered - link_down
  ASSERT_EQ(tl.blackholes.size(), 1u);
  EXPECT_TRUE(tl.blackholes[0].closed());
  EXPECT_EQ(tl.blackholes[0].duration(), millis(53));
  EXPECT_EQ(monitor.unresolved_blackholes(), 0u);
}

// Repaired while the reroute was still in flight: the timeline closes
// flapped, with the stages past the flap left unset.
TEST(ConvergenceMonitor, FlapDuringReroute) {
  ConvergenceMonitor monitor(1, {});
  monitor.on_link_event(0, millis(1), kEdge, kAgg, false);
  monitor.on_neighbor_event(0, millis(51), kAgg, true);
  monitor.on_link_event(0, millis(52), kAgg, kEdge, true);  // reversed order
  monitor.advance();

  ASSERT_EQ(monitor.completed().size(), 1u);
  const FailureTimeline& tl = monitor.completed()[0];
  EXPECT_TRUE(tl.flapped);
  EXPECT_EQ(tl.detect, millis(51));
  EXPECT_EQ(tl.reroute, 0);
  EXPECT_EQ(tl.repaired, millis(52));
  EXPECT_EQ(tl.convergence(), 0);
}

// A failure no flow crossed still converges at the control plane: the
// reroute install is the convergence stage and there are no blackholes.
TEST(ConvergenceMonitor, ZeroAffectedFlows) {
  ConvergenceMonitor monitor(1, {});
  monitor.on_link_event(0, millis(1), kEdge, kAgg, false);
  monitor.on_neighbor_event(0, millis(51), kEdge, true);
  monitor.on_fault_notify(0, millis(52), false);
  monitor.on_prune_install(0, millis(53), kCore);
  monitor.on_link_event(0, millis(200), kEdge, kAgg, true);
  monitor.advance();

  ASSERT_EQ(monitor.completed().size(), 1u);
  const FailureTimeline& tl = monitor.completed()[0];
  EXPECT_TRUE(tl.blackholes.empty());
  EXPECT_EQ(tl.recovered, 0);
  EXPECT_EQ(tl.convergence(), millis(52));  // reroute - link_down
  EXPECT_FALSE(tl.flapped);
}

// Two failures overlapping in time: stages attach per timeline (detect
// by endpoint, notify/reroute to the detected-but-unserved ones), and
// each closes on its own repair.
TEST(ConvergenceMonitor, OverlappingFailures) {
  ConvergenceMonitor monitor(1, {});
  monitor.on_link_event(0, millis(1), kEdge, kAgg, false);
  monitor.on_link_event(0, millis(5), kEdge2, kCore, false);
  monitor.on_neighbor_event(0, millis(51), kEdge, true);
  monitor.on_fault_notify(0, millis(52), false);
  monitor.on_prune_install(0, millis(53), kCore);
  monitor.on_neighbor_event(0, millis(55), kEdge2, true);
  monitor.on_fault_notify(0, millis(56), false);
  monitor.on_prune_install(0, millis(57), kCore);
  monitor.on_link_event(0, millis(100), kEdge, kAgg, true);
  monitor.on_link_event(0, millis(110), kEdge2, kCore, true);
  monitor.advance();

  ASSERT_EQ(monitor.completed().size(), 2u);
  EXPECT_EQ(monitor.timelines_total(), 2u);
  const FailureTimeline& first = monitor.completed()[0];
  const FailureTimeline& second = monitor.completed()[1];
  EXPECT_EQ(first.link, "edge-p0-0<->agg-p0-0");
  EXPECT_EQ(first.detect, millis(51));
  EXPECT_EQ(first.notify, millis(52));
  EXPECT_EQ(first.reroute, millis(53));
  EXPECT_EQ(second.link, "edge-p1-0<->core-0-0");
  EXPECT_EQ(second.detect, millis(55));
  EXPECT_EQ(second.notify, millis(56));
  EXPECT_EQ(second.reroute, millis(57));
}

// A drop with no failure in flight is background loss, not a blackhole;
// a window whose flow never recovers before finalize() is the
// blackhole-freedom violation.
TEST(ConvergenceMonitor, UnresolvedBlackholeOnFinalize) {
  ConvergenceMonitor monitor(1, {});
  const auto frame = udp_frame(0x0A000001, 0x0A010002, 7100, 7100);

  // No open timeline yet: this drop must not open a window.
  monitor.on_drop(0, millis(0), 0, frame.data(), frame.size());
  monitor.on_link_event(0, millis(1), kEdge, kAgg, false);
  monitor.on_drop(0, millis(2), 0, frame.data(), frame.size());
  monitor.on_neighbor_event(0, millis(51), kEdge, true);
  monitor.finalize();

  ASSERT_EQ(monitor.completed().size(), 1u);
  const FailureTimeline& tl = monitor.completed()[0];
  ASSERT_EQ(tl.blackholes.size(), 1u);
  EXPECT_FALSE(tl.blackholes[0].closed());
  EXPECT_EQ(tl.blackholes[0].first_loss, millis(2));
  EXPECT_EQ(tl.repaired, 0);
  EXPECT_EQ(monitor.unresolved_blackholes(), 1u);
}

TEST(ConvergenceMonitor, LoopInvariantFlagsRevisits) {
  ConvergenceMonitor::Options opts;
  opts.check_invariants = true;
  ConvergenceMonitor monitor(1, opts);
  const auto frame = udp_frame(0x0A000001, 0x0A010002, 7100, 7100);

  // edge -> agg -> edge again: a forwarding loop.
  monitor.on_hop(0, millis(1), kEdge, HopEvent::kIngress, 7, frame.data(),
                 frame.size());
  monitor.on_hop(0, millis(2), kAgg, HopEvent::kIngress, 7, frame.data(),
                 frame.size());
  monitor.on_hop(0, millis(3), kEdge, HopEvent::kIngress, 7, frame.data(),
                 frame.size());
  EXPECT_EQ(monitor.loop_violations(), 1u);
  const auto details = monitor.loop_violation_details();
  ASSERT_EQ(details.size(), 1u);
  EXPECT_EQ(details[0].trace_id, 7u);
  EXPECT_STREQ(details[0].device, kEdge);

  // Delivery retires the trace: a fresh packet through the same switch
  // is a new journey, not a loop.
  monitor.on_hop(0, millis(4), kEdge2, HopEvent::kDeliver, 7, frame.data(),
                 frame.size());
  monitor.on_hop(0, millis(5), kEdge, HopEvent::kIngress, 7, frame.data(),
                 frame.size());
  EXPECT_EQ(monitor.loop_violations(), 1u);

  // With the check off, ingress feeds are free and nothing is tracked.
  ConvergenceMonitor off(1, {});
  off.on_hop(0, millis(1), kEdge, HopEvent::kIngress, 7, frame.data(),
             frame.size());
  off.on_hop(0, millis(2), kEdge, HopEvent::kIngress, 7, frame.data(),
             frame.size());
  EXPECT_EQ(off.loop_violations(), 0u);
}

/// Drives a fixed pseudo-random mix of ingresses, deliveries and drops
/// over 40 trace ids through a 16-slot loop table, so probe windows
/// collide, wrap and evict. Returns (violations, evictions, a hash of
/// the retained violation details).
std::tuple<std::uint64_t, std::uint64_t, std::uint64_t> run_loop_table_churn() {
  ConvergenceMonitor::Options opts;
  opts.check_invariants = true;
  opts.loop_table_capacity = 16;
  ConvergenceMonitor monitor(1, opts);
  const auto frame = udp_frame(0x0A000001, 0x0A010002, 7100, 7100);
  const char* const devices[] = {kEdge, kAgg, kEdge2, kCore};
  std::uint64_t x = 88172645463325252ull;  // xorshift64
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t op = next() % 10;
    const std::uint64_t trace = 1 + next() % 40;
    const SimTime t = micros(i);
    if (op < 7) {
      monitor.on_hop(0, t, devices[next() % 4], HopEvent::kIngress, trace,
                     frame.data(), frame.size());
    } else if (op < 9) {
      monitor.on_hop(0, t, kEdge2, HopEvent::kDeliver, trace, frame.data(),
                     frame.size());
    } else {
      monitor.on_drop(0, t, trace, frame.data(), frame.size());
    }
  }
  std::uint64_t details = 1469598103934665603ull;  // FNV-1a offset basis
  for (const LoopViolation& v : monitor.loop_violation_details()) {
    for (const std::uint64_t word :
         {static_cast<std::uint64_t>(v.time), v.trace_id,
          static_cast<std::uint64_t>(std::find(std::begin(devices),
                                               std::end(devices), v.device) -
                                     std::begin(devices))}) {
      details = (details ^ word) * 1099511628211ull;
    }
  }
  return {monitor.loop_violations(), monitor.loop_evictions(), details};
}

// The loop table's probe order, eviction and violation semantics under
// heavy collision. The expected counts were produced by the
// array-of-slots table this split key/path layout replaced, fed the same
// sequence.
TEST(ConvergenceMonitor, LoopTableEvictsAndFlagsDeterministically) {
  const auto [violations, evictions, details] = run_loop_table_churn();
  EXPECT_EQ(violations, 392u);  // past the 64 retained details
  EXPECT_EQ(evictions, 1241u);
  EXPECT_EQ(details, 0x8e9e3d28058a94a6ull);
}

TEST(ConvergenceMonitor, RendersJsonlAndPrometheus) {
  ConvergenceMonitor monitor(1, {});
  const auto frame = udp_frame(0x0A000001, 0x0A010002, 7100, 7100);
  monitor.on_link_event(0, millis(1), kEdge, kAgg, false);
  monitor.on_drop(0, millis(2), 0, frame.data(), frame.size());
  monitor.on_neighbor_event(0, millis(51), kEdge, true);
  monitor.on_fault_notify(0, millis(52), false);
  monitor.on_prune_install(0, millis(54), kEdge);
  monitor.on_hop(0, millis(55), kEdge2, HopEvent::kDeliver, 9,
                 frame.data(), frame.size());
  monitor.on_link_event(0, millis(100), kEdge, kAgg, true);
  monitor.advance();

  std::string jsonl;
  monitor.write_timelines_jsonl(&jsonl);
  EXPECT_NE(jsonl.find("\"link\":\"edge-p0-0<->agg-p0-0\""),
            std::string::npos);
  EXPECT_NE(jsonl.find("\"detect_ms\":50.000"), std::string::npos);
  EXPECT_NE(jsonl.find("\"convergence_ms\":54.000"), std::string::npos);
  EXPECT_NE(jsonl.find("\"repaired\":true"), std::string::npos);
  EXPECT_NE(jsonl.find("10.0.0.1:7100->10.1.0.2:7100/udp"),
            std::string::npos);
  EXPECT_EQ(jsonl.back(), '\n');

  std::string prom;
  monitor.render_prometheus(&prom);
  EXPECT_NE(prom.find("portland_convergence_timelines_completed 1\n"),
            std::string::npos);
  EXPECT_NE(prom.find("portland_convergence_ms{link=\"edge-p0-0<->"
                      "agg-p0-0\",id=\"1\"} 54.000"),
            std::string::npos);
  EXPECT_NE(prom.find("portland_blackhole_ms{"), std::string::npos);

  // A never-completed stage renders as null, not 0.
  ConvergenceMonitor flap(1, {});
  flap.on_link_event(0, millis(1), kEdge, kAgg, false);
  flap.on_link_event(0, millis(2), kEdge, kAgg, true);
  flap.advance();
  std::string flap_jsonl;
  flap.write_timelines_jsonl(&flap_jsonl);
  EXPECT_NE(flap_jsonl.find("\"detect_ms\":null"), std::string::npos);
  EXPECT_NE(flap_jsonl.find("\"convergence_ms\":null"), std::string::npos);
  EXPECT_NE(flap_jsonl.find("\"flapped\":true"), std::string::npos);
}

TEST(ConvergenceMonitor, ClearForgetsEverything) {
  ConvergenceMonitor monitor(2, {});
  monitor.on_link_event(0, millis(1), kEdge, kAgg, false);
  monitor.on_neighbor_event(1, millis(51), kEdge, true);
  monitor.finalize();
  ASSERT_EQ(monitor.completed().size(), 1u);

  monitor.clear();
  EXPECT_TRUE(monitor.completed().empty());
  EXPECT_EQ(monitor.open_timelines(), 0u);
  EXPECT_EQ(monitor.events_captured(), 0u);
  EXPECT_EQ(monitor.timelines_total(), 0u);
  EXPECT_EQ(monitor.unresolved_blackholes(), 0u);
  // Timeline ids restart, as after a snapshot restore.
  monitor.on_link_event(0, millis(1), kEdge, kAgg, false);
  monitor.finalize();
  ASSERT_EQ(monitor.completed().size(), 1u);
  EXPECT_EQ(monitor.completed()[0].id, 1u);
}

// Events from different shards merge in canonical (time, shard, seq)
// order, so the state machine sees one deterministic stream.
TEST(ConvergenceMonitor, MergesShardStreamsByTime) {
  ConvergenceMonitor monitor(4, {});
  // Appended out of order across shards; sorted by time at advance().
  monitor.on_prune_install(3, millis(54), kCore);
  monitor.on_fault_notify(2, millis(52), false);
  monitor.on_neighbor_event(1, millis(51), kEdge, true);
  monitor.on_link_event(0, millis(1), kEdge, kAgg, false);
  monitor.finalize();

  ASSERT_EQ(monitor.completed().size(), 1u);
  const FailureTimeline& tl = monitor.completed()[0];
  EXPECT_EQ(tl.detect, millis(51));
  EXPECT_EQ(tl.notify, millis(52));
  EXPECT_EQ(tl.reroute, millis(54));
  EXPECT_EQ(monitor.events_captured(), 4u);
}

// Real-socket round trip: publish, connect, poll, read.
TEST(HttpExporter, ServesPublishedBodiesOverLoopback) {
  HttpExporter exporter(0);  // ephemeral port
  std::string error;
  ASSERT_TRUE(exporter.start(&error)) << error;
  ASSERT_TRUE(exporter.running());
  ASSERT_NE(exporter.port(), 0);
  exporter.publish_metrics("portland_up 1\n");
  exporter.publish_timelines("{\"id\":1}\n");

  const auto fetch = [&exporter](const std::string& request) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(exporter.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    exporter.poll();  // single-threaded: accept + answer now
    std::string response;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
      response.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return response;
  };

  const std::string health = fetch("GET /healthz HTTP/1.1\r\n\r\n");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok"), std::string::npos);

  const std::string metrics = fetch("GET /metrics HTTP/1.1\r\n\r\n");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain"), std::string::npos);
  EXPECT_NE(metrics.find("portland_up 1"), std::string::npos);

  const std::string timelines = fetch("GET /timelines HTTP/1.1\r\n\r\n");
  EXPECT_NE(timelines.find("application/json"), std::string::npos);
  EXPECT_NE(timelines.find("{\"id\":1}"), std::string::npos);

  EXPECT_NE(fetch("GET /nope HTTP/1.1\r\n\r\n").find("404"),
            std::string::npos);
  EXPECT_NE(fetch("POST /metrics HTTP/1.1\r\n\r\n").find("405"),
            std::string::npos);

  // Republish swaps the served body.
  exporter.publish_metrics("portland_up 2\n");
  EXPECT_NE(fetch("GET /metrics HTTP/1.1\r\n\r\n").find("portland_up 2"),
            std::string::npos);

  EXPECT_EQ(exporter.requests_served(), 6u);
  exporter.stop();
  EXPECT_FALSE(exporter.running());
}

}  // namespace
}  // namespace portland::obs
