// Host stack tests: ARP cache/resolution, UDP delivery, announcements.
// Topology: two hosts on one link (a degenerate L2 segment) unless stated.
#include <gtest/gtest.h>

#include <algorithm>

#include "host/apps.h"
#include "host/host.h"
#include "sim/network.h"

namespace portland::host {
namespace {

const MacAddress kMacA = MacAddress::from_u64(0x020000000001);
const MacAddress kMacB = MacAddress::from_u64(0x020000000002);
const Ipv4Address kIpA(10, 0, 0, 1);
const Ipv4Address kIpB(10, 0, 0, 2);

struct TwoHosts {
  sim::Network net;
  Host* a;
  Host* b;

  // On a shared segment a boot-time gratuitous ARP would pre-populate the
  // peer's cache (correct, but it hides the resolution path under test),
  // so announcements default off here.
  explicit TwoHosts(HostConfig cfg = {.announce_on_start = false}) {
    a = &net.add_device<Host>("a", kMacA, kIpA, cfg);
    b = &net.add_device<Host>("b", kMacB, kIpB, cfg);
    net.connect(*a, 0, *b, 0);
    net.start_all();
  }
};

TEST(ArpCache, InsertLookupExpire) {
  ArpCache cache(millis(100));
  cache.insert(kIpA, kMacA, 0);
  EXPECT_EQ(cache.lookup(kIpA, millis(50)), kMacA);
  EXPECT_FALSE(cache.lookup(kIpA, millis(150)).has_value());
  EXPECT_TRUE(cache.contains(kIpA));  // expired but present
  cache.invalidate(kIpA);
  EXPECT_FALSE(cache.contains(kIpA));
  EXPECT_FALSE(cache.lookup(kIpB, 0).has_value());
}

TEST(ArpCache, ExpiresStrictlyAfterLifetime) {
  ArpCache cache(millis(100));
  cache.insert(kIpA, kMacA, millis(10));
  // Expired once now - learned_at > lifetime, not at equality.
  EXPECT_EQ(cache.lookup(kIpA, millis(110)), kMacA);
  EXPECT_FALSE(cache.lookup(kIpA, millis(110) + 1).has_value());
  // A refresh restarts the lifetime.
  cache.insert(kIpA, kMacB, millis(110) + 1);
  EXPECT_EQ(cache.lookup(kIpA, millis(210)), kMacB);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ArpCache, InvalidateReinsertAndGrowth) {
  ArpCache cache(seconds(600));
  constexpr std::uint32_t kN = 3000;  // many resizes from the empty table
  auto ip = [](std::uint32_t i) { return Ipv4Address(0x0A000000u + i); };
  auto mac = [](std::uint32_t i) { return MacAddress::from_u64(0x1000 + i); };
  for (std::uint32_t i = 0; i < kN; ++i) {
    cache.insert(ip(i), mac(i), i);
    if (i >= 100) {
      // 20-byte slots at a load of 3/5 to 3/4.
      EXPECT_LE(cache.memory_bytes(), 34 * cache.size()) << i;
    }
  }
  ASSERT_EQ(cache.size(), kN);
  for (std::uint32_t i = 0; i < kN; ++i) {
    ASSERT_EQ(cache.lookup(ip(i), i), mac(i)) << i;
  }
  // Invalidate every other entry; the rest stay reachable (deletion
  // shifts probe runs back instead of leaving tombstones).
  for (std::uint32_t i = 0; i < kN; i += 2) cache.invalidate(ip(i));
  EXPECT_EQ(cache.size(), kN / 2);
  for (std::uint32_t i = 0; i < kN; ++i) {
    EXPECT_EQ(cache.contains(ip(i)), i % 2 == 1) << i;
  }
  cache.invalidate(ip(0));  // absent: no-op
  EXPECT_EQ(cache.size(), kN / 2);
  for (std::uint32_t i = 0; i < kN; i += 2) {
    cache.insert(ip(i), mac(i + 1), kN);
  }
  EXPECT_EQ(cache.size(), kN);
  for (std::uint32_t i = 0; i < kN; ++i) {
    EXPECT_EQ(cache.lookup(ip(i), kN), mac(i % 2 == 0 ? i + 1 : i)) << i;
  }
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.contains(ip(1)));
}

TEST(ArpCache, SnapshotImageIsIpSorted) {
  ArpCache cache(seconds(600));
  const Ipv4Address ips[] = {Ipv4Address(10, 9, 0, 1), Ipv4Address(10, 0, 0, 7),
                             Ipv4Address(192, 168, 1, 1),
                             Ipv4Address(10, 0, 0, 2)};
  for (std::size_t i = 0; i < std::size(ips); ++i) {
    cache.insert(ips[i], MacAddress::from_u64(0xA0 + i),
                 static_cast<SimTime>(1000 * i));
  }
  std::vector<std::uint8_t> image;
  sim::SnapshotWriter w(image);
  cache.save_state(w);

  // The image layout: count, then (ip, mac, learned_at) by ascending IP.
  std::vector<std::size_t> order = {0, 1, 2, 3};
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return ips[a].value() < ips[b].value();
  });
  std::vector<std::uint8_t> expected;
  sim::SnapshotWriter e(expected);
  e.u32(4);
  for (const std::size_t i : order) {
    e.u32(ips[i].value());
    e.u64(0xA0 + i);
    e.i64(static_cast<SimTime>(1000 * i));
  }
  EXPECT_EQ(image, expected);

  ArpCache restored(seconds(600));
  sim::SnapshotReader r(image);
  restored.restore_state(r);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(restored.size(), 4u);
  std::vector<std::uint8_t> again;
  sim::SnapshotWriter w2(again);
  restored.save_state(w2);
  EXPECT_EQ(again, image);
}

TEST(Host, ResolvesViaArpAndDeliversUdp) {
  TwoHosts fx;
  std::vector<std::uint8_t> received;
  Ipv4Address from;
  fx.b->bind_udp(9000, [&](Ipv4Address src, std::uint16_t, std::uint16_t,
                           std::span<const std::uint8_t> payload) {
    from = src;
    received.assign(payload.begin(), payload.end());
  });
  fx.net.sim().at(millis(5), [&] {
    fx.a->send_udp(kIpB, 9001, 9000, {1, 2, 3});
  });
  fx.net.sim().run_until(millis(100));
  EXPECT_EQ(received, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(from, kIpA);
  // Exactly one ARP request was needed.
  EXPECT_EQ(fx.a->arp_requests_sent(), 1u);
  EXPECT_EQ(fx.a->arp_cache().lookup(kIpB, fx.net.sim().now()), kMacB);
}

TEST(Host, QueuedFramesFlushAfterResolution) {
  TwoHosts fx;
  int delivered = 0;
  fx.b->bind_udp(9000, [&](Ipv4Address, std::uint16_t, std::uint16_t,
                           std::span<const std::uint8_t>) { ++delivered; });
  fx.net.sim().at(millis(5), [&] {
    for (int i = 0; i < 10; ++i) fx.a->send_udp(kIpB, 9001, 9000, {0});
  });
  fx.net.sim().run_until(millis(100));
  EXPECT_EQ(delivered, 10);
  EXPECT_EQ(fx.a->arp_requests_sent(), 1u);  // one resolution for the burst
}

TEST(Host, ArpRetriesThenGivesUp) {
  HostConfig cfg;
  cfg.arp_retry_interval = millis(10);
  cfg.arp_max_retries = 3;
  TwoHosts fx(cfg);
  // Unresolvable address: nobody owns it.
  fx.net.sim().at(millis(1), [&] {
    fx.a->send_udp(Ipv4Address(10, 9, 9, 9), 1, 2, {0});
  });
  fx.net.sim().run_until(millis(500));
  EXPECT_EQ(fx.a->arp_requests_sent(), 4u);  // initial + 3 retries
  EXPECT_EQ(fx.a->counters().get("arp_resolution_failed"), 1u);
}

TEST(Host, PendingQueueBounded) {
  HostConfig cfg;
  cfg.max_pending_frames_per_dst = 4;
  TwoHosts fx(cfg);
  fx.net.sim().at(millis(1), [&] {
    for (int i = 0; i < 10; ++i) {
      fx.a->send_udp(Ipv4Address(10, 9, 9, 9), 1, 2, {0});
    }
  });
  fx.net.sim().run_until(millis(10));
  EXPECT_EQ(fx.a->counters().get("arp_pending_overflow"), 6u);
}

TEST(Host, AnswersArpForItsIp) {
  TwoHosts fx;
  fx.net.sim().run_until(millis(50));
  // a resolves b: b must answer with its MAC.
  fx.net.sim().at(fx.net.sim().now(), [&] {
    fx.a->send_udp(kIpB, 1, 2, {0});
  });
  fx.net.sim().run_until(fx.net.sim().now() + millis(50));
  EXPECT_EQ(fx.b->counters().get("arp_replies_sent"), 1u);
}

TEST(Host, GratuitousArpOnStartRefreshesPeers) {
  TwoHosts fx(HostConfig{.announce_on_start = true});
  fx.net.sim().run_until(millis(50));
  // Both hosts announced at boot.
  EXPECT_EQ(fx.a->counters().get("garp_sent"), 1u);
  EXPECT_EQ(fx.b->counters().get("garp_sent"), 1u);

  // Prime a's cache, then have b re-announce with (hypothetically) the
  // same MAC; the cache entry must be refreshed, not duplicated.
  fx.net.sim().at(fx.net.sim().now(), [&] { fx.a->send_udp(kIpB, 1, 2, {0}); });
  fx.net.sim().run_until(fx.net.sim().now() + millis(20));
  const std::size_t size_before = fx.a->arp_cache().size();
  fx.net.sim().at(fx.net.sim().now(), [&] { fx.b->send_gratuitous_arp(); });
  fx.net.sim().run_until(fx.net.sim().now() + millis(20));
  EXPECT_EQ(fx.a->arp_cache().size(), size_before);
}

TEST(Host, IgnoresOwnFrames) {
  TwoHosts fx;
  // A broadcast from a loops back in some fabrics; the host must not
  // process frames bearing its own source MAC. Simulate by direct call.
  fx.net.sim().run_until(millis(10));
  const std::uint64_t before = fx.a->counters().get("rx_wrong_ip");
  auto frame = net::build_udp_frame(MacAddress::broadcast(), kMacA, kIpA,
                                    Ipv4Address(10, 7, 7, 7), 1, 2, {});
  fx.a->handle_frame(0, sim::make_frame(std::move(frame)));
  EXPECT_EQ(fx.a->counters().get("rx_wrong_ip"), before);
}

TEST(Host, UnboundUdpCounted) {
  TwoHosts fx;
  fx.net.sim().at(millis(1), [&] { fx.a->send_udp(kIpB, 1, 4242, {0}); });
  fx.net.sim().run_until(millis(100));
  EXPECT_EQ(fx.b->counters().get("udp_rx_unbound"), 1u);
}

TEST(UdpFlow, SenderReceiverAndGapMeasurement) {
  TwoHosts fx;
  UdpFlowReceiver receiver(*fx.b, 7001);
  UdpFlowSender::Config cfg;
  cfg.dst = kIpB;
  cfg.interval = millis(1);
  UdpFlowSender sender(*fx.a, cfg);
  fx.net.sim().at(millis(10), [&] { sender.start(); });
  fx.net.sim().run_until(millis(200));
  sender.stop();

  EXPECT_GT(receiver.packets_received(), 150u);
  EXPECT_EQ(receiver.unique_sequences(), receiver.packets_received());
  // Steady flow on a healthy link: no gap anywhere near failure scale.
  EXPECT_LT(receiver.max_gap(0, millis(200)), millis(20));
  EXPECT_TRUE(receiver.gaps_over(millis(20)).empty());
}

TEST(UdpFlow, GapVisibleWhenLinkFlaps) {
  TwoHosts fx;
  UdpFlowReceiver receiver(*fx.b, 7001);
  UdpFlowSender::Config cfg;
  cfg.dst = kIpB;
  cfg.interval = millis(1);
  UdpFlowSender sender(*fx.a, cfg);
  fx.net.sim().at(millis(10), [&] { sender.start(); });
  fx.net.sim().at(millis(100), [&] { fx.net.links()[0]->set_up(false); });
  fx.net.sim().at(millis(160), [&] { fx.net.links()[0]->set_up(true); });
  fx.net.sim().run_until(millis(300));
  sender.stop();

  const SimDuration gap = receiver.max_gap(millis(50), millis(250));
  EXPECT_GE(gap, millis(55));
  EXPECT_LE(gap, millis(80));
}

TEST(Host, ArpCacheExpiryTriggersReResolution) {
  HostConfig cfg;
  cfg.announce_on_start = false;
  cfg.arp_cache_lifetime = millis(300);
  TwoHosts fx(cfg);
  int delivered = 0;
  fx.b->bind_udp(9000, [&](Ipv4Address, std::uint16_t, std::uint16_t,
                           std::span<const std::uint8_t>) { ++delivered; });
  fx.net.sim().at(millis(5), [&] { fx.a->send_udp(kIpB, 1, 9000, {0}); });
  fx.net.sim().run_until(millis(100));
  ASSERT_EQ(delivered, 1);
  ASSERT_EQ(fx.a->arp_requests_sent(), 1u);

  // Past the cache lifetime the next send resolves again.
  fx.net.sim().run_until(millis(500));
  fx.net.sim().at(fx.net.sim().now(), [&] { fx.a->send_udp(kIpB, 1, 9000, {0}); });
  fx.net.sim().run_until(fx.net.sim().now() + millis(100));
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(fx.a->arp_requests_sent(), 2u);
}

TEST(PermutationPairing, NoFixedPointsAndBijective) {
  Rng rng(3);
  for (const std::size_t n : {2u, 5u, 16u, 64u}) {
    const auto perm = permutation_pairing(n, rng);
    ASSERT_EQ(perm.size(), n);
    std::vector<bool> hit(n, false);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NE(perm[i], i);
      EXPECT_FALSE(hit[perm[i]]);
      hit[perm[i]] = true;
    }
  }
}

}  // namespace
}  // namespace portland::host
