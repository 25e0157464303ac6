// TCP-lite behavioral tests: handshake, transfer integrity, loss recovery
// (fast retransmit and RTO), and teardown — the machinery behind the
// paper's TCP convergence and VM-migration experiments.
#include <gtest/gtest.h>

#include "host/host.h"
#include "sim/network.h"

namespace portland::host {
namespace {

const MacAddress kMacA = MacAddress::from_u64(0x020000000001);
const MacAddress kMacB = MacAddress::from_u64(0x020000000002);
const Ipv4Address kIpA(10, 0, 0, 1);
const Ipv4Address kIpB(10, 0, 0, 2);

struct TcpPair {
  sim::Network net;
  Host* client;
  Host* server;
  TcpConnection* accepted = nullptr;

  explicit TcpPair(sim::Link::Config link_cfg = {}) {
    client = &net.add_device<Host>("client", kMacA, kIpA);
    server = &net.add_device<Host>("server", kMacB, kIpB);
    net.connect(*client, 0, *server, 0, link_cfg);
    server->tcp_listen(5001, [this](TcpConnection& c) { accepted = &c; });
    net.start_all();
  }
};

TEST(Tcp, HandshakeEstablishesBothSides) {
  TcpPair fx;
  TcpConnection* conn = nullptr;
  fx.net.sim().at(millis(5), [&] {
    conn = fx.client->tcp_connect(kIpB, 5001);
  });
  fx.net.sim().run_until(millis(100));
  ASSERT_NE(conn, nullptr);
  ASSERT_NE(fx.accepted, nullptr);
  EXPECT_TRUE(conn->established());
  EXPECT_TRUE(fx.accepted->established());
}

TEST(Tcp, TransfersDataIntact) {
  TcpPair fx;
  TcpConnection* conn = nullptr;
  const std::uint64_t kBytes = 500'000;
  fx.net.sim().at(millis(5), [&] {
    conn = fx.client->tcp_connect(kIpB, 5001);
    conn->send(kBytes);
  });
  fx.net.sim().run_until(seconds(5));
  ASSERT_NE(fx.accepted, nullptr);
  EXPECT_EQ(fx.accepted->bytes_delivered(), kBytes);
  EXPECT_FALSE(fx.accepted->payload_corruption_seen());
  EXPECT_EQ(conn->bytes_acked(), kBytes);
  EXPECT_EQ(conn->timeouts(), 0u);
}

TEST(Tcp, SlowStartGrowsCwnd) {
  TcpPair fx;
  TcpConnection* conn = nullptr;
  fx.net.sim().at(millis(5), [&] {
    conn = fx.client->tcp_connect(kIpB, 5001);
    conn->send(2'000'000);
  });
  fx.net.sim().run_until(seconds(1));
  ASSERT_NE(conn, nullptr);
  EXPECT_GT(conn->cwnd_bytes(), 10u * 1400u);  // grew past IW10
}

TEST(Tcp, FinTeardownDeliversEverything) {
  TcpPair fx;
  TcpConnection* conn = nullptr;
  bool finished = false;
  fx.server->tcp_listen(5001, [&](TcpConnection& c) {
    fx.accepted = &c;
    c.set_finished_callback([&] { finished = true; });
  });
  fx.net.sim().at(millis(5), [&] {
    conn = fx.client->tcp_connect(kIpB, 5001);
    conn->send(10'000);
    conn->close();
  });
  fx.net.sim().run_until(seconds(2));
  EXPECT_TRUE(finished);
  EXPECT_EQ(fx.accepted->bytes_delivered(), 10'000u);
}

TEST(Tcp, SurvivesBriefOutageViaRto) {
  TcpPair fx;
  TcpConnection* conn = nullptr;
  const std::uint64_t kBytes = 300'000;
  fx.net.sim().at(millis(5), [&] {
    conn = fx.client->tcp_connect(kIpB, 5001);
    conn->send(kBytes);
  });
  // Cut the link mid-transfer (300 KB takes ~2.4 ms of wire time at
  // 1 Gb/s, so cut 100 us after the flow starts) for 300 ms.
  fx.net.sim().at(micros(5100), [&] { fx.net.links()[0]->set_up(false); });
  fx.net.sim().at(micros(305'100), [&] { fx.net.links()[0]->set_up(true); });
  fx.net.sim().run_until(seconds(10));
  ASSERT_NE(fx.accepted, nullptr);
  EXPECT_EQ(fx.accepted->bytes_delivered(), kBytes);
  EXPECT_FALSE(fx.accepted->payload_corruption_seen());
  EXPECT_GE(conn->timeouts(), 1u);  // outage spanned at least one RTO
}

TEST(Tcp, FastRetransmitOnIsolatedLoss) {
  // Narrow queue so a burst overflows: drop-tail produces isolated losses
  // that dup-ACKs repair without waiting for the 200 ms RTO.
  sim::Link::Config link;
  link.bandwidth_bps = 100e6;
  link.queue_capacity_bytes = 8 * 1500;
  TcpPair fx(link);
  TcpConnection* conn = nullptr;
  const std::uint64_t kBytes = 2'000'000;
  fx.net.sim().at(millis(5), [&] {
    conn = fx.client->tcp_connect(kIpB, 5001);
    conn->send(kBytes);
  });
  fx.net.sim().run_until(seconds(30));
  ASSERT_NE(fx.accepted, nullptr);
  EXPECT_EQ(fx.accepted->bytes_delivered(), kBytes);
  EXPECT_FALSE(fx.accepted->payload_corruption_seen());
  EXPECT_GT(conn->retransmissions(), 0u);  // losses happened and were repaired
}

TEST(Tcp, RtoBacksOffExponentially) {
  TcpPair fx;
  TcpConnection* conn = nullptr;
  fx.net.sim().at(millis(5), [&] {
    conn = fx.client->tcp_connect(kIpB, 5001);
    conn->send(50'000);
  });
  // Link dies and stays dead: RTO must back off, not spam.
  fx.net.sim().at(micros(5050), [&] { fx.net.links()[0]->set_up(false); });
  fx.net.sim().run_until(seconds(20));
  ASSERT_NE(conn, nullptr);
  EXPECT_GE(conn->timeouts(), 3u);
  EXPECT_LE(conn->timeouts(), 9u);  // exponential spacing, not linear
  EXPECT_GE(conn->current_rto(), seconds(1));
}

TEST(Tcp, SynRetransmittedWhenLost) {
  TcpPair fx;
  fx.net.links()[0]->set_up(false);
  TcpConnection* conn = nullptr;
  fx.net.sim().at(millis(5), [&] { conn = fx.client->tcp_connect(kIpB, 5001); });
  fx.net.sim().at(millis(1500), [&] { fx.net.links()[0]->set_up(true); });
  fx.net.sim().run_until(seconds(10));
  ASSERT_NE(conn, nullptr);
  EXPECT_TRUE(conn->established());
  EXPECT_GE(conn->retransmissions(), 1u);  // at least one SYN retry
}

TEST(Tcp, MeasuresRtt) {
  sim::Link::Config link;
  link.propagation = millis(2);  // RTT ~4 ms
  TcpPair fx(link);
  TcpConnection* conn = nullptr;
  fx.net.sim().at(millis(5), [&] {
    conn = fx.client->tcp_connect(kIpB, 5001);
    conn->send(100'000);
  });
  fx.net.sim().run_until(seconds(2));
  ASSERT_NE(conn, nullptr);
  EXPECT_GT(conn->smoothed_rtt_ms(), 3.0);
  EXPECT_LT(conn->smoothed_rtt_ms(), 10.0);
  EXPECT_EQ(conn->current_rto(), millis(200));  // clamped at RTO_min
}

TEST(Tcp, DeliverCallbackMonotone) {
  TcpPair fx;
  std::vector<std::uint64_t> totals;
  fx.server->tcp_listen(5001, [&](TcpConnection& c) {
    fx.accepted = &c;
    c.set_deliver_callback([&](std::uint64_t t) { totals.push_back(t); });
  });
  fx.net.sim().at(millis(5), [&] {
    fx.client->tcp_connect(kIpB, 5001)->send(100'000);
  });
  fx.net.sim().run_until(seconds(2));
  ASSERT_FALSE(totals.empty());
  EXPECT_TRUE(std::is_sorted(totals.begin(), totals.end()));
  EXPECT_EQ(totals.back(), 100'000u);
}

TEST(Tcp, PatternTableEqualsPayloadByte) {
  constexpr std::uint64_t kPeriod = TcpConnection::kPatternPeriod;
  // Offsets around several period wraps, and far into a long stream.
  const std::uint64_t offsets[] = {0,           1,           kPeriod - 1,
                                   kPeriod,     kPeriod + 7, 3 * kPeriod - 5,
                                   5 * kPeriod, (std::uint64_t{1} << 40) + 12345};
  for (const std::uint64_t offset : offsets) {
    for (const std::size_t len : {std::size_t{1}, std::size_t{1400},
                                  std::size_t{kPeriod}}) {
      const auto view = TcpConnection::payload_view(offset, len);
      ASSERT_EQ(view.size(), len);
      for (std::size_t i = 0; i < len; ++i) {
        ASSERT_EQ(view[i], TcpConnection::payload_byte(offset + i))
            << "offset " << offset << " + " << i;
      }
    }
    // payload_matches takes any length: up to 64 KiB spans two periods.
    for (const std::size_t len : {std::size_t{0}, std::size_t{1460},
                                  std::size_t{kPeriod + 1}, std::size_t{65536}}) {
      std::vector<std::uint8_t> bytes(len);
      for (std::size_t i = 0; i < len; ++i) {
        bytes[i] = TcpConnection::payload_byte(offset + i);
      }
      EXPECT_TRUE(TcpConnection::payload_matches(offset, bytes))
          << "offset " << offset << " len " << len;
      if (len == 0) continue;
      for (const std::size_t at : {std::size_t{0}, len / 2, len - 1}) {
        bytes[at] ^= 0x01;
        EXPECT_FALSE(TcpConnection::payload_matches(offset, bytes))
            << "offset " << offset << " len " << len << " flip " << at;
        bytes[at] ^= 0x01;
      }
    }
  }
}

/// Two connections wired back to back with no network: each side's
/// segments are captured, so a test can deliver them in any order and
/// with any byte changed.
struct WiredPair {
  struct Segment {
    net::TcpHeader header;
    std::vector<std::uint8_t> payload;
  };
  sim::Simulator sim;
  std::vector<Segment> to_server;
  std::vector<Segment> to_client;
  TcpConnection client{sim, TcpEndpointKey{kIpB, 5001, 40000}, TcpConfig{},
                       [this](const net::TcpHeader& h,
                              std::span<const std::uint8_t> p) {
                         to_server.push_back({h, {p.begin(), p.end()}});
                       },
                       1000};
  TcpConnection server{sim, TcpEndpointKey{kIpA, 40000, 5001}, TcpConfig{},
                       [this](const net::TcpHeader& h,
                              std::span<const std::uint8_t> p) {
                         to_client.push_back({h, {p.begin(), p.end()}});
                       },
                       9000};

  /// Handshake, then `segments` full-MSS data segments from the client,
  /// left undelivered in to_server.
  explicit WiredPair(std::size_t segments) {
    client.connect();
    server.accept_syn(to_server.at(0).header);
    client.handle_segment(to_client.at(0).header, {});  // SYN|ACK
    server.handle_segment(to_server.at(1).header, {});  // completing ACK
    to_server.clear();
    client.send(segments * TcpConfig{}.mss);
    EXPECT_EQ(to_server.size(), segments);
  }
  void deliver(std::size_t i) {
    server.handle_segment(to_server.at(i).header, to_server.at(i).payload);
  }
};

TEST(Tcp, CorruptedByteIsCaughtOnTheInOrderPath) {
  WiredPair clean(2);
  clean.deliver(0);
  clean.deliver(1);
  EXPECT_EQ(clean.server.bytes_delivered(), 2u * TcpConfig{}.mss);
  EXPECT_FALSE(clean.server.payload_corruption_seen());

  WiredPair fx(2);
  fx.to_server[1].payload[700] ^= 0x40;
  fx.deliver(0);
  EXPECT_FALSE(fx.server.payload_corruption_seen());
  fx.deliver(1);
  EXPECT_EQ(fx.server.bytes_delivered(), 2u * TcpConfig{}.mss);
  EXPECT_TRUE(fx.server.payload_corruption_seen());
}

TEST(Tcp, CorruptedByteIsCaughtOnTheOutOfOrderDrain) {
  WiredPair clean(3);
  clean.deliver(2);
  clean.deliver(1);
  clean.deliver(0);  // drains the two stashed segments
  EXPECT_EQ(clean.server.out_of_order_segments(), 2u);
  EXPECT_EQ(clean.server.bytes_delivered(), 3u * TcpConfig{}.mss);
  EXPECT_FALSE(clean.server.payload_corruption_seen());

  WiredPair fx(3);
  fx.to_server[2].payload.back() ^= 0x01;
  fx.deliver(2);
  fx.deliver(1);
  EXPECT_FALSE(fx.server.payload_corruption_seen());  // only stashed yet
  fx.deliver(0);
  EXPECT_EQ(fx.server.bytes_delivered(), 3u * TcpConfig{}.mss);
  EXPECT_TRUE(fx.server.payload_corruption_seen());
}

TEST(Tcp, PayloadPatternIsDeterministic) {
  EXPECT_EQ(TcpConnection::payload_byte(0), TcpConnection::payload_byte(0));
  // Not constant.
  bool varies = false;
  for (int i = 1; i < 64; ++i) {
    varies |= TcpConnection::payload_byte(i) != TcpConnection::payload_byte(0);
  }
  EXPECT_TRUE(varies);
}

}  // namespace
}  // namespace portland::host
