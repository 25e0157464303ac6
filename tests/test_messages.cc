// Serialization round-trips for every LDP and control-plane message, plus
// the PMAC codec and locator semantics.
#include <gtest/gtest.h>

#include "core/locator.h"
#include "core/messages.h"
#include "core/pmac.h"

namespace portland::core {
namespace {

TEST(Pmac, RoundTripAllFields) {
  const Pmac p{.pod = 0x01AB, .position = 7, .port = 3, .vmid = 0x0042};
  const MacAddress mac = p.to_mac();
  const Pmac out = Pmac::from_mac(mac);
  EXPECT_EQ(out, p);
  EXPECT_EQ(out.pod, 0x01AB);
  EXPECT_EQ(out.position, 7);
  EXPECT_EQ(out.port, 3);
  EXPECT_EQ(out.vmid, 0x0042);
}

TEST(Pmac, MacLayoutMatchesPaper) {
  // pod:16 . position:8 . port:8 . vmid:16, big-endian.
  const Pmac p{.pod = 0x0102, .position = 0x03, .port = 0x04, .vmid = 0x0506};
  EXPECT_EQ(p.to_mac().to_string(), "01:02:03:04:05:06");
}

TEST(Pmac, AmacSpaceDisjointFromPmacSpace) {
  for (std::uint32_t i = 1; i < 100; ++i) {
    EXPECT_FALSE(looks_like_pmac(make_amac(i)));
  }
  const Pmac p{.pod = 5, .position = 1, .port = 0, .vmid = 1};
  EXPECT_TRUE(looks_like_pmac(p.to_mac()));
}

TEST(Locator, LocatedSemantics) {
  SwitchLocator loc;
  loc.switch_id = 42;
  EXPECT_FALSE(loc.located());

  loc.level = Level::kCore;
  EXPECT_TRUE(loc.located());  // cores need no pod/position

  loc.level = Level::kAggregation;
  EXPECT_FALSE(loc.located());
  loc.pod = 3;
  EXPECT_TRUE(loc.located());

  loc.level = Level::kEdge;
  EXPECT_FALSE(loc.located());  // edges need position too
  loc.position = 1;
  EXPECT_TRUE(loc.located());
}

TEST(Ldp, LdmFrameRoundTrip) {
  LdpMessage m;
  m.type = LdpType::kLdm;
  m.from = SwitchLocator{0x1234, Level::kAggregation, 7, kUnknownPosition};
  m.sender_port = 3;
  const auto frame = m.to_frame();
  EXPECT_EQ(frame.size(), LdpMessage::kFrameSize);
  const auto out = LdpMessage::from_frame(frame);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->type, LdpType::kLdm);
  EXPECT_EQ(out->from, m.from);
  EXPECT_EQ(out->sender_port, 3);
}

TEST(Ldp, ProposalRoundTrip) {
  LdpMessage m;
  m.type = LdpType::kProposePosition;
  m.from = SwitchLocator{0x99, Level::kEdge, kUnknownPod, kUnknownPosition};
  m.position = 2;
  m.nonce = 0xCAFEBABE;
  const auto out = LdpMessage::from_frame(m.to_frame());
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->type, LdpType::kProposePosition);
  EXPECT_EQ(out->position, 2);
  EXPECT_EQ(out->nonce, 0xCAFEBABE);
}

TEST(Ldp, RejectsNonLdpFrames) {
  std::vector<std::uint8_t> junk(40, 0);
  EXPECT_FALSE(LdpMessage::from_frame(junk).has_value());
}

/// Round-trips one control message and returns the parsed copy. The
/// encoding must be exactly the size serialize_control reserves.
ControlMessage round_trip(ControlMessage in) {
  const auto bytes = serialize_control(in);
  EXPECT_EQ(bytes.size(), control_wire_size(in));
  const auto out = parse_control(bytes);
  EXPECT_TRUE(out.has_value());
  EXPECT_EQ(out->sender, in.sender);
  return *out;
}

TEST(Control, SwitchHello) {
  SwitchHello hello;
  hello.self = SwitchLocator{0x1000, Level::kEdge, 2, 1};
  hello.neighbors.push_back(
      NeighborEntry{4, SwitchLocator{0x2000, Level::kAggregation, 2, 0}});
  hello.neighbors.push_back(
      NeighborEntry{5, SwitchLocator{0x2001, Level::kAggregation, 2, 1}});
  const auto out = round_trip({0x1000, hello});
  const auto& m = std::get<SwitchHello>(out.body);
  EXPECT_EQ(m.self, hello.self);
  ASSERT_EQ(m.neighbors.size(), 2u);
  EXPECT_EQ(m.neighbors[1], hello.neighbors[1]);
}

TEST(Control, PodRequestAndAssignment) {
  const auto req = round_trip({7, PodRequest{}});
  EXPECT_TRUE(std::holds_alternative<PodRequest>(req.body));
  const auto assign = round_trip({kFabricManagerId, PodAssignment{13}});
  EXPECT_EQ(std::get<PodAssignment>(assign.body).pod, 13);
}

TEST(Control, HostRegister) {
  HostRegister reg;
  reg.ip = Ipv4Address(10, 1, 0, 2);
  reg.amac = MacAddress::from_u64(0x020000000005);
  reg.pmac = MacAddress::from_u64(0x000100000001);
  reg.edge_port = 1;
  const auto out = round_trip({0x1003, reg});
  const auto& m = std::get<HostRegister>(out.body);
  EXPECT_EQ(m.ip, reg.ip);
  EXPECT_EQ(m.amac, reg.amac);
  EXPECT_EQ(m.pmac, reg.pmac);
  EXPECT_EQ(m.edge_port, 1);
}

TEST(Control, ArpQueryResponse) {
  const auto q = round_trip({5, ArpQuery{77, Ipv4Address(10, 2, 1, 1)}});
  EXPECT_EQ(std::get<ArpQuery>(q.body).query_id, 77u);

  ArpResponse resp{77, Ipv4Address(10, 2, 1, 1),
                   MacAddress::from_u64(0x000200010001), true};
  const auto r = round_trip({kFabricManagerId, resp});
  const auto& m = std::get<ArpResponse>(r.body);
  EXPECT_TRUE(m.found);
  EXPECT_EQ(m.pmac, resp.pmac);
}

TEST(Control, FaultNotify) {
  const auto out = round_trip({9, FaultNotify{3, 0x2002, false}});
  const auto& m = std::get<FaultNotify>(out.body);
  EXPECT_EQ(m.port, 3);
  EXPECT_EQ(m.neighbor, 0x2002u);
  EXPECT_FALSE(m.link_up);
}

TEST(Control, PruneUpdate) {
  PruneUpdate upd;
  upd.entries.push_back(PruneEntry{2, 1, 0x3001, true});
  upd.entries.push_back(PruneEntry{2, kUnknownPosition, 0x3002, false});
  const auto out = round_trip({kFabricManagerId, upd});
  const auto& m = std::get<PruneUpdate>(out.body);
  ASSERT_EQ(m.entries.size(), 2u);
  EXPECT_EQ(m.entries[0], upd.entries[0]);
  EXPECT_EQ(m.entries[1], upd.entries[1]);
}

TEST(Control, MulticastMessages) {
  const Ipv4Address group(224, 0, 1, 5);
  const auto join = round_trip({3, McastJoin{group, 1}});
  EXPECT_EQ(std::get<McastJoin>(join.body).host_port, 1);

  const auto leave = round_trip({3, McastLeave{group, 1}});
  EXPECT_EQ(std::get<McastLeave>(leave.body).group, group);

  const auto seen = round_trip({3, McastSenderSeen{group}});
  EXPECT_EQ(std::get<McastSenderSeen>(seen.body).group, group);

  McastInstall install;
  install.group = group;
  install.ports = {0, 2, 3};
  const auto inst = round_trip({kFabricManagerId, install});
  EXPECT_EQ(std::get<McastInstall>(inst.body).ports,
            (std::vector<std::uint16_t>{0, 2, 3}));

  const auto rem = round_trip({kFabricManagerId, McastRemove{group}});
  EXPECT_EQ(std::get<McastRemove>(rem.body).group, group);
}

TEST(Control, InvalidateHost) {
  InvalidateHost inv;
  inv.ip = Ipv4Address(10, 0, 0, 1);
  inv.old_pmac = MacAddress::from_u64(0x000000010001);
  inv.new_pmac = MacAddress::from_u64(0x000300010001);
  const auto out = round_trip({kFabricManagerId, inv});
  const auto& m = std::get<InvalidateHost>(out.body);
  EXPECT_EQ(m.old_pmac, inv.old_pmac);
  EXPECT_EQ(m.new_pmac, inv.new_pmac);
}

TEST(Control, FmDeltaImage) {
  FmDelta delta;
  delta.section = 3;
  delta.version = 42;
  delta.image = {1, 2, 3, 4, 5};
  const auto out = round_trip({kFabricManagerId, delta});
  const auto& m = std::get<FmDelta>(out.body);
  EXPECT_EQ(m.section, 3u);
  EXPECT_EQ(m.version, 42u);
  EXPECT_EQ(m.image, delta.image);
}

TEST(Control, GarbageRejected) {
  EXPECT_FALSE(parse_control(std::vector<std::uint8_t>{}).has_value());
  std::vector<std::uint8_t> junk(9, 0xFF);
  EXPECT_FALSE(parse_control(junk).has_value());
}

TEST(Control, TypeNames) {
  EXPECT_STREQ(control_type_name(ArpQuery{}), "arp_query");
  EXPECT_STREQ(control_type_name(SwitchHello{}), "switch_hello");
  EXPECT_STREQ(control_type_name(InvalidateHost{}), "invalidate_host");
}

}  // namespace
}  // namespace portland::core
