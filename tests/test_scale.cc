// Unit tests for the production-scale machinery behind E19: the arena
// allocator the topology lives in, the compact per-switch tables
// (PortSet, HostTable, the pruned-up prefix FIB), the vmid counter's
// wrap, and the memory accounting the bench reports.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rss.h"
#include "core/fabric.h"
#include "core/host_table.h"
#include "core/migration.h"
#include "core/pmac.h"
#include "core/port_set.h"
#include "host/apps.h"
#include "sim/arena.h"

namespace portland::core {
namespace {

// ---------------------------------------------------------------------------
// Arena
// ---------------------------------------------------------------------------

struct DtorOrderProbe {
  int id;
  std::vector<int>* log;
  DtorOrderProbe(int id_in, std::vector<int>* log_in) : id(id_in), log(log_in) {}
  ~DtorOrderProbe() { log->push_back(id); }
};

TEST(Arena, CreatesObjectsAndDestroysInReverseOrder) {
  std::vector<int> destroyed;
  {
    sim::Arena arena;
    for (int i = 0; i < 5; ++i) arena.create<DtorOrderProbe>(i, &destroyed);
    EXPECT_EQ(arena.objects(), 5u);
    EXPECT_TRUE(destroyed.empty());
  }
  EXPECT_EQ(destroyed, (std::vector<int>{4, 3, 2, 1, 0}));
}

TEST(Arena, ReserveGivesOneContiguousChunk) {
  sim::Arena arena;
  arena.reserve(1 << 20, /*expected_objects=*/1000);
  EXPECT_GE(arena.bytes_reserved(), std::size_t{1} << 20);
  const std::size_t chunks_before = arena.chunk_count();
  for (int i = 0; i < 1000; ++i) arena.create<std::uint64_t>(i);
  // A properly sized reservation never spills into a second chunk.
  EXPECT_EQ(arena.chunk_count(), chunks_before);
  EXPECT_GE(arena.bytes_used(), 1000 * sizeof(std::uint64_t));
}

TEST(Arena, GrowsWhenUnreserved) {
  sim::Arena arena;
  for (int i = 0; i < 10'000; ++i) arena.create<std::uint64_t>(i);
  EXPECT_EQ(arena.objects(), 10'000u);
  EXPECT_GE(arena.bytes_used(), 10'000 * sizeof(std::uint64_t));
}

TEST(Arena, ClearRunsDestructorsOnce) {
  std::vector<int> destroyed;
  sim::Arena arena;
  arena.create<DtorOrderProbe>(7, &destroyed);
  arena.clear();
  EXPECT_EQ(destroyed, std::vector<int>{7});
  destroyed.clear();
  // The arena is reusable after clear, and the dtor does not re-run.
  arena.create<DtorOrderProbe>(8, &destroyed);
  arena.clear();
  EXPECT_EQ(destroyed, std::vector<int>{8});
}

// ---------------------------------------------------------------------------
// PortSet
// ---------------------------------------------------------------------------

TEST(PortSet, MatchesStdSetSemanticsAndOrder) {
  PortSet ps;
  std::set<std::size_t> reference;
  EXPECT_TRUE(ps.empty());
  for (const std::size_t p : {7u, 0u, 255u, 42u, 7u, 128u}) {
    ps.insert(p);
    reference.insert(p);
  }
  EXPECT_EQ(ps.size(), reference.size());
  for (std::size_t p = 0; p < 256; ++p) {
    EXPECT_EQ(ps.contains(p), reference.count(p) > 0) << p;
  }
  // Iteration is ascending, exactly like the std::set it replaced — the
  // soft-state refresh and multicast fan-out orders are deterministic.
  std::vector<std::size_t> visited;
  ps.for_each([&](std::size_t p) { visited.push_back(p); });
  EXPECT_EQ(visited,
            std::vector<std::size_t>(reference.begin(), reference.end()));

  ps.erase(42);
  reference.erase(42);
  EXPECT_FALSE(ps.contains(42));
  EXPECT_EQ(ps.size(), reference.size());

  PortSet same;
  for (const std::size_t p : reference) same.insert(p);
  EXPECT_TRUE(ps == same);
}

// ---------------------------------------------------------------------------
// HostTable (both builds)
// ---------------------------------------------------------------------------

HostEntry make_entry(std::uint8_t tag, std::uint16_t pod, std::uint8_t port,
                     std::uint16_t vmid) {
  HostEntry e;
  e.amac = MacAddress{{0x02, 0, 0, 0, 0, tag}};
  e.pmac = Pmac{pod, /*position=*/1, port, vmid};
  e.ip = Ipv4Address(10, 0, 0, tag);
  e.port = port;
  return e;
}

TEST(HostTable, LookupByEitherKeyIteratesInAmacOrder) {
  HostTable table;
  table.reserve(4);
  // Insert out of AMAC order.
  table.insert(make_entry(30, 1, 2, 1));
  table.insert(make_entry(10, 1, 0, 1));
  table.insert(make_entry(20, 1, 1, 1));
  EXPECT_EQ(table.size(), 3u);

  const HostEntry* by_amac = table.find_amac(MacAddress{{0x02, 0, 0, 0, 0, 20}});
  ASSERT_NE(by_amac, nullptr);
  EXPECT_EQ(by_amac->ip, Ipv4Address(10, 0, 0, 20));

  const HostEntry* by_pmac = table.find_pmac(Pmac{1, 1, 2, 1}.to_mac());
  ASSERT_NE(by_pmac, nullptr);
  EXPECT_EQ(by_pmac->ip, Ipv4Address(10, 0, 0, 30));

  EXPECT_EQ(table.find_amac(MacAddress{{0x02, 0, 0, 0, 0, 99}}), nullptr);
  EXPECT_EQ(table.find_pmac(Pmac{9, 9, 9, 9}.to_mac()), nullptr);

  // for_each visits ascending AMAC regardless of insertion order.
  std::vector<std::uint8_t> order;
  table.for_each([&](const HostEntry& e) { order.push_back(e.amac.bytes()[5]); });
  EXPECT_EQ(order, (std::vector<std::uint8_t>{10, 20, 30}));

  EXPECT_GT(table.bytes(), 0u);
}

TEST(HostTable, RekeyPmacMovesTheIndexNotTheEntry) {
  HostTable table;
  table.insert(make_entry(10, 1, 0, 1));
  HostEntry* e = table.find_amac(MacAddress{{0x02, 0, 0, 0, 0, 10}});
  ASSERT_NE(e, nullptr);

  const Pmac old_pmac = e->pmac;
  table.rekey_pmac(*e, Pmac{1, 1, 3, 2});  // local migration: new port+vmid
  EXPECT_EQ(table.find_pmac(old_pmac.to_mac()), nullptr);
  const HostEntry* found = table.find_pmac(Pmac{1, 1, 3, 2}.to_mac());
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->amac, e->amac);
  EXPECT_EQ(table.size(), 1u);
}

TEST(HostTable, EraseByPmacBackfillsWithoutBreakingIndexes) {
  HostTable table;
  table.insert(make_entry(10, 1, 0, 1));
  table.insert(make_entry(20, 1, 1, 1));
  table.insert(make_entry(30, 1, 2, 1));

  EXPECT_FALSE(table.erase_by_pmac(Pmac{9, 9, 9, 9}.to_mac()));
  // Erase the middle slot: the table back-fills it from the end and must
  // re-point the moved entry's index references.
  EXPECT_TRUE(table.erase_by_pmac(Pmac{1, 1, 1, 1}.to_mac()));
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.find_amac(MacAddress{{0x02, 0, 0, 0, 0, 20}}), nullptr);
  for (const std::uint8_t tag : {std::uint8_t{10}, std::uint8_t{30}}) {
    const HostEntry* e = table.find_amac(MacAddress{{0x02, 0, 0, 0, 0, tag}});
    ASSERT_NE(e, nullptr) << int(tag);
    EXPECT_EQ(table.find_pmac(e->pmac.to_mac()), e);
  }
  std::vector<std::uint8_t> order;
  table.for_each([&](const HostEntry& e) { order.push_back(e.amac.bytes()[5]); });
  EXPECT_EQ(order, (std::vector<std::uint8_t>{10, 30}));
}

// ---------------------------------------------------------------------------
// Vmid counter wrap
// ---------------------------------------------------------------------------

TEST(Vmid, CounterSkipsZeroOnWrap) {
  // vmid 0 means "unassigned" in a PMAC, so the counter must never
  // produce it: 0xFFFF wraps to 1, not 0.
  EXPECT_EQ(next_vmid(0), 1u);
  EXPECT_EQ(next_vmid(1), 2u);
  EXPECT_EQ(next_vmid(0xFFFE), 0xFFFFu);
  EXPECT_EQ(next_vmid(0xFFFF), 1u);
}

// ---------------------------------------------------------------------------
// Pruned-up routes after a link failure (the compact prefix FIB)
// ---------------------------------------------------------------------------

TEST(Scale, PrunedUpPortsAppearOnFailureAndClearOnRepair) {
  PortlandFabric::Options options;
  options.k = 4;
  options.seed = 9102;
  PortlandFabric fabric(options);
  ASSERT_TRUE(fabric.run_until_converged());
  const SimTime t0 = fabric.sim().now();

  // Steady cross-pod traffic so the pruned routes are actually exercised.
  host::Host& a = fabric.host_at(0, 0, 0);
  host::Host& b = fabric.host_at(2, 1, 1);
  host::UdpFlowReceiver rx(b, 7500);
  host::UdpFlowSender::Config cfg;
  cfg.dst = b.ip();
  cfg.src_port = cfg.dst_port = 7500;
  cfg.interval = millis(1);
  host::UdpFlowSender tx(a, cfg);
  tx.start();

  // Fail an agg->core uplink in the sender's pod.
  sim::Link* victim = nullptr;
  for (sim::Link* l : fabric.fabric_links()) {
    if (&l->device(0) == &fabric.agg_at(0, 0) ||
        &l->device(1) == &fabric.agg_at(0, 0)) {
      victim = l;
      break;
    }
  }
  ASSERT_NE(victim, nullptr);
  fabric.failures().fail_link_at(*victim, t0 + millis(100));
  fabric.sim().run_until(t0 + millis(600));

  std::size_t prune_entries = 0;
  for (const PortlandSwitch* sw : fabric.switches()) {
    prune_entries += sw->prune_entry_count();
  }
  EXPECT_GT(prune_entries, 0u) << "failure installed no reroutes";
  const std::uint64_t received_mid = rx.packets_received();

  fabric.failures().repair_link_at(*victim, t0 + millis(700));
  fabric.sim().run_until(t0 + seconds(3));

  for (const PortlandSwitch* sw : fabric.switches()) {
    EXPECT_EQ(sw->prune_entry_count(), 0u) << sw->name();
  }
  // Traffic kept flowing through failure and repair.
  EXPECT_GT(rx.packets_received(), received_mid);
  EXPECT_GT(rx.packets_received(), tx.packets_sent() * 8 / 10);
  tx.stop();
}

// ---------------------------------------------------------------------------
// Redirects resolve through the compact host table after invalidation
// ---------------------------------------------------------------------------

TEST(Scale, MigrationInvalidationAndRedirectUseCompactTable) {
  topo::FatTree tree(4);
  PortlandFabric::Options options;
  options.k = 4;
  options.seed = 9103;
  options.skip_host_indices = {tree.host_index(3, 1, 1)};
  PortlandFabric fabric(options);
  ASSERT_TRUE(fabric.run_until_converged());
  const SimTime t0 = fabric.sim().now();

  host::Host& vm = fabric.host_at(0, 0, 0);
  host::Host& peer = fabric.host_at(2, 0, 0);
  host::UdpFlowReceiver rx(vm, 7600);
  host::UdpFlowSender::Config cfg;
  cfg.dst = vm.ip();
  cfg.src_port = cfg.dst_port = 7600;
  cfg.interval = millis(1);
  host::UdpFlowSender tx(peer, cfg);
  tx.start();
  fabric.sim().run_until(t0 + millis(100));

  const MacAddress old_pmac =
      fabric.fabric_manager().host(vm.ip())->pmac;

  MigrationController migration(fabric);
  MigrationController::Plan plan;
  plan.vm_host_index = tree.host_index(0, 0, 0);
  plan.to_pod = 3;
  plan.to_edge = 1;
  plan.to_port = 1;
  plan.start = t0 + millis(200);
  plan.downtime = millis(50);
  migration.schedule(plan);
  fabric.sim().run_until(t0 + seconds(2));
  tx.stop();
  fabric.sim().run_until(fabric.sim().now() + millis(50));

  // The old edge no longer resolves the old PMAC (InvalidateHost removed
  // it from the compact table) and the FM re-registered the new one.
  const auto record = fabric.fabric_manager().host(vm.ip());
  ASSERT_TRUE(record.has_value());
  EXPECT_NE(record->pmac, old_pmac);
  EXPECT_EQ(Pmac::from_mac(record->pmac).pod,
            fabric.edge_at(3, 1).locator().pod);
  // Traffic survived the migration: the redirect chain corrected the
  // peer's stale PMAC and deliveries resumed at the new location.
  EXPECT_GT(rx.last_arrival_time(), fabric.sim().now() - millis(100));
  EXPECT_GT(rx.packets_received(), tx.packets_sent() * 7 / 10);
}

// ---------------------------------------------------------------------------
// Memory accounting
// ---------------------------------------------------------------------------

TEST(Scale, RssReadersReturnSaneValues) {
  const std::size_t rss = current_rss_bytes();
  const std::size_t peak = peak_rss_bytes();
  ASSERT_GT(rss, 0u) << "/proc/self/status unreadable";
  EXPECT_GE(peak, rss / 2);  // VmHWM >= VmRSS modulo sampling slack
  EXPECT_GT(rss, std::size_t{1} << 20);  // a C++ test binary exceeds 1 MiB
}

// The seed's std::map tables counted 180 B/host at every k from 4 to 48
// (E19, measured before they were deleted). The compact tables must stay
// under a third of that: the same 60 B/host ceiling bench/baseline.json
// holds E19 to.
TEST(Scale, CompactTablesCountFewerBytesThanLegacy) {
  constexpr double kLegacyBytesPerHost = 180.0;
  PortlandFabric::Options options;
  options.k = 4;
  options.seed = 9104;
  const auto compact = std::make_unique<PortlandFabric>(options);
  ASSERT_TRUE(compact->run_until_converged());

  const auto cb = compact->total_table_bytes();
  EXPECT_GT(cb.host_table, 0u);
  EXPECT_LE(static_cast<double>(cb.total()) /
                static_cast<double>(compact->hosts().size()),
            kLegacyBytesPerHost / 3);

  // Non-edge switches never learn hosts, and the lazy reservation means
  // they never allocate host-table memory either.
  EXPECT_EQ(compact->core_at(0, 0).table_bytes().host_table, 0u);
  EXPECT_EQ(compact->agg_at(0, 0).table_bytes().host_table, 0u);
  EXPECT_GT(compact->edge_at(0, 0).table_bytes().host_table, 0u);

  // The arena actually carries the topology.
  EXPECT_GT(compact->network().arena().bytes_used(), 0u);
  EXPECT_GE(compact->network().arena().bytes_reserved(),
            compact->network().arena().bytes_used());
}

}  // namespace
}  // namespace portland::core
