// Heap-allocation budgets for the steady-state fabric: proxy-ARP
// resolution, idle LDP keepalives and TCP bulk segments must not allocate
// per message.
//
// This binary replaces every global operator new (plain, array, nothrow
// and aligned) with a counting one, so a test can count the heap
// allocations a stretch of simulation makes. Frame buffers, frame
// blocks, pending-resolution records and control-message encodings are
// all recycled; what remains is amortized container growth (host ARP
// caches, link trains).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "core/fabric.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto align = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t size = (n + align - 1) / align * align;
  return std::aligned_alloc(align, size == 0 ? align : size);
}

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace portland::core {
namespace {

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

std::unique_ptr<PortlandFabric> make_fabric() {
  PortlandFabric::Options options;
  options.k = 4;
  options.seed = 1;
  auto fabric = std::make_unique<PortlandFabric>(options);
  EXPECT_TRUE(fabric->run_until_converged());
  return fabric;
}

std::uint64_t total_resolutions(const PortlandFabric& fabric) {
  std::uint64_t n = 0;
  for (const host::Host* h : fabric.hosts()) {
    n += h->counters().get("arp_resolutions");
  }
  return n;
}

std::uint64_t total_ldms(const PortlandFabric& fabric) {
  std::uint64_t n = 0;
  for (const PortlandSwitch* sw : fabric.switches()) {
    n += sw->ldp().ldms_sent();
  }
  return n;
}

constexpr std::uint16_t kPort = 9000;

/// Round r: every host sends one datagram to the host r places after it,
/// a destination it has never resolved; then 5 ms of simulation, enough
/// for every proxy-ARP round trip and delivery.
void storm_round(PortlandFabric& fabric, std::size_t r) {
  static constexpr std::array<std::uint8_t, 8> kPayload{1, 2, 3, 4,
                                                        5, 6, 7, 8};
  const auto& hosts = fabric.hosts();
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    const host::Host& dst = *hosts[(i + r) % hosts.size()];
    hosts[i]->send_udp(dst.ip(), kPort, kPort,
                       std::span<const std::uint8_t>(kPayload));
  }
  fabric.sim().run_until(fabric.sim().now() + millis(5));
}

TEST(Alloc, ProxyArpResolutionStaysWithinBudget) {
  auto fabric = make_fabric();
  const std::size_t n = fabric->hosts().size();
  // Warm-up round: pools, pending records and counter cells fill up.
  storm_round(*fabric, 1);

  const std::uint64_t res_before = total_resolutions(*fabric);
  const std::uint64_t alloc_before = allocations();
  for (std::size_t r = 2; r < n; ++r) storm_round(*fabric, r);
  const std::uint64_t allocs = allocations() - alloc_before;
  const std::uint64_t resolutions = total_resolutions(*fabric) - res_before;

  ASSERT_EQ(resolutions, n * (n - 2));
  const double per_resolution =
      static_cast<double>(allocs) / static_cast<double>(resolutions);
  std::printf("ARP storm: %llu resolutions, %llu allocations, %.3f each\n",
              static_cast<unsigned long long>(resolutions),
              static_cast<unsigned long long>(allocs), per_resolution);
  EXPECT_LE(per_resolution, 4.0);
}

TEST(Alloc, IdleKeepalivesStayWithinBudget) {
  auto fabric = make_fabric();
  // Warm-up: one LDM period past convergence.
  fabric->sim().run_until(fabric->sim().now() + millis(10));

  const std::uint64_t ldms_before = total_ldms(*fabric);
  const std::uint64_t alloc_before = allocations();
  fabric->sim().run_until(fabric->sim().now() + millis(100));
  const std::uint64_t allocs = allocations() - alloc_before;
  const std::uint64_t ldms = total_ldms(*fabric) - ldms_before;

  ASSERT_GT(ldms, 0u);
  const double per_ldm =
      static_cast<double>(allocs) / static_cast<double>(ldms);
  std::printf("Idle 100 ms: %llu LDMs, %llu allocations, %.3f each\n",
              static_cast<unsigned long long>(ldms),
              static_cast<unsigned long long>(allocs), per_ldm);
  EXPECT_LE(per_ldm, 0.1);
}

TEST(Alloc, TcpBulkSegmentsStayWithinBudget) {
  auto fabric = make_fabric();
  host::Host& a = fabric->host_at(0, 0, 0);
  host::Host& b = fabric->host_at(3, 1, 1);
  host::TcpConnection* accepted = nullptr;
  b.tcp_listen(5001, [&accepted](host::TcpConnection& c) { accepted = &c; });
  host::TcpConnection* conn = a.tcp_connect(b.ip(), 5001);
  // Warm-up: handshake, ARP, slow start and the frame pools.
  constexpr std::uint64_t kWarm = 2'000'000;
  conn->send(kWarm);
  fabric->sim().run_until(fabric->sim().now() + millis(50));
  ASSERT_NE(accepted, nullptr);
  ASSERT_EQ(accepted->bytes_delivered(), kWarm);

  constexpr std::uint64_t kBulk = 10'000'000;
  const std::uint64_t segments_before = conn->segments_sent();
  const std::uint64_t alloc_before = allocations();
  conn->send(kBulk);
  fabric->sim().run_until(fabric->sim().now() + millis(150));
  const std::uint64_t allocs = allocations() - alloc_before;
  const std::uint64_t segments = conn->segments_sent() - segments_before;

  ASSERT_EQ(accepted->bytes_delivered(), kWarm + kBulk);
  EXPECT_FALSE(accepted->payload_corruption_seen());
  const double per_segment =
      static_cast<double>(allocs) / static_cast<double>(segments);
  std::printf("TCP bulk: %llu data segments, %llu allocations, %.3f each\n",
              static_cast<unsigned long long>(segments),
              static_cast<unsigned long long>(allocs), per_segment);
  // Payload bytes come from a static pattern table straight into the
  // pooled frame buffer; a per-segment payload buffer would cost 1.0.
  EXPECT_LE(per_segment, 0.1);
}

}  // namespace
}  // namespace portland::core
