// Unit tests for the common substrate: byte I/O, addresses, RNG, stats.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/byte_io.h"
#include "common/histogram.h"
#include "common/ipv4_address.h"
#include "common/mac_address.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/strings.h"
#include "common/units.h"

namespace portland {
namespace {

TEST(ByteIo, RoundTripScalars) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);
  w.str("portland");

  ByteReader r(buf);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.str(), "portland");
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining_size(), 0u);
}

TEST(ByteIo, BigEndianLayout) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  w.u16(0x0102);
  ASSERT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[1], 0x02);
}

TEST(ByteIo, UnderflowLatchesFailure) {
  const std::vector<std::uint8_t> buf = {0x01, 0x02};
  ByteReader r(buf);
  EXPECT_EQ(r.u16(), 0x0102);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.u32(), 0u);  // underflow
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u8(), 0u);  // still failed
  EXPECT_FALSE(r.ok());
}

TEST(ByteIo, BytesAndSkip) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  const std::uint8_t data[4] = {1, 2, 3, 4};
  w.bytes(data);

  ByteReader r(buf);
  r.skip(1);
  std::uint8_t out[2] = {};
  r.bytes(out);
  EXPECT_EQ(out[0], 2);
  EXPECT_EQ(out[1], 3);
  EXPECT_EQ(r.remaining_size(), 1u);
}

TEST(MacAddress, RoundTripString) {
  const MacAddress m = MacAddress::parse("02:0a:0b:0c:0d:0e");
  EXPECT_EQ(m.to_string(), "02:0a:0b:0c:0d:0e");
  EXPECT_EQ(MacAddress::parse(m.to_string()), m);
}

TEST(MacAddress, ParseRejectsGarbage) {
  EXPECT_TRUE(MacAddress::parse("not a mac").is_zero());
  EXPECT_TRUE(MacAddress::parse("02:0a:0b").is_zero());
}

TEST(MacAddress, U64RoundTrip) {
  const std::uint64_t v = 0x0123456789ABULL;
  EXPECT_EQ(MacAddress::from_u64(v).to_u64(), v);
}

// The load + byte swap must lay the value out big-endian, byte 0 first.
TEST(MacAddress, U64MatchesBigEndianBytes) {
  const MacAddress m = MacAddress::from_u64(0xA1B2C3D4E5F6ULL);
  const std::array<std::uint8_t, 6> bytes{0xA1, 0xB2, 0xC3, 0xD4, 0xE5,
                                          0xF6};
  EXPECT_EQ(m.bytes(), bytes);
  EXPECT_EQ(MacAddress(bytes).to_u64(), 0xA1B2C3D4E5F6ULL);
  // Bits above 47 are ignored.
  EXPECT_EQ(MacAddress::from_u64(0xFFFF'0000'0000'0001ULL).to_u64(), 1u);
}

TEST(MacAddress, BroadcastAndMulticastBits) {
  EXPECT_TRUE(MacAddress::broadcast().is_broadcast());
  EXPECT_TRUE(MacAddress::broadcast().is_multicast());
  EXPECT_FALSE(MacAddress::from_u64(0x020000000001).is_multicast());
  EXPECT_TRUE(MacAddress::from_u64(0x01005E000001).is_multicast());
}

TEST(MacAddress, SerializeRoundTrip) {
  const MacAddress m = MacAddress::from_u64(0xA1B2C3D4E5F6ULL);
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  m.serialize(w);
  ByteReader r(buf);
  EXPECT_EQ(MacAddress::deserialize(r), m);
}

TEST(Ipv4Address, RoundTrip) {
  const Ipv4Address a(10, 1, 2, 3);
  EXPECT_EQ(a.to_string(), "10.1.2.3");
  EXPECT_EQ(Ipv4Address::parse("10.1.2.3"), a);
  EXPECT_TRUE(Ipv4Address::parse("999.1.1.1").is_zero());
  EXPECT_TRUE(Ipv4Address::parse("nope").is_zero());
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, UniformCoversRangeEnds) {
  Rng rng(9);
  bool lo = false, hi = false;
  for (int i = 0; i < 2000 && !(lo && hi); ++i) {
    const std::int64_t v = rng.uniform(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    lo |= (v == -3);
    hi |= (v == 3);
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(11);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, SampleIndicesDistinct) {
  Rng rng(13);
  const auto picks = rng.sample_indices(20, 8);
  ASSERT_EQ(picks.size(), 8u);
  std::set<std::size_t> unique(picks.begin(), picks.end());
  EXPECT_EQ(unique.size(), 8u);
  for (const auto p : picks) EXPECT_LT(p, 20u);
}

TEST(Rng, ExponentialMeanApproximate) {
  Rng rng(17);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.2);
}

TEST(Accumulator, Moments) {
  Accumulator acc;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.stddev(), 2.138, 0.01);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
}

TEST(Percentile, Basics) {
  std::vector<double> v = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5.5);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
}

TEST(CounterSet, AddAndGet) {
  CounterSet c;
  c.add("x");
  c.add("x", 4);
  EXPECT_EQ(c.get("x"), 5u);
  EXPECT_EQ(c.get("missing"), 0u);
}

TEST(CounterSet, LiteralViewAndStringNamesAgree) {
  // The same names added as literals, string_views and std::strings give
  // the same keys, values and key fingerprint (lookups never build a
  // string, insertions store one).
  const std::string long_name = "arp_latency_us_le_1024";
  CounterSet literal;
  literal.add("arp_latency_us_le_1024");
  literal.add("x", 3);
  CounterSet view;
  view.add(std::string_view(long_name));
  view.add(std::string_view("x"), 3);
  CounterSet owned;
  owned.add(long_name);
  owned.add(std::string("x"), 3);
  for (const CounterSet* c : {&view, &owned}) {
    EXPECT_EQ(c->all(), literal.all());
    EXPECT_EQ(c->key_fingerprint(), literal.key_fingerprint());
  }
  EXPECT_EQ(literal.get(std::string_view(long_name)), 1u);
  EXPECT_EQ(literal.get(long_name), 1u);
}

TEST(CounterSet, CachedCellsCreateKeysLikeAdd) {
  CounterSet plain;
  CounterSet cached;
  std::uint64_t* cell = nullptr;
  EXPECT_EQ(cached.size(), 0u);  // nothing until the first bump
  for (int i = 0; i < 3; ++i) {
    plain.add("arp_requests_sent");
    cached.add_cached(cell, "arp_requests_sent");
  }
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell, cached.handle("arp_requests_sent"));
  EXPECT_EQ(cached.all(), plain.all());
  EXPECT_EQ(cached.key_fingerprint(), plain.key_fingerprint());
}

TEST(Histogram, CdfMonotone) {
  Histogram h(0, 100, 10);
  for (int i = 0; i < 100; ++i) h.add(i);
  double prev = 0;
  for (std::size_t b = 0; b < h.bucket_count(); ++b) {
    EXPECT_GE(h.cdf_at(b), prev);
    prev = h.cdf_at(b);
  }
  EXPECT_DOUBLE_EQ(h.cdf_at(h.bucket_count() - 1), 1.0);
}

TEST(Histogram, ClampsOutliers) {
  Histogram h(0, 10, 5);
  h.add(-100);
  h.add(1e9);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(4), 1u);
}

TEST(Stats, PercentileEdgeCases) {
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);   // empty -> 0, not a crash
  EXPECT_DOUBLE_EQ(percentile({7.5}, 0), 7.5);  // single sample, any p
  EXPECT_DOUBLE_EQ(percentile({7.5}, 50), 7.5);
  EXPECT_DOUBLE_EQ(percentile({7.5}, 100), 7.5);
  // Out-of-range p clamps to the extremes.
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3}, -5), 1.0);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3}, 400), 3.0);
  // Midpoint interpolates between neighbors.
  EXPECT_DOUBLE_EQ(percentile({10, 20}, 50), 15.0);
}

TEST(Stats, AccumulatorEdgeCases) {
  Accumulator a;
  // Empty: everything is zero, not NaN or garbage.
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
  EXPECT_DOUBLE_EQ(a.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(a.min(), 0.0);
  EXPECT_DOUBLE_EQ(a.max(), 0.0);
  // One sample: sample variance (n-1 denominator) is still zero.
  a.add(-3.0);
  EXPECT_DOUBLE_EQ(a.mean(), -3.0);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
  EXPECT_DOUBLE_EQ(a.min(), -3.0);
  EXPECT_DOUBLE_EQ(a.max(), -3.0);
  // Two samples: variance turns on.
  a.add(5.0);
  EXPECT_DOUBLE_EQ(a.mean(), 1.0);
  EXPECT_DOUBLE_EQ(a.variance(), 32.0);  // ((-4)^2 + 4^2) / (2-1)
  a.reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.max(), 0.0);
}

TEST(Stats, CounterHandleSurvivesResetAndGrowth) {
  CounterSet c;
  std::uint64_t* cell = c.handle("hot");
  ++*cell;
  EXPECT_EQ(c.get("hot"), 1u);
  // Map growth must not invalidate the handle (node-based storage).
  for (int i = 0; i < 100; ++i) c.add("other_" + std::to_string(i));
  ++*cell;
  EXPECT_EQ(c.get("hot"), 2u);
  // reset() zeroes in place; the handle still points at the live cell.
  c.reset();
  EXPECT_EQ(c.get("hot"), 0u);
  ++*cell;
  EXPECT_EQ(c.get("hot"), 1u);
}

TEST(Histogram, EmptyCdfIsZero) {
  Histogram h(0, 10, 4);
  EXPECT_EQ(h.total(), 0u);
  for (std::size_t b = 0; b < h.bucket_count(); ++b) {
    EXPECT_DOUBLE_EQ(h.cdf_at(b), 0.0);
  }
  EXPECT_EQ(h.render_cdf(), "");
}

TEST(Histogram, SingleBucketTakesEverything) {
  Histogram h(0, 1, 1);
  h.add(-1e12);
  h.add(0.5);
  h.add(1e12);
  EXPECT_EQ(h.bucket(0), 3u);
  EXPECT_DOUBLE_EQ(h.cdf_at(0), 1.0);
}

TEST(Histogram, BoundaryValuesLandInEdgeBuckets) {
  Histogram h(0, 10, 5);
  h.add(0);     // exactly lo -> first bucket
  h.add(10);    // exactly hi -> clamped into last bucket
  h.add(9.999);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(4), 2u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(Strings, Format) {
  EXPECT_EQ(str_format("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(join({"a", "b", "c"}, ","), "a,b,c");
  EXPECT_EQ(split("a,b,,c", ','), (std::vector<std::string>{"a", "b", "", "c"}));
}

TEST(Units, Conversions) {
  EXPECT_EQ(millis(1), 1'000'000);
  EXPECT_EQ(seconds(2), 2'000'000'000);
  EXPECT_DOUBLE_EQ(to_millis(millis(65)), 65.0);
  EXPECT_EQ(format_time(millis(12)), "12.000ms");
  EXPECT_EQ(format_time(500), "500ns");
}

}  // namespace
}  // namespace portland
