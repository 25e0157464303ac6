// Host-side ARP cache with entry aging.
//
// In a PortLand fabric the cached MAC for a peer is its PMAC, handed out by
// proxy ARP; entries go stale when a VM migrates, which is why gratuitous
// ARPs and the old-edge invalidation path exist (paper §3.3).
//
// Storage is one flat open-addressed table (linear probing, 20-byte
// slots, grown by a quarter once 3/4 full), not a node-based map:
// entries are never freed by aging (the lifetime check happens on
// lookup) and host caches only grow over a run, so the per-entry
// footprint is what an ARP storm's memory is made of. A node-based map
// costs about 53 B per entry (node plus bucket); this table holds 20 B
// slots at a load of 3/5 to 3/4, i.e. 27-34 B per entry, and inserting
// performs no heap allocation except when the table grows.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/ipv4_address.h"
#include "common/mac_address.h"
#include "common/units.h"
#include "sim/snapshot.h"

namespace portland::host {

class ArpCache {
 public:
  explicit ArpCache(SimDuration entry_lifetime) : lifetime_(entry_lifetime) {}

  /// Inserts or refreshes the mapping for `ip`.
  void insert(Ipv4Address ip, MacAddress mac, SimTime now);

  /// Returns the mapping if present and not expired at `now` (an entry
  /// expires once now - learned_at > lifetime).
  [[nodiscard]] std::optional<MacAddress> lookup(Ipv4Address ip,
                                                 SimTime now) const;

  /// True if a (possibly expired) entry exists.
  [[nodiscard]] bool contains(Ipv4Address ip) const {
    return find(ip.value()) != kNotFound;
  }

  void invalidate(Ipv4Address ip);
  void clear();

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] SimDuration lifetime() const { return lifetime_; }

  /// Bytes of slot storage currently held (capacity included).
  [[nodiscard]] std::size_t memory_bytes() const {
    return slots_.capacity() * sizeof(Slot);
  }

  /// Checkpoint: entries sorted by IP so the image is deterministic (the
  /// table itself is unordered and only ever queried by key).
  void save_state(sim::SnapshotWriter& w) const;
  void restore_state(sim::SnapshotReader& r);

 private:
  /// Four-byte aligned so a slot packs into 20 bytes; the 64-bit
  /// learned_at is split into two words.
  struct Slot {
    std::uint32_t ip = 0;
    std::uint32_t learned_lo = 0;
    std::uint32_t learned_hi = 0;
    MacAddress mac;
    std::uint8_t used = 0;

    [[nodiscard]] SimTime learned_at() const {
      return static_cast<SimTime>(static_cast<std::uint64_t>(learned_hi)
                                      << 32 |
                                  learned_lo);
    }
    void set_learned_at(SimTime t) {
      const auto u = static_cast<std::uint64_t>(t);
      learned_lo = static_cast<std::uint32_t>(u);
      learned_hi = static_cast<std::uint32_t>(u >> 32);
    }
  };
  static_assert(sizeof(Slot) == 20);

  static constexpr std::size_t kNotFound = ~std::size_t{0};

  /// Home slot: Fibonacci hash scaled onto the capacity (which need not
  /// be a power of two).
  [[nodiscard]] std::size_t home(std::uint32_t ip) const {
    const std::uint32_t h = ip * 0x9E3779B1u;
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(h) * slots_.size()) >> 32);
  }
  [[nodiscard]] std::size_t next(std::size_t i) const {
    return i + 1 == slots_.size() ? 0 : i + 1;
  }
  [[nodiscard]] std::size_t find(std::uint32_t ip) const;
  /// Claims the slot for a key known to be absent; grows first if the
  /// table would pass 3/4 load.
  Slot& claim(std::uint32_t ip);
  void grow();

  SimDuration lifetime_;
  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace portland::host
