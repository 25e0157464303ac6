#include "host/arp_cache.h"

#include <algorithm>
#include <utility>

namespace portland::host {

namespace {
constexpr std::size_t kMinSlots = 4;
}  // namespace

std::size_t ArpCache::find(std::uint32_t ip) const {
  if (size_ == 0) return kNotFound;
  // The load stays below 1, so every probe run ends at an empty slot.
  for (std::size_t i = home(ip);; i = next(i)) {
    const Slot& s = slots_[i];
    if (!s.used) return kNotFound;
    if (s.ip == ip) return i;
  }
}

ArpCache::Slot& ArpCache::claim(std::uint32_t ip) {
  if ((size_ + 1) * 4 > slots_.size() * 3) grow();
  std::size_t i = home(ip);
  while (slots_[i].used) i = next(i);
  Slot& s = slots_[i];
  s.used = 1;
  s.ip = ip;
  ++size_;
  return s;
}

void ArpCache::grow() {
  // Modest growth steps keep the load between 3/5 and 3/4, so a cache
  // costs 27-34 B per entry whatever its size.
  const std::size_t slots =
      std::max(kMinSlots, slots_.size() + slots_.size() / 4);
  std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(slots));
  size_ = 0;
  for (const Slot& s : old) {
    if (s.used) claim(s.ip) = s;
  }
}

void ArpCache::insert(Ipv4Address ip, MacAddress mac, SimTime now) {
  const std::size_t i = find(ip.value());
  Slot& s = i == kNotFound ? claim(ip.value()) : slots_[i];
  s.mac = mac;
  s.set_learned_at(now);
}

std::optional<MacAddress> ArpCache::lookup(Ipv4Address ip, SimTime now) const {
  const std::size_t i = find(ip.value());
  if (i == kNotFound) return std::nullopt;
  if (now - slots_[i].learned_at() > lifetime_) return std::nullopt;
  return slots_[i].mac;
}

void ArpCache::invalidate(Ipv4Address ip) {
  std::size_t hole = find(ip.value());
  if (hole == kNotFound) return;
  // Backward-shift deletion: pull later members of the probe run into
  // the hole unless that would move them before their home slot, so
  // lookups never need tombstones.
  for (std::size_t j = next(hole); slots_[j].used; j = next(j)) {
    const std::size_t h = home(slots_[j].ip);
    const bool stays = hole <= j ? (hole < h && h <= j) : (hole < h || h <= j);
    if (stays) continue;
    slots_[hole] = slots_[j];
    hole = j;
  }
  slots_[hole] = Slot{};
  --size_;
}

void ArpCache::clear() {
  std::fill(slots_.begin(), slots_.end(), Slot{});
  size_ = 0;
}

void ArpCache::save_state(sim::SnapshotWriter& w) const {
  std::vector<const Slot*> sorted;
  sorted.reserve(size_);
  for (const Slot& s : slots_) {
    if (s.used) sorted.push_back(&s);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const Slot* a, const Slot* b) { return a->ip < b->ip; });
  w.u32(static_cast<std::uint32_t>(sorted.size()));
  for (const Slot* s : sorted) {
    w.u32(s->ip);
    w.u64(s->mac.to_u64());
    w.i64(s->learned_at());
  }
}

void ArpCache::restore_state(sim::SnapshotReader& r) {
  clear();
  const std::uint32_t n = r.count(4 + 8 + 8);
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    const std::uint32_t ip = r.u32();
    const MacAddress mac = MacAddress::from_u64(r.u64());
    const SimTime learned_at = r.i64();
    // A repeated IP (only in a damaged image) keeps its first entry.
    if (find(ip) != kNotFound) continue;
    Slot& s = claim(ip);
    s.mac = mac;
    s.set_learned_at(learned_at);
  }
}

}  // namespace portland::host
