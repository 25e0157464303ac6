#include "core/fabric_graph.h"

#include <algorithm>

#include "sim/snapshot.h"

namespace portland::core {
namespace {

constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

/// Slot of `id` in an info vector sorted ascending by id; kNoSlot if
/// absent.
template <typename InfoVec>
std::uint32_t find_slot(const InfoVec& v, SwitchId id) {
  const auto it = std::lower_bound(
      v.begin(), v.end(), id,
      [](const auto& info, SwitchId x) { return info.id < x; });
  if (it == v.end() || it->id != id) return kNoSlot;
  return static_cast<std::uint32_t>(it - v.begin());
}

// Aliased by adjacency entries whose link has no fault-matrix cell yet.
constexpr bool kDead = false;

std::uint32_t be32_at(const std::uint8_t* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return detail::to_net(v);
}

std::uint64_t be64_at(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return detail::to_net(v);
}

constexpr std::size_t kOffsetEntryBytes = 12;  // u64 id + u32 offset
constexpr std::size_t kLinkRecordBytes = 17;   // u64 a + u64 b + u8 up
constexpr std::size_t kDirtyCap = 128;

}  // namespace

HelloDelta FabricGraph::apply_hello(SwitchId id, const SwitchHello& hello) {
  const auto [mit, created] = switches_.try_emplace(id);
  SwitchState& st = mit->second;
  if (created) note_switch_dirty(id);
  // Periodic refreshes almost always repeat the last report verbatim:
  // answer those without copying or rebuilding anything.
  if (!created && same_report(id, st, hello)) return HelloDelta{};
  const SwitchLocator old_locator = st.locator;
  const std::map<std::uint16_t, SwitchId> old_ports = st.port_to_neighbor;

  // Effective adjacency before the hello: reported neighbors whose link the
  // fault matrix still believes alive. Captured before the fresh neighbors
  // are ingested (ingestion emplaces default-alive entries).
  std::vector<SwitchId> old_effective;
  old_effective.reserve(st.neighbor_set.size());
  for (const SwitchId n : st.neighbor_set) {
    if (link_alive(id, n)) old_effective.push_back(n);
  }

  st.locator = hello.self;
  st.port_to_neighbor.clear();
  st.neighbor_set.clear();
  for (const NeighborEntry& n : hello.neighbors) {
    st.port_to_neighbor[n.port] = n.neighbor.switch_id;
    st.neighbor_set.insert(n.neighbor.switch_id);
    // Newly learned links default to alive.
    const auto [lit, inserted] =
        link_alive_.emplace(link_key(id, n.neighbor.switch_id), true);
    if (inserted) note_link_dirty(lit->first);
  }

  HelloDelta delta;
  delta.changed =
      old_locator != st.locator || old_ports != st.port_to_neighbor;
  if (delta.changed) note_switch_dirty(id);
  if (delta.changed && idx_.valid) {
    if (old_locator == st.locator) {
      // Same locator: the switch population and every level/pod/position
      // the index depends on are untouched; only this switch's own
      // adjacency lists can differ, so patch them in place. (A
      // brand-new switch always takes the invalidate branch — its old
      // locator is the default-constructed one.)
      patch_index_adjacency(id, st);
    } else {
      idx_.valid = false;
    }
  }

  delta.routing_changed = old_locator != st.locator;
  if (!delta.routing_changed) {
    std::vector<SwitchId> new_effective;
    new_effective.reserve(st.neighbor_set.size());
    for (const SwitchId n : st.neighbor_set) {
      if (link_alive(id, n)) new_effective.push_back(n);
    }
    delta.routing_changed = old_effective != new_effective;
  }
  return delta;
}

bool FabricGraph::same_report(SwitchId id, const SwitchState& st,
                              const SwitchHello& hello) const {
  if (st.locator != hello.self ||
      st.port_to_neighbor.size() != hello.neighbors.size()) {
    return false;
  }
  // Same port -> neighbor pairs in port order (a map iterates sorted, so
  // an out-of-order or duplicate-port report never matches), and every
  // link already known to the fault matrix.
  auto it = st.port_to_neighbor.begin();
  for (const NeighborEntry& n : hello.neighbors) {
    if (it->first != n.port || it->second != n.neighbor.switch_id ||
        link_alive_.count(link_key(id, n.neighbor.switch_id)) == 0) {
      return false;
    }
    ++it;
  }
  return true;
}

bool FabricGraph::set_link_state(SwitchId a, SwitchId b, bool up) {
  auto [it, inserted] = link_alive_.emplace(link_key(a, b), up);
  // A brand-new entry has no adjacency yet (adjacency only comes from
  // hellos), so the index cannot reference it — but invalidating is cheap
  // and keeps the invariant local. In-place flips stay index-transparent.
  if (inserted) idx_.valid = false;
  if (!inserted && it->second == up) return false;
  it->second = up;
  note_link_dirty(it->first);
  return true;
}

const SwitchLocator* FabricGraph::locator(SwitchId id) const {
  const auto it = switches_.find(id);
  return it == switches_.end() ? nullptr : &it->second.locator;
}

bool FabricGraph::link_alive(SwitchId a, SwitchId b) const {
  const auto it = link_alive_.find(link_key(a, b));
  return it != link_alive_.end() && it->second;
}

bool FabricGraph::adjacent(SwitchId a, SwitchId b) const {
  const auto it = switches_.find(a);
  return it != switches_.end() && it->second.neighbor_set.count(b) != 0;
}

int FabricGraph::port_between(SwitchId from, SwitchId to) const {
  const auto it = switches_.find(from);
  if (it == switches_.end()) return -1;
  for (const auto& [port, nbr] : it->second.port_to_neighbor) {
    if (nbr == to) return static_cast<int>(port);
  }
  return -1;
}

std::vector<SwitchId> FabricGraph::switches_at(Level level) const {
  std::vector<SwitchId> out;
  for (const auto& [id, st] : switches_) {
    if (st.locator.level == level) out.push_back(id);
  }
  return out;
}

std::vector<SwitchId> FabricGraph::edges_in_pod(std::uint16_t pod) const {
  std::vector<SwitchId> out;
  for (const auto& [id, st] : switches_) {
    if (st.locator.level == Level::kEdge && st.locator.pod == pod) {
      out.push_back(id);
    }
  }
  return out;
}

std::vector<SwitchId> FabricGraph::aggs_in_pod(std::uint16_t pod) const {
  std::vector<SwitchId> out;
  for (const auto& [id, st] : switches_) {
    if (st.locator.level == Level::kAggregation && st.locator.pod == pod) {
      out.push_back(id);
    }
  }
  return out;
}

std::vector<SwitchId> FabricGraph::cores() const {
  return switches_at(Level::kCore);
}

const std::set<SwitchId>& FabricGraph::neighbors(SwitchId id) const {
  static const std::set<SwitchId> kEmpty;
  const auto it = switches_.find(id);
  return it == switches_.end() ? kEmpty : it->second.neighbor_set;
}

std::size_t FabricGraph::failed_link_count() const {
  std::size_t n = 0;
  for (const auto& [key, alive] : link_alive_) {
    if (!alive) ++n;
  }
  return n;
}

SwitchId FabricGraph::edge_at(std::uint16_t pod, std::uint8_t position) const {
  for (const auto& [id, st] : switches_) {
    if (st.locator.level == Level::kEdge && st.locator.pod == pod &&
        st.locator.position == position) {
      return id;
    }
  }
  return kInvalidSwitchId;
}

const FabricGraph::TopoIndex& FabricGraph::index() const {
  if (idx_.valid) return idx_;
  TopoIndex& ix = idx_;
  ix.cores.clear();
  ix.aggs.clear();
  ix.edges.clear();
  ix.aggs_by_pod.clear();
  ix.edges_by_pod.clear();

  // Pass 1: slot assignment per level, ascending id (map order).
  for (const auto& [id, st] : switches_) {
    switch (st.locator.level) {
      case Level::kCore: {
        ix.cores.push_back({id, {}});
        break;
      }
      case Level::kAggregation: {
        ix.aggs.push_back({id, st.locator.pod, {}, {}});
        ix.aggs_by_pod[st.locator.pod].push_back(
            static_cast<std::uint32_t>(ix.aggs.size() - 1));
        break;
      }
      case Level::kEdge: {
        ix.edges.push_back({id, st.locator.pod, st.locator.position, {}});
        ix.edges_by_pod[st.locator.pod].push_back(
            static_cast<std::uint32_t>(ix.edges.size() - 1));
        break;
      }
      default:
        break;
    }
  }

  // Pass 2: adjacency lists, each from the owning switch's own report.
  // Slots are found by binary search on the pass-1 vectors; map iteration
  // order guarantees they are ascending by id.
  std::size_t c = 0, a = 0, e = 0;
  for (const auto& [id, st] : switches_) {
    switch (st.locator.level) {
      case Level::kCore:
        build_site_adjacency(ix, Level::kCore, c++, st);
        break;
      case Level::kAggregation:
        build_site_adjacency(ix, Level::kAggregation, a++, st);
        break;
      case Level::kEdge:
        build_site_adjacency(ix, Level::kEdge, e++, st);
        break;
      default:
        break;
    }
  }
  ix.valid = true;
  return ix;
}

void FabricGraph::build_site_adjacency(TopoIndex& ix, Level level,
                                       std::size_t slot,
                                       const SwitchState& st) const {
  const auto cell_or_dead = [this](SwitchId a, SwitchId b) -> const bool* {
    const auto it = link_alive_.find(link_key(a, b));
    return it == link_alive_.end() ? &kDead : &it->second;
  };
  switch (level) {
    case Level::kCore: {
      TopoIndex::CoreInfo& core = ix.cores[slot];
      core.down.clear();
      for (const SwitchId nbr : st.neighbor_set) {
        const std::uint32_t as = find_slot(ix.aggs, nbr);
        if (as == kNoSlot) continue;
        core.down.emplace_back(as, ix.aggs[as].pod, cell_or_dead(core.id, nbr));
      }
      break;
    }
    case Level::kAggregation: {
      TopoIndex::AggInfo& agg = ix.aggs[slot];
      agg.up.clear();
      agg.down.clear();
      for (const SwitchId nbr : st.neighbor_set) {
        const bool* cell = cell_or_dead(agg.id, nbr);
        if (const std::uint32_t cs = find_slot(ix.cores, nbr); cs != kNoSlot) {
          agg.up.emplace_back(cs, cell);
        } else if (const SwitchLocator* loc = locator(nbr);
                   loc != nullptr && loc->level == Level::kEdge) {
          agg.down.emplace_back(nbr, cell);
        }
      }
      break;
    }
    case Level::kEdge: {
      TopoIndex::EdgeInfo& edge = ix.edges[slot];
      edge.aggs.clear();
      for (const SwitchId nbr : st.neighbor_set) {
        const std::uint32_t as = find_slot(ix.aggs, nbr);
        if (as != kNoSlot) edge.aggs.push_back(as);
      }
      break;
    }
    default:
      break;
  }
}

void FabricGraph::patch_index_adjacency(SwitchId id,
                                        const SwitchState& st) const {
  TopoIndex& ix = idx_;
  if (!ix.valid) return;
  switch (st.locator.level) {
    case Level::kCore: {
      const std::uint32_t slot = find_slot(ix.cores, id);
      if (slot == kNoSlot) {
        ix.valid = false;  // population drifted; shouldn't happen
        return;
      }
      build_site_adjacency(ix, Level::kCore, slot, st);
      break;
    }
    case Level::kAggregation: {
      const std::uint32_t slot = find_slot(ix.aggs, id);
      if (slot == kNoSlot) {
        ix.valid = false;
        return;
      }
      build_site_adjacency(ix, Level::kAggregation, slot, st);
      break;
    }
    case Level::kEdge: {
      const std::uint32_t slot = find_slot(ix.edges, id);
      if (slot == kNoSlot) {
        ix.valid = false;
        return;
      }
      build_site_adjacency(ix, Level::kEdge, slot, st);
      break;
    }
    default:
      // Unknown-level switches are not in the index; their own adjacency
      // lists don't exist and nothing referencing them changed.
      break;
  }
}

PruneMap FabricGraph::compute_prunes(const DstKey& key) const {
  PruneMap out;
  const bool pod_level = key.position == kUnknownPosition;
  const SwitchId target_edge =
      pod_level ? kInvalidSwitchId : edge_at(key.pod, key.position);
  if (!pod_level && target_edge == kInvalidSwitchId) return out;

  const TopoIndex& ix = index();

  // Which aggs in the destination pod still have an alive downlink to the
  // target edge (trivially all of them for pod-level keys).
  std::vector<std::uint8_t> agg_serves(ix.aggs.size(), pod_level ? 1 : 0);
  if (!pod_level) {
    const auto pit = ix.aggs_by_pod.find(key.pod);
    if (pit != ix.aggs_by_pod.end()) {
      for (const std::uint32_t a : pit->second) {
        for (const auto& [edge_id, alive] : ix.aggs[a].down) {
          if (edge_id == target_edge && *alive) {
            agg_serves[a] = 1;
            break;
          }
        }
      }
    }
  }

  // Cores that can still deliver to the destination: an alive downlink (by
  // the core's report) into a destination-pod agg that still serves it.
  std::vector<std::uint8_t> ok_core(ix.cores.size(), 0);
  for (std::uint32_t c = 0; c < ix.cores.size(); ++c) {
    for (const auto& [agg, pod, alive] : ix.cores[c].down) {
      if (pod == key.pod && *alive && agg_serves[agg]) {
        ok_core[c] = 1;
        break;
      }
    }
  }

  // 1. Aggregation switches in other pods avoid cores that lost the
  //    destination. 2 (hoisted). An agg has a surviving path iff any alive
  //    uplink reaches an ok core — this depends only on the agg, not on
  //    which edge sits below it.
  std::vector<std::uint8_t> agg_has_path(ix.aggs.size(), 0);
  for (std::uint32_t a = 0; a < ix.aggs.size(); ++a) {
    const TopoIndex::AggInfo& agg = ix.aggs[a];
    bool has_path = false;
    for (const auto& [core, alive] : agg.up) {
      if (*alive && ok_core[core]) has_path = true;
    }
    agg_has_path[a] = has_path ? 1 : 0;
    if (agg.pod == key.pod) continue;
    std::set<SwitchId>* avoid = nullptr;
    for (const auto& [core, alive] : agg.up) {
      if (ok_core[core]) continue;
      if (avoid == nullptr) avoid = &out[agg.id];
      avoid->insert(ix.cores[core].id);
    }
  }

  // 2. Edge switches in other pods avoid aggregation switches with no
  //    surviving core toward the destination.
  for (const TopoIndex::EdgeInfo& edge : ix.edges) {
    if (edge.pod == key.pod) continue;
    std::set<SwitchId>* avoid = nullptr;
    for (const std::uint32_t a : edge.aggs) {
      if (agg_has_path[a]) continue;
      if (avoid == nullptr) avoid = &out[edge.id];
      avoid->insert(ix.aggs[a].id);
    }
  }

  // 3. Edges inside the destination pod avoid aggregation switches whose
  //    downlink to the destination edge died (edge-locator keys only).
  if (!pod_level) {
    const auto pit = ix.edges_by_pod.find(key.pod);
    if (pit != ix.edges_by_pod.end()) {
      for (const std::uint32_t e : pit->second) {
        const TopoIndex::EdgeInfo& edge = ix.edges[e];
        if (edge.id == target_edge) continue;
        std::set<SwitchId>* avoid = nullptr;
        for (const std::uint32_t a : edge.aggs) {
          if (agg_serves[a]) continue;
          if (avoid == nullptr) avoid = &out[edge.id];
          avoid->insert(ix.aggs[a].id);
        }
      }
    }
  }

  return out;
}

std::vector<DstKey> FabricGraph::keys_for_link(SwitchId a, SwitchId b) const {
  const SwitchLocator* la = locator(a);
  const SwitchLocator* lb = locator(b);
  if (la == nullptr || lb == nullptr) return {};

  // Normalize so `la` is the lower level.
  if (static_cast<int>(la->level) > static_cast<int>(lb->level)) {
    std::swap(la, lb);
  }
  if (la->level == Level::kEdge && lb->level == Level::kAggregation) {
    if (la->pod == kUnknownPod || la->position == kUnknownPosition) return {};
    return {DstKey{la->pod, la->position}};
  }
  if (la->level == Level::kAggregation && lb->level == Level::kCore) {
    if (la->pod == kUnknownPod) return {};
    return {DstKey{la->pod, kUnknownPosition}};
  }
  return {};
}

void FabricGraph::note_switch_dirty(SwitchId id) {
  if (dirty_switches_.size() >= kDirtyCap) {
    dirty_overflow_ = true;
    return;
  }
  dirty_switches_.push_back(id);
}

void FabricGraph::note_link_dirty(std::pair<SwitchId, SwitchId> key) {
  if (dirty_links_.size() >= kDirtyCap) {
    dirty_overflow_ = true;
    return;
  }
  dirty_links_.push_back(key);
}

void FabricGraph::save_state(sim::SnapshotWriter& w) const {
  // Section layout (content-addressed):
  //   u64 payload hash | u32 payload length | payload
  // payload:
  //   u32 n_switches | n × (u64 id, u32 offset into switch block)
  //   | u32 switch-block length | switch block (records below)
  //   | u32 n_links | n × (u64 a, u64 b, u8 up)   fixed 17-byte stride
  // The hash + offset table + fixed-stride link block let a restore onto
  // a graph already holding this exact payload touch only its own dirty
  // entries (see restore_state).
  std::vector<std::uint8_t> block;
  sim::SnapshotWriter bw(block);
  std::vector<std::pair<SwitchId, std::uint32_t>> offsets;
  offsets.reserve(switches_.size());
  for (const auto& [id, st] : switches_) {
    offsets.emplace_back(id, static_cast<std::uint32_t>(bw.size()));
    bw.u64(id);
    bw.u64(st.locator.switch_id);
    bw.u8(static_cast<std::uint8_t>(st.locator.level));
    bw.u16(st.locator.pod);
    bw.u8(st.locator.position);
    bw.u32(static_cast<std::uint32_t>(st.port_to_neighbor.size()));
    for (const auto& [port, neighbor] : st.port_to_neighbor) {
      bw.u16(port);
      bw.u64(neighbor);
    }
    bw.u32(static_cast<std::uint32_t>(st.neighbor_set.size()));
    for (SwitchId n : st.neighbor_set) bw.u64(n);
  }

  std::vector<std::uint8_t> payload;
  sim::SnapshotWriter pw(payload);
  pw.u32(static_cast<std::uint32_t>(offsets.size()));
  for (const auto& [id, off] : offsets) {
    pw.u64(id);
    pw.u32(off);
  }
  pw.blob(block);
  pw.u32(static_cast<std::uint32_t>(link_alive_.size()));
  for (const auto& [key, up] : link_alive_) {
    pw.u64(key.first);
    pw.u64(key.second);
    pw.u8(up ? 1 : 0);
  }

  w.u64(sim::content_hash(payload));
  w.blob(payload);
}

void FabricGraph::merge_switch_body(sim::SnapshotReader& r, SwitchId id,
                                    SwitchState& st, bool& structural,
                                    AdjDirtyList& adj_dirty) {
  SwitchLocator loc;
  loc.switch_id = r.u64();
  loc.level = static_cast<Level>(r.u8());
  loc.pod = r.u16();
  loc.position = r.u8();
  if (st.locator != loc) {
    st.locator = loc;
    structural = true;
  }

  // Port mappings feed port_between / multicast mirrors, not the index.
  const std::uint32_t n_ports = r.count(2 + 8);
  auto pit = st.port_to_neighbor.begin();
  for (std::uint32_t p = 0; p < n_ports && r.ok(); ++p) {
    const std::uint16_t port = r.u16();
    const SwitchId nbr = r.u64();
    while (pit != st.port_to_neighbor.end() && pit->first < port) {
      pit = st.port_to_neighbor.erase(pit);
    }
    if (pit == st.port_to_neighbor.end() || pit->first != port) {
      pit = st.port_to_neighbor.emplace_hint(pit, port, nbr);
    } else if (pit->second != nbr) {
      pit->second = nbr;
    }
    ++pit;
  }
  pit = st.port_to_neighbor.erase(pit, st.port_to_neighbor.end());

  bool adj_changed = false;
  const std::uint32_t n_neighbors = r.count(8);
  auto nit = st.neighbor_set.begin();
  for (std::uint32_t p = 0; p < n_neighbors && r.ok(); ++p) {
    const SwitchId nbr = r.u64();
    while (nit != st.neighbor_set.end() && *nit < nbr) {
      nit = st.neighbor_set.erase(nit);
      adj_changed = true;
    }
    if (nit == st.neighbor_set.end() || *nit != nbr) {
      nit = st.neighbor_set.emplace_hint(nit, nbr);
      adj_changed = true;
    }
    ++nit;
  }
  if (nit != st.neighbor_set.end()) {
    st.neighbor_set.erase(nit, st.neighbor_set.end());
    adj_changed = true;
  }
  if (adj_changed) adj_dirty.emplace_back(id, &st);
}

void FabricGraph::merge_full(sim::SnapshotReader& r, bool& structural,
                             AdjDirtyList& adj_dirty) {
  // In-place lockstep merge rather than clear-and-rebuild. Both the image
  // and the live maps are sorted, so one forward reconciliation pass
  // (erase-while-behind, assign-on-match, hint-insert otherwise) restores
  // the graph. Forks restore a warm image over an almost-identical live
  // graph, where this reuses every tree node.
  const std::uint32_t n_switches = r.count(kOffsetEntryBytes);
  r.skip(kOffsetEntryBytes * n_switches);  // random access not needed here
  (void)r.u32();                           // switch-block length
  auto sit = switches_.begin();
  for (std::uint32_t i = 0; i < n_switches && r.ok(); ++i) {
    const SwitchId id = r.u64();
    while (sit != switches_.end() && sit->first < id) {
      sit = switches_.erase(sit);
      structural = true;
    }
    if (sit == switches_.end() || sit->first != id) {
      sit = switches_.emplace_hint(sit, id, SwitchState{});
      structural = true;
    }
    SwitchState& st = sit->second;
    ++sit;
    merge_switch_body(r, id, st, structural, adj_dirty);
  }
  while (sit != switches_.end()) {
    sit = switches_.erase(sit);
    structural = true;
  }

  const std::uint32_t n_links = r.count(kLinkRecordBytes);
  auto lit = link_alive_.begin();
  for (std::uint32_t i = 0; i < n_links && r.ok(); ++i) {
    const SwitchId a = r.u64();
    const SwitchId b = r.u64();
    const bool up = r.u8() != 0;
    const std::pair<SwitchId, SwitchId> key{a, b};
    while (lit != link_alive_.end() && lit->first < key) {
      lit = link_alive_.erase(lit);
      structural = true;
    }
    if (lit == link_alive_.end() || lit->first != key) {
      lit = link_alive_.emplace_hint(lit, key, up);
      structural = true;
    } else {
      // Value flip on an existing node: index cells alias it, so this is
      // index-transparent by construction.
      lit->second = up;
    }
    ++lit;
  }
  while (lit != link_alive_.end()) {
    lit = link_alive_.erase(lit);
    structural = true;
  }
}

bool FabricGraph::merge_selective(std::span<const std::uint8_t> payload,
                                  bool& structural, AdjDirtyList& adj_dirty) {
  // The live graph *is* this payload plus the mutations noted in the
  // dirty lists — reconcile only those entries, via the offset table for
  // switches and the fixed-stride sorted block for links.
  sim::SnapshotReader hr(payload);
  const std::uint32_t n_switches = hr.u32();
  const std::span<const std::uint8_t> table =
      hr.bytes_view(kOffsetEntryBytes * n_switches);
  const std::uint32_t block_len = hr.u32();
  const std::span<const std::uint8_t> block = hr.bytes_view(block_len);
  const std::uint32_t n_links = hr.u32();
  const std::span<const std::uint8_t> links =
      hr.bytes_view(kLinkRecordBytes * n_links);
  if (!hr.ok() || hr.remaining_size() != 0) return false;

  std::sort(dirty_switches_.begin(), dirty_switches_.end());
  dirty_switches_.erase(
      std::unique(dirty_switches_.begin(), dirty_switches_.end()),
      dirty_switches_.end());
  for (const SwitchId id : dirty_switches_) {
    // Binary search the offset table (ids ascending, map save order).
    std::size_t lo = 0, hi = n_switches;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      const SwitchId mid_id = be64_at(table.data() + mid * kOffsetEntryBytes);
      if (mid_id < id) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    const bool found =
        lo < n_switches && be64_at(table.data() + lo * kOffsetEntryBytes) == id;
    if (!found) {
      // Dirty switch absent from the image: the mutation created it.
      if (switches_.erase(id) > 0) structural = true;
      continue;
    }
    const std::uint32_t off =
        be32_at(table.data() + lo * kOffsetEntryBytes + sizeof(std::uint64_t));
    if (off >= block_len) return false;
    sim::SnapshotReader sr(block.subspan(off));
    if (sr.u64() != id) return false;
    const auto sit = switches_.lower_bound(id);
    if (sit == switches_.end() || sit->first != id) {
      bool s = false;
      merge_switch_body(
          sr, id, switches_.emplace_hint(sit, id, SwitchState{})->second, s,
          adj_dirty);
      structural = true;
    } else {
      merge_switch_body(sr, id, sit->second, structural, adj_dirty);
    }
    if (!sr.ok()) return false;
  }

  std::sort(dirty_links_.begin(), dirty_links_.end());
  dirty_links_.erase(std::unique(dirty_links_.begin(), dirty_links_.end()),
                     dirty_links_.end());
  for (const auto& key : dirty_links_) {
    std::size_t lo = 0, hi = n_links;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      const std::uint8_t* rec = links.data() + mid * kLinkRecordBytes;
      const std::pair<SwitchId, SwitchId> mid_key{
          be64_at(rec), be64_at(rec + sizeof(std::uint64_t))};
      if (mid_key < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    const std::uint8_t* rec = links.data() + lo * kLinkRecordBytes;
    const bool found = lo < n_links && be64_at(rec) == key.first &&
                       be64_at(rec + sizeof(std::uint64_t)) == key.second;
    if (!found) {
      if (link_alive_.erase(key) > 0) structural = true;
      continue;
    }
    const bool up = rec[2 * sizeof(std::uint64_t)] != 0;
    const auto lit = link_alive_.lower_bound(key);
    if (lit == link_alive_.end() || lit->first != key) {
      link_alive_.emplace_hint(lit, key, up);
      structural = true;
    } else {
      lit->second = up;  // index-transparent value flip
    }
  }
  return true;
}

void FabricGraph::restore_state(sim::SnapshotReader& r) {
  const std::uint64_t hash = r.u64();
  const std::uint32_t payload_len = r.u32();
  const std::span<const std::uint8_t> payload = r.bytes_view(payload_len);
  if (!r.ok()) {
    restored_hash_valid_ = false;
    idx_.valid = false;
    return;
  }

  bool structural = false;
  AdjDirtyList adj_dirty;
  bool merged = false;
  if (restored_hash_valid_ && hash == restored_hash_ && !dirty_overflow_) {
    merged = merge_selective(payload, structural, adj_dirty);
  }
  if (!merged) {
    sim::SnapshotReader pr(payload);
    merge_full(pr, structural, adj_dirty);
    if (!pr.ok()) {
      // Propagate the sub-reader's failure to the outer stream so the
      // whole restore reports it (the payload bytes themselves were
      // already consumed above).
      r.fail();
      restored_hash_valid_ = false;
      idx_.valid = false;
      return;
    }
  }

  restored_hash_ = hash;
  restored_hash_valid_ = true;
  dirty_overflow_ = false;
  dirty_switches_.clear();
  dirty_links_.clear();

  if (structural) {
    idx_.valid = false;
    return;
  }
  // Population, locators, and link nodes are all unchanged — the index
  // still describes this graph except for the adjacency lists of switches
  // whose reported neighbor set moved (e.g. forks undoing a what-if's
  // hello withdrawals). Patch those sites; everything else, including the
  // aliased alive pointers, is already correct.
  for (const auto& [id, st] : adj_dirty) patch_index_adjacency(id, *st);
}

}  // namespace portland::core
