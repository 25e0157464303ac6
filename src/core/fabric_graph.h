// The fabric manager's soft-state topology view (paper §3.1: network
// configuration + fault matrix).
//
// Built entirely from SwitchHello reports (locators + neighbor tables) and
// FaultNotify events (the fault matrix). From this view the FM computes,
// per destination, which next-hop switches each forwarding switch must
// avoid — the `PruneEntry` sets pushed to "affected switches" after a
// failure (paper §3.6).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "core/messages.h"

namespace portland::sim {
class SnapshotWriter;
class SnapshotReader;
}  // namespace portland::sim

namespace portland::core {

/// Key identifying a destination whose reachability a fault can restrict:
/// a specific edge locator (pod, position) or a whole pod
/// (position == kUnknownPosition).
struct DstKey {
  std::uint16_t pod = kUnknownPod;
  std::uint8_t position = kUnknownPosition;

  friend bool operator==(const DstKey&, const DstKey&) = default;
  friend bool operator<(const DstKey& a, const DstKey& b) {
    if (a.pod != b.pod) return a.pod < b.pod;
    return a.position < b.position;
  }
};

/// For one destination key: per affected switch, the set of next-hop
/// switch ids to avoid.
using PruneMap = std::map<SwitchId, std::set<SwitchId>>;

/// What a SwitchHello actually changed in the FM's view. `changed` is the
/// raw delta (locator or reported adjacency differs — callers that mirror
/// ports, e.g. multicast install, re-derive on this). `routing_changed` is
/// the *effective* delta: locator, or the set of adjacent links that are
/// also alive in the fault matrix. A hello that merely withdraws adjacency
/// for a link the fault matrix already killed (the normal carrier-loss
/// ordering: FaultNotify first, hello second) leaves routing untouched, so
/// prune recomputation can be skipped.
struct HelloDelta {
  bool changed = false;
  bool routing_changed = false;
};

class FabricGraph {
 public:
  /// Ingests a switch's location + adjacency report. Newly reported links
  /// default to alive. See HelloDelta for what the two flags mean.
  HelloDelta apply_hello(SwitchId id, const SwitchHello& hello);

  /// Marks the (a, b) link up/down in the fault matrix. Returns true if
  /// the state changed.
  bool set_link_state(SwitchId a, SwitchId b, bool up);

  [[nodiscard]] const SwitchLocator* locator(SwitchId id) const;
  [[nodiscard]] bool link_alive(SwitchId a, SwitchId b) const;
  [[nodiscard]] bool adjacent(SwitchId a, SwitchId b) const;

  /// Port on `from` that faces `to`; -1 if not adjacent.
  [[nodiscard]] int port_between(SwitchId from, SwitchId to) const;

  [[nodiscard]] std::vector<SwitchId> switches_at(Level level) const;
  [[nodiscard]] std::vector<SwitchId> edges_in_pod(std::uint16_t pod) const;
  [[nodiscard]] std::vector<SwitchId> aggs_in_pod(std::uint16_t pod) const;
  [[nodiscard]] std::vector<SwitchId> cores() const;
  [[nodiscard]] const std::set<SwitchId>& neighbors(SwitchId id) const;
  [[nodiscard]] std::size_t switch_count() const { return switches_.size(); }
  [[nodiscard]] std::size_t failed_link_count() const;

  /// The edge switch registered at (pod, position); kInvalidSwitchId if
  /// unknown.
  [[nodiscard]] SwitchId edge_at(std::uint16_t pod,
                                 std::uint8_t position) const;

  /// Computes the complete avoid-sets for destination `key` given the
  /// current fault matrix:
  ///   * key = (p, e): cores that cannot deliver to edge (p, e) are avoided
  ///     by aggregation switches in other pods; aggregation switches with
  ///     no surviving path are avoided by the edges below them; in-pod
  ///     edges avoid aggregation switches whose downlink to (p, e) died.
  ///   * key = (p, any): same structure, one level coarser, for
  ///     aggregation<->core faults.
  /// A switch absent from the result has nothing to avoid.
  [[nodiscard]] PruneMap compute_prunes(const DstKey& key) const;

  /// The destination keys directly restricted by the (a, b) link.
  [[nodiscard]] std::vector<DstKey> keys_for_link(SwitchId a, SwitchId b) const;

  /// Checkpoint: the full soft-state view (locators, adjacency, fault
  /// matrix). The section is content-addressed (hash + per-switch offset
  /// table), so a fabric repeatedly forked from the same image merges
  /// only the records its own mutations touched since the last restore.
  void save_state(sim::SnapshotWriter& w) const;
  void restore_state(sim::SnapshotReader& r);

 private:
  struct SwitchState {
    SwitchLocator locator;
    std::map<std::uint16_t, SwitchId> port_to_neighbor;
    std::set<SwitchId> neighbor_set;
  };

  /// True when `hello` repeats `st` exactly: same locator, same port ->
  /// neighbor pairs in port order, and every reported link already in the
  /// fault matrix. Such a hello changes nothing (apply_hello's fast path).
  [[nodiscard]] bool same_report(SwitchId id, const SwitchState& st,
                                 const SwitchHello& hello) const;

  [[nodiscard]] static std::pair<SwitchId, SwitchId> link_key(SwitchId a,
                                                              SwitchId b) {
    return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  }

  /// Flattened fat-tree view, rebuilt lazily only after *structural*
  /// change (switch population, locators, link key-set). The `alive`
  /// pointers alias link_alive_ map nodes — std::map nodes are stable, so
  /// set_link_state's in-place flips are visible through the index with
  /// no rebuild, and any path that does erase link nodes invalidates the
  /// whole index first. Adjacency-only changes (hello withdrawals,
  /// snapshot forks undoing them) patch the affected site's lists in
  /// place via patch_index_adjacency. Each per-site adjacency list is
  /// built from the *same switch's* reported neighbor set the map-based
  /// code read, so transiently asymmetric adjacency (one endpoint's hello
  /// processed, the other's not) prunes identically to the original
  /// implementation.
  struct TopoIndex {
    struct AggInfo {
      SwitchId id = kInvalidSwitchId;
      std::uint16_t pod = kUnknownPod;
      // Core neighbors by the agg's own report (steps 1-2 of
      // compute_prunes): (core slot, alive flag).
      std::vector<std::pair<std::uint32_t, const bool*>> up;
      // Edge neighbors by the agg's own report (cores_reaching target
      // check + step 3): (edge id, alive flag).
      std::vector<std::pair<SwitchId, const bool*>> down;
    };
    struct CoreInfo {
      SwitchId id = kInvalidSwitchId;
      // Agg neighbors by the core's own report (cores_reaching):
      // (agg slot, agg pod, alive flag).
      std::vector<std::tuple<std::uint32_t, std::uint16_t, const bool*>> down;
    };
    struct EdgeInfo {
      SwitchId id = kInvalidSwitchId;
      std::uint16_t pod = kUnknownPod;
      std::uint8_t position = kUnknownPosition;
      std::vector<std::uint32_t> aggs;  // agg slots, by the edge's report
    };
    bool valid = false;
    std::vector<CoreInfo> cores;  // ascending id
    std::vector<AggInfo> aggs;    // ascending id
    std::vector<EdgeInfo> edges;  // ascending id
    std::map<std::uint16_t, std::vector<std::uint32_t>> aggs_by_pod;
    std::map<std::uint16_t, std::vector<std::uint32_t>> edges_by_pod;
  };

  const TopoIndex& index() const;

  /// Fills one site's adjacency vectors from its own reported neighbor
  /// set (clearing them first). Shared by the full index build and the
  /// incremental patch below.
  void build_site_adjacency(TopoIndex& ix, Level level, std::size_t slot,
                            const SwitchState& st) const;

  /// Rebuilds just `id`'s adjacency lists inside a valid index after its
  /// reported neighbor set changed. Legal only while the switch's locator
  /// (level, pod, position) and the overall switch population are
  /// unchanged — callers invalidate the whole index otherwise.
  void patch_index_adjacency(SwitchId id, const SwitchState& st) const;

  using AdjDirtyList = std::vector<std::pair<SwitchId, const SwitchState*>>;

  /// Merges one saved switch record body (everything after the id) into
  /// `st`. Flags `structural` on locator change; appends to `adj_dirty`
  /// when the reported neighbor set moved.
  void merge_switch_body(sim::SnapshotReader& r, SwitchId id, SwitchState& st,
                         bool& structural, AdjDirtyList& adj_dirty);

  /// Sequential whole-graph reconciliation of a saved payload (offset
  /// table already skipped by the caller).
  void merge_full(sim::SnapshotReader& r, bool& structural,
                  AdjDirtyList& adj_dirty);

  /// Merges only the entries in dirty_switches_ / dirty_links_, using the
  /// payload's offset table / fixed-stride link block for random access.
  /// Returns false if anything unexpected forces a full merge instead.
  bool merge_selective(std::span<const std::uint8_t> payload,
                       bool& structural, AdjDirtyList& adj_dirty);

  /// Mutation notes for selective restore; capped — once the caps
  /// overflow, the next restore falls back to a full merge.
  void note_switch_dirty(SwitchId id);
  void note_link_dirty(std::pair<SwitchId, SwitchId> key);

  std::map<SwitchId, SwitchState> switches_;
  std::map<std::pair<SwitchId, SwitchId>, bool> link_alive_;
  mutable TopoIndex idx_;

  /// Content hash of the payload this graph was last restored from, and
  /// the mutations applied since. While the hash matches the incoming
  /// image and the dirty lists haven't overflowed, restore is
  /// O(dirty entries) instead of O(graph).
  bool restored_hash_valid_ = false;
  std::uint64_t restored_hash_ = 0;
  bool dirty_overflow_ = false;
  std::vector<SwitchId> dirty_switches_;
  std::vector<std::pair<SwitchId, SwitchId>> dirty_links_;
};

}  // namespace portland::core
