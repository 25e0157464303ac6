#include "core/fabric_manager.h"

#include <algorithm>
#include <set>

#include "common/logging.h"
#include "obs/convergence_monitor.h"
#include "sim/snapshot.h"

namespace portland::core {

FabricManager::FabricManager(sim::Simulator& sim, ControlPlane& control,
                             PortlandConfig config)
    : sim_(&sim), control_(&control), config_(config) {
  shards_.resize(std::max<std::size_t>(1, config_.fm_shards));
  control_->register_endpoint(
      kFabricManagerId, [this](const ControlMessage& m) { handle_message(m); });
  if (shards_.size() > 1) {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      control_->register_endpoint(
          static_cast<SwitchId>(kFmShardIdBase + s),
          [this, s](const ControlMessage& m) { handle_shard_message(s, m); });
    }
  }
  if (config_.fm_replica) {
    replica_.resize(1 + shards_.size());
    control_->register_endpoint(
        kFmReplicaId, [this](const ControlMessage& m) {
          if (const auto* d = std::get_if<FmDelta>(&m.body)) {
            on_replica_delta(*d);
          }
        });
  }
}

void FabricManager::send(SwitchId to, ControlBody body, SimDuration extra) {
  control_->send(to, ControlMessage{kFabricManagerId, std::move(body)}, extra);
}

void FabricManager::handle_message(const ControlMessage& msg) {
  counters_.add("rx_total");
  struct Dispatcher {
    FabricManager& fm;
    SwitchId sender;
    void operator()(const SwitchHello& m) { fm.on_hello(sender, m); }
    void operator()(const PodRequest&) { fm.on_pod_request(sender); }
    // Registry traffic reaching the primary is routed to the owning
    // shard's slice, so direct sends (fm_shards == 1, benches, tests)
    // behave identically to shard-addressed ones.
    void operator()(const HostRegister& m) {
      fm.on_host_register(sender, m, fm.shard_of(m.ip));
    }
    void operator()(const ArpQuery& m) {
      fm.on_arp_query(sender, m, fm.shard_of(m.ip));
    }
    void operator()(const FaultNotify& m) { fm.on_fault_notify(sender, m); }
    void operator()(const McastJoin& m) { fm.on_mcast_join(sender, m); }
    void operator()(const McastLeave& m) { fm.on_mcast_leave(sender, m); }
    void operator()(const McastSenderSeen& m) {
      fm.on_mcast_sender_seen(sender, m);
    }
    // Messages the FM only sends:
    void operator()(const PodAssignment&) {}
    void operator()(const ArpResponse&) {}
    void operator()(const PruneUpdate&) {}
    void operator()(const McastInstall&) {}
    void operator()(const McastRemove&) {}
    void operator()(const InvalidateHost&) {}
    void operator()(const FmDelta&) {}
  };
  std::visit(Dispatcher{*this, msg.sender}, msg.body);
}

void FabricManager::handle_shard_message(std::size_t shard,
                                         const ControlMessage& msg) {
  RegistryShard& sh = shards_[shard];
  sh.counters.add_cached(sh.cells.rx_total, "rx_total");
  if (const auto* q = std::get_if<ArpQuery>(&msg.body)) {
    on_arp_query(msg.sender, *q, shard);
  } else if (const auto* h = std::get_if<HostRegister>(&msg.body)) {
    on_host_register(msg.sender, *h, shard);
  }
}

// ---------------------------------------------------------------------------
// Topology & pods
// ---------------------------------------------------------------------------

void FabricManager::wipe_soft_state() {
  graph_ = FabricGraph();
  pod_by_requester_.clear();
  next_pod_ = 0;
  for (RegistryShard& s : shards_) s.hosts.clear();
  installed_prunes_.clear();
  groups_.clear();
  installed_trees_.clear();
  synced_switches_.clear();
}

void FabricManager::simulate_failover() {
  counters_.add("failovers");
  wipe_soft_state();
}

void FabricManager::on_hello(SwitchId sender, const SwitchHello& m) {
  // First hello from a switch this incarnation: flush any reroute state a
  // previous FM installed — this FM will recompute what is still needed.
  const auto sit =
      std::lower_bound(synced_switches_.begin(), synced_switches_.end(),
                       sender);
  if (sit == synced_switches_.end() || *sit != sender) {
    synced_switches_.insert(sit, sender);
    core_dirty_ = true;
    send(sender, PruneUpdate{/*flush=*/true, {}});
  }
  // Pod numbers are soft state too: re-learn the allocator's high-water
  // mark from locators so a failed-over FM never re-issues a pod in use.
  if (m.self.pod != kUnknownPod &&
      static_cast<std::uint16_t>(m.self.pod + 1) > next_pod_) {
    next_pod_ = static_cast<std::uint16_t>(m.self.pod + 1);
    core_dirty_ = true;
  }
  const HelloDelta delta = graph_.apply_hello(sender, m);
  if (!delta.changed) return;
  core_dirty_ = true;
  // Effective reachability (locator, or adjacency ∧ fault matrix) changed.
  // Re-derive any routing state built on the old view: a repair's
  // FaultNotify can arrive before the hellos that restore the adjacency it
  // needs, so prune withdrawal must also run here. The common carrier-loss
  // ordering (FaultNotify already killed the link, this hello merely
  // withdraws its adjacency) is a routing no-op and is skipped.
  // (No-op while nothing is installed, i.e. all of bootstrap.)
  if (delta.routing_changed && !installed_prunes_.empty()) {
    recompute_prunes({}, config_.fm_fault_processing);
  }
  if (!groups_.empty()) {
    recompute_all_groups(config_.fm_multicast_processing);
  }
}

void FabricManager::on_pod_request(SwitchId sender) {
  // Idempotent: one pod per requesting switch (the position-0 edge).
  auto it = std::lower_bound(
      pod_by_requester_.begin(), pod_by_requester_.end(), sender,
      [](const auto& e, SwitchId id) { return e.first < id; });
  if (it == pod_by_requester_.end() || it->first != sender) {
    it = pod_by_requester_.insert(it, {sender, next_pod_});
    ++next_pod_;
    core_dirty_ = true;
  }
  send(sender, PodAssignment{it->second});
}

// ---------------------------------------------------------------------------
// Hosts, proxy ARP, migration
// ---------------------------------------------------------------------------

void FabricManager::on_host_register(SwitchId sender, const HostRegister& m,
                                     std::size_t shard) {
  if (m.ip.is_zero()) return;
  RegistryShard& sh = shards_[shard];
  const HostRecord rec{m.pmac, m.amac, sender, m.edge_port};
  HostRecord* existing = sh.hosts.find(m.ip);
  if (existing != nullptr) {
    if (*existing == rec) return;  // steady-state refresh: nothing changed
    if (existing->pmac != m.pmac) {
      // The IP is reachable at a new PMAC: a VM migrated (paper §3.7).
      // Invalidate the stale mapping at the previous edge switch, which
      // will trap in-flight frames and correct stale ARP caches.
      sh.counters.add("migrations_detected");
      send(existing->edge, InvalidateHost{m.ip, existing->pmac, m.pmac});
    }
    *existing = rec;
  } else {
    sh.hosts.insert_or_assign(m.ip, rec);
  }
  sh.dirty = true;
}

void FabricManager::on_arp_query(SwitchId sender, const ArpQuery& m,
                                 std::size_t shard) {
  RegistryShard& sh = shards_[shard];
  sh.counters.add_cached(sh.cells.arp_queries, "arp_queries");
  const HostRecord* rec = sh.hosts.find(m.ip);
  if (rec == nullptr) {
    sh.counters.add_cached(sh.cells.arp_misses, "arp_misses");
    send(sender, ArpResponse{m.query_id, m.ip, MacAddress::zero(), false});
    return;
  }
  sh.counters.add_cached(sh.cells.arp_hits, "arp_hits");
  send(sender, ArpResponse{m.query_id, m.ip, rec->pmac, true});
}

void FabricManager::register_host_direct(Ipv4Address ip,
                                         const HostRecord& record) {
  RegistryShard& sh = shards_[shard_of(ip)];
  sh.hosts.insert_or_assign(ip, record);
  sh.dirty = true;
}

std::optional<FabricManager::HostRecord> FabricManager::host(
    Ipv4Address ip) const {
  const HostRecord* rec = shards_[shard_of(ip)].hosts.find(ip);
  if (rec == nullptr) return std::nullopt;
  return *rec;
}

const CounterSet& FabricManager::counters() const {
  merged_counters_.reset();
  for (const auto& [name, value] : counters_.all()) {
    merged_counters_.add(name, value);
  }
  for (const RegistryShard& s : shards_) {
    for (const auto& [name, value] : s.counters.all()) {
      merged_counters_.add(name, value);
    }
  }
  return merged_counters_;
}

// ---------------------------------------------------------------------------
// Hot-standby replica (FmDelta stream)
// ---------------------------------------------------------------------------

void FabricManager::start_replica_sync(
    const std::vector<sim::ShardId>& registry_shards,
    sim::ShardId core_shard) {
  if (!config_.fm_replica || core_sync_timer_ != nullptr) return;
  core_sync_timer_ = std::make_unique<sim::PeriodicTimer>(
      *sim_, config_.fm_replica_sync_interval, [this] { sync_core_section(); });
  {
    // The tick must run where the primary's handlers run: it reads the
    // topology/prune/multicast state those handlers own.
    sim::ShardGuard guard(*sim_, core_shard);
    core_sync_timer_->start();
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].sync_timer = std::make_unique<sim::PeriodicTimer>(
        *sim_, config_.fm_replica_sync_interval,
        [this, s] { sync_shard_section(s); });
    // Each registry shard's tick runs on that shard's simulator shard so
    // serializing its slice never races its handler.
    sim::ShardGuard guard(
        *sim_, s < registry_shards.size() ? registry_shards[s] : core_shard);
    shards_[s].sync_timer->start();
  }
}

void FabricManager::sync_core_section() {
  if (!core_dirty_) return;
  core_dirty_ = false;
  FmDelta d;
  d.section = 0;
  d.version = ++core_version_;
  sim::SnapshotWriter w(d.image);
  save_core_state(w);
  send(kFmReplicaId, std::move(d));
}

void FabricManager::sync_shard_section(std::size_t shard) {
  RegistryShard& sh = shards_[shard];
  if (!sh.dirty) return;
  sh.dirty = false;
  FmDelta d;
  d.section = static_cast<std::uint32_t>(1 + shard);
  d.version = ++sh.delta_version;
  sim::SnapshotWriter w(d.image);
  save_registry(w, sh);
  send(kFmReplicaId, std::move(d));
}

void FabricManager::on_replica_delta(const FmDelta& m) {
  if (m.section >= replica_.size()) return;
  ReplicaSection& s = replica_[m.section];
  if (m.version <= s.version) return;  // reordered stale image
  s.version = m.version;
  s.image = m.image;
}

void FabricManager::failover_to_replica() {
  counters_.add("failovers");
  counters_.add("replica_failovers");
  wipe_soft_state();
  if (!replica_.empty() && replica_[0].version > 0) {
    sim::SnapshotReader r(replica_[0].image);
    restore_core_state(r);
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::size_t section = 1 + s;
    if (section < replica_.size() && replica_[section].version > 0) {
      sim::SnapshotReader r(replica_[section].image);
      restore_registry(r);
    }
  }
  // Everything the new incarnation now holds is unsynced: stream it all
  // again so a second failover isn't built on pre-takeover images.
  core_dirty_ = true;
  for (RegistryShard& s : shards_) s.dirty = true;
}

// ---------------------------------------------------------------------------
// Fault matrix & reroutes
// ---------------------------------------------------------------------------

void FabricManager::on_fault_notify(SwitchId sender, const FaultNotify& m) {
  counters_.add(m.link_up ? "fault_repairs" : "fault_notifications");
  if (monitor_ != nullptr) {
    // Recorded before the dedup below: the timeline's notify stage is
    // "the FM heard about the fault", which the first report satisfies
    // (the state machine keeps the earliest time).
    monitor_->on_fault_notify(monitor_shard_, sim_->now(), m.link_up);
  }
  if (!graph_.set_link_state(sender, m.neighbor, m.link_up)) {
    return;  // both endpoints report; second notification is a no-op
  }
  core_dirty_ = true;
  const std::vector<DstKey> keys = graph_.keys_for_link(sender, m.neighbor);
  recompute_prunes(keys, config_.fm_fault_processing);
  recompute_all_groups(config_.fm_multicast_processing);
}

void FabricManager::recompute_prunes(const std::vector<DstKey>& event_keys,
                                     SimDuration base_delay) {
  // Faults interact (a core link failure changes which aggs can serve an
  // earlier edge-link failure's destination), so refresh every key that is
  // either implicated by this event or already has prunes installed.
  std::set<DstKey> keys(event_keys.begin(), event_keys.end());
  for (const auto& [key, pm] : installed_prunes_) keys.insert(key);

  std::map<SwitchId, PruneUpdate> batches;
  for (const DstKey& key : keys) {
    PruneMap fresh = graph_.compute_prunes(key);
    PruneMap& old = installed_prunes_[key];

    for (const auto& [sw, avoid] : fresh) {
      const auto oit = old.find(sw);
      for (const SwitchId id : avoid) {
        if (oit == old.end() || oit->second.count(id) == 0) {
          batches[sw].entries.push_back(
              PruneEntry{key.pod, key.position, id, /*add=*/true});
        }
      }
    }
    for (const auto& [sw, avoid] : old) {
      const auto fit = fresh.find(sw);
      for (const SwitchId id : avoid) {
        if (fit == fresh.end() || fit->second.count(id) == 0) {
          batches[sw].entries.push_back(
              PruneEntry{key.pod, key.position, id, /*add=*/false});
        }
      }
    }

    if (fresh.empty()) {
      installed_prunes_.erase(key);
    } else {
      installed_prunes_[key] = std::move(fresh);
    }
  }

  if (!keys.empty()) core_dirty_ = true;
  counters_.add("prune_updates_sent", batches.size());
  for (auto& [sw, update] : batches) {
    send(sw, std::move(update), base_delay + config_.flow_install_cost);
  }
}

// ---------------------------------------------------------------------------
// Multicast
// ---------------------------------------------------------------------------

void FabricManager::on_mcast_join(SwitchId sender, const McastJoin& m) {
  groups_[m.group].receivers[sender].insert(m.host_port);
  core_dirty_ = true;
  recompute_group(m.group, config_.fm_multicast_processing);
}

void FabricManager::on_mcast_leave(SwitchId sender, const McastLeave& m) {
  const auto git = groups_.find(m.group);
  if (git == groups_.end()) return;
  const auto rit = git->second.receivers.find(sender);
  if (rit != git->second.receivers.end()) {
    rit->second.erase(m.host_port);
    if (rit->second.empty()) git->second.receivers.erase(rit);
  }
  core_dirty_ = true;
  recompute_group(m.group, config_.fm_multicast_processing);
  if (git->second.empty()) groups_.erase(git);
}

void FabricManager::on_mcast_sender_seen(SwitchId sender,
                                         const McastSenderSeen& m) {
  auto& senders = groups_[m.group].senders;
  if (senders.insert(sender).second) {
    core_dirty_ = true;
    recompute_group(m.group, config_.fm_multicast_processing);
  }
}

void FabricManager::recompute_group(Ipv4Address group, SimDuration base_delay) {
  const auto git = groups_.find(group);
  std::optional<MulticastTree> fresh;
  if (git != groups_.end()) {
    fresh = compute_multicast_tree(graph_, group, git->second);
  }

  const auto old_it = installed_trees_.find(group);
  const MulticastTree* old =
      old_it == installed_trees_.end() ? nullptr : &old_it->second;
  if (old != nullptr && fresh.has_value() && *old == *fresh) return;

  // Remove entries from switches leaving the tree.
  SimDuration delay = base_delay;
  if (old != nullptr) {
    for (const auto& [sw, ports] : old->ports) {
      if (!fresh.has_value() || fresh->ports.count(sw) == 0) {
        send(sw, McastRemove{group}, delay);
        delay += config_.flow_install_cost;
      }
    }
  }
  // Install (or refresh) entries, one flow-mod at a time — the serialized
  // installation is what stretches multicast recovery past unicast's.
  if (fresh.has_value()) {
    for (const auto& [sw, ports] : fresh->ports) {
      McastInstall install;
      install.group = group;
      install.ports.assign(ports.begin(), ports.end());
      send(sw, std::move(install), delay);
      delay += config_.flow_install_cost;
    }
    installed_trees_[group] = std::move(*fresh);
    counters_.add("mcast_trees_installed");
  } else {
    installed_trees_.erase(group);
    counters_.add("mcast_trees_unavailable");
  }
  core_dirty_ = true;
}

void FabricManager::recompute_all_groups(SimDuration base_delay) {
  // Collect names first: recompute_group may erase empty groups.
  std::vector<Ipv4Address> names;
  names.reserve(groups_.size());
  for (const auto& [group, state] : groups_) names.push_back(group);
  for (const Ipv4Address g : names) recompute_group(g, base_delay);
}

std::optional<MulticastTree> FabricManager::installed_tree(
    Ipv4Address group) const {
  const auto it = installed_trees_.find(group);
  if (it == installed_trees_.end()) return std::nullopt;
  return it->second;
}

// ---------------------------------------------------------------------------
// Checkpoint
// ---------------------------------------------------------------------------

namespace {

void save_port_map(sim::SnapshotWriter& w,
                   const std::map<SwitchId, std::set<std::uint16_t>>& m) {
  w.u32(static_cast<std::uint32_t>(m.size()));
  for (const auto& [id, ports] : m) {
    w.u64(id);
    w.u32(static_cast<std::uint32_t>(ports.size()));
    for (const std::uint16_t p : ports) w.u16(p);
  }
}

void restore_port_map(sim::SnapshotReader& r,
                      std::map<SwitchId, std::set<std::uint16_t>>& m) {
  m.clear();
  const std::uint32_t n = r.count(8 + 4);
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    const SwitchId id = r.u64();
    std::set<std::uint16_t>& ports =
        m.emplace_hint(m.end(), id, std::set<std::uint16_t>{})->second;
    const std::uint32_t np = r.count(2);
    for (std::uint32_t p = 0; p < np && r.ok(); ++p) {
      ports.emplace_hint(ports.end(), r.u16());
    }
  }
}

/// A serialized sim::Timer image is fixed-size (armed, pending, shard,
/// deadline, seq); consumed when the restoring FM has no matching timer.
void skip_timer(sim::SnapshotReader& r) { r.skip(1 + 1 + 4 + 8 + 8); }

}  // namespace

void FabricManager::save_core_state(sim::SnapshotWriter& w) const {
  graph_.save_state(w);
  w.u16(next_pod_);
  w.u32(static_cast<std::uint32_t>(pod_by_requester_.size()));
  for (const auto& [id, pod] : pod_by_requester_) {
    w.u64(id);
    w.u16(pod);
  }
  w.u32(static_cast<std::uint32_t>(synced_switches_.size()));
  for (const SwitchId id : synced_switches_) w.u64(id);

  w.u32(static_cast<std::uint32_t>(installed_prunes_.size()));
  for (const auto& [key, prunes] : installed_prunes_) {
    w.u16(key.pod);
    w.u8(key.position);
    w.u32(static_cast<std::uint32_t>(prunes.size()));
    for (const auto& [sw, avoid] : prunes) {
      w.u64(sw);
      w.u32(static_cast<std::uint32_t>(avoid.size()));
      for (const SwitchId a : avoid) w.u64(a);
    }
  }

  w.u32(static_cast<std::uint32_t>(groups_.size()));
  for (const auto& [group, state] : groups_) {
    w.u32(group.value());
    save_port_map(w, state.receivers);
    w.u32(static_cast<std::uint32_t>(state.senders.size()));
    for (const SwitchId s : state.senders) w.u64(s);
  }

  w.u32(static_cast<std::uint32_t>(installed_trees_.size()));
  for (const auto& [group, tree] : installed_trees_) {
    w.u32(group.value());
    w.u32(tree.group.value());
    w.u64(tree.core);
    save_port_map(w, tree.ports);
  }
}

void FabricManager::restore_core_state(sim::SnapshotReader& r) {
  graph_.restore_state(r);
  next_pod_ = r.u16();

  pod_by_requester_.clear();
  const std::uint32_t n_pods = r.count(8 + 2);
  pod_by_requester_.reserve(n_pods);
  for (std::uint32_t i = 0; i < n_pods && r.ok(); ++i) {
    const SwitchId id = r.u64();
    pod_by_requester_.emplace_back(id, r.u16());
  }

  synced_switches_.clear();
  const std::uint32_t n_synced = r.count(8);
  synced_switches_.reserve(n_synced);
  for (std::uint32_t i = 0; i < n_synced && r.ok(); ++i) {
    synced_switches_.push_back(r.u64());
  }

  installed_prunes_.clear();
  const std::uint32_t n_prunes = r.count(2 + 1 + 4);
  for (std::uint32_t i = 0; i < n_prunes && r.ok(); ++i) {
    DstKey key;
    key.pod = r.u16();
    key.position = r.u8();
    PruneMap& prunes =
        installed_prunes_
            .emplace_hint(installed_prunes_.end(), key, PruneMap{})
            ->second;
    const std::uint32_t n_sw = r.count(8 + 4);
    for (std::uint32_t s = 0; s < n_sw && r.ok(); ++s) {
      const SwitchId sw = r.u64();
      std::set<SwitchId>& avoid =
          prunes.emplace_hint(prunes.end(), sw, std::set<SwitchId>{})->second;
      const std::uint32_t n_avoid = r.count(8);
      for (std::uint32_t a = 0; a < n_avoid && r.ok(); ++a) {
        avoid.emplace_hint(avoid.end(), r.u64());
      }
    }
  }

  groups_.clear();
  const std::uint32_t n_groups = r.count(4 + 4 + 4);
  for (std::uint32_t i = 0; i < n_groups && r.ok(); ++i) {
    const Ipv4Address group(r.u32());
    GroupState& state = groups_[group];
    restore_port_map(r, state.receivers);
    const std::uint32_t n_senders = r.count(8);
    for (std::uint32_t s = 0; s < n_senders && r.ok(); ++s) {
      state.senders.insert(r.u64());
    }
  }

  installed_trees_.clear();
  const std::uint32_t n_trees = r.count(4 + 4 + 8 + 4);
  for (std::uint32_t i = 0; i < n_trees && r.ok(); ++i) {
    const Ipv4Address group(r.u32());
    MulticastTree& tree = installed_trees_[group];
    tree.group = Ipv4Address(r.u32());
    tree.core = r.u64();
    restore_port_map(r, tree.ports);
  }
}

void FabricManager::save_registry(sim::SnapshotWriter& w,
                                  const RegistryShard& s) const {
  w.u32(static_cast<std::uint32_t>(s.hosts.size()));
  s.hosts.for_each_sorted([&w](const FmRegistry<HostRecord>::Entry& e) {
    w.u32(e.ip.value());
    w.u64(e.rec.pmac.to_u64());
    w.u64(e.rec.amac.to_u64());
    w.u64(e.rec.edge);
    w.u16(e.rec.edge_port);
  });
}

void FabricManager::restore_registry(sim::SnapshotReader& r) {
  // Entries land in whichever shard owns them under the *current* shard
  // count — a same-config restore reproduces the saved split exactly, a
  // mismatched one redistributes gracefully.
  const std::uint32_t n = r.count(4 + 8 + 8 + 8 + 2);
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    const Ipv4Address ip(r.u32());
    HostRecord rec;
    rec.pmac = MacAddress::from_u64(r.u64());
    rec.amac = MacAddress::from_u64(r.u64());
    rec.edge = r.u64();
    rec.edge_port = r.u16();
    shards_[shard_of(ip)].hosts.insert_or_assign(ip, rec);
  }
}

void FabricManager::save_state(sim::SnapshotWriter& w) const {
  save_core_state(w);

  w.u32(static_cast<std::uint32_t>(shards_.size()));
  for (const RegistryShard& s : shards_) {
    save_registry(w, s);
    w.u64(s.delta_version);
    w.u8(s.dirty ? 1 : 0);
    sim::save_counters(w, s.counters);
    w.u8(s.sync_timer != nullptr ? 1 : 0);
    if (s.sync_timer != nullptr) s.sync_timer->save_state(w);
  }

  sim::save_counters(w, counters_);

  w.u8(config_.fm_replica ? 1 : 0);
  if (config_.fm_replica) {
    w.u32(static_cast<std::uint32_t>(replica_.size()));
    for (const ReplicaSection& s : replica_) {
      w.u64(s.version);
      w.blob(s.image);
    }
    w.u64(core_version_);
    w.u8(core_dirty_ ? 1 : 0);
    w.u8(core_sync_timer_ != nullptr ? 1 : 0);
    if (core_sync_timer_ != nullptr) core_sync_timer_->save_state(w);
  }
}

void FabricManager::restore_state(sim::SnapshotReader& r) {
  restore_core_state(r);

  for (RegistryShard& s : shards_) {
    s.hosts.clear();
    s.delta_version = 0;
    s.dirty = false;
  }
  // Per shard: registry count, version, dirty flag, counters header
  // (count, fingerprint, names length), timer flag.
  const std::uint32_t n_shards = r.count(4 + 8 + 1 + 16 + 1);
  const bool same_split = n_shards == shards_.size();
  for (std::uint32_t i = 0; i < n_shards && r.ok(); ++i) {
    restore_registry(r);
    const std::uint64_t version = r.u64();
    const bool dirty = r.u8() != 0;
    RegistryShard& target = shards_[same_split ? i : i % shards_.size()];
    target.delta_version = std::max(target.delta_version, version);
    target.dirty = target.dirty || dirty;
    if (same_split) {
      sim::restore_counters(r, target.counters);
    } else {
      CounterSet scratch;
      sim::restore_counters(r, scratch);
      for (const auto& [name, value] : scratch.all()) {
        target.counters.add(name, value);
      }
    }
    const bool had_timer = r.u8() != 0;
    if (had_timer) {
      if (same_split && target.sync_timer != nullptr) {
        target.sync_timer->restore_state(r);
      } else {
        skip_timer(r);
      }
    }
  }

  sim::restore_counters(r, counters_);

  const bool had_replica = r.u8() != 0;
  for (ReplicaSection& s : replica_) s = ReplicaSection{};
  if (had_replica) {
    const std::uint32_t n = r.count(8 + 4);
    for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
      const std::uint64_t version = r.u64();
      std::vector<std::uint8_t> image = r.blob();
      if (i < replica_.size()) {
        replica_[i].version = version;
        replica_[i].image = std::move(image);
      }
    }
    core_version_ = r.u64();
    core_dirty_ = r.u8() != 0;
    const bool had_timer = r.u8() != 0;
    if (had_timer) {
      if (core_sync_timer_ != nullptr) {
        core_sync_timer_->restore_state(r);
      } else {
        skip_timer(r);
      }
    }
  } else {
    core_version_ = 0;
    core_dirty_ = false;
  }
}

}  // namespace portland::core
