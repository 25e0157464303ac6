#include "obs/convergence_monitor.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "obs/canonical_merge.h"

namespace portland::obs {

namespace {

constexpr std::size_t kLoopProbeWindow = 8;

[[nodiscard]] std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

[[nodiscard]] std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

void append_ms_field(std::string* out, const char* key, SimTime base,
                     SimTime stage, bool trailing_comma = true) {
  char buf[96];
  if (stage == 0) {
    std::snprintf(buf, sizeof(buf), "\"%s\":null%s", key,
                  trailing_comma ? "," : "");
  } else {
    std::snprintf(buf, sizeof(buf), "\"%s\":%.3f%s", key,
                  static_cast<double>(stage - base) / 1e6,
                  trailing_comma ? "," : "");
  }
  out->append(buf);
}

}  // namespace

FlowKey parse_flow_key(const std::uint8_t* data, std::size_t size) {
  FlowKey key;
  if (data == nullptr || size < 14 + 20) return key;
  if (data[12] != 0x08 || data[13] != 0x00) return key;  // not IPv4
  const std::uint8_t* ip = data + 14;
  if ((ip[0] >> 4) != 4) return key;
  const std::size_t ihl = static_cast<std::size_t>(ip[0] & 0x0f) * 4;
  if (ihl < 20 || size < 14 + ihl) return key;
  const std::uint8_t proto = ip[9];
  const std::uint64_t src_ip = static_cast<std::uint64_t>(ip[12]) << 24 |
                               static_cast<std::uint64_t>(ip[13]) << 16 |
                               static_cast<std::uint64_t>(ip[14]) << 8 |
                               static_cast<std::uint64_t>(ip[15]);
  const std::uint64_t dst_ip = static_cast<std::uint64_t>(ip[16]) << 24 |
                               static_cast<std::uint64_t>(ip[17]) << 16 |
                               static_cast<std::uint64_t>(ip[18]) << 8 |
                               static_cast<std::uint64_t>(ip[19]);
  std::uint64_t src_port = 0;
  std::uint64_t dst_port = 0;
  if ((proto == 6 || proto == 17) && size >= 14 + ihl + 4) {
    const std::uint8_t* l4 = ip + ihl;
    src_port = static_cast<std::uint64_t>(l4[0]) << 8 | l4[1];
    dst_port = static_cast<std::uint64_t>(l4[2]) << 8 | l4[3];
  }
  key.hi = src_ip << 32 | dst_ip;
  key.lo = src_port << 24 | dst_port << 8 | proto;
  return key;
}

std::string flow_key_to_string(const FlowKey& key) {
  if (!key.valid()) return "invalid";
  const std::uint32_t src = static_cast<std::uint32_t>(key.hi >> 32);
  const std::uint32_t dst = static_cast<std::uint32_t>(key.hi);
  const unsigned src_port = static_cast<unsigned>(key.lo >> 24 & 0xffff);
  const unsigned dst_port = static_cast<unsigned>(key.lo >> 8 & 0xffff);
  const unsigned proto = static_cast<unsigned>(key.lo & 0xff);
  char proto_buf[16];
  const char* proto_name = proto_buf;
  if (proto == 6) {
    proto_name = "tcp";
  } else if (proto == 17) {
    proto_name = "udp";
  } else {
    std::snprintf(proto_buf, sizeof(proto_buf), "%u", proto);
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u:%u->%u.%u.%u.%u:%u/%s",
                src >> 24, src >> 16 & 0xff, src >> 8 & 0xff, src & 0xff,
                src_port, dst >> 24, dst >> 16 & 0xff, dst >> 8 & 0xff,
                dst & 0xff, dst_port, proto_name);
  return buf;
}

ConvergenceMonitor::ConvergenceMonitor(std::size_t shard_count,
                                       Options options)
    : options_(options),
      shards_(shard_count == 0 ? 1 : shard_count) {
  options_.loop_table_capacity =
      round_up_pow2(std::max<std::size_t>(options_.loop_table_capacity,
                                          kLoopProbeWindow));
  if (options_.check_invariants) {
    for (ShardState& s : shards_) {
      s.loop_table.resize(options_.loop_table_capacity);
    }
  }
}

void ConvergenceMonitor::append(std::uint32_t shard, Event e) {
  ShardState& s = shard_for(shard);
  if (s.events.size() >= options_.max_events_per_shard) {
    ++s.overflow;
    return;
  }
  e.seq = s.seq++;
  s.events.push_back(e);
}

void ConvergenceMonitor::on_link_event(std::uint32_t shard, SimTime t,
                                       const char* a, const char* b,
                                       bool up) {
  Event e;
  e.time = t;
  e.kind = up ? EventKind::kLinkUp : EventKind::kLinkDown;
  e.a = a;
  e.b = b;
  append(shard, e);
}

void ConvergenceMonitor::on_neighbor_event(std::uint32_t shard, SimTime t,
                                           const char* sw, bool lost) {
  Event e;
  e.time = t;
  e.kind = lost ? EventKind::kNeighborLost : EventKind::kNeighborBack;
  e.a = sw;
  append(shard, e);
}

void ConvergenceMonitor::on_fault_notify(std::uint32_t shard, SimTime t,
                                         bool link_up) {
  Event e;
  e.time = t;
  e.kind = link_up ? EventKind::kFaultRepair : EventKind::kFaultNotify;
  append(shard, e);
}

void ConvergenceMonitor::on_prune_install(std::uint32_t shard, SimTime t,
                                          const char* sw) {
  Event e;
  e.time = t;
  e.kind = EventKind::kPruneInstall;
  e.a = sw;
  append(shard, e);
}

void ConvergenceMonitor::on_hop(std::uint32_t shard, SimTime t,
                                const char* device, HopEvent event,
                                std::uint64_t trace_id,
                                const std::uint8_t* data, std::size_t size) {
  if (event == HopEvent::kDeliver) {
    const FlowKey flow = parse_flow_key(data, size);
    if (flow.valid()) {
      Event e;
      e.time = t;
      e.kind = EventKind::kFlowDeliver;
      e.a = device;
      e.flow = flow;
      append(shard, e);
    }
    if (options_.check_invariants && trace_id != 0) {
      loop_erase(shard_for(shard), trace_id);
    }
  } else if (options_.check_invariants && event == HopEvent::kIngress &&
             trace_id != 0) {
    loop_visit(shard_for(shard), t, device, trace_id);
  }
}

void ConvergenceMonitor::on_drop(std::uint32_t shard, SimTime t,
                                 std::uint64_t trace_id,
                                 const std::uint8_t* data,
                                 std::size_t size) {
  const FlowKey flow = parse_flow_key(data, size);
  if (flow.valid()) {
    Event e;
    e.time = t;
    e.kind = EventKind::kFlowDrop;
    e.flow = flow;
    append(shard, e);
  }
  if (options_.check_invariants && trace_id != 0) {
    loop_erase(shard_for(shard), trace_id);
  }
}

void ConvergenceMonitor::loop_visit(ShardState& s, SimTime t,
                                    const char* device,
                                    std::uint64_t trace_id) {
  const std::size_t mask = s.loop_table.size() - 1;
  const std::size_t start = mix64(trace_id) & mask;
  LoopSlot* slot = nullptr;
  LoopSlot* empty = nullptr;
  for (std::size_t i = 0; i < kLoopProbeWindow; ++i) {
    LoopSlot& cand = s.loop_table[(start + i) & mask];
    if (cand.trace_id == trace_id) {
      slot = &cand;
      break;
    }
    if (cand.trace_id == 0 && empty == nullptr) empty = &cand;
  }
  if (slot == nullptr) {
    if (empty == nullptr) {
      empty = &s.loop_table[start];  // deterministic eviction
      ++s.loop_evictions;
    }
    *empty = LoopSlot{};
    empty->trace_id = trace_id;
    slot = empty;
  }
  for (std::size_t i = 0; i < slot->count; ++i) {
    if (slot->visited[i] == device) {
      ++s.violation_total;
      if (s.violations.size() < options_.max_loop_violations) {
        s.violations.push_back(LoopViolation{t, trace_id, device});
      }
      return;
    }
  }
  if (slot->count < slot->visited.size()) {
    slot->visited[slot->count++] = device;
  }
}

void ConvergenceMonitor::loop_erase(ShardState& s, std::uint64_t trace_id) {
  const std::size_t mask = s.loop_table.size() - 1;
  const std::size_t start = mix64(trace_id) & mask;
  for (std::size_t i = 0; i < kLoopProbeWindow; ++i) {
    LoopSlot& cand = s.loop_table[(start + i) & mask];
    if (cand.trace_id == trace_id) {
      cand = LoopSlot{};
      return;
    }
  }
}

void ConvergenceMonitor::advance() {
  // Process every shard buffer in canonical (time, shard, seq) order —
  // the same total order for any worker count — by merging the per-shard
  // runs in place, then empty them (capacity retained for the next
  // window).
  merge_canonical(
      static_cast<std::uint32_t>(shards_.size()),
      [this](std::uint32_t s) -> std::vector<Event>& {
        return shards_[s].events;
      },
      [](const Event& e) { return e.time; },
      [this](const Event& e, std::uint32_t) { process(e); });
  for (ShardState& s : shards_) s.events.clear();
}

void ConvergenceMonitor::process(const Event& e) {
  switch (e.kind) {
    case EventKind::kLinkDown:
      open_timeline(e);
      break;
    case EventKind::kLinkUp:
      for (std::size_t i = 0; i < open_.size(); ++i) {
        const FailureTimeline& tl = open_[i];
        const bool same =
            (std::strcmp(tl.endpoint_a, e.a) == 0 &&
             std::strcmp(tl.endpoint_b, e.b) == 0) ||
            (std::strcmp(tl.endpoint_a, e.b) == 0 &&
             std::strcmp(tl.endpoint_b, e.a) == 0);
        if (same) {
          // Repaired before a reroute was even installed = a flap: the
          // reaction chain never completed for this failure.
          close_timeline(i, e.time, /*flapped=*/tl.reroute == 0,
                         /*count_unresolved=*/false);
          break;
        }
      }
      break;
    case EventKind::kNeighborLost:
      for (FailureTimeline& tl : open_) {
        if (tl.detect != 0) continue;
        if (std::strcmp(tl.endpoint_a, e.a) == 0 ||
            std::strcmp(tl.endpoint_b, e.a) == 0) {
          tl.detect = e.time;
        }
      }
      break;
    case EventKind::kNeighborBack:
      break;
    case EventKind::kFaultNotify:
      // The FM does not tell us which link a notify was for, so the
      // stage attaches to every open timeline that has been detected but
      // not yet notified — a deterministic approximation that is exact
      // for single failures and shares the stage across overlapping ones.
      for (FailureTimeline& tl : open_) {
        if (tl.notify == 0 && tl.detect != 0) tl.notify = e.time;
      }
      break;
    case EventKind::kFaultRepair:
      break;
    case EventKind::kPruneInstall:
      for (FailureTimeline& tl : open_) {
        if (tl.reroute == 0 && tl.notify != 0) tl.reroute = e.time;
      }
      break;
    case EventKind::kFlowDrop: {
      if (open_.empty()) break;  // flows only tracked during failures
      for (const OpenWindow& w : open_windows_) {
        if (w.flow == e.flow) return;  // window already open
      }
      // Attribute the window to the most recent failure at the drop time.
      const FailureTimeline* owner = nullptr;
      for (const FailureTimeline& tl : open_) {
        if (tl.link_down <= e.time &&
            (owner == nullptr || tl.link_down > owner->link_down)) {
          owner = &tl;
        }
      }
      if (owner == nullptr) owner = &open_.back();
      open_windows_.push_back(OpenWindow{e.flow, e.time, owner->id});
      break;
    }
    case EventKind::kFlowDeliver:
      for (std::size_t i = 0; i < open_windows_.size(); ++i) {
        if (!(open_windows_[i].flow == e.flow)) continue;
        const OpenWindow w = open_windows_[i];
        open_windows_.erase(open_windows_.begin() +
                            static_cast<std::ptrdiff_t>(i));
        for (FailureTimeline& tl : open_) {
          if (tl.id != w.timeline_id) continue;
          tl.blackholes.push_back(
              BlackholeWindow{w.flow, w.first_loss, e.time});
          if (tl.reroute != 0 && tl.recovered == 0) tl.recovered = e.time;
          break;
        }
        break;
      }
      break;
  }
}

void ConvergenceMonitor::open_timeline(const Event& e) {
  for (const FailureTimeline& tl : open_) {
    const bool same = (std::strcmp(tl.endpoint_a, e.a) == 0 &&
                       std::strcmp(tl.endpoint_b, e.b) == 0) ||
                      (std::strcmp(tl.endpoint_a, e.b) == 0 &&
                       std::strcmp(tl.endpoint_b, e.a) == 0);
    if (same) return;  // already tracking this link's failure
  }
  FailureTimeline tl;
  tl.id = next_timeline_id_++;
  tl.endpoint_a = e.a;
  tl.endpoint_b = e.b;
  tl.link.assign(e.a);
  tl.link.append("<->");
  tl.link.append(e.b);
  tl.link_down = e.time;
  open_.push_back(std::move(tl));
  ++timelines_total_;
}

void ConvergenceMonitor::close_timeline(std::size_t index, SimTime repaired,
                                        bool flapped,
                                        bool count_unresolved) {
  FailureTimeline tl = std::move(open_[index]);
  open_.erase(open_.begin() + static_cast<std::ptrdiff_t>(index));
  tl.repaired = repaired;
  tl.flapped = flapped;
  // Move this failure's still-open windows into the timeline, unclosed.
  // On a repair closure the link itself restores connectivity, so an
  // unclosed window is lifecycle, not a blackhole violation; on a
  // finalize() closure it means the flow never saw a frame again.
  for (std::size_t i = 0; i < open_windows_.size();) {
    if (open_windows_[i].timeline_id == tl.id) {
      tl.blackholes.push_back(BlackholeWindow{
          open_windows_[i].flow, open_windows_[i].first_loss, 0});
      if (count_unresolved) ++unresolved_blackholes_;
      open_windows_.erase(open_windows_.begin() +
                          static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  completed_.push_back(std::move(tl));
  if (completed_.size() > options_.max_completed) {
    completed_.erase(completed_.begin());
    ++completed_dropped_;
  }
}

void ConvergenceMonitor::finalize() {
  advance();
  while (!open_.empty()) {
    close_timeline(0, /*repaired=*/0, /*flapped=*/false,
                   /*count_unresolved=*/true);
  }
}

std::uint64_t ConvergenceMonitor::events_captured() const {
  std::uint64_t total = 0;
  for (const ShardState& s : shards_) total += s.seq;
  return total;
}

std::uint64_t ConvergenceMonitor::events_overflowed() const {
  std::uint64_t total = 0;
  for (const ShardState& s : shards_) total += s.overflow;
  return total;
}

std::uint64_t ConvergenceMonitor::loop_violations() const {
  std::uint64_t total = 0;
  for (const ShardState& s : shards_) total += s.violation_total;
  return total;
}

std::vector<LoopViolation> ConvergenceMonitor::loop_violation_details()
    const {
  struct Tagged {
    LoopViolation v;
    std::uint32_t shard;
    std::size_t index;
  };
  std::vector<Tagged> all;
  for (std::uint32_t i = 0; i < shards_.size(); ++i) {
    for (std::size_t j = 0; j < shards_[i].violations.size(); ++j) {
      all.push_back({shards_[i].violations[j], i, j});
    }
  }
  std::sort(all.begin(), all.end(), [](const Tagged& x, const Tagged& y) {
    if (x.v.time != y.v.time) return x.v.time < y.v.time;
    if (x.shard != y.shard) return x.shard < y.shard;
    return x.index < y.index;
  });
  std::vector<LoopViolation> out;
  out.reserve(all.size());
  for (const Tagged& t : all) out.push_back(t.v);
  return out;
}

std::uint64_t ConvergenceMonitor::unresolved_blackholes() const {
  return unresolved_blackholes_;
}

void ConvergenceMonitor::write_timelines_jsonl(std::string* out) const {
  char buf[160];
  for (const FailureTimeline& tl : completed_) {
    std::snprintf(buf, sizeof(buf), "{\"id\":%" PRIu64 ",\"link\":\"",
                  tl.id);
    out->append(buf);
    out->append(tl.link);  // device names: [a-z0-9-], no JSON escapes
    std::snprintf(buf, sizeof(buf), "\",\"t_down_ns\":%" PRId64 ",",
                  static_cast<std::int64_t>(tl.link_down));
    out->append(buf);
    append_ms_field(out, "detect_ms", tl.link_down, tl.detect);
    append_ms_field(out, "notify_ms", tl.link_down, tl.notify);
    append_ms_field(out, "reroute_ms", tl.link_down, tl.reroute);
    append_ms_field(out, "recovered_ms", tl.link_down, tl.recovered);
    append_ms_field(out, "convergence_ms", 0, tl.convergence());
    out->append(tl.repaired != 0 ? "\"repaired\":true," :
                                   "\"repaired\":false,");
    out->append(tl.flapped ? "\"flapped\":true," : "\"flapped\":false,");
    out->append("\"blackholes\":[");
    for (std::size_t i = 0; i < tl.blackholes.size(); ++i) {
      const BlackholeWindow& w = tl.blackholes[i];
      if (i != 0) out->append(",");
      out->append("{\"flow\":\"");
      out->append(flow_key_to_string(w.flow));
      std::snprintf(buf, sizeof(buf), "\",\"start_ns\":%" PRId64 ",",
                    static_cast<std::int64_t>(w.first_loss));
      out->append(buf);
      if (w.closed()) {
        std::snprintf(buf, sizeof(buf),
                      "\"end_ns\":%" PRId64 ",\"ms\":%.3f}",
                      static_cast<std::int64_t>(w.first_recovery),
                      static_cast<double>(w.duration()) / 1e6);
        out->append(buf);
      } else {
        out->append("\"end_ns\":null,\"ms\":null}");
      }
    }
    out->append("]}\n");
  }
}

void ConvergenceMonitor::render_prometheus(std::string* out) const {
  char buf[192];
  const std::pair<const char*, std::uint64_t> totals[] = {
      {"portland_convergence_timelines_completed",
       static_cast<std::uint64_t>(completed_.size()) + completed_dropped_},
      {"portland_convergence_timelines_open",
       static_cast<std::uint64_t>(open_.size())},
      {"portland_convergence_events_captured", events_captured()},
      {"portland_convergence_events_overflowed", events_overflowed()},
      {"portland_convergence_loop_violations", loop_violations()},
      {"portland_convergence_unresolved_blackholes",
       unresolved_blackholes_},
  };
  for (const auto& [name, value] : totals) {
    std::snprintf(buf, sizeof(buf), "%s %" PRIu64 "\n", name, value);
    out->append(buf);
  }
  // Per-timeline samples for the most recent completions (labels are
  // device names, [a-z0-9-] only — no escaping needed).
  constexpr std::size_t kMaxRendered = 128;
  const std::size_t first =
      completed_.size() > kMaxRendered ? completed_.size() - kMaxRendered
                                       : 0;
  for (std::size_t i = first; i < completed_.size(); ++i) {
    const FailureTimeline& tl = completed_[i];
    if (tl.convergence() != 0) {
      std::snprintf(buf, sizeof(buf),
                    "portland_convergence_ms{link=\"%s\",id=\"%" PRIu64
                    "\"} %.3f\n",
                    tl.link.c_str(), tl.id,
                    static_cast<double>(tl.convergence()) / 1e6);
      out->append(buf);
    }
    if (tl.detect != 0) {
      std::snprintf(buf, sizeof(buf),
                    "portland_convergence_detect_ms{link=\"%s\",id=\"%" PRIu64
                    "\"} %.3f\n",
                    tl.link.c_str(), tl.id,
                    static_cast<double>(tl.detect - tl.link_down) / 1e6);
      out->append(buf);
    }
    for (const BlackholeWindow& w : tl.blackholes) {
      if (!w.closed()) continue;
      std::snprintf(buf, sizeof(buf),
                    "portland_blackhole_ms{link=\"%s\",flow=\"%s\"} %.3f\n",
                    tl.link.c_str(), flow_key_to_string(w.flow).c_str(),
                    static_cast<double>(w.duration()) / 1e6);
      out->append(buf);
    }
  }
}

void ConvergenceMonitor::clear() {
  for (ShardState& s : shards_) {
    s.events.clear();
    s.seq = 0;
    s.overflow = 0;
    if (!s.loop_table.empty()) {
      std::fill(s.loop_table.begin(), s.loop_table.end(), LoopSlot{});
    }
    s.violations.clear();
    s.violation_total = 0;
    s.loop_evictions = 0;
  }
  open_.clear();
  completed_.clear();
  open_windows_.clear();
  timelines_total_ = 0;
  next_timeline_id_ = 1;
  unresolved_blackholes_ = 0;
  completed_dropped_ = 0;
}

}  // namespace portland::obs
