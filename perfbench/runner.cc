// perfbench runner: runs one named benchmark workload against the PortLand
// library, using only its public API, and writes the raw measurements as
// one JSON document:
//
//   * wall time of every call the runner makes into a module (fabric
//     constructor, run_until_converged, run_until, snapshot save/restore,
//     send_udp, FailureInjector, convergence-monitor reads), per set-up
//     repetition and per measured operation;
//   * public counters read before and after the measured phase, and after
//     a fixed prefix of operations so that count-based numbers repeat
//     exactly whatever the machine speed;
//   * simulated outcomes (delivered frames, failure timelines, ARP
//     answers) folded into an outcome digest;
//   * times of a fixed calibration kernel sampled between measured
//     operations, by which run.py scales them to reference time;
//   * with --trace 1, spans (name, start, end, parent, group) around the
//     same calls plus the engine's EngineTracer windows / dispatch chunks.
//
// perfbench/run.py turns this document into the reported metrics.
//
// Usage: perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                         --setups N --out PATH
#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/rss.h"
#include "core/fabric.h"
#include "host/apps.h"
#include "net/packet.h"
#include "obs/convergence_monitor.h"
#include "obs/drop_reason.h"
#include "obs/trace_export.h"

using namespace portland;

namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Arguments
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int setups = 3;
  std::string out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_runner: %s\nusage: perfbench_runner --workload "
               "NAME --seed N --seconds S --trace 0|1 --setups N --out PATH\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing flag value");
    const char* value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(value);
    } else if (flag == "--trace") {
      a.trace = std::atoi(value) != 0;
    } else if (flag == "--setups") {
      a.setups = std::max(1, std::atoi(value));
    } else if (flag == "--out") {
      a.out = value;
    } else {
      usage("unknown flag");
    }
  }
  if (a.workload.empty() || a.out.empty()) usage("--workload and --out");
  if (a.seconds <= 0) usage("--seconds must be positive");
  return a;
}

// ---------------------------------------------------------------------------
// Spans: recorded only with --trace 1, kept in memory, written at the end.
// ---------------------------------------------------------------------------

class SpanLog {
 public:
  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  // 0 = root
    const char* name = "";
    double begin_us = 0;
    double end_us = 0;
    std::uint64_t group = 0;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {
    spans_.reserve(enabled ? 1 << 16 : 0);
  }

  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

  std::uint32_t open(const char* name, std::uint64_t group, double begin_us) {
    if (!enabled_) return 0;
    Span s;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = stack_.empty() ? 0 : stack_.back();
    s.name = name;
    s.begin_us = begin_us;
    s.group = group;
    spans_.push_back(s);
    stack_.push_back(s.id);
    return s.id;
  }

  void close(std::uint32_t id, double end_us) {
    if (!enabled_ || id == 0) return;
    spans_[id - 1].end_us = end_us;
    stack_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// One timed region: a span when tracing, always a wall-clock duration.
class Region {
 public:
  Region(SpanLog& log, const char* name, std::uint64_t group = 0)
      : log_(&log), begin_(log.now_us()), id_(log.open(name, group, begin_)) {}
  /// Closes the region and returns its wall time in seconds.
  double stop() {
    const double end = log_->now_us();
    log_->close(id_, end);
    return (end - begin_) / 1e6;
  }

 private:
  SpanLog* log_;
  double begin_;
  std::uint32_t id_;
};

/// Times `fn` as a layer call named `name`; returns wall seconds.
template <class F>
double timed(SpanLog& log, const char* name, std::uint64_t group, F&& fn) {
  Region r(log, name, group);
  fn();
  return r.stop();
}

// ---------------------------------------------------------------------------
// Calibration
// ---------------------------------------------------------------------------

/// A fixed imitation of a discrete-event simulator's inner loop, sharing no
/// code with the library: pop the earliest event from a binary heap, look a
/// key up in an open-addressed hash table, dispatch through a
/// function-pointer table, push a follow-up event. Its time is sampled
/// between measured operations; other tenants of a shared machine slow it
/// together with the workload, so run.py scales operation times by its
/// speed. Its state is about 1 MB in two contiguous blocks allocated before
/// any fabric, so the workload's heap layout cannot change it, and it is
/// read once before every sample, so neither can what the workload left in
/// the caches.
class Calibration {
 public:
  Calibration() : table_(kSlots), heap_(kEvents) {
    Rng rng(0xCA11B, 1);
    for (std::uint32_t i = 0; i < kKeys; ++i) {
      std::uint32_t at = slot(key(i));
      while (table_[at].key != 0) at = (at + 1) & (kSlots - 1);
      table_[at] = {key(i), rng.next()};
    }
    for (std::uint32_t i = 0; i < kEvents; ++i) {
      heap_[i] = {rng.next_below(1 << 20), i};
    }
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
  }

  /// Wall seconds of kSteps steps, after a pass over all the state.
  double sample() {
    std::uint64_t warm = 0;
    for (const Slot& e : table_) warm += e.value;
    for (const auto& e : heap_) warm += e.first;
    acc_ ^= warm & 1;
    const auto t0 = Clock::now();
    for (int i = 0; i < kSteps; ++i) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      const auto [t, id] = heap_.back();
      heap_.pop_back();
      const std::uint32_t k = key((id + static_cast<std::uint32_t>(acc_)) % kKeys);
      std::uint32_t at = slot(k);
      while (table_[at].key != k) at = (at + 1) & (kSlots - 1);
      const std::uint64_t v = table_[at].value;
      acc_ = kDispatch[(v ^ acc_) & 3](acc_ + v);
      heap_.emplace_back(t + 1 + (acc_ & 1023), id);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    }
    return std::chrono::duration<double>(Clock::now() - t0).count();
  }

 private:
  struct Slot {
    std::uint32_t key = 0;  // 0 = empty; key() is never 0
    std::uint64_t value = 0;
  };
  static constexpr std::uint32_t kKeys = 1u << 15;
  static constexpr std::uint32_t kSlots = 2 * kKeys;
  static constexpr std::uint32_t kEvents = 4096;
  static constexpr int kSteps = 10000;
  static std::uint32_t key(std::uint32_t i) { return (i + 1) * 2654435761u; }
  static std::uint32_t slot(std::uint32_t k) {
    return (k ^ (k >> 15)) & (kSlots - 1);
  }
  using Step = std::uint64_t (*)(std::uint64_t);
  static constexpr Step kDispatch[4] = {
      [](std::uint64_t x) { return x * 3 + 1; },
      [](std::uint64_t x) { return (x >> 3) ^ x; },
      [](std::uint64_t x) { return x + (x << 7); },
      [](std::uint64_t x) { return x ^ 0x5bd1e995u; },
  };
  std::vector<Slot> table_;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> heap_;
  std::uint64_t acc_ = 1;
};

/// Measured seconds of operations between calibration samples.
constexpr double kOpCalEvery_s = 0.05;

// ---------------------------------------------------------------------------
// JSON output helpers
// ---------------------------------------------------------------------------

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string num(std::uint64_t v) { return std::to_string(v); }

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

std::string list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ",";
    out += num(v[i]);
  }
  return out + "]";
}

class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& value) {
    body_ += body_.empty() ? "" : ",";
    body_ += quoted(key) + ":" + value;
    return *this;
  }
  JsonObject& add(const std::string& key, double v) { return raw(key, num(v)); }
  JsonObject& add(const std::string& key, std::uint64_t v) {
    return raw(key, num(v));
  }
  JsonObject& add(const std::string& key, const std::vector<double>& v) {
    return raw(key, list(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, quoted(v));
  }
  [[nodiscard]] std::string render() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---------------------------------------------------------------------------
// Outcome digest (FNV-1a over 64-bit words)
// ---------------------------------------------------------------------------

class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001b3ull;
    }
  }
  [[nodiscard]] std::string hex() const {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h_);
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// ---------------------------------------------------------------------------
// Public counters, read from outside
// ---------------------------------------------------------------------------

using Counts = std::map<std::string, std::uint64_t>;

Counts operator-(const Counts& a, const Counts& b) {
  Counts d;
  for (const auto& [k, v] : a) {
    const auto it = b.find(k);
    d[k] = v - (it == b.end() ? 0 : it->second);
  }
  return d;
}

Counts& operator+=(Counts& a, const Counts& b) {
  for (const auto& [k, v] : b) a[k] += v;
  return a;
}

constexpr int kLatencyBuckets = 16;  // host arp_latency_us_le_1 .. le_32768

struct CounterKeys {
  std::vector<std::string> drops;  // typed DropReason counters
  std::array<std::string, kLatencyBuckets> latency;
  CounterKeys() {
    for (std::size_t r = 1; r < obs::kDropReasonCount; ++r) {
      drops.emplace_back(
          obs::drop_reason_counter(static_cast<obs::DropReason>(r)));
    }
    for (int b = 0; b < kLatencyBuckets; ++b) {
      latency[b] = "arp_latency_us_le_" + std::to_string(1u << b);
    }
  }
};

/// Application-level counts the workload owns (delivered/sent data frames,
/// TCP retransmissions); filled by the workload's own probe.
struct AppCounts {
  std::uint64_t data_sent = 0;
  std::uint64_t data_recv = 0;
  std::uint64_t tcp_retransmits = 0;
};

Counts capture(core::PortlandFabric& fabric, const AppCounts& app) {
  static const CounterKeys keys;
  Counts c;
  sim::Simulator& sim = fabric.sim();
  c["sim.executed"] = sim.executed_events();
  c["sim.nodes_pushed"] = sim.nodes_pushed();
  c["sim.train_frames"] = sim.train_frames();
  c["sim.trains_popped"] = sim.trains_popped();
  c["sim.train_repushes"] = sim.train_repushes();
  const auto wheel = sim.wheel_stats();
  c["sim.wheel.inserts"] = wheel.inserts;
  c["sim.wheel.erases"] = wheel.erases;
  c["sim.wheel.cascaded"] = wheel.cascaded_nodes;
  c["sim.windows"] = sim.windows_executed();
  c["sim.windows_inline"] = sim.windows_inline();
  c["sim.windows_widened"] = sim.windows_widened();
  c["sim.mail_merged"] = sim.mail_merged();
  if (sim.sharded()) {
    for (std::size_t s = 0; s < sim.shard_count(); ++s) {
      c["sim.shard_executed." + std::to_string(s)] =
          sim.shard_executed(static_cast<sim::ShardId>(s));
    }
  }

  std::uint64_t hops = 0;
  std::uint64_t link_drops = 0;
  for (const auto& link : fabric.network().links()) {
    hops += link->tx_frames(0) + link->tx_frames(1);
    link_drops += link->dropped_frames(0) + link->dropped_frames(1);
  }
  c["link.hops"] = hops;
  c["link.drops"] = link_drops;

  std::uint64_t hits = 0, misses = 0, rebuilds = 0, drops = 0, prunes = 0,
                coalesced = 0, negative = 0, fallback = 0;
  for (const core::PortlandSwitch* sw : fabric.switches()) {
    hits += sw->flow_cache_hits();
    misses += sw->flow_cache_misses();
    rebuilds += sw->fib_rebuilds();
    const CounterSet& sc = sw->counters();
    for (const std::string& key : keys.drops) drops += sc.get(key);
    prunes += sc.get("prune_updates_applied");
    coalesced += sc.get("arp_coalesced");
    negative += sc.get("arp_negative_hits");
    fallback += sc.get("arp_fallback_broadcasts");
  }
  c["switch.flow_cache_hits"] = hits;
  c["switch.flow_cache_misses"] = misses;
  c["switch.fib_rebuilds"] = rebuilds;
  c["switch.drops"] = drops;
  c["switch.prune_updates_applied"] = prunes;
  c["switch.arp_coalesced"] = coalesced;
  c["switch.arp_negative_hits"] = negative;
  c["switch.arp_fallback_broadcasts"] = fallback;

  c["control.msgs"] = fabric.control().messages_sent();
  c["control.bytes"] = fabric.control().bytes_sent();

  const core::FabricManager& fm = fabric.fabric_manager();
  std::uint64_t queries = 0;
  for (std::size_t s = 0; s < fm.shard_count(); ++s) {
    const std::uint64_t q = fm.shard_counters(s).get("arp_queries");
    c["fm.arp_queries." + std::to_string(s)] = q;
    queries += q;
  }
  c["fm.arp_queries"] = queries;
  const CounterSet& fmc = fm.counters();
  c["fm.fault_notifications"] = fmc.get("fault_notifications");
  c["fm.prune_updates_sent"] = fmc.get("prune_updates_sent");

  const net::ParseStats ps = net::parse_stats();
  c["net.parse_calls"] = ps.parse_calls;
  c["net.meta_hits"] = ps.meta_hits;
  c["net.meta_attaches"] = ps.meta_attaches;
  c["net.rewrite_copies"] = ps.rewrite_copies;

  std::uint64_t arp_req = 0, arp_res = 0, arp_over = 0;
  std::array<std::uint64_t, kLatencyBuckets> lat{};
  for (const host::Host* h : fabric.hosts()) {
    const CounterSet& hc = h->counters();
    arp_req += hc.get("arp_requests_sent");
    arp_res += hc.get("arp_resolutions");
    arp_over += hc.get("arp_latency_us_over");
    for (int b = 0; b < kLatencyBuckets; ++b) lat[b] += hc.get(keys.latency[b]);
  }
  c["host.arp_requests"] = arp_req;
  c["host.arp_resolutions"] = arp_res;
  c["host.arp_latency_us.over"] = arp_over;
  for (int b = 0; b < kLatencyBuckets; ++b) {
    c["host.arp_latency_us.le_" + std::to_string(1u << b)] = lat[b];
  }
  c["host.data_sent"] = app.data_sent;
  c["host.data_recv"] = app.data_recv;
  c["host.tcp_retransmits"] = app.tcp_retransmits;
  return c;
}

std::string counts_json(const Counts& c) {
  JsonObject o;
  for (const auto& [k, v] : c) o.add(k, v);
  return o.render();
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Samples of one set-up repetition.
struct SetupSample {
  double construct_s = 0;
  double converge_s = 0;
  double warm_s = 0;
  double save_s = 0;
  double total_s = 0;
  std::uint64_t converge_events = 0;
  std::uint64_t setup_msgs = 0;
  std::uint64_t snapshot_bytes = 0;
  std::string digest;
};

/// Per-operation wall times of the measured phase, by layer call.
struct OpSample {
  double wall_s = 0;
  double run_s = 0;      // sim().run_until
  double send_s = 0;     // Host::send_udp
  double restore_s = 0;  // restore_snapshot
  double frames = 0;     // data frames delivered during the operation
};

/// Simulated outcome of one failure timeline (all in sim ms).
struct TimelineSample {
  double detect_ms = 0, notify_ms = 0, reroute_ms = 0, recover_ms = 0,
         convergence_ms = 0, blackhole_max_ms = 0;
  bool recovered = false;
};

/// The stateful part of one set-up: fabric plus the workload's traffic.
/// Destroyed (traffic first) before the next repetition builds its own.
class Workload {
 public:
  Workload(const Args& args, SpanLog& log) : args_(args), log_(log) {}
  virtual ~Workload() = default;

  /// Builds, converges and warms the fabric; returns the timings.
  SetupSample setup(bool engine_trace) {
    SetupSample s;
    Region total(log_, "setup");
    core::PortlandFabric::Options options = fabric_options();
    options.seed = args_.seed;
    options.obs.engine_trace = engine_trace;
    s.construct_s = timed(log_, "topo.construct", 0, [&] {
      fabric_ = std::make_unique<core::PortlandFabric>(options);
    });
    if (fabric_->engine_tracer() != nullptr) {
      tracer_offset_us_ = log_.now_us() - fabric_->engine_tracer()->now_us();
    }
    const std::uint64_t ev0 = sim().executed_events();
    const std::uint64_t msg0 = fabric_->control().messages_sent();
    bool converged = false;
    s.converge_s = timed(log_, "core.ldp.converge", 0, [&] {
      converged = fabric_->run_until_converged(seconds(60));
    });
    if (!converged) {
      std::fprintf(stderr, "perfbench_runner: LDP did not converge\n");
      std::exit(1);
    }
    s.converge_events = sim().executed_events() - ev0;
    s.setup_msgs = fabric_->control().messages_sent() - msg0;
    s.warm_s = timed(log_, "host.warm", 0, [&] {
      install_traffic();
      sim().run_until(sim().now() + warm_duration());
    });
    if (snapshot_in_setup()) {
      std::string err;
      bool ok = false;
      s.save_s = timed(log_, "sim.snapshot.save", 0, [&] {
        ok = fabric_->save_snapshot(image_, extras_, &err);
      });
      if (!ok) {
        std::fprintf(stderr, "perfbench_runner: snapshot save: %s\n",
                     err.c_str());
        std::exit(1);
      }
      s.snapshot_bytes = image_.size();
    }
    s.total_s = total.stop();
    Digest d;
    d.add(sim().executed_events());
    d.add(static_cast<std::uint64_t>(sim().now()));
    d.add(fabric_->control().messages_sent());
    d.add(fabric_->fabric_manager().host_count());
    d.add(s.snapshot_bytes);
    s.digest = d.hex();
    return s;
  }

  /// Tears down traffic and fabric (in that order).
  virtual void teardown() {
    extras_.clear();
    image_.clear();
    fabric_.reset();
  }

  /// Operations at least run; the first `prefix_ops()` define every
  /// count-based number and the outcome digest.
  virtual std::size_t prefix_ops() const { return 100; }

  /// Called once before the first measured operation.
  virtual void begin_measure() {}
  /// One measured operation; fills its layer-call timings.
  virtual void op(std::size_t index, OpSample& sample) = 0;
  /// Workloads whose operations restore a snapshot count each operation
  /// on its own: they call mark_baseline() right after the restore.
  virtual bool per_op_counts() const { return false; }
  /// Set by the runner for operations whose counts it collects.
  std::function<void()> baseline_hook;
  /// After the measured phase: drains and checks outcomes.
  virtual void finish() {}
  virtual AppCounts app_counts() const = 0;
  /// Outcome digest over everything the first prefix_ops() produced.
  virtual void digest_prefix(Digest& d) const = 0;
  /// Workload-specific results (sim outcomes, correctness) as JSON fields.
  virtual void report(JsonObject& o) const = 0;
  /// (attempted, failed) operations as the workload counts them;
  /// `measured` holds the counter deltas over the whole measured phase.
  [[nodiscard]] virtual std::pair<std::uint64_t, std::uint64_t> outcome(
      const Counts& measured) const = 0;

  sim::Simulator& sim() { return fabric_->sim(); }
  core::PortlandFabric& fabric() { return *fabric_; }
  [[nodiscard]] double tracer_offset_us() const { return tracer_offset_us_; }

 protected:
  virtual core::PortlandFabric::Options fabric_options() const = 0;
  virtual void install_traffic() = 0;
  virtual SimDuration warm_duration() const = 0;
  virtual bool snapshot_in_setup() const { return false; }

  /// Cross-pod destination for every host: a derangement of pods and a
  /// permutation of host slots, so each host sends one flow and receives
  /// one. Deterministic per seed.
  std::vector<std::size_t> cross_pod_permutation(Rng& rng) const {
    const auto& hosts = fabric_->hosts();
    const std::size_t n = hosts.size();
    const std::size_t pods = static_cast<std::size_t>(fabric_->options().k);
    const std::size_t per_pod = n / pods;
    std::vector<std::size_t> pod_perm = host::permutation_pairing(pods, rng);
    std::vector<std::vector<std::size_t>> slot_perm(pods);
    for (auto& p : slot_perm) {
      p.resize(per_pod);
      for (std::size_t i = 0; i < per_pod; ++i) p[i] = i;
      rng.shuffle(p);
    }
    std::vector<std::size_t> dst(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t to_pod = pod_perm[i / per_pod];
      dst[i] = to_pod * per_pod + slot_perm[to_pod][i % per_pod];
    }
    return dst;
  }

  void mark_baseline() {
    if (baseline_hook) baseline_hook();
  }

  const Args& args_;
  SpanLog& log_;
  std::unique_ptr<core::PortlandFabric> fabric_;
  std::vector<sim::Snapshotable*> extras_;
  std::vector<std::uint8_t> image_;
  double tracer_offset_us_ = 0;
};

// --- shuffle / shuffle_parallel --------------------------------------------

/// k=16 all-to-all shuffle bursts on 100 Gb/s links (the E18 shape): every
/// host sends 128 back-to-back 64-byte frames every 8 ms to one host in
/// another pod. One operation advances the simulation by 1 ms.
class Shuffle : public Workload {
 public:
  Shuffle(const Args& args, SpanLog& log, unsigned workers)
      : Workload(args, log), workers_(workers) {}

  void teardown() override {
    tx_.clear();
    rx_.clear();
    Workload::teardown();
  }

  void op(std::size_t, OpSample& s) override {
    s.run_s = timed(log_, "sim.run_until", 0,
                    [&] { sim().run_until(sim().now() + millis(1)); });
  }

  AppCounts app_counts() const override {
    AppCounts a;
    for (const auto& t : tx_) a.data_sent += t->packets_sent();
    for (const auto& r : rx_) a.data_recv += r->packets_received();
    return a;
  }

  void digest_prefix(Digest& d) const override {
    for (const auto& r : rx_) d.add(r->packets_received());
  }

  void report(JsonObject& o) const override {
    o.add("flows", static_cast<std::uint64_t>(tx_.size()));
  }
  /// Data frames sent, and those dropped by links or switches.
  std::pair<std::uint64_t, std::uint64_t> outcome(
      const Counts& measured) const override {
    return {measured.at("host.data_sent"),
            measured.at("switch.drops") + measured.at("link.drops")};
  }

 protected:
  core::PortlandFabric::Options fabric_options() const override {
    core::PortlandFabric::Options o;
    o.k = 16;
    o.workers = workers_;
    o.host_link.bandwidth_bps = 100e9;
    o.fabric_link.bandwidth_bps = 100e9;
    o.host_link.propagation = micros(5);
    o.fabric_link.propagation = micros(5);
    return o;
  }

  void install_traffic() override {
    Rng rng(args_.seed, 0x5F);
    const auto dst = cross_pod_permutation(rng);
    const auto& hosts = fabric_->hosts();
    const std::size_t n = hosts.size();
    // Phases spread evenly over the period, in a seed-shuffled order.
    std::vector<std::size_t> phase_slot(n);
    for (std::size_t i = 0; i < n; ++i) phase_slot[i] = i;
    rng.shuffle(phase_slot);
    for (std::size_t i = 0; i < n; ++i) {
      const auto port = static_cast<std::uint16_t>(9000 + i);
      rx_.push_back(std::make_unique<host::UdpFlowReceiver>(
          *hosts[dst[i]], port, /*record=*/false));
      host::UdpFlowSender::Config cfg;
      cfg.dst = hosts[dst[i]]->ip();
      cfg.src_port = cfg.dst_port = port;
      cfg.interval = kPeriod;
      cfg.payload_bytes = 64;
      cfg.burst = 128;
      cfg.phase = static_cast<SimDuration>(
          (static_cast<std::uint64_t>(kPeriod) * phase_slot[i]) / n);
      tx_.push_back(std::make_unique<host::UdpFlowSender>(*hosts[i], cfg));
      sim::ShardGuard guard(sim(), hosts[i]->shard());
      tx_.back()->start();
    }
  }

  /// ARP resolution and flow-cache fill finish within the first period.
  SimDuration warm_duration() const override { return 2 * kPeriod; }

 private:
  static constexpr SimDuration kPeriod = millis(8);
  unsigned workers_;
  std::vector<std::unique_ptr<host::UdpFlowReceiver>> rx_;
  std::vector<std::unique_ptr<host::UdpFlowSender>> tx_;
};

// --- failover_whatif --------------------------------------------------------

/// A multicast source ticking every millisecond, with its receivers'
/// delivery count; rides along with the snapshot as an extra.
class MulticastStream : public sim::Snapshotable {
 public:
  MulticastStream(core::PortlandFabric& fabric, host::Host& src,
                  const std::vector<host::Host*>& receivers)
      : timer_(fabric.sim(), millis(1), [this, &src] {
          src.send_udp_multicast(kGroup, 8000, 8001, {0});
          ++sent_;
        }) {
    for (host::Host* r : receivers) {
      r->join_group(kGroup, [this](Ipv4Address, std::uint16_t,
                                   std::uint16_t,
                                   std::span<const std::uint8_t>) {
        ++delivered_;
      });
    }
    timer_.start();
  }

  void save_state(sim::SnapshotWriter& w) const override {
    timer_.save_state(w);
    w.u64(sent_);
    w.u64(delivered_);
  }
  void restore_state(sim::SnapshotReader& r) override {
    timer_.restore_state(r);
    sent_ = r.u64();
    delivered_ = r.u64();
  }

  [[nodiscard]] std::uint64_t sent() const { return sent_; }
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }

 private:
  static constexpr Ipv4Address kGroup{224, 21, 0, 1};
  sim::PeriodicTimer timer_;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
};

/// k=16 on 1 Gb/s links under paced UDP probes, one TCP bulk flow and one
/// multicast group, with the convergence monitor and its loop check on.
/// Set-up ends with one snapshot; each operation is a what-if query:
/// restore, fail 3 fabric links, simulate until the timelines close, read
/// them.
class FailoverWhatIf : public Workload {
 public:
  using Workload::Workload;

  void teardown() override {
    mcast_.reset();
    probe_tx_.clear();
    probe_rx_.clear();
    tcp_ = nullptr;
    Workload::teardown();
  }

  bool per_op_counts() const override { return true; }

  void op(std::size_t q, OpSample& s) override {
    std::string err;
    bool restored = false;
    s.restore_s = timed(log_, "sim.snapshot.restore", q, [&] {
      restored = fabric_->restore_snapshot(image_, extras_, &err);
    });
    QueryOutcome out;
    if (!restored) {
      out.refused = true;
      queries_.push_back(out);
      return;
    }
    mark_baseline();
    const SimTime t0 = sim().now();
    Rng rng(args_.seed, 0x1000 + q);
    std::vector<sim::Link*> victims;
    timed(log_, "sim.failure.inject", q, [&] {
      victims = fabric_->failures().fail_random_links_at(
          fabric_->fabric_links(), kFaults, t0 + millis(1), rng);
    });
    s.run_s += timed(log_, "sim.run_until", q,
                     [&] { sim().run_until(t0 + kRepairAt); });
    timed(log_, "sim.failure.inject", q, [&] {
      for (sim::Link* l : victims) {
        fabric_->failures().repair_link_at(*l, sim().now());
      }
    });
    s.run_s += timed(log_, "sim.run_until", q,
                     [&] { sim().run_until(t0 + kRepairAt + millis(1)); });
    timed(log_, "obs.timelines", q, [&] {
      obs::ConvergenceMonitor& monitor = *fabric_->convergence_monitor();
      monitor.advance();
      out.open = monitor.open_timelines();
      out.loops = monitor.loop_violations();
      for (const obs::FailureTimeline& tl : monitor.completed()) {
        TimelineSample ts;
        auto rel = [&](SimTime t) {
          return t == 0 ? 0.0 : to_millis(t - tl.link_down);
        };
        ts.detect_ms = rel(tl.detect);
        ts.notify_ms = rel(tl.notify);
        ts.reroute_ms = rel(tl.reroute);
        ts.recover_ms = rel(tl.recovered);
        ts.recovered = tl.recovered != 0;
        ts.convergence_ms = to_millis(tl.convergence());
        for (const obs::BlackholeWindow& w : tl.blackholes) {
          ts.blackhole_max_ms =
              std::max(ts.blackhole_max_ms, to_millis(w.duration()));
        }
        out.timelines.push_back(ts);
      }
    });
    out.probe_sent = probes_sent();
    out.probe_recv = probes_received();
    out.mcast_delivered = mcast_->delivered();
    out.tcp_acked = tcp_ != nullptr ? tcp_->bytes_acked() : 0;
    out.tcp_retransmits = tcp_ != nullptr ? tcp_->retransmissions() : 0;
    queries_.push_back(std::move(out));
  }

  AppCounts app_counts() const override {
    AppCounts a;
    a.data_sent = probes_sent() + mcast_->sent();
    a.data_recv = probes_received() + mcast_->delivered();
    a.tcp_retransmits = tcp_ != nullptr ? tcp_->retransmissions() : 0;
    return a;
  }

  void digest_prefix(Digest& d) const override {
    const std::size_t n = std::min(prefix_ops(), queries_.size());
    for (std::size_t q = 0; q < n; ++q) {
      const QueryOutcome& o = queries_[q];
      d.add(o.refused);
      d.add(o.open);
      d.add(o.loops);
      d.add(o.probe_recv);
      d.add(o.mcast_delivered);
      d.add(o.tcp_acked);
      for (const TimelineSample& t : o.timelines) {
        for (double v : {t.detect_ms, t.notify_ms, t.reroute_ms, t.recover_ms,
                         t.convergence_ms, t.blackhole_max_ms}) {
          d.add(static_cast<std::uint64_t>(v * 1e6 + 0.5));
        }
      }
    }
  }

  void report(JsonObject& o) const override {
    const std::size_t n = std::min(prefix_ops(), queries_.size());
    std::vector<double> conv, detect, notify, reroute, recover, blackhole;
    std::uint64_t loops = 0, open = 0, refused = 0;
    std::uint64_t timelines = 0, unrecovered = 0;
    std::uint64_t sent = 0, recv = 0, retrans = 0;
    for (std::size_t q = 0; q < n; ++q) {
      const QueryOutcome& out = queries_[q];
      refused += out.refused;
      loops += out.loops;
      open += out.open;
      sent += out.probe_sent - base_probe_sent_;
      recv += out.probe_recv - base_probe_recv_;
      retrans += out.tcp_retransmits - base_tcp_retransmits_;
      for (const TimelineSample& t : out.timelines) {
        ++timelines;
        conv.push_back(t.convergence_ms);
        detect.push_back(t.detect_ms);
        notify.push_back(t.notify_ms);
        reroute.push_back(t.reroute_ms);
        if (t.recovered) {
          recover.push_back(t.recover_ms);
        } else {
          ++unrecovered;
        }
        blackhole.push_back(t.blackhole_max_ms);
      }
    }
    o.add("queries_prefix", static_cast<std::uint64_t>(n));
    o.add("timelines", timelines);
    o.add("timelines_unrecovered", unrecovered);
    o.add("convergence_ms", conv);
    o.add("detect_ms", detect);
    o.add("notify_ms", notify);
    o.add("reroute_ms", reroute);
    o.add("recover_ms", recover);
    o.add("blackhole_ms", blackhole);
    o.add("loop_violations", loops);
    o.add("open_timelines", open);
    o.add("refused", refused);
    o.add("probe_sent", sent);
    o.add("probe_recv", recv);
    o.add("tcp_retransmits", retrans);
  }

  /// Queries refused, left a timeline open, or saw a forwarding loop.
  std::pair<std::uint64_t, std::uint64_t> outcome(
      const Counts&) const override {
    std::uint64_t bad = 0;
    for (const QueryOutcome& o : queries_) {
      bad += (o.refused || o.open != 0 || o.loops != 0) ? 1 : 0;
    }
    return {queries_.size(), bad};
  }

  void begin_measure() override {
    // Restore points every query back to the snapshot, so the baselines
    // of the per-query application deltas are the snapshot's own values.
    base_probe_sent_ = probes_sent();
    base_probe_recv_ = probes_received();
    base_tcp_retransmits_ = tcp_ != nullptr ? tcp_->retransmissions() : 0;
  }

 protected:
  core::PortlandFabric::Options fabric_options() const override {
    core::PortlandFabric::Options o;
    o.k = 16;
    o.obs.convergence_monitor = true;
    o.obs.check_invariants = true;
    return o;
  }

  void install_traffic() override {
    core::PortlandFabric& f = *fabric_;
    const auto& hosts = f.hosts();
    const std::size_t n = hosts.size();
    const std::size_t per_pod = n / static_cast<std::size_t>(f.options().k);
    Rng rng(args_.seed, 0xF0);
    auto pod_of = [&](std::size_t i) { return i / per_pod; };
    for (std::size_t j = 0; j < kProbes; ++j) {
      std::size_t a = 0, b = 0;
      do {
        a = rng.next_below(n);
        b = rng.next_below(n);
      } while (pod_of(a) == pod_of(b));
      const auto port = static_cast<std::uint16_t>(7100 + j);
      probe_rx_.push_back(std::make_unique<host::UdpFlowReceiver>(
          *hosts[b], port, /*record=*/false));
      host::UdpFlowSender::Config cfg;
      cfg.dst = hosts[b]->ip();
      cfg.src_port = cfg.dst_port = port;
      cfg.interval = millis(1);
      cfg.payload_bytes = 64;
      cfg.phase = (millis(1) * static_cast<SimDuration>(j)) /
                  static_cast<SimDuration>(kProbes);
      probe_tx_.push_back(
          std::make_unique<host::UdpFlowSender>(*hosts[a], cfg));
      probe_tx_.back()->start();
    }
    std::size_t tcp_src = 0, tcp_dst = 0;
    do {
      tcp_src = rng.next_below(n);
      tcp_dst = rng.next_below(n);
    } while (pod_of(tcp_src) == pod_of(tcp_dst));
    hosts[tcp_dst]->tcp_listen(5001, [](host::TcpConnection&) {});
    tcp_ = hosts[tcp_src]->tcp_connect(hosts[tcp_dst]->ip(), 5001);
    tcp_->send(1'000'000'000'000ull);  // effectively unbounded
    // Multicast: a source and receivers in three other pods.
    const std::size_t src = rng.next_below(n);
    std::vector<host::Host*> receivers;
    std::vector<std::size_t> used{pod_of(src)};
    while (receivers.size() < 3) {
      const std::size_t r = rng.next_below(n);
      if (std::find(used.begin(), used.end(), pod_of(r)) != used.end()) {
        continue;
      }
      used.push_back(pod_of(r));
      receivers.push_back(hosts[r]);
    }
    mcast_ = std::make_unique<MulticastStream>(f, *hosts[src], receivers);
    for (const auto& t : probe_tx_) extras_.push_back(t.get());
    for (const auto& r : probe_rx_) extras_.push_back(r.get());
    extras_.push_back(mcast_.get());
  }

  SimDuration warm_duration() const override { return millis(100); }
  bool snapshot_in_setup() const override { return true; }

 private:
  static constexpr std::size_t kProbes = 256;
  static constexpr std::size_t kFaults = 3;
  /// Links come back this long after the query starts: past the 50 ms
  /// LDM timeout plus notify, reroute and the first recovered frame
  /// (convergence lands 45-60 ms after link_down at k=16).
  static constexpr SimDuration kRepairAt = millis(70);

  struct QueryOutcome {
    bool refused = false;
    std::uint64_t open = 0, loops = 0;
    std::uint64_t probe_sent = 0, probe_recv = 0, mcast_delivered = 0;
    std::uint64_t tcp_acked = 0, tcp_retransmits = 0;
    std::vector<TimelineSample> timelines;
  };

  std::uint64_t probes_sent() const {
    std::uint64_t s = 0;
    for (const auto& t : probe_tx_) s += t->packets_sent();
    return s;
  }
  std::uint64_t probes_received() const {
    std::uint64_t r = 0;
    for (const auto& x : probe_rx_) r += x->packets_received();
    return r;
  }

  std::vector<std::unique_ptr<host::UdpFlowReceiver>> probe_rx_;
  std::vector<std::unique_ptr<host::UdpFlowSender>> probe_tx_;
  std::unique_ptr<MulticastStream> mcast_;
  host::TcpConnection* tcp_ = nullptr;
  std::vector<QueryOutcome> queries_;
  std::uint64_t base_probe_sent_ = 0, base_probe_recv_ = 0,
                base_tcp_retransmits_ = 0;
};

// --- arp_storm --------------------------------------------------------------

/// k=32 with one FM registry shard per pod. A round is 5 ms of simulated
/// time in which every host sends one frame, in 8 staggered batches of
/// n/8 senders; one operation is one batch (its sends, then 625 us of
/// simulation). Rounds 0..3 are incast rounds (every host resolves one
/// service address; the first batch also fires a burst to 16 absent
/// addresses from 16 hosts); every later round sends each host's frame to
/// a fresh destination.
class ArpStorm : public Workload {
 public:
  using Workload::Workload;

  void teardown() override {
    delivered_.clear();
    Workload::teardown();
  }

  /// 250 ms of simulated storm: long enough for the absent-address
  /// retries (every 200 ms) to reach the edge negative caches.
  std::size_t prefix_ops() const override { return 400; }

  void begin_measure() override {
    const std::size_t n = fabric_->hosts().size();
    Rng rng(args_.seed, 0xA5);
    for (std::size_t t = 0; t < kIncastRounds; ++t) {
      incast_targets_.push_back(rng.next_below(n));
    }
    for (std::size_t i = 0; i < kAbsent; ++i) {
      absent_senders_.push_back(rng.next_below(n));
      absent_ips_.emplace_back(
          10, 250, static_cast<std::uint8_t>(i),
          static_cast<std::uint8_t>(1 + rng.next_below(250)));
    }
    offsets_.resize(n - 1);
    for (std::size_t i = 0; i < n - 1; ++i) offsets_[i] = i + 1;
    rng.shuffle(offsets_);
  }

  void op(std::size_t i, OpSample& s) override {
    const auto& hosts = fabric_->hosts();
    const std::size_t round = i / kBatches;
    if (round >= kIncastRounds + offsets_.size()) {
      std::fprintf(stderr, "perfbench_runner: arp_storm ran out of fresh "
                           "destinations\n");
      std::exit(1);
    }
    s.send_s = timed(log_, "host.send_udp", i, [&] {
      for_each_pair(i, [&](std::size_t src, std::size_t dst) {
        hosts[src]->send_udp(hosts[dst]->ip(), kPort, kPort, {1});
        ++sent_;
      });
      if (i == 0) {
        for (std::size_t a = 0; a < kAbsent; ++a) {
          hosts[absent_senders_[a]]->send_udp(absent_ips_[a], kPort + 1,
                                              kPort + 1, {1});
        }
      }
    });
    ops_ = i + 1;
    s.run_s = timed(log_, "sim.run_until", i, [&] {
      sim().run_until(sim().now() + kRoundGap / kBatches);
    });
  }

  void finish() override {
    // Drain stragglers, then check every storm resolution against the
    // fabric manager's registry.
    sim().run_until(sim().now() + millis(100));
    const auto& hosts = fabric_->hosts();
    const core::FabricManager& fm = fabric_->fabric_manager();
    const SimTime now = sim().now();
    for (std::size_t i = 0; i < ops_; ++i) {
      for_each_pair(i, [&](std::size_t src, std::size_t dst) {
        ++pairs_;
        const Ipv4Address ip = hosts[dst]->ip();
        const auto mac = hosts[src]->arp_cache().lookup(ip, now);
        if (!mac) {
          ++unanswered_;
          return;
        }
        const auto pmac = fm.lookup_pmac(ip);
        if (!pmac || *pmac != *mac) ++wrong_;
      });
    }
    registry_hosts_ = fm.host_count();
  }

  AppCounts app_counts() const override {
    AppCounts a;
    a.data_sent = sent_;
    for (std::uint64_t d : delivered_) a.data_recv += d;
    return a;
  }

  void digest_prefix(Digest& d) const override {
    for (std::uint64_t v : delivered_) d.add(v);
    // ARP answers: a sample of the PMACs hosts cached for their peers.
    const auto& hosts = fabric_->hosts();
    const SimTime now = fabric_->sim().now();
    std::size_t k = 0;
    for (std::size_t i = 0; i < std::min(ops_, prefix_ops()); ++i) {
      for_each_pair(i, [&](std::size_t src, std::size_t dst) {
        if (k++ % 7 != 0) return;
        const auto mac =
            hosts[src]->arp_cache().lookup(hosts[dst]->ip(), now);
        d.add(mac ? mac->to_u64() : 0);
      });
    }
    d.add(fabric_->fabric_manager().host_count());
  }

  void report(JsonObject& o) const override {
    o.add("batches", static_cast<std::uint64_t>(ops_));
    o.add("storm_pairs", pairs_);
    o.add("unanswered", unanswered_);
    o.add("wrong_pmac", wrong_);
    o.add("registry_hosts", registry_hosts_);
    o.add("hosts", static_cast<std::uint64_t>(fabric_->hosts().size()));
  }

  /// Storm resolutions, and those still unanswered after the drain.
  std::pair<std::uint64_t, std::uint64_t> outcome(
      const Counts&) const override {
    return {pairs_, unanswered_};
  }

 protected:
  core::PortlandFabric::Options fabric_options() const override {
    core::PortlandFabric::Options o;
    o.k = 32;
    o.config.fm_shards = 0;  // auto: one registry shard per pod
    // Bound the absent-address burst: two retries, then give up.
    o.host_config.arp_max_retries = 2;
    return o;
  }

  void install_traffic() override {
    const auto& hosts = fabric_->hosts();
    delivered_.assign(hosts.size(), 0);
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      hosts[i]->bind_udp(kPort, [this, i](Ipv4Address, std::uint16_t,
                                          std::uint16_t,
                                          std::span<const std::uint8_t>) {
        ++delivered_[i];
      });
    }
  }

  SimDuration warm_duration() const override { return millis(5); }

 private:
  static constexpr std::size_t kIncastRounds = 4;
  static constexpr std::size_t kBatches = 8;
  static constexpr std::size_t kAbsent = 16;
  static constexpr std::uint16_t kPort = 7200;
  static constexpr SimDuration kRoundGap = millis(5);

  /// Calls fn(src, dst) for every storm send of operation `i`.
  template <class F>
  void for_each_pair(std::size_t i, F&& fn) const {
    const std::size_t n = fabric_->hosts().size();
    const std::size_t round = i / kBatches;
    const std::size_t batch = i % kBatches;
    const std::size_t lo = batch * n / kBatches;
    const std::size_t hi = (batch + 1) * n / kBatches;
    for (std::size_t src = lo; src < hi; ++src) {
      if (round < kIncastRounds) {
        const std::size_t target = incast_targets_[round];
        if (src != target) fn(src, target);
      } else {
        fn(src, (src + offsets_[round - kIncastRounds]) % n);
      }
    }
  }

  std::vector<std::uint64_t> delivered_;
  std::vector<std::size_t> incast_targets_;
  std::vector<std::size_t> absent_senders_;
  std::vector<Ipv4Address> absent_ips_;
  std::vector<std::size_t> offsets_;
  std::uint64_t sent_ = 0;
  std::size_t ops_ = 0;
  std::uint64_t pairs_ = 0, unanswered_ = 0, wrong_ = 0, registry_hosts_ = 0;
};

std::unique_ptr<Workload> make_workload(const Args& args, SpanLog& log,
                                        unsigned* workers) {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  if (args.workload == "shuffle") {
    *workers = 0;
    return std::make_unique<Shuffle>(args, log, 0);
  }
  if (args.workload == "shuffle_parallel") {
    *workers = std::max(1u, std::min(2u, nproc / 2));
    return std::make_unique<Shuffle>(args, log, *workers);
  }
  *workers = 0;
  if (args.workload == "failover_whatif") {
    return std::make_unique<FailoverWhatIf>(args, log);
  }
  if (args.workload == "arp_storm") return std::make_unique<ArpStorm>(args, log);
  return nullptr;
}

// ---------------------------------------------------------------------------
// EngineTracer export: windows (with the union and sum of their shard
// slices) and classic dispatch chunks that fall inside the measured phase.
// ---------------------------------------------------------------------------

std::string engine_spans_json(const obs::EngineTracer& tracer, double offset,
                              double from_us) {
  using Kind = obs::EngineTracer::Span::Kind;
  const auto spans = tracer.merged();
  std::vector<const obs::EngineTracer::Span*> shards;
  std::string out = "[";
  bool first = true;
  auto emit = [&](const char* kind, double b, double e, double busy,
                  double covered, std::uint64_t events) {
    out += first ? "" : ",";
    first = false;
    out += "[" + quoted(kind) + "," + num(b + offset) + "," + num(e + offset) +
           "," + num(busy) + "," + num(covered) + "," + num(events) + "]";
  };
  // Shard slices sorted by begin; each belongs to the window containing it.
  for (const auto& s : spans) {
    if (s.kind == Kind::kShard) shards.push_back(&s);
  }
  std::size_t next = 0;
  for (const auto& s : spans) {
    if (s.wall_begin_us + offset < from_us) continue;
    if (s.kind == Kind::kDispatch) {
      emit("dispatch", s.wall_begin_us, s.wall_end_us, 0, 0, s.a);
    } else if (s.kind == Kind::kWindow) {
      while (next < shards.size() &&
             shards[next]->wall_begin_us < s.wall_begin_us) {
        ++next;
      }
      double busy = 0, covered = 0, reach = s.wall_begin_us;
      std::uint64_t events = 0;
      for (; next < shards.size() &&
             shards[next]->wall_begin_us <= s.wall_end_us;
           ++next) {
        const auto& sh = *shards[next];
        const double b = std::max(sh.wall_begin_us, s.wall_begin_us);
        const double e = std::min(sh.wall_end_us, s.wall_end_us);
        if (e <= b) continue;
        busy += e - b;
        events += sh.a;
        if (e > reach) {
          covered += e - std::max(b, reach);
          reach = e;
        }
      }
      emit("window", s.wall_begin_us, s.wall_end_us, busy, covered, events);
    }
  }
  return out + "]";
}

std::string spans_json(const SpanLog& log) {
  std::string out = "[";
  bool first = true;
  for (const auto& s : log.spans()) {
    out += first ? "" : ",";
    first = false;
    out += "[" + num(static_cast<std::uint64_t>(s.id)) + "," +
           num(static_cast<std::uint64_t>(s.parent)) + "," + quoted(s.name) +
           "," + num(s.begin_us) + "," + num(s.end_us) + "," + num(s.group) +
           "]";
  }
  return out + "]";
}

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

int run(const Args& args) {
  SpanLog log(args.trace);
  unsigned workers = 0;
  std::unique_ptr<Workload> w = make_workload(args, log, &workers);
  if (w == nullptr) usage("unknown workload");

  Calibration cal;
  Region run_span(log, "run");
  // --- set-up, repeated; the last repetition's fabric is measured -------
  std::vector<SetupSample> setups;
  for (int i = 0; i < args.setups; ++i) {
    if (i != 0) w->teardown();
    setups.push_back(w->setup(args.trace));
  }

  // --- measured phase ------------------------------------------------------
  const std::size_t prefix = w->prefix_ops();
  w->begin_measure();
  std::vector<OpSample> ops;
  std::vector<double> op_cal{cal.sample()};
  double since_cal_s = 0;
  Counts start = capture(w->fabric(), w->app_counts());
  Counts prefix_counts;  // deltas over the first `prefix` operations
  std::uint64_t prefix_table_bytes = 0;
  std::string digest;
  const double measure_from_us = log.now_us();
  double measured_s = 0;
  // Delivered-frame baseline: the previous operation's end, or for
  // restoring workloads the snapshot state every query starts from.
  std::uint64_t recv_base = w->app_counts().data_recv;
  {
    Region measure(log, "measure");
    while (ops.size() < prefix || measured_s < args.seconds) {
      const std::size_t i = ops.size();
      Counts before;
      double capture_s = 0;
      const bool count_op = w->per_op_counts() && i < prefix;
      w->baseline_hook = nullptr;
      if (count_op) {
        w->baseline_hook = [&] {
          Region cap(log, "bench.capture", i);
          before = capture(w->fabric(), w->app_counts());
          capture_s += cap.stop();
        };
      }
      OpSample s;
      {
        Region op(log, "op", i);
        w->op(i, s);
        s.wall_s = op.stop() - capture_s;
      }
      measured_s += s.wall_s;
      since_cal_s += s.wall_s;
      if (since_cal_s >= kOpCalEvery_s) {
        op_cal.push_back(cal.sample());
        since_cal_s = 0;
      }
      const std::uint64_t recv = w->app_counts().data_recv;
      s.frames = static_cast<double>(recv - recv_base);
      if (!w->per_op_counts()) recv_base = recv;
      ops.push_back(s);
      if (count_op) {
        prefix_counts += capture(w->fabric(), w->app_counts()) - before;
      }
      if (ops.size() == prefix) {
        if (!w->per_op_counts()) {
          prefix_counts = capture(w->fabric(), w->app_counts()) - start;
        }
        prefix_table_bytes = w->fabric().total_table_bytes().total();
        Digest d;
        w->digest_prefix(d);
        for (const auto& [k, v] : prefix_counts) d.add(v);
        d.add(prefix_table_bytes);
        digest = d.hex();
      }
    }
    measure.stop();
  }
  const Counts full = capture(w->fabric(), w->app_counts()) - start;
  w->finish();
  run_span.stop();

  // --- output ----------------------------------------------------------------
  JsonObject o;
  o.str("workload", args.workload);
  o.add("seed", args.seed);
  o.add("trace", static_cast<std::uint64_t>(args.trace));
  o.add("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  o.add("workers", static_cast<std::uint64_t>(workers));
  o.str("build_type", PERFBENCH_BUILD_TYPE);
  o.add("k", static_cast<std::uint64_t>(w->fabric().options().k));
  o.add("hosts", static_cast<std::uint64_t>(w->fabric().hosts().size()));
  o.add("switches", static_cast<std::uint64_t>(w->fabric().switches().size()));
  o.add("table_bytes", prefix_table_bytes);
  o.add("peak_rss_bytes", static_cast<std::uint64_t>(peak_rss_bytes()));
  {
    std::string arr = "[";
    for (std::size_t i = 0; i < setups.size(); ++i) {
      const SetupSample& s = setups[i];
      JsonObject so;
      so.add("total_s", s.total_s)
          .add("construct_s", s.construct_s)
          .add("converge_s", s.converge_s)
          .add("warm_s", s.warm_s)
          .add("save_s", s.save_s)
          .add("converge_events", s.converge_events)
          .add("setup_msgs", s.setup_msgs)
          .add("snapshot_bytes", s.snapshot_bytes)
          .str("digest", s.digest);
      arr += (i == 0 ? "" : ",") + so.render();
    }
    o.raw("setups", arr + "]");
  }
  {
    std::vector<double> wall, run, send, restore, frames;
    for (const OpSample& s : ops) {
      frames.push_back(s.frames);
      wall.push_back(s.wall_s);
      run.push_back(s.run_s);
      send.push_back(s.send_s);
      restore.push_back(s.restore_s);
    }
    JsonObject op;
    op.add("wall_s", wall)
        .add("run_s", run)
        .add("send_s", send)
        .add("restore_s", restore)
        .add("frames", frames);
    o.raw("ops", op.render());
    o.add("cal_s", op_cal);
  }
  o.add("prefix_ops", static_cast<std::uint64_t>(prefix));
  o.raw("prefix_counts", counts_json(prefix_counts));
  o.raw("full_counts", counts_json(full));
  o.str("digest", digest);
  const auto [attempted, failed] = w->outcome(full);
  o.add("attempted", attempted);
  o.add("failed", failed);
  {
    JsonObject wr;
    w->report(wr);
    o.raw("workload_report", wr.render());
  }
  if (args.trace) {
    o.raw("spans", spans_json(log));
    const obs::EngineTracer* tracer = w->fabric().engine_tracer();
    o.raw("engine_spans",
          tracer != nullptr
              ? engine_spans_json(*tracer, w->tracer_offset_us(),
                                  measure_from_us)
              : "[]");
    o.add("engine_spans_dropped",
          tracer != nullptr ? tracer->spans_dropped() : 0);
  }
  w->teardown();

  std::FILE* f = std::fopen(args.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench_runner: cannot write %s\n",
                 args.out.c_str());
    return 1;
  }
  const std::string text = o.render() + "\n";
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return run(parse_args(argc, argv)); }
