#include "obs/metrics.h"

#include <cinttypes>
#include <cstdio>

namespace portland::obs {

namespace {

void append_escaped(std::string* out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
}

void append_u64_field(std::string* out, const char* key, std::uint64_t v,
                      bool trailing_comma = true) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\":%" PRIu64 "%s", key, v,
                trailing_comma ? "," : "");
  out->append(buf);
}

void append_snapshot_json(std::string* out, const MetricsSnapshot& s) {
  char buf[96];
  out->append("{");
  std::snprintf(buf, sizeof(buf), "\"t_ns\":%" PRId64 ",",
                static_cast<std::int64_t>(s.t));
  out->append(buf);

  out->append("\"engine\":{");
  append_u64_field(out, "executed", s.engine.executed);
  append_u64_field(out, "windows", s.engine.windows);
  append_u64_field(out, "mail_merged", s.engine.mail_merged);
  append_u64_field(out, "barrier_tasks", s.engine.barrier_tasks);
  append_u64_field(out, "pending", s.engine.pending);
  append_u64_field(out, "trains_popped", s.engine.trains_popped);
  append_u64_field(out, "train_frames", s.engine.train_frames);
  append_u64_field(out, "train_repushes", s.engine.train_repushes);
  append_u64_field(out, "nodes_pushed", s.engine.nodes_pushed);
  append_u64_field(out, "windows_inline", s.engine.windows_inline);
  append_u64_field(out, "windows_widened", s.engine.windows_widened);
  append_u64_field(out, "wheel_inserts", s.engine.wheel_inserts);
  append_u64_field(out, "wheel_erases", s.engine.wheel_erases);
  append_u64_field(out, "wheel_cascaded", s.engine.wheel_cascaded);
  append_u64_field(out, "wheel_overflow_rehomed",
                   s.engine.wheel_overflow_rehomed);
  out->append("\"per_shard_executed\":[");
  for (std::size_t i = 0; i < s.engine.per_shard_executed.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%" PRIu64, i == 0 ? "" : ",",
                  s.engine.per_shard_executed[i]);
    out->append(buf);
  }
  out->append("]},");

  out->append("\"parse\":{");
  append_u64_field(out, "parse_calls", s.parse.parse_calls);
  append_u64_field(out, "meta_hits", s.parse.meta_hits);
  append_u64_field(out, "meta_attaches", s.parse.meta_attaches);
  append_u64_field(out, "rewrite_copies", s.parse.rewrite_copies);
  append_u64_field(out, "rewrite_in_place", s.parse.rewrite_in_place, false);
  out->append("},");

  out->append("\"memory\":{");
  append_u64_field(out, "switch_table_bytes", s.memory.switch_table_bytes);
  append_u64_field(out, "host_table_bytes", s.memory.host_table_bytes);
  append_u64_field(out, "fib_bytes", s.memory.fib_bytes);
  append_u64_field(out, "arena_bytes", s.memory.arena_bytes);
  append_u64_field(out, "rss_bytes", s.memory.rss_bytes, false);
  out->append("},");

  out->append("\"devices\":{");
  bool first_dev = true;
  for (const DeviceSample& d : s.devices) {
    if (!first_dev) out->append(",");
    first_dev = false;
    out->append("\"");
    append_escaped(out, d.name);
    out->append("\":{");
    for (std::size_t i = 0; i < d.counters.size(); ++i) {
      if (i != 0) out->append(",");
      out->append("\"");
      append_escaped(out, d.counters[i].first);
      out->append("\":");
      std::snprintf(buf, sizeof(buf), "%" PRIu64, d.counters[i].second);
      out->append(buf);
    }
    out->append("}");
  }
  out->append("},");

  out->append("\"links\":{");
  bool first_link = true;
  for (const LinkSample& l : s.links) {
    if (!first_link) out->append(",");
    first_link = false;
    out->append("\"");
    append_escaped(out, l.name);
    out->append("\":{");
    out->append(l.up ? "\"up\":1," : "\"up\":0,");
    append_u64_field(out, "tx_frames", l.tx_frames);
    append_u64_field(out, "tx_bytes", l.tx_bytes);
    append_u64_field(out, "dropped", l.dropped);
    append_u64_field(out, "queue_bytes", l.queue_bytes, false);
    out->append("}");
  }
  out->append("}}\n");
}

bool write_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

/// Prometheus label values allow any UTF-8, but the exposition format
/// requires `\` -> `\\`, `"` -> `\"`, and newline -> the two-character
/// sequence `\n` (a literal newline would split the sample line).
void append_prom_label(std::string* out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '\\': out->append("\\\\"); break;
      case '"': out->append("\\\""); break;
      case '\n': out->append("\\n"); break;
      default: out->push_back(c);
    }
  }
}

}  // namespace

MetricsSnapshot& MetricsRegistry::begin_snapshot(SimTime t) {
  snapshots_.emplace_back();
  snapshots_.back().t = t;
  return snapshots_.back();
}

bool MetricsRegistry::write_jsonl(const std::string& path) const {
  std::string out;
  out.reserve(1 << 16);
  for (const MetricsSnapshot& s : snapshots_) append_snapshot_json(&out, s);
  return write_file(path, out);
}

std::string MetricsRegistry::render_prometheus() const {
  if (snapshots_.empty()) return {};
  const MetricsSnapshot& s = snapshots_.back();
  std::string out;
  out.reserve(1 << 15);
  char buf[96];

  std::snprintf(buf, sizeof(buf), "portland_sim_time_ns %" PRId64 "\n",
                static_cast<std::int64_t>(s.t));
  out.append(buf);
  const std::pair<const char*, std::uint64_t> engine_metrics[] = {
      {"portland_engine_executed", s.engine.executed},
      {"portland_engine_windows", s.engine.windows},
      {"portland_engine_mail_merged", s.engine.mail_merged},
      {"portland_engine_barrier_tasks", s.engine.barrier_tasks},
      {"portland_engine_pending", s.engine.pending},
      {"portland_engine_trains_popped", s.engine.trains_popped},
      {"portland_engine_train_frames", s.engine.train_frames},
      {"portland_engine_train_repushes", s.engine.train_repushes},
      {"portland_engine_nodes_pushed", s.engine.nodes_pushed},
      {"portland_engine_windows_inline", s.engine.windows_inline},
      {"portland_engine_windows_widened", s.engine.windows_widened},
      {"portland_wheel_inserts", s.engine.wheel_inserts},
      {"portland_wheel_erases", s.engine.wheel_erases},
      {"portland_wheel_cascaded", s.engine.wheel_cascaded},
      {"portland_wheel_overflow_rehomed", s.engine.wheel_overflow_rehomed},
      {"portland_parse_calls", s.parse.parse_calls},
      {"portland_parse_meta_hits", s.parse.meta_hits},
      {"portland_parse_meta_attaches", s.parse.meta_attaches},
      {"portland_parse_rewrite_copies", s.parse.rewrite_copies},
      {"portland_parse_rewrite_in_place", s.parse.rewrite_in_place},
      {"portland_memory_switch_table_bytes", s.memory.switch_table_bytes},
      {"portland_memory_host_table_bytes", s.memory.host_table_bytes},
      {"portland_memory_fib_bytes", s.memory.fib_bytes},
      {"portland_memory_arena_bytes", s.memory.arena_bytes},
      {"portland_memory_rss_bytes", s.memory.rss_bytes},
  };
  for (const auto& [name, value] : engine_metrics) {
    std::snprintf(buf, sizeof(buf), "%s %" PRIu64 "\n", name, value);
    out.append(buf);
  }
  for (std::size_t i = 0; i < s.engine.per_shard_executed.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "portland_shard_executed{shard=\"%zu\"} %" PRIu64 "\n", i,
                  s.engine.per_shard_executed[i]);
    out.append(buf);
  }

  for (const DeviceSample& d : s.devices) {
    for (const auto& [counter, value] : d.counters) {
      out.append("portland_device_counter{device=\"");
      append_prom_label(&out, d.name);
      out.append("\",counter=\"");
      append_prom_label(&out, counter);
      std::snprintf(buf, sizeof(buf), "\"} %" PRIu64 "\n", value);
      out.append(buf);
    }
  }

  for (const LinkSample& l : s.links) {
    const std::pair<const char*, std::uint64_t> link_metrics[] = {
        {"up", l.up ? 1u : 0u},
        {"tx_frames", l.tx_frames},
        {"tx_bytes", l.tx_bytes},
        {"dropped", l.dropped},
        {"queue_bytes", l.queue_bytes},
    };
    for (const auto& [what, value] : link_metrics) {
      out.append("portland_link_");
      out.append(what);
      out.append("{link=\"");
      append_prom_label(&out, l.name);
      std::snprintf(buf, sizeof(buf), "\"} %" PRIu64 "\n", value);
      out.append(buf);
    }
  }

  return out;
}

bool MetricsRegistry::write_prometheus(const std::string& path) const {
  if (snapshots_.empty()) return true;
  return write_file(path, render_prometheus());
}

}  // namespace portland::obs
