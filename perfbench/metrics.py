"""Metric arithmetic for the repo benchmark.

Pure functions over the runner's raw JSON documents (see runner.cc): the
percentile and self-time helpers, and the end-to-end and per-layer metric
definitions. run.py does the process handling and printing.
"""

import json
import math
import os
import statistics
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(HERE, "spec.json")

# Candidate tail percentiles, highest first. A timing reports its p50 plus
# the highest of these with at least TAIL_MIN_BEYOND samples beyond it.
TAIL_CANDIDATES = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10

# Layer spans whose self time the traced run reports, as shares of the
# measured phase.
SELF_LAYERS = (
    "sim.run_until",
    "sim.engine.dispatch",
    "sim.engine.window",
    "sim.engine.shard",
    "sim.snapshot.restore",
    "sim.failure.inject",
    "host.send_udp",
    "obs.timelines",
)

# Workloads whose operations each restore a snapshot: their counts are
# per-operation deltas over the first prefix_ops queries.
RESTORING = ("failover_whatif",)


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Statistics helpers
# ---------------------------------------------------------------------------


def percentile(values, p):
    """Linear-interpolated percentile (0 <= p <= 100) of `values`."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    if len(xs) == 1:
        return float(xs[0])
    rank = (len(xs) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def tail_percentile(n):
    """Highest candidate percentile with >= TAIL_MIN_BEYOND of n samples
    beyond it, or None when n is too small for any candidate."""
    for p in TAIL_CANDIDATES:
        if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND - 1e-9:
            return p
    return None


def timing(values, scale=1.0):
    """p50, tail percentile and sample count of a list of timings."""
    xs = [v * scale for v in values]
    out = {"p50": percentile(xs, 50) if xs else 0.0, "n": len(xs)}
    tail = tail_percentile(len(xs))
    if tail is not None:
        out["tail_pct"] = tail
        out["tail"] = percentile(xs, tail)
    return out


def ratio(num, den):
    """A ratio with its numerator and denominator; 0 when den is 0."""
    return {"value": num / den if den else 0.0, "num": num, "den": den}


def log2_histogram_percentile(buckets, over, p):
    """Percentile of a host latency histogram whose bucket b counts values
    in (2**(b-1), 2**b] (bucket 0: [0, 1]); linear within the bucket.
    Values past the last bucket count as the last bucket's bound."""
    total = sum(buckets) + over
    if total == 0:
        return 0.0
    want = p / 100.0 * total
    cum = 0
    for b, count in enumerate(buckets):
        if count and cum + count >= want:
            lo = 0.0 if b == 0 else float(2 ** (b - 1))
            hi = float(2 ** b)
            return lo + (hi - lo) * (want - cum) / count
        cum += count
    return float(2 ** (len(buckets) - 1))


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


def covered_length(intervals, begin, end):
    """Length of [begin, end] covered by the union of `intervals`."""
    clipped = sorted(
        (max(b, begin), min(e, end)) for b, e in intervals if e > begin and b < end
    )
    total = 0.0
    reach = begin
    for b, e in clipped:
        if e <= reach:
            continue
        total += e - max(b, reach)
        reach = e
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    its children cover (overlapping children count once). `spans` are dicts
    with id, parent (0 = root), begin, end, and optionally `covered`: time
    inside the span covered by untracked children, disjoint from tracked
    ones. Returns {id: self_time}."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"]:
            children[s["parent"]].append((s["begin"], s["end"]))
    out = {}
    for s in spans:
        inside = covered_length(children.get(s["id"], ()), s["begin"], s["end"])
        dur = s["end"] - s["begin"]
        out[s["id"]] = max(0.0, dur - inside - s.get("covered", 0.0))
    return out


def span_tree(doc):
    """The traced run's spans as dicts, with the engine's windows and
    dispatch chunks attached as children of the sim.run_until call that
    contains them; a window's shard slices become its `covered` amount."""
    spans = [
        {"id": i, "parent": p, "name": n, "begin": b, "end": e, "group": g}
        for i, p, n, b, e, g in doc.get("spans", [])
    ]
    runs = sorted(
        (s for s in spans if s["name"] == "sim.run_until"), key=lambda s: s["begin"]
    )
    next_id = max((s["id"] for s in spans), default=0) + 1
    ri = 0
    engine = sorted(doc.get("engine_spans", []), key=lambda e: e[1])
    for kind, b, e, busy, covered, events in engine:
        while ri < len(runs) and runs[ri]["end"] < b:
            ri += 1
        if ri == len(runs) or runs[ri]["begin"] > b:
            continue  # outside any measured run_until call
        parent = runs[ri]
        span = {
            "id": next_id,
            "parent": parent["id"],
            "name": "sim.engine." + kind,
            "begin": b,
            "end": e,
            "group": parent["group"],
            "busy": busy,
            "shard_covered": covered,
            "events": events,
        }
        next_id += 1
        spans.append(span)
        if kind == "window" and covered > 0:
            # Shard slices run on worker threads inside the window; their
            # union is exported as one amount, accounted to the shards.
            span["covered"] = covered
    return spans


def trace_breakdown(doc):
    """Per-layer self-time shares of the measured phase, the unattributed
    share, and engine-span statistics from a traced run."""
    spans = span_tree(doc)
    selfs = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    measure = [s for s in spans if s["name"] == "measure"]
    if not measure:
        raise ValueError("traced run has no measure span")
    m = measure[0]
    ops = [s for s in spans if s["name"] == "op" and s["parent"] == m["id"]]
    captures = [s for s in spans if s["name"] == "bench.capture"]
    measured = sum(s["end"] - s["begin"] for s in ops) - sum(
        s["end"] - s["begin"] for s in captures
    )
    self_by_layer = defaultdict(float)

    def in_measure(s):
        p = s
        while p["parent"]:
            p = by_id[p["parent"]]
            if p is m:
                return True
        return False

    for s in spans:
        if s["name"] in ("op", "measure", "bench.capture") or not in_measure(s):
            continue
        self_by_layer[s["name"]] += selfs[s["id"]]
        if s["name"] == "sim.engine.window":
            self_by_layer["sim.engine.shard"] += s.get("covered", 0.0)
    unattributed = sum(selfs[s["id"]] for s in ops)
    windows = [s for s in spans if s["name"] == "sim.engine.window"]
    dispatch = [s for s in spans if s["name"] == "sim.engine.dispatch"]
    engine_durations = [s["end"] - s["begin"] for s in windows or dispatch]
    window_time = sum(s["end"] - s["begin"] for s in windows)
    return {
        "measured_us": measured,
        "self_us": dict(self_by_layer),
        "unattributed_us": unattributed,
        "engine_span_us": engine_durations,
        "window_us": window_time,
        "window_busy_us": sum(s["busy"] for s in windows),
        "window_shard_covered_us": sum(s["shard_covered"] for s in windows),
    }


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _prefix_wall(doc, key="wall_s"):
    return sum(doc["ops"][key][: doc["prefix_ops"]])


# Wall times of the measured phase are reported in reference time: wall
# time x CAL_REF_S / the mean time of the runner's calibration kernel (a
# fixed event loop sharing no code with the library, sampled after every
# ~50 ms of operations). Other tenants of a shared machine slow the kernel
# together with the workload; on a machine where it takes CAL_REF_S,
# reference time is wall time. Means on both sides, so that a slow stretch
# weighs the same in the operations and in the calibration: over ten runs
# this spread 2-3x less than wall time, less than medians or trimmed means.
CAL_REF_S = 0.002


def ref_scale(doc):
    """Reference seconds per wall second of a run's measured phase."""
    return CAL_REF_S / statistics.mean(doc["cal_s"])


def end_to_end(doc):
    """{name: {"value", "unit", ...detail}} for an untraced run.

    Throughput and operation time are over all measured operations, in
    reference time; set-up time is wall time. The details keep the
    unscaled wall figures."""
    ops = doc["ops"]
    scale = ref_scale(doc)
    setups = [s["total_s"] for s in doc["setups"]]
    wall = sum(ops["wall_s"])
    frames = sum(ops["frames"])
    n = len(ops["wall_s"])
    attempted, failed = doc["attempted"], doc["failed"]
    return {
        "setup_s": dict(timing(setups), value=statistics.median(setups), unit="s"),
        "frames_per_s": {"value": frames / (wall * scale), "unit": "frames/ref_s",
                         "ops": n, "wall_frames_per_s": frames / wall,
                         "cal_ms": CAL_REF_S / scale * 1e3,
                         "cal_samples": len(doc["cal_s"])},
        "op_ms_mean": dict(timing(ops["wall_s"], scale * 1e3),
                           value=wall * scale * 1e3 / n, unit="ref_ms",
                           wall_ms=wall * 1e3 / n),
        "peak_rss_mb": {"value": doc["peak_rss_bytes"] / 1e6, "unit": "MB"},
        "ok_frac": dict(
            ratio(attempted - failed, attempted), unit="ratio",
            attempted=attempted, failed=failed,
        ),
    }


def _shard_values(counts, prefix):
    return [v for k, v in counts.items() if k.startswith(prefix)]


def _timeline_p(report, key, p):
    xs = report.get(key, [])
    return percentile(xs, p) if xs else 0.0


def per_layer(untraced, traced, parallel=None):
    """{name: {"value", "unit", ...detail}} from an untraced run and a
    traced run of the same workload and seed. `parallel`, an untraced and a
    traced run of the same inputs on the sharded engine, gives the sim.par
    metrics; without it they are 0."""
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    c = untraced["prefix_counts"]
    setups = untraced["setups"]
    ops = untraced["ops"]
    report = untraced["workload_report"]
    queries = untraced["prefix_ops"] if untraced["workload"] in RESTORING else 0
    data = c["host.data_recv"]
    res = c["host.arp_resolutions"]
    out = {}

    def put(name, entry):
        if isinstance(entry, (int, float)):
            entry = {"value": float(entry)}
        out[name] = dict(entry, unit=units[name])

    def median_of(key):
        vals = [s[key] for s in setups]
        return dict(timing(vals), value=statistics.median(vals))

    put("topo.construct_s", median_of("construct_s"))
    put("core.ldp.converge_s", median_of("converge_s"))
    put("core.ldp.converge_events", setups[0]["converge_events"])
    put("core.control.setup_msgs", setups[0]["setup_msgs"])
    put("core.control.msgs_per_resolution", ratio(c["control.msgs"], res))
    put("core.control.bytes_per_resolution", ratio(c["control.bytes"], res))
    put("core.control.msgs_per_query", ratio(c["control.msgs"], queries))
    put("core.fm.queries_per_resolution", ratio(c["fm.arp_queries"], res))
    shard_q = _shard_values(c, "fm.arp_queries.")
    put("core.fm.shard_max_share", ratio(max(shard_q, default=0), c["fm.arp_queries"]))
    put("core.fm.fault_notifies_per_query", ratio(c["fm.fault_notifications"], queries))
    hits, misses = c["switch.flow_cache_hits"], c["switch.flow_cache_misses"]
    put("core.switch.flow_cache_hit_ratio", ratio(hits, hits + misses))
    put("core.switch.fib_rebuilds", c["switch.fib_rebuilds"])
    put("core.switch.prune_updates_per_query",
        ratio(c["switch.prune_updates_applied"], queries))
    put("core.switch.drops", c["switch.drops"])
    put("core.switch.arp_coalesce_ratio",
        ratio(c["switch.arp_coalesced"], c["host.arp_requests"]))
    put("core.switch.arp_negative_hits", c["switch.arp_negative_hits"])
    put("core.switch.arp_fallback_broadcasts", c["switch.arp_fallback_broadcasts"])
    put("core.switch.table_bytes_per_host",
        ratio(untraced["table_bytes"], untraced["hosts"]))
    put("net.parses_per_hop", ratio(c["net.parse_calls"], c["link.hops"]))
    meta = c["net.meta_hits"] + c["net.meta_attaches"]
    put("net.meta_hit_ratio", ratio(c["net.meta_hits"], meta))
    put("net.rewrite_copies_per_frame", ratio(c["net.rewrite_copies"], data))

    run_prefix = _prefix_wall(untraced, "run_s")
    put("sim.run_s", dict(timing(ops["run_s"]), value=sum(ops["run_s"])))
    put("sim.ns_per_event", {
        "value": run_prefix * 1e9 / c["sim.executed"] if c["sim.executed"] else 0.0,
        "num_s": run_prefix, "den": c["sim.executed"]})
    put("sim.events_per_frame", ratio(c["sim.executed"], data))
    put("sim.inserts_per_frame", ratio(c["sim.nodes_pushed"], data))
    put("sim.train_share", ratio(c["sim.train_frames"], c["link.hops"]))
    put("sim.train_len", ratio(c["sim.train_frames"], c["sim.trains_popped"]))
    put("sim.train_repush_ratio", ratio(c["sim.train_repushes"], c["sim.trains_popped"]))
    put("sim.wheel.cascades_per_insert",
        ratio(c["sim.wheel.cascaded"], c["sim.wheel.inserts"]))
    put("sim.wheel.erases_per_insert", ratio(c["sim.wheel.erases"], c["sim.wheel.inserts"]))
    put("sim.link.hops_per_frame", ratio(c["link.hops"], data))
    put("sim.link.drops", c["link.drops"])

    pc = parallel[0]["prefix_counts"] if parallel else c
    windows = pc["sim.windows"]
    put("sim.par.events_per_window", ratio(pc["sim.executed"], windows))
    put("sim.par.inline_share", ratio(pc["sim.windows_inline"], windows))
    put("sim.par.mail_per_window", ratio(pc["sim.mail_merged"], windows))
    put("sim.par.widened_share", ratio(pc["sim.windows_widened"], windows))
    shard_ev = _shard_values(pc, "sim.shard_executed.")
    mean_ev = sum(shard_ev) / len(shard_ev) if shard_ev else 0
    put("sim.par.shard_imbalance", ratio(max(shard_ev, default=0), mean_ev))
    if parallel:
        serial = end_to_end(untraced)["frames_per_s"]["value"]
        sharded = end_to_end(parallel[0])["frames_per_s"]["value"]
        put("sim.par.speedup", {"value": sharded / serial, "workers":
                                parallel[0]["workers"], "sharded_frames_per_s":
                                sharded, "serial_frames_per_s": serial})
    else:
        put("sim.par.speedup", {"value": 0.0, "workers": 0})

    br = trace_breakdown(traced)
    measured_us = br["measured_us"]
    eng = br["engine_span_us"]
    put("sim.engine.span_us_p50", dict(timing(eng), value=percentile(eng, 50) if eng else 0.0))
    pbr = trace_breakdown(parallel[1]) if parallel else br
    workers = parallel[1]["workers"] if parallel else traced["workers"]
    put("sim.par.barrier_wait_share", ratio(
        workers * pbr["window_us"] - pbr["window_busy_us"], workers * pbr["window_us"]))
    put("sim.par.coordinator_serial_share", ratio(
        pbr["window_us"] - pbr["window_shard_covered_us"], pbr["window_us"]))

    saves = [s["save_s"] / s["total_s"] for s in setups]
    put("sim.snapshot.save_setup_share", {"value": statistics.median(saves), "n": len(saves)})
    wall = sum(ops["wall_s"])
    put("sim.snapshot.restore_share", {"value": sum(ops["restore_s"]) / wall,
                                       "num_s": sum(ops["restore_s"]), "den_s": wall})
    put("sim.snapshot.bytes_per_host", ratio(setups[0]["snapshot_bytes"], untraced["hosts"]))

    put("host.send_share", {"value": sum(ops["send_s"]) / wall,
                            "num_s": sum(ops["send_s"]), "den_s": wall})
    put("host.arp_requests_per_resolution", ratio(c["host.arp_requests"], res))
    put("host.warm_s", median_of("warm_s"))
    put("host.tcp_retransmits_per_query", ratio(c["host.tcp_retransmits"], queries))
    sent, recv = report.get("probe_sent", 0), report.get("probe_recv", 0)
    put("host.probe_loss_frac", ratio(sent - recv, sent))
    prefix_wall = _prefix_wall(untraced)
    put("host.resolutions_per_s", {"value": res / prefix_wall, "num": res,
                                   "den_s": prefix_wall})
    buckets = [c["host.arp_latency_us.le_%d" % (1 << b)] for b in range(16)]
    over = c["host.arp_latency_us.over"]
    for p, name in ((50, "host.arp_latency_us_p50"), (99, "host.arp_latency_us_p99")):
        put(name, {"value": log2_histogram_percentile(buckets, over, p),
                   "n": sum(buckets) + over})

    n_tl = len(report.get("convergence_ms", []))
    put("obs.convergence_ms_p50", {"value": _timeline_p(report, "convergence_ms", 50), "n": n_tl})
    put("obs.convergence_ms_max", {"value": _timeline_p(report, "convergence_ms", 100), "n": n_tl})
    put("obs.detect_ms_p50", {"value": _timeline_p(report, "detect_ms", 50), "n": n_tl})
    put("obs.notify_ms_p50", {"value": _timeline_p(report, "notify_ms", 50), "n": n_tl})
    put("obs.reroute_ms_p50", {"value": _timeline_p(report, "reroute_ms", 50), "n": n_tl})
    put("obs.recover_ms_p50", {"value": _timeline_p(report, "recover_ms", 50),
                               "n": len(report.get("recover_ms", []))})
    put("obs.blackhole_ms_max", {"value": _timeline_p(report, "blackhole_ms", 100), "n": n_tl})
    put("obs.loop_violations", report.get("loop_violations", 0))

    untraced_p50 = timing(ops["wall_s"])["p50"]
    traced_p50 = timing(traced["ops"]["wall_s"])["p50"]
    put("trace.overhead_frac", {"value": (traced_p50 - untraced_p50) / untraced_p50,
                                "traced_op_ms_p50": traced_p50 * 1e3,
                                "untraced_op_ms_p50": untraced_p50 * 1e3})
    put("trace.unattributed_share", ratio(br["unattributed_us"], measured_us))
    for layer in SELF_LAYERS:
        put("trace.self_share." + layer,
            ratio(br["self_us"].get(layer, 0.0), measured_us))
    return out


def count_metrics(doc):
    """Every count-based number a run produces (must repeat exactly for a
    seed): the prefix counts and the set-up counts."""
    out = {"prefix." + k: v for k, v in doc["prefix_counts"].items()}
    s = doc["setups"][0]
    for key in ("converge_events", "setup_msgs", "snapshot_bytes"):
        out["setup." + key] = s[key]
    out["table_bytes"] = doc["table_bytes"]
    return out
