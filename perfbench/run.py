#!/usr/bin/env python3
"""The PortLand repo benchmark: one command per workload.

    python3 perfbench/run.py --workload shuffle --seed 1 --seconds 10 --trace 0

Builds the runner (perfbench/CMakeLists.txt, Release, into
.bench_build/perfbench), runs the workload from the seed in its own process
and prints every metric with its unit. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics of an untraced run. --trace 1 runs
the workload untraced and then traced (spans around every layer call plus
the engine's EngineTracer) and reports the per-layer metrics, self times
and tracing overhead. For shuffle it also runs the same inputs on the
sharded engine (shuffle_parallel, untraced and traced) for the sim.par
metrics. Metric definitions live in metrics.py; their units,
modules and the end-to-end metric each should move live in spec.json.

Correctness gate (exit status 1, result line with "correct": false):
set-up repetitions, the untraced and traced runs, and earlier runs of the
same seed on the same sources must agree on the outcome digest and on every
count; every ARP answer must match the fabric manager's registry; the
convergence monitor must see no forwarding loop. Exit status 2: usage or
build error (for example, no library sources next to perfbench/).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402

WORKLOADS = ("shuffle", "failover_whatif", "arp_storm")
# The shuffle inputs on the sharded engine: measured only by shuffle's
# --trace 1, for the per-layer sim.par metrics. Its worker threads share
# the machine with other tenants, too unsteady for an end-to-end bound.
PARALLEL = "shuffle_parallel"
PARALLEL_SECONDS = 10  # measured seconds of each sharded-engine run, at most
SETUPS = 5  # set-up repetitions per process; setup_s is their median
RUN_BUDGET_S = 170  # for all workload processes of one invocation


def die(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def source_sha():
    """Content hash of the library sources and the runner."""
    h = hashlib.sha256()
    files = []
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in sorted(filenames)
                      if f.endswith((".cc", ".h", ".txt"))]
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "fabric.h")):
        die("library sources not found under %s/src" % ROOT)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--parallel", jobs])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=880).returncode
        except (OSError, subprocess.SubprocessError) as e:
            die("build step failed: %s" % e)
        if rc != 0:
            die("build step failed: %s" % " ".join(cmd))
    return os.path.join(out, "perfbench_runner")


def run_workload(runner, workload, seed, seconds, trace, deadline):
    runs = os.path.join(build_dir(), "runs")
    os.makedirs(runs, exist_ok=True)
    path = os.path.join(runs, "%s-%d-trace%d.json" % (workload, seed, trace))
    cmd = [runner, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace),
           "--setups", str(SETUPS if not trace else 1), "--out", path]
    try:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            timeout=max(1.0, deadline - time.monotonic())
                            ).returncode
    except subprocess.TimeoutExpired:
        die("runner timed out: %s" % " ".join(cmd), 1)
    if rc != 0:
        die("runner failed (exit %d): %s" % (rc, " ".join(cmd)), 1)
    with open(path) as f:
        return json.load(f)


def gate(docs, workload, seed, sha):
    """Correctness problems across the runs of this invocation and earlier
    runs of the same seed on the same sources; [] when all is well."""
    problems = []
    setup_digests = {s["digest"] for d in docs for s in d["setups"]}
    if len(setup_digests) != 1:
        problems.append("set-up outcome differs between repetitions: %s"
                        % sorted(setup_digests))
    first = docs[0]
    for other in docs[1:]:
        if other["digest"] != first["digest"]:
            problems.append("outcome digest differs between untraced and "
                            "traced runs")
        a, b = metrics.count_metrics(first), metrics.count_metrics(other)
        diff = sorted(k for k in a if a[k] != b.get(k))
        if diff:
            problems.append("counts differ between untraced and traced runs: "
                            + ", ".join(diff[:8]))
    for d in docs:
        report = d["workload_report"]
        if report.get("wrong_pmac", 0):
            problems.append("%d ARP answers disagree with the fabric "
                            "manager's registry" % report["wrong_pmac"])
        if report.get("loop_violations", 0):
            problems.append("%d forwarding-loop violations"
                            % report["loop_violations"])
    # Repeats of one seed across invocations (same sources only).
    cache_dir = os.path.join(build_dir(), "digests")
    os.makedirs(cache_dir, exist_ok=True)
    cache = os.path.join(cache_dir, "%s-%d.json" % (workload, seed))
    record = {"source": sha, "digest": first["digest"],
              "setup_digest": sorted(setup_digests)[0],
              "counts": metrics.count_metrics(first)}
    if os.path.isfile(cache):
        with open(cache) as f:
            old = json.load(f)
        if old.get("source") == sha:
            if old["digest"] != record["digest"] or \
                    old["setup_digest"] != record["setup_digest"]:
                problems.append("outcome digest differs from an earlier run "
                                "of seed %d" % seed)
            diff = sorted(k for k in record["counts"]
                          if record["counts"][k] != old["counts"].get(k))
            if diff:
                problems.append("counts differ from an earlier run of seed "
                                "%d: %s" % (seed, ", ".join(diff[:8])))
    if not problems:
        with open(cache, "w") as f:
            json.dump(record, f)
    return problems


def describe(entry):
    """The detail fields of a metric entry, for the human-readable lines."""
    keys = [k for k in entry if k not in ("value", "unit")]
    parts = []
    for k in keys:
        v = entry[k]
        parts.append("%s=%s" % (k, ("%.6g" % v) if isinstance(v, float) else v))
    return " ".join(parts)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        die("--seconds must be positive")

    runner = build()
    deadline = time.monotonic() + RUN_BUDGET_S
    sha = source_sha()
    untraced = run_workload(runner, args.workload, args.seed, args.seconds, 0,
                            deadline)
    docs = [untraced]
    parallel = None
    if args.trace:
        traced = run_workload(runner, args.workload, args.seed, args.seconds, 1,
                              deadline)
        docs.append(traced)
        if args.workload == "shuffle":
            seconds = min(args.seconds, PARALLEL_SECONDS)
            parallel = [run_workload(runner, PARALLEL, args.seed, seconds, t,
                                     deadline) for t in (0, 1)]
        values = metrics.per_layer(untraced, traced, parallel)
        names = [m["name"] for m in metrics.load_spec()["per_layer"]]
    else:
        values = metrics.end_to_end(untraced)
        names = [m["name"] for m in metrics.load_spec()["end_to_end"]]
    if sorted(values) != sorted(names):
        die("metric set does not match spec.json: %s"
            % sorted(set(values) ^ set(names)))
    problems = gate(docs, args.workload, args.seed, sha)
    if parallel:
        problems += gate(parallel, PARALLEL, args.seed, sha)
    attempted, failed = untraced["attempted"], untraced["failed"]

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": untraced["nproc"],
        "workers": untraced["workers"],
        "build_type": untraced["build_type"],
        "commit": commit() or "none (not a git checkout)",
        "source_sha": sha,
        "ops": len(untraced["ops"]["wall_s"]),
        "prefix_ops": untraced["prefix_ops"],
        "digest": untraced["digest"],
    }
    print("perfbench %s" % " ".join("%s=%s" % kv for kv in stamp.items()))
    for name in names:
        e = values[name]
        print("  %-36s %14.6g %-10s %s" % (name, e["value"], e["unit"],
                                          describe(e)))
    for p in problems:
        print("  GATE FAILED: " + p)
    print("perfbench-report " + json.dumps(
        {"stamp": stamp, "metrics": values, "gate": problems,
         "workload_report": {k: v for k, v in untraced["workload_report"].items()
                             if not isinstance(v, list)}},
        sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {n: {"value": values[n]["value"], "unit": values[n]["unit"]}
                    for n in names},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
